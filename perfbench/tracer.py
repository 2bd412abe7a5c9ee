"""Per-layer tracing from outside the program.

The tracer wraps each layer function at every module binding of it: a
function imported by name into another module (``interchange_canonical_form``
into ``matching``, ``polygraph``, ``translate`` and ``oracle``, say) is
called through that module's own name, so wrapping the home module alone
would miss those calls.  The bindings of ``find_matches`` and ``replace_at``
inside ``proofdiag.oracle`` are reported apart, as ``oracle.bfs.*``, because
only the oracle's breadth-first search calls them there; every other binding
counts under ``matching.*``.

Each call is a span (name, parent span, start, end) kept in memory.  A
layer's self time is its span time minus the time of its child spans.
Nothing here changes a file of the program, and ``uninstall`` puts every
binding back.
"""
from __future__ import annotations

import functools
import sys
from array import array
from importlib import import_module
from time import perf_counter_ns

# importlib, because the package re-exports the function ``polygraph`` under
# the name of its module.
bigtwist = import_module("proofdiag.bigtwist")
diagram = import_module("proofdiag.diagram")
diagramio = import_module("proofdiag.diagramio")
matching = import_module("proofdiag.matching")
oracle = import_module("proofdiag.oracle")
polygraph = import_module("proofdiag.polygraph")
sequent = import_module("proofdiag.sequent")
translate = import_module("proofdiag.translate")

# (metric prefix, home module, function name): wrapped at every binding.
FUNCTIONS = (
    ("diagram.compose_seq", diagram, "compose_seq"),
    ("diagram.compose_par", diagram, "compose_par"),
    ("diagram.interchange_canonical_form", diagram, "interchange_canonical_form"),
    ("matching.find_matches", matching, "find_matches"),
    ("matching.replace_at", matching, "replace_at"),
    ("matching.rewrite_block", matching, "rewrite_block"),
    ("polygraph.normalize", polygraph, "normalize"),
    ("polygraph.apply_once", polygraph, "apply_once"),
    ("bigtwist.crossing_splits_of", bigtwist, "crossing_splits_of"),
    ("translate.represent", translate, "represent"),
    ("translate.is_sequentializable", translate, "is_sequentializable"),
    ("translate.sequentialize", translate, "sequentialize"),
    ("translate.boundary_sequent", translate, "boundary_sequent"),
    ("sequent.provable", sequent, "provable"),
    ("sequent.check_derivation", sequent, "check_derivation"),
    ("oracle.equivalent", oracle, "equivalent"),
    ("oracle.diagrams_equivalent", oracle, "diagrams_equivalent"),
    ("oracle.eliminate_cuts", oracle, "eliminate_cuts"),
    ("diagramio.diagram_text", diagramio, "diagram_text"),
    ("diagramio.parse_diagram", diagramio, "parse_diagram"),
)

# Bindings inside the oracle that get their own name.
ORACLE_BFS = {"find_matches": "oracle.bfs.find_matches", "replace_at": "oracle.bfs.replace_at"}

RULE_CLASSES = (
    ("schema", polygraph.SchemaRule),
    ("word", polygraph.WordRule),
    ("sigma", polygraph.SigmaRule),
    ("procedural", polygraph.ProceduralRule),
)

# Spans kept for the spans file; calls beyond it still count and time.
MAX_SPANS = 2_000_000

SPAN_NAMES = (
    [name for name, _, _ in FUNCTIONS]
    + ["diagram.OpSeq.of"]
    + list(ORACLE_BFS.values())
    + [f"polygraph.find.{kind}" for kind, _ in RULE_CLASSES]
    + ["polygraph.apply"]
)
COUNT_NAMES = (
    "diagram.Diagram.constructed",
    "matching.find_matches.sites",
    "matching.find_matches.hits",
    "polygraph.steps",
    "translate.is_sequentializable.comparisons",
    "oracle.verdict.yes",
    "oracle.verdict.no",
    "oracle.verdict.unknown",
)


def metric_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNT_NAMES:
        if name != "matching.find_matches.hits":
            units[name] = "count"
    units["matching.find_matches.hit_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Spans and counts for one traced run; install, run, uninstall."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.calls = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0
        self._stack: list = []  # [span index, child nanoseconds]
        self._patched: list = []  # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self.ids[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(self.span_name) < MAX_SPANS:
                idx = len(self.span_name)
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_start.append(0)
                self.span_end.append(0)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                self.calls[nid] += 1
                self.self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    self.span_start[idx] = start
                    self.span_end[idx] = end
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- counts -------------------------------------------------------------

    def _count_sites(self, sites, args, kwargs):
        self.counts["matching.find_matches.sites"] += len(sites)
        self.counts["matching.find_matches.hits"] += bool(sites)

    def _count_step(self, result, args, kwargs):
        self.counts["polygraph.steps"] += result is not None

    def _count_verdict(self, cert, args, kwargs):
        self.counts[f"oracle.verdict.{cert.verdict}"] += 1

    def _sequentializable(self, fn):
        def counted(phi, counter=None):
            c = counter if counter is not None else translate.ComparisonCounter()
            before = c.n
            try:
                return fn(phi, c)
            finally:
                self.counts["translate.is_sequentializable.comparisons"] += c.n - before

        return functools.wraps(fn)(counted)

    def _constructed(self, init):
        counts = self.counts

        def counted(obj, *args, **kwargs):
            counts["diagram.Diagram.constructed"] += 1
            return init(obj, *args, **kwargs)

        return functools.wraps(init)(counted)

    # -- install ------------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every binding of the traced functions in proofdiag and in
        ``extra_modules`` (the benchmark's own callers)."""
        after = {
            "matching.find_matches": self._count_sites,
            "polygraph.apply_once": self._count_step,
            "oracle.diagrams_equivalent": self._count_verdict,
        }
        wrappers = {}
        for name, home, attr in FUNCTIONS:
            fn = getattr(home, attr)
            if attr == "is_sequentializable":
                fn = self._sequentializable(fn)
            wrappers[id(getattr(home, attr))] = self._wrap(name, fn, after.get(name))
        bfs = {
            attr: self._wrap(name, getattr(matching, attr)) for attr, name in ORACLE_BFS.items()
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("proofdiag")]
        for module in list(modules) + list(extra_modules):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is None:
                    continue
                if module is oracle and attr in bfs:
                    self._set(module, attr, bfs[attr])
                else:
                    self._set(module, attr, hit)
        of = diagram.OpSeq.__dict__["of"].__func__
        self._set(diagram.OpSeq, "of", staticmethod(self._wrap("diagram.OpSeq.of", of)))
        self._set(diagram.Diagram, "__init__", self._constructed(diagram.Diagram.__init__))
        for kind, cls in RULE_CLASSES:
            self._set(cls, "find", self._wrap(f"polygraph.find.{kind}", cls.__dict__["find"]))
            self._set(cls, "apply", self._wrap("polygraph.apply", cls.__dict__["apply"]))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, nid in self.ids.items():
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_ns[nid] / 1e9
        for name, value in self.counts.items():
            if name != "matching.find_matches.hits":
                out[name] = value
        calls = self.calls[self.ids["matching.find_matches"]]
        hits = self.counts["matching.find_matches.hits"]
        out["matching.find_matches.hit_ratio"] = hits / calls if calls else 0.0
        return out

    def write_spans(self, path):
        """One line per span: index, parent index, name, start and end in ns."""
        with open(path, "w") as f:
            f.write("span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                f.write(
                    f"{i},{self.span_parent[i]},{SPAN_NAMES[self.span_name[i]]},"
                    f"{self.span_start[i]},{self.span_end[i]}\n"
                )
