"""The four benchmark workloads, written against the public proofdiag API.

Each workload has three phases, and the worker times only the second:

- ``setup(seed, seconds)`` builds the polygraphs and generates every input
  from the seed (same seed, same inputs);
- ``run(state, log)`` is the timed region, one closed loop with one client:
  each item starts only after the previous one has finished, and
  ``log.item`` records it (and probes the host speed between items);
- ``check(state, log)`` verifies the outputs kept by ``run`` and feeds the
  content digest.

The amount of work is fixed by ``--seconds`` through nominal per-round
costs measured at the seed commit on the adjusted clock of ``hostspeed``,
never by the clock, so two commits (and two traced runs) do the same work
for the same seed.  Runs shorter than ``FULL_SCALE_SECONDS`` use a tiny
scale, meant for the benchmark's own tests.
"""
from __future__ import annotations

import random
from time import perf_counter

from proofdiag.diagram import (
    EMPTY,
    AxGate,
    BotGate,
    CutGate,
    Diagram,
    L,
    OneGate,
    ParGate,
    R,
    TensorGate,
    TwistGate,
    compose_seq,
    gate_count,
    identity,
    interchange_canonical_form,
    is_formula_label,
    parallel,
    single,
)
from proofdiag.diagramio import diagram_text, parse_diagram
from proofdiag.formula import Tensor, atom, negate
from proofdiag.interp import cut_weight
from proofdiag.oracle import diagrams_equivalent, eliminate_cuts, equivalent
from proofdiag.perm import Permutation
from proofdiag.polygraph import normalize, polygraph
from proofdiag.sequent import (
    ExchangeR,
    NotApplicable,
    ax,
    bot,
    check_derivation,
    cut,
    cut_step,
    exchange,
    find_cut_paths,
    one,
    par,
    provable,
    sim_neighbors,
    subderivations,
    tensor,
)
from proofdiag.translate import (
    ComparisonCounter,
    boundary_sequent,
    is_sequentializable,
    represent,
    sequentialize,
)

FULL_SCALE_SECONDS = 10

A = atom("a")
B = atom("b")
SWAP = Permutation((2, 1))

# The Sem rules whose application must lower interp.cut_weight (criterion 5).
CUT_RULES = frozenset(
    {
        "cut-ax-left",
        "cut-ax-right",
        "cut-tensor-par",
        "cut-par-tensor",
        "cut-bot-one",
        "cut-one-bot",
    }
)


class RunLog:
    """What one run did: item times, failures and the kept outputs."""

    def __init__(self, speed):
        self.speed = speed  # a hostspeed.HostSpeed, probed between items
        self.items: list[tuple[float, float]] = []  # (start, end) of each item
        self.checkpoints: list[tuple[float, float]] = []  # timed work that is no item
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # outputs that failed a check
        self.errors: list[str] = []  # operations that raised or gave no usable output
        self.steps = 0  # rewrite steps, where the workload has them
        self.digest_parts: list[str] = []
        self.notes: dict = {}

    def item(self, t0: float):
        """One item started at ``t0`` has just ended."""
        t1 = perf_counter()
        self.items.append((t0, t1))
        self.speed.maybe_probe(t1)

    def attempt(self, op, *args):
        """Run one operation; a raise counts as a failed operation."""
        self.attempted += 1
        try:
            return True, op(*args)
        except Exception as e:  # the benchmark must keep running and report it
            self.fail(f"{getattr(op, '__name__', op)}: {type(e).__name__}: {e}")
            return False, None

    def fail(self, what: str):
        """An operation that raised or gave no usable output."""
        self.failed += 1
        self.errors.append(what[:300])

    def expect(self, ok: bool, what: str):
        """Record one output check; a wrong output is a failed operation."""
        if not ok:
            self.failed += 1
            self.wrong.append(what[:300])


def _full(seconds: float) -> bool:
    return seconds >= FULL_SCALE_SECONDS


def _rounds(seconds: float, nominal_round_s: float) -> int:
    return max(1, round(seconds / nominal_round_s))


# ---------------------------------------------------------------------------
# Seeded derivations, after the recipe of the test suite's generators


def random_exchange(rng: random.Random, d):
    n = len(d.conclusion)
    if n < 2:
        return d
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return exchange(d, Permutation(tuple(images)))


def random_cutfree(rng: random.Random, budget: int):
    """A random valid derivation with at most ``budget`` non-exchange rules."""
    pool = [ax(A), ax(B), ax(negate(A)), one()]
    d = rng.choice(pool)
    used = 1
    while used < budget:
        roll = rng.random()
        if roll < 0.25 and len(d.conclusion) >= 2:
            d = par(d, rng.randint(1, len(d.conclusion) - 1))
        elif roll < 0.45:
            d = bot(d)
        elif roll < 0.75:
            other = rng.choice(pool)
            d = tensor(d, other) if rng.random() < 0.5 else tensor(other, d)
            used += 1
        else:
            d = random_exchange(rng, d)
        used += 1
    check_derivation(d)
    return d


def random_with_cut(rng: random.Random, budget: int):
    d1 = random_cutfree(rng, max(1, budget - 2))
    d = cut(d1, ax(negate(d1.conclusion[-1])))
    check_derivation(d)
    return d


# ---------------------------------------------------------------------------
# enumerate: criterion 3, the exhaustive controlled correspondence


class Enumerate:
    name = "enumerate"
    why = (
        "criterion 3 through the public API: thousands of tiny diagrams, nearly all the time "
        "in diagram construction and canonical form, and zero matcher calls"
    )
    # depth -> (diagrams with at most that many gates, sequentializable ones)
    EXPECTED = {3: (1013, 75), 4: (21099, 407)}
    NOMINAL_CLOSURE_S = 5.8  # depth-4 closure at the seed commit
    NOMINAL_SAMPLE_S = 0.0105  # extending one 4-gate diagram to 5 gates

    @staticmethod
    def moves(word):
        out = []
        n = len(word)
        for p in range(n + 1):
            for g in (AxGate(A, True), AxGate(negate(A), True), OneGate(True), BotGate()):
                out.append((g, p))
        for p in range(n - 1):
            x, y = word[p], word[p + 1]
            if is_formula_label(x) and is_formula_label(y):
                out.append((TwistGate(x, y), p))
                out.append((ParGate(x, y), p))
        for p in range(n - 3):
            x, r, l, y = word[p : p + 4]
            if is_formula_label(x) and r == R and l == L and is_formula_label(y):
                out.append((TensorGate(x, y, True), p))
                if y == negate(x):
                    out.append((CutGate(x, True), p))
        return out

    @staticmethod
    def successor(phi, gate, pos):
        w = phi.output
        step = parallel(identity(w[:pos]), single(gate), identity(w[pos + len(gate.inputs) :]))
        return interchange_canonical_form(compose_seq(phi, step))

    def setup(self, seed: int, seconds: float):
        depth = 4 if _full(seconds) else 3
        spare = seconds - (self.NOMINAL_CLOSURE_S if depth == 4 else 0.3)
        sample = max(1, round(spare / self.NOMINAL_SAMPLE_S))
        return {"depth": depth, "sample": sample, "rng": random.Random(seed)}

    def _expand(self, state, log, phi, seen, out):
        for gate, pos in self.moves(phi.output):
            t0 = perf_counter()
            ok, nxt = log.attempt(self.successor, phi, gate, pos)
            if not ok or nxt in seen:
                continue
            seen.add(nxt)
            seq = is_sequentializable(nxt)
            res = (nxt, seq, None, None, None)
            if seq:
                gamma = boundary_sequent(nxt)
                res = (nxt, seq, gamma, provable(gamma), log.attempt(sequentialize, nxt)[1])
            log.item(t0)
            state["items"].append(res)
            if out is not None:
                out.append(nxt)

    def run(self, state, log):
        state["items"] = []
        seen = {EMPTY}
        frontier = [EMPTY]
        for _ in range(state["depth"]):
            new: list = []
            for phi in frontier:
                self._expand(state, log, phi, seen, new)
            frontier = new
        state["closure"] = len(state["items"])
        for phi in state["rng"].sample(frontier, min(state["sample"], len(frontier))):
            self._expand(state, log, phi, seen, None)

    def check(self, state, log):
        depth = state["depth"]
        closure = state["items"][: state["closure"]]
        n_seq = sum(1 for it in closure if it[1])
        want = self.EXPECTED[depth]
        log.attempted += 1
        log.expect(
            (state["closure"], n_seq) == want,
            f"depth {depth}: {state['closure']} diagrams, {n_seq} sequentializable, expected {want}",
        )
        for nxt, seq, gamma, prov, d in state["items"]:
            part = f"{nxt!r}|{seq}"
            if seq:
                log.expect(prov is True, f"unprovable boundary {gamma}")
                if d is not None:  # else sequentialize raised, counted already
                    log.expect(
                        d.conclusion == gamma,
                        f"sequentialization of {nxt!r} does not conclude {gamma}",
                    )
                part += f"|{d!r}"
            log.digest_parts.append(part)
        log.notes.update(
            depth=depth,
            closure_diagrams=state["closure"],
            closure_sequentializable=n_seq,
            sampled=state["sample"],
            new_diagrams=len(state["items"]),
        )


# ---------------------------------------------------------------------------
# cutelim: criterion 5, Sem cut elimination as derivations grow


class CutElim:
    name = "cutelim"
    why = (
        "Sem cut elimination on growing derivations: matching, rewriting and re-canonicalization "
        "whose cost per step grows with diagram size, so incremental matching shows in the tail"
    )
    # Each round draws one derivation per entry: the target gate count of its
    # representation.  Gate count predicts the cost of a derivation far better
    # than its budget, so fixing the counts keeps seeds comparable.  A third
    # of the items are 16-gate ones and hold the p50; a quarter are 32-gate
    # ones and hold the tail percentile, so that neither falls on the border
    # of two sizes.  Above 32 gates an item costs 1-4 s with a threefold
    # spread at one size, and too few fit in a run to keep the spread between
    # seeds small.
    GATES_FULL = (8, 10, 12, 14, 16, 16, 16, 24, 32, 32, 32, 16)
    GATES_TINY = (8, 12, 16, 20)
    NOMINAL_ROUND_S = 1.36

    @staticmethod
    def gates(d) -> int:
        """Gates of ``represent(d)`` without building it: one per rule, and one
        twist per inversion of each exchange."""
        n = 0
        for _, sub in subderivations(d):
            if isinstance(sub.rule, ExchangeR):
                im = sub.rule.perm.images
                n += sum(1 for i in range(len(im)) for j in range(i + 1, len(im)) if im[i] > im[j])
            else:
                n += 1
        return n

    def draw(self, rng: random.Random, gates: int):
        """A seeded cut derivation whose diagram has ``gates`` gates, or the
        closest of a bounded number of draws."""
        best = None
        for _ in range(2000):
            d = random_with_cut(rng, rng.randint(max(3, gates * 2 // 3), gates + 2))
            g = self.gates(d)
            if best is None or abs(g - gates) < abs(best[0] - gates):
                best = (g, d)
            if g == gates:
                break
        return best[1]

    def setup(self, seed: int, seconds: float):
        rng = random.Random(seed)
        targets = self.GATES_FULL if _full(seconds) else self.GATES_TINY
        rounds = _rounds(seconds, self.NOMINAL_ROUND_S) if _full(seconds) else 1
        derivs = [self.draw(rng, g) for _ in range(rounds) for g in targets]
        return {"sem": polygraph("Sem"), "derivations": derivs}

    @staticmethod
    def _one(d):
        phi = represent(d)
        nf, trace = eliminate_cuts(phi)
        return phi, nf, trace, sequentialize(nf)

    def run(self, state, log):
        state["results"] = results = []
        for d in state["derivations"]:
            t0 = perf_counter()
            ok, res = log.attempt(self._one, d)
            log.item(t0)
            results.append(res)
            if ok:
                log.steps += len(res[2].steps)

    @staticmethod
    def replay_weights(sem, trace):
        """Replay a trace step by step, as ``RewriteTrace.replay`` does, and
        record ``interp.cut_weight`` before and after each step.  One pass
        serves both checks, because replaying costs about as much as the
        elimination itself."""
        cur = interchange_canonical_form(trace.initial)
        w = cut_weight(cur)
        weights = []
        for rule_name, site in trace.steps:
            cur = sem.rule(rule_name).apply(cur, site)
            w2 = cut_weight(cur)
            weights.append((rule_name, w, w2))
            w = w2
        return cur, weights

    def check(self, state, log):
        sem = state["sem"]
        for d, res in zip(state["derivations"], state["results"]):
            if res is None:
                log.digest_parts.append(f"{d!r}|raised")
                continue
            phi, nf, trace, d2 = res
            log.expect(gate_count(nf, {"cut", "big"}) == 0, f"cut or B gates left in {nf!r}")
            ok, replay = log.attempt(self.replay_weights, sem, trace)
            if ok:
                final, weights = replay
                log.expect(final == nf == trace.final, f"replay of {d!r} differs")
                for rule_name, before, after in weights:
                    if rule_name in CUT_RULES:
                        log.expect(after < before, f"{rule_name} did not lower the cut weight")
            log.expect(
                not find_cut_paths(d2) and d2.conclusion == boundary_sequent(phi),
                f"sequentialization of {d!r} has cuts or another conclusion",
            )
            rules = ",".join(r for r, _ in trace.steps)
            log.digest_parts.append(f"{d!r}|{nf!r}|{rules}|{d2!r}")
        log.notes.update(derivations=len(state["derivations"]), rewrite_steps=log.steps)


# ---------------------------------------------------------------------------
# oracle: criterion 7, the bounded equivalence oracle


def critical_peak_normal_forms():
    """The two distinct Sem normal forms of criterion 6's critical peak."""
    c, d = atom("c"), atom("d")
    peak = interchange_canonical_form(
        Diagram(
            (A, B, c, R, L, d),
            (
                (TwistGate(A, B), c, R, L, d),
                (B, TwistGate(A, c), R, L, d),
                (TwistGate(B, c), TensorGate(A, d, True)),
                (c, TwistGate(B, Tensor(A, d))),
                (TwistGate(c, Tensor(A, d)), B),
            ),
        )
    )
    sem = polygraph("Sem")
    yb = sem.rule("yang-baxter")
    s1, s2 = yb.find(peak)[:2]
    n1, _ = normalize(sem, yb.apply(peak, s1))
    n2, _ = normalize(sem, yb.apply(peak, s2))
    return sem, n1, n2


class Oracle:
    name = "oracle"
    why = (
        "the matcher and rewriter in the unoriented direction: fast-path pairs set the p50, "
        "breadth-first searches over reversed schemas and about 10^3 hashed diagrams set the tail"
    )
    SIM_PAIRS = 8
    CUT_STEP_PAIRS = 6
    # One search bound for every pair.  The fast path does not depend on it;
    # it caps the rare seeded pair whose normal forms differ (at the default
    # bound 12 / budget 2000 one such pair took a minute).
    BOUND = 4
    NODE_BUDGET = 400
    NOMINAL_ROUND_S = 1.18

    def setup(self, seed: int, seconds: float):
        rng = random.Random(seed)
        rounds = _rounds(seconds, self.NOMINAL_ROUND_S) if _full(seconds) else 1
        sem, n1, n2 = critical_peak_normal_forms()
        core = tensor(exchange(ax(A), SWAP), ax(A))
        flipped = exchange(core, Permutation((3, 2, 1)))
        search = (self.BOUND, "sem", self.NODE_BUDGET)
        # (kind, equivalent in truth, recorded verdict, oracle entry point, arguments)
        pairs = []
        for _ in range(rounds):
            for _ in range(self.SIM_PAIRS):
                while True:
                    d = random_cutfree(rng, rng.randint(2, 8))
                    ns = sim_neighbors(d)
                    if ns:
                        break
                pairs.append(("sim", True, "yes", "equivalent", (d, rng.choice(ns), *search)))
            for _ in range(self.CUT_STEP_PAIRS):
                stepped = None
                while stepped is None:
                    d = random_with_cut(rng, rng.randint(3, 8))
                    for path in find_cut_paths(d):
                        try:
                            stepped = cut_step(d, path)
                            break
                        except NotApplicable:
                            continue
                pairs.append(("cut_step", True, "yes", "equivalent", (d, stepped, *search)))
            pairs.append(
                (
                    "critical_peak",
                    True,
                    "yes",
                    "diagrams_equivalent",
                    (sem, n1, n2, self.BOUND, self.NODE_BUDGET),
                )
            )
            pairs.append(("nondegeneracy", False, "unknown", "equivalent", (core, flipped, *search)))
        return {"pairs": pairs}

    def run(self, state, log):
        state["certs"] = certs = []
        for _, _, _, call, args in state["pairs"]:
            # looked up here, not at set-up, so that a traced run sees the call
            fn = equivalent if call == "equivalent" else diagrams_equivalent
            t0 = perf_counter()
            ok, cert = log.attempt(fn, *args)
            log.item(t0)
            certs.append(cert)
            if ok:
                log.steps += len(cert.left_steps) + len(cert.right_steps)

    def check(self, state, log):
        routes: dict = {}
        for (kind, truth, recorded, _, _), cert in zip(state["pairs"], state["certs"]):
            if cert is None:
                log.digest_parts.append(f"{kind}|raised")
                continue
            # A verdict against the truth is wrong; an honest verdict other
            # than the recorded one (unknown for yes, say) is a failed operation.
            contradicts = "no" if truth else "yes"
            log.expect(cert.verdict != contradicts, f"{kind} pair: {cert.verdict}")
            if cert.verdict != contradicts and cert.verdict != recorded:
                log.fail(f"{kind} pair: {cert.verdict}, recorded {recorded}")
            steps = cert.left_steps + cert.right_steps
            if cert.verdict != "yes":
                route = cert.verdict
            elif not steps:
                route = "identical"
            else:
                route = "bfs" if any(site is None for _, site in steps) else "normal_form"
            key = f"{kind}.{route}"
            routes[key] = routes.get(key, 0) + 1
            rules = ",".join(r for r, _ in steps)
            meeting = "" if cert.meeting is None else repr(cert.meeting)
            log.digest_parts.append(f"{kind}|{cert.verdict}|{rules}|{meeting}")
        log.notes.update(pairs=len(state["pairs"]), routes=routes, certificate_steps=log.steps)


# ---------------------------------------------------------------------------
# tower: criterion 8, the boundary-linear check on tall diagrams


def boundary_diagram(m: int) -> Diagram:
    """m axioms whose control brackets are merged by tensors: output L, Gamma, R."""
    layers = [tuple(AxGate(A, True) for _ in range(m))]
    word = list(layers[0][0].outputs) * m
    for _ in range(m - 1):
        p = next(
            i
            for i in range(len(word) - 3)
            if is_formula_label(word[i]) and word[i + 1] == R and word[i + 2] == L
        )
        g = TensorGate(word[p], word[p + 3], True)
        layers.append(tuple(word[:p]) + (g,) + tuple(word[p + 4 :]))
        word[p : p + 4] = list(g.outputs)
    return Diagram((), layers)


class Tower:
    name = "tower"
    why = (
        "the only deep diagrams: towers of seeded twists grown one gate at a time to 1,000 gates, "
        "with the boundary check, the text round trip and sequentialization at checkpoints"
    )
    BASE_AXIOMS = 6  # 11 gates, boundary of 9 labels
    HEIGHT_FULL = 1000
    HEIGHT_TINY = 150
    CHECK_EVERY = 100
    # sequentialize is superlinear (111 gates take about 3.7 s on these towers)
    # and raises RecursionError near 1,000 gates; the run length stops it here.
    SEQ_HEIGHTS_FULL = (11, 61, 111)
    SEQ_HEIGHTS_TINY = (11, 61)
    NOMINAL_TOWER_S = 6.6

    def setup(self, seed: int, seconds: float):
        rng = random.Random(seed)
        base = boundary_diagram(self.BASE_AXIOMS)
        full = _full(seconds)
        height = self.HEIGHT_FULL if full else self.HEIGHT_TINY
        towers = _rounds(seconds, self.NOMINAL_TOWER_S) if full else 1
        width = len(base.output)
        # twist positions over the formula labels between L and R
        plans = [
            [rng.randrange(1, width - 2) for _ in range(height - gate_count(base))]
            for _ in range(towers)
        ]
        return {
            "base": base,
            "plans": plans,
            "seq_heights": self.SEQ_HEIGHTS_FULL if full else self.SEQ_HEIGHTS_TINY,
        }

    @staticmethod
    def append(phi, pos):
        w = phi.output
        step = parallel(identity(w[:pos]), single(TwistGate(w[pos], w[pos + 1])), identity(w[pos + 2 :]))
        return compose_seq(phi, step)

    def _checkpoint(self, state, log, phi, height):
        t0 = perf_counter()
        counter = ComparisonCounter()
        seq = is_sequentializable(phi, counter)
        ok, text = log.attempt(diagram_text, phi)
        back = log.attempt(parse_diagram, text)[1] if ok else None
        derivation = None
        if height in state["seq_heights"]:
            derivation = log.attempt(sequentialize, phi)[1]
        state["checkpoints"].append((height, phi, seq, counter.n, text, back, derivation))
        log.checkpoints.append((t0, perf_counter()))

    def run(self, state, log):
        state["checkpoints"] = []
        for plan in state["plans"]:
            phi = state["base"]
            base_h = gate_count(phi)
            for i, pos in enumerate(plan):
                height = base_h + i
                if i % self.CHECK_EVERY == 0 or height in state["seq_heights"]:
                    self._checkpoint(state, log, phi, height)
                t0 = perf_counter()
                ok, nxt = log.attempt(self.append, phi, pos)
                log.item(t0)
                if not ok:
                    break
                phi = nxt
            self._checkpoint(state, log, phi, base_h + len(plan))

    def check(self, state, log):
        counts = set()
        for height, phi, seq, n, text, back, derivation in state["checkpoints"]:
            counts.add(n)
            log.expect(seq, f"tower of {height} gates not sequentializable")
            if back is not None:  # else the text or the parse raised, counted already
                log.expect(
                    back == phi and diagram_text(back) == text,
                    f"text round trip differs at {height} gates",
                )
            part = f"{height}|{seq}|{n}|{text}"
            if derivation is not None:
                log.expect(
                    derivation.conclusion == boundary_sequent(phi),
                    f"sequentialization at {height} gates has another conclusion",
                )
                part += f"|{derivation!r}"
            log.digest_parts.append(part)
        log.expect(len(counts) == 1, f"comparison counts differ across heights: {sorted(counts)}")
        log.notes.update(
            towers=len(state["plans"]),
            appends=sum(len(p) for p in state["plans"]),
            checkpoints=len(state["checkpoints"]),
            comparisons=sorted(counts),
        )


WORKLOADS = {w.name: w for w in (Enumerate(), CutElim(), Oracle(), Tower())}
