"""Deterministic renderers for layered diagrams: SVG and TikZ.

Pure output emitters: gates are boxes, wires run top to bottom, control
strings are drawn dashed.  Twists are drawn as crossing wires.
"""
from __future__ import annotations

from .diagram import (
    Ctrl,
    Diagram,
    TwistGate,
    gate_str,
    is_gate,
    label_str,
    layer_outputs,
    slot_inputs,
    slot_outputs,
)

XSTEP = 42
YSTEP = 46
BOXH = 22


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(phi: Diagram) -> str:
    width = max(
        [len(phi.input)]
        + [len(layer_outputs(l)) for l in phi.layers]
        + [len(l) for l in phi.layers]
        + [1]
    )
    h = (len(phi.layers) + 1) * YSTEP + 30
    w = (width + 1) * XSTEP + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="monospace" font-size="11">'
    ]

    def x(col):
        return 30 + col * XSTEP

    def wire(c1, y1, c2, y2, ctrl):
        dash = ' stroke-dasharray="4 3"' if ctrl else ""
        parts.append(
            f'<line x1="{x(c1)}" y1="{y1}" x2="{x(c2)}" y2="{y2}" stroke="black"{dash}/>'
        )

    word = phi.input
    y = 20
    for li, layer in enumerate(phi.layers):
        pos = 0
        outpos = 0
        for s in layer:
            if is_gate(s):
                k = len(slot_inputs(s))
                m = len(slot_outputs(s))
                if isinstance(s, TwistGate):
                    wire(pos, y, outpos + 1, y + YSTEP, isinstance(word[pos], Ctrl))
                    wire(pos + 1, y, outpos, y + YSTEP, isinstance(word[pos + 1], Ctrl))
                else:
                    for i in range(k):
                        wire(pos + i, y, pos + i, y + YSTEP // 2 - 2, isinstance(word[pos + i], Ctrl))
                    bx = x(pos) - 14
                    bw = max(k, m, 1) * XSTEP - 14
                    parts.append(
                        f'<rect x="{bx}" y="{y + YSTEP // 2 - BOXH // 2}" width="{bw}" '
                        f'height="{BOXH}" fill="white" stroke="black"/>'
                    )
                    parts.append(
                        f'<text x="{bx + 4}" y="{y + YSTEP // 2 + 4}">{_esc(gate_str(s))}</text>'
                    )
                    for j in range(m):
                        wire(outpos + j, y + YSTEP // 2 + BOXH // 2, outpos + j, y + YSTEP, False)
                pos += k
                outpos += m
            else:
                wire(pos, y, outpos, y + YSTEP, isinstance(s, Ctrl))
                pos += 1
                outpos += 1
        word = layer_outputs(layer)
        y += YSTEP
    for col, lab in enumerate(word):
        parts.append(f'<text x="{x(col) - 6}" y="{y + 14}">{_esc(label_str(lab))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_tikz(phi: Diagram) -> str:
    lines = ["\\begin{tikzpicture}[x=0.9cm,y=1.1cm]"]
    word = phi.input
    y = 0
    for layer in phi.layers:
        pos = 0
        outpos = 0
        for s in layer:
            if is_gate(s):
                k = len(slot_inputs(s))
                m = len(slot_outputs(s))
                if isinstance(s, TwistGate):
                    lines.append(f"  \\draw ({pos},{-y}) -- ({outpos + 1},{-(y + 1)});")
                    lines.append(f"  \\draw ({pos + 1},{-y}) -- ({outpos},{-(y + 1)});")
                else:
                    mid = outpos + max(m - 1, 0) / 2
                    for i in range(k):
                        lines.append(f"  \\draw ({pos + i},{-y}) -- ({mid},{-(y + 0.5)});")
                    lines.append(
                        f"  \\node[draw,fill=white,font=\\scriptsize] at ({mid},{-(y + 0.5)}) "
                        f"{{{gate_str(s)}}};"
                    )
                    for j in range(m):
                        lines.append(f"  \\draw ({outpos + j},{-(y + 0.5)}) -- ({outpos + j},{-(y + 1)});")
                pos += k
                outpos += m
            else:
                style = "[dashed]" if isinstance(s, Ctrl) else ""
                lines.append(f"  \\draw{style} ({pos},{-y}) -- ({outpos},{-(y + 1)});")
                pos += 1
                outpos += 1
        word = layer_outputs(layer)
        y += 1
    for col, lab in enumerate(word):
        lines.append(f"  \\node[below,font=\\scriptsize] at ({col},{-y}) {{{label_str(lab)}}};")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
