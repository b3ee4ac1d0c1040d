"""Lattice pictures of two-branch ideals, as ASCII and as SVG.

Members are drawn filled, non-members hollow.  Only s = 2 makes sense on
a flat picture; other arities are refused.
"""

from __future__ import annotations

from .errors import DimensionMismatch, FrameError
from .ideals import IdealFrame
from .lattice import Point, add, as_point, cmin, ones, zero

__all__ = ["ascii_lattice", "svg_lattice"]

CELL = 28  # SVG pixels per lattice cell


def _window(E: IdealFrame, lo, hi) -> tuple[Point, Point]:
    if E.s != 2:
        raise FrameError(f"plots need a 2-branch ideal, got s={E.s}")
    if lo is None:
        lo = cmin(zero(2), E.mu)
    if hi is None:
        hi = add(E.gamma, (2, 2))
    lo, hi = as_point(lo), as_point(hi)
    for name, corner in (("lower", lo), ("upper", hi)):
        if len(corner) != 2:
            raise DimensionMismatch(f"the {name} window corner {corner} has {len(corner)} coordinates, not 2")
    if not (lo[0] <= hi[0] and lo[1] <= hi[1]):
        raise FrameError(f"empty plot window [{lo}, {hi}]")
    return lo, hi


def ascii_lattice(E: IdealFrame, lo=None, hi=None) -> str:
    lo, hi = _window(E, lo, hi)
    grid = E.membership_box(lo, hi)
    width = max(len(str(lo[1])), len(str(hi[1])), len(str(lo[0])), len(str(hi[0])))
    lines = []
    for y in range(hi[1], lo[1] - 1, -1):
        marks = " ".join("●" if grid[x - lo[0], y - lo[1]] else "○" for x in range(lo[0], hi[0] + 1))
        lines.append(f"{y:>{width}} | {marks}")
    lines.append(" " * width + " +" + "-" * (2 * (hi[0] - lo[0] + 1) + 1))
    xlabels = " ".join(f"{x % 10}" for x in range(lo[0], hi[0] + 1))
    lines.append(" " * width + "   " + xlabels)
    if lo[0] < 0 or hi[0] > 9:
        lines.append(f"{'':>{width}}   x from {lo[0]} to {hi[0]} (labels mod 10)")
    return "\n".join(lines) + "\n"


def svg_lattice(E: IdealFrame, lo=None, hi=None) -> str:
    lo, hi = _window(E, lo, hi)
    grid = E.membership_box(lo, hi)
    nx = hi[0] - lo[0] + 1
    ny = hi[1] - lo[1] + 1
    pad = 40
    w = pad + nx * CELL + 16
    h = pad + ny * CELL + 16
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]

    def cx(x):
        return pad + (x - lo[0]) * CELL + CELL // 2

    def cy(y):
        return h - pad - (y - lo[1]) * CELL - CELL // 2

    ax = pad - 6
    out.append(
        f'<line x1="{ax}" y1="{cy(lo[1]) + 14}" x2="{cx(hi[0]) + 14}" y2="{cy(lo[1]) + 14}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{ax}" y1="{cy(lo[1]) + 14}" x2="{ax}" y2="{cy(hi[1]) - 14}" '
        'stroke="black" stroke-width="1"/>'
    )
    for x in range(lo[0], hi[0] + 1):
        out.append(
            f'<text x="{cx(x)}" y="{h - pad + 26}" font-size="11" text-anchor="middle" '
            f'font-family="monospace">{x}</text>'
        )
    for y in range(lo[1], hi[1] + 1):
        out.append(
            f'<text x="{pad - 14}" y="{cy(y) + 4}" font-size="11" text-anchor="end" '
            f'font-family="monospace">{y}</text>'
        )
    r = CELL // 3
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            if grid[x - lo[0], y - lo[1]]:
                out.append(f'<circle cx="{cx(x)}" cy="{cy(y)}" r="{r}" fill="black"/>')
            else:
                out.append(
                    f'<circle cx="{cx(x)}" cy="{cy(y)}" r="{r}" fill="none" '
                    'stroke="black" stroke-width="1.2"/>'
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"
