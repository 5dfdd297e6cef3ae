"""ASCII renderers: birdview heat maps, node topologies, data series."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.fields.base import GridSample
from repro.geometry.primitives import BoundingBox

#: Density ramp from low to high.
_RAMP = " .:-=+*#%@"


def render_field(
    sample: GridSample,
    width: int = 60,
    height: int = 24,
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
) -> str:
    """Birdview of a grid sample as an ASCII heat map (origin bottom-left)."""
    if width < 2 or height < 2:
        raise ValueError("width and height must each be >= 2")
    z = sample.values
    lo = float(z.min()) if vmin is None else float(vmin)
    hi = float(z.max()) if vmax is None else float(vmax)
    span = hi - lo if hi > lo else 1.0

    ix = np.linspace(0, z.shape[1] - 1, width).round().astype(int)
    iy = np.linspace(0, z.shape[0] - 1, height).round().astype(int)
    sub = z[np.ix_(iy, ix)]
    levels = np.clip(((sub - lo) / span) * (len(_RAMP) - 1), 0, len(_RAMP) - 1)
    rows = [
        "".join(_RAMP[int(v)] for v in row)
        for row in levels.round().astype(int)
    ]
    return "\n".join(reversed(rows))


def render_topology(
    positions: np.ndarray,
    region: BoundingBox,
    rc: Optional[float] = None,
    width: int = 60,
    height: int = 24,
) -> str:
    """Birdview of node positions ('o') and unit-disk links ('.').

    A link joins every pair ``i < j`` with ``|p_i - p_j| <= rc`` and is
    drawn by sampling ``p_i + f (p_j - p_i)`` at ``f = s / steps`` for
    ``s = 0..steps``, ``steps`` being the Chebyshev distance between the
    end cells (at least 1). The pair test and the samples are array
    passes; ``tests/test_viz.py`` holds the output byte-identical to the
    pair-by-pair loop.
    """
    if width < 2 or height < 2:
        raise ValueError("width and height must each be >= 2")
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    canvas = np.full((height, width), " ")

    def to_cells(x: np.ndarray, y: np.ndarray):
        cx = np.rint((x - region.xmin) / max(region.width, 1e-12) * (width - 1))
        cy = np.rint((y - region.ymin) / max(region.height, 1e-12) * (height - 1))
        return (
            np.clip(cx, 0, width - 1).astype(int),
            np.clip(cy, 0, height - 1).astype(int),
        )

    node_x, node_y = to_cells(pts[:, 0], pts[:, 1])
    if rc is not None:
        i, j = np.triu_indices(len(pts), 1)
        diff = pts[i] - pts[j]
        linked = np.sqrt(np.vecdot(diff, diff)) <= rc
        i, j = i[linked], j[linked]
        steps = np.maximum(
            np.maximum(np.abs(node_x[i] - node_x[j]), np.abs(node_y[i] - node_y[j])),
            1,
        )
        # One sample per (link, s): the link it belongs to and its s.
        count = steps + 1
        link = np.repeat(np.arange(len(i)), count)
        s = np.arange(len(link)) - (np.cumsum(count) - count)[link]
        f = s / steps[link]
        p, q = pts[i[link]], pts[j[link]]
        cx, cy = to_cells(
            p[:, 0] + f * (q[:, 0] - p[:, 0]), p[:, 1] + f * (q[:, 1] - p[:, 1])
        )
        canvas[cy, cx] = "."

    canvas[node_y, node_x] = "o"
    return "\n".join("".join(row) for row in canvas[::-1])


def render_series(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 60,
    height: int = 16,
    label: str = "",
) -> str:
    """A quick ASCII line chart of a (x, y) series ('*' marks)."""
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} xs but {len(ys)} ys")
    if len(xs) == 0:
        return "(empty series)"
    xa = np.asarray(xs, dtype=float)
    ya = np.asarray(ys, dtype=float)
    ylo, yhi = float(ya.min()), float(ya.max())
    yspan = yhi - ylo if yhi > ylo else 1.0
    xlo, xhi = float(xa.min()), float(xa.max())
    xspan = xhi - xlo if xhi > xlo else 1.0

    canvas = [[" "] * width for _ in range(height)]
    for x, y in zip(xa, ya):
        cx = int(round((x - xlo) / xspan * (width - 1)))
        cy = int(round((y - ylo) / yspan * (height - 1)))
        canvas[cy][cx] = "*"
    lines = ["".join(row) for row in reversed(canvas)]
    header = f"{label}  [y: {ylo:.4g} .. {yhi:.4g}]  [x: {xlo:.4g} .. {xhi:.4g}]"
    return header + "\n" + "\n".join(lines)


def render_triangulation(
    points: np.ndarray,
    simplices: np.ndarray,
    region: BoundingBox,
    width: int = 60,
    height: int = 24,
) -> str:
    """Birdview of a triangulation: vertices ('o') and triangle edges ('.')."""
    if width < 2 or height < 2:
        raise ValueError("width and height must each be >= 2")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    tris = np.asarray(simplices, dtype=int).reshape(-1, 3)
    canvas = [[" "] * width for _ in range(height)]

    def to_cell(x: float, y: float):
        cx = int(round((x - region.xmin) / max(region.width, 1e-12) * (width - 1)))
        cy = int(round((y - region.ymin) / max(region.height, 1e-12) * (height - 1)))
        return min(max(cx, 0), width - 1), min(max(cy, 0), height - 1)

    def draw_edge(p, q):
        (x0, y0), (x1, y1) = to_cell(*p), to_cell(*q)
        steps = max(abs(x1 - x0), abs(y1 - y0), 1)
        for s in range(steps + 1):
            f = s / steps
            x = p[0] + f * (q[0] - p[0])
            y = p[1] + f * (q[1] - p[1])
            cx, cy = to_cell(x, y)
            if canvas[cy][cx] == " ":
                canvas[cy][cx] = "."

    for a, b, c in tris:
        draw_edge(pts[a], pts[b])
        draw_edge(pts[b], pts[c])
        draw_edge(pts[c], pts[a])
    for x, y in pts:
        cx, cy = to_cell(float(x), float(y))
        canvas[cy][cx] = "o"
    return "\n".join("".join(row) for row in reversed(canvas))
