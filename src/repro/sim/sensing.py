"""The sensing model: what a node can know about the field.

A CPS node measures the field at the grid positions inside its sensing
disk of radius ``Rs`` — ``m = ⌊πRs²⌋`` samples on the paper's 1 m grid
(Section 5.2). From those samples alone the node derives the curvature
weights that drive CMA:

* its *own* curvature via the quadric least-squares fit (done in
  :mod:`repro.core.cma`), and
* a curvature estimate at each sensed position (Table 2's ``MdG``),
  computed here by finite differences over the sensed patch.

The finite-difference stencil uses the axis-aligned bounding square of the
disk (cells just outside the disk but inside the square contribute to
derivative estimates at the disk rim). This keeps the stencil regular; the
information overreach is at most ``(√2 − 1)·Rs`` at the corners and does
not change any experiment's shape.

Kernel design
-------------
Sensing is one read per node per round, and the reads do not depend on
each other, so :meth:`DiskSensor.read_many` senses the whole fleet at
once and writes the packed :class:`~repro.core.cma.FleetSensing`
directly. Every window bound comes from one vectorised ``searchsorted``;
nodes whose windows share a shape and grid spacing are cut out of the
snapshot with one fancy index into an ``(n, h, w)`` stack, smoothed and
differentiated once, and masked with one in-disk test. The smoothing is a
hand-rolled separable correlation (:func:`_smooth_patches`) that
replicates scipy's symmetric ``correlate1d`` accumulation order and
``mode="nearest"`` edge handling bit for bit, and the curvature a batched
transcription of :func:`repro.surfaces.curvature.grid_gaussian_curvature`.
Windows thinner than the 2-cell stencil sense zero curvature; windows
outside the snapshot sense nothing. With read noise, each non-empty
window draws its noise in node order before stacking, so the RNG stream
is consumed as a node-by-node read consumes it. The result is
bitwise-identical to reading each node on its own and packing the reads
(the per-node oracle lives in ``tests/sim/test_sensing.py``). Smoothing
stays *per patch* on purpose: each node may only use data inside its own
sensing square, so patch-edge handling is part of the model, not an
artifact to optimise away.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.cma import FleetSensing
from repro.fields.base import DynamicField, GridSample


def _gaussian_kernel1d(sigma: float) -> Tuple[np.ndarray, int]:
    """scipy's truncated Gaussian kernel (order 0, truncate=4.0).

    Same construction as ``scipy.ndimage._filters._gaussian_kernel1d`` so
    the weights are bitwise-identical to what ``gaussian_filter`` uses.
    Returns ``(weights, radius)`` with ``len(weights) == 2 * radius + 1``.
    """
    lw = int(4.0 * sigma + 0.5)
    x = np.arange(-lw, lw + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    phi = phi / phi.sum()
    return phi, lw


def _smooth_patches(patches: np.ndarray, sigma: float) -> np.ndarray:
    """Batched ``gaussian_filter(p, sigma, mode="nearest")`` over axis 0.

    ``patches`` is ``(n, h, w)``; each slice comes out bitwise-identical
    to scipy's filter of that slice. scipy's ``correlate1d`` takes the
    symmetric-kernel path and accumulates ``centre·w₀`` first, then the
    paired terms ``(left_j + right_j)·w_j`` from the *outermost* tap
    inward — the descending-``j`` loop below mirrors that order exactly,
    which is what makes the sums reassociation-free.
    """
    weights, lw = _gaussian_kernel1d(sigma)
    out = patches
    for axis in (1, 2):
        pad = [(0, 0)] * 3
        pad[axis] = (lw, lw)
        padded = np.pad(out, pad, mode="edge")
        n = padded.shape[axis]

        def tap(off: int) -> np.ndarray:
            sl = [slice(None)] * 3
            hi = n - lw + off
            sl[axis] = slice(lw + off, hi if hi != 0 else None)
            return padded[tuple(sl)]

        acc = tap(0) * weights[lw]
        for j in range(lw, 0, -1):
            acc = acc + (tap(-j) + tap(j)) * weights[lw + j]
        out = acc
    return out


def _patch_gaussian_curvature(
    z: np.ndarray, dx: float, dy: float
) -> np.ndarray:
    """Batched Gaussian curvature of ``(n, h, w)`` patches.

    Transcribes :func:`repro.surfaces.curvature.grid_gaussian_curvature`
    (axis-wise ``np.gradient`` + the Monge-patch formula) with a leading
    batch axis; every slice is bitwise-identical to the scalar version.
    """
    fy = np.gradient(z, dy, axis=1)
    fx = np.gradient(z, dx, axis=2)
    fyy = np.gradient(fy, dy, axis=1)
    fyx = np.gradient(fy, dx, axis=2)
    fxy = np.gradient(fx, dy, axis=1)
    fxx = np.gradient(fx, dx, axis=2)
    fxy = 0.5 * (fxy + fyx)
    g = 1.0 + fx**2 + fy**2
    return (fxx * fyy - fxy**2) / g**2


class DiskSensor:
    """Reads ``Rs``-disk samples out of the current environment snapshot.

    ``smooth_sigma`` (grid cells) low-passes the sensed patch before the
    finite-difference curvature estimate. Second derivatives amplify
    high-frequency measurement texture (the foliage speckle of the
    GreenOrbs substitute) into curvature noise that would drown the real
    features; a light on-node smoothing — standard sensor practice — keeps
    the curvature weights informative. Raw values are still reported for
    the quadric fit (least squares does its own averaging).
    """

    def __init__(
        self,
        snapshot: GridSample,
        rs: float,
        signed: bool = False,
        smooth_sigma: float = 1.5,
        noise_std: float = 0.0,
        noise_rng=None,
    ) -> None:
        if rs <= 0:
            raise ValueError(f"Rs must be positive, got {rs}")
        if smooth_sigma < 0:
            raise ValueError(f"smooth_sigma must be >= 0, got {smooth_sigma}")
        if noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {noise_std}")
        self.snapshot = snapshot
        self.rs = float(rs)
        self.signed = bool(signed)
        self.smooth_sigma = float(smooth_sigma)
        #: Gaussian read noise added to every sensed value (field units).
        #: The paper implicitly assumes noiseless sensors; see the
        #: ext_sensor_noise experiment.
        self.noise_std = float(noise_std)
        self._noise_rng = noise_rng

    def read_many(self, positions: np.ndarray) -> FleetSensing:
        """Sense around every position: the fleet's in-disk samples, packed.

        ``positions`` is ``(n, 2)``. Node ``i``'s samples — the grid points
        of its ``Rs`` disk in row-major order, their (noisy) values and the
        curvature of its smoothed sensing square there — are rows
        ``offsets[i]:offsets[i + 1]`` of the result.
        """
        xs, ys = self.snapshot.xs, self.snapshot.ys
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        n = len(pts)
        px, py = pts[:, 0], pts[:, 1]
        ix0 = np.searchsorted(xs, px - self.rs)
        ix1 = np.searchsorted(xs, px + self.rs, side="right")
        iy0 = np.searchsorted(ys, py - self.rs)
        iy1 = np.searchsorted(ys, py + self.rs, side="right")
        h, w = iy1 - iy0, ix1 - ix0
        live = np.flatnonzero((h > 0) & (w > 0))

        noise = {}
        if self.noise_std > 0.0 and self._noise_rng is not None:
            # Read noise corrupts every measurement, including the ones the
            # curvature stencil consumes. One draw per window, in node
            # order: the order a node-by-node read consumes the RNG in.
            for i in live:
                noise[i] = self._noise_rng.normal(
                    0.0, self.noise_std, size=(h[i], w[i])
                )

        # Leading empty blocks keep an empty fleet well-shaped.
        id_parts = [np.empty(0, dtype=np.intp)]
        count_parts = [np.empty(0, dtype=np.intp)]
        position_parts = [np.empty((0, 2))]
        value_parts = [np.empty((0,))]
        curvature_parts = [np.empty((0,))]
        for (gh, gw, dx, dy), members in self._shape_groups(
            live, ix0, iy0, h, w
        ):
            rows = iy0[members, None] + np.arange(gh)
            cols = ix0[members, None] + np.arange(gw)
            patches = self.snapshot.values[rows[:, :, None], cols[:, None, :]]
            if noise:
                patches = patches + np.stack([noise[i] for i in members])
            if gh < 2 or gw < 2:
                # Thinner than the finite-difference stencil.
                curv = np.zeros_like(patches)
            else:
                smoothed = patches
                if self.smooth_sigma > 0:
                    smoothed = _smooth_patches(patches, self.smooth_sigma)
                curv = _patch_gaussian_curvature(smoothed, dx, dy)
            if not self.signed:
                curv = np.abs(curv)
            gx, gy = xs[cols], ys[rows]
            in_disk = (
                ((gx - px[members, None]) ** 2)[:, None, :]
                + ((gy - py[members, None]) ** 2)[:, :, None]
                <= self.rs**2
            )
            gx = np.broadcast_to(gx[:, None, :], patches.shape)
            gy = np.broadcast_to(gy[:, :, None], patches.shape)
            id_parts.append(members)
            count_parts.append(in_disk.sum(axis=(1, 2)))
            position_parts.append(np.column_stack([gx[in_disk], gy[in_disk]]))
            value_parts.append(patches[in_disk])
            curvature_parts.append(curv[in_disk])

        # The groups' rows, node-major within each group; put the nodes
        # back in fleet order.
        ids = np.concatenate(id_parts)
        group_counts = np.concatenate(count_parts)
        group_starts = np.cumsum(group_counts) - group_counts
        counts = np.zeros(n, dtype=np.intp)
        counts[ids] = group_counts
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        by_node = np.argsort(ids, kind="stable")
        take = np.repeat(
            group_starts[by_node] - offsets[ids[by_node]],
            group_counts[by_node],
        ) + np.arange(offsets[-1])
        return FleetSensing(
            positions=np.concatenate(position_parts)[take],
            values=np.concatenate(value_parts)[take],
            curvatures=np.concatenate(curvature_parts)[take],
            offsets=offsets,
        )

    def _shape_groups(self, live, ix0, iy0, h, w):
        """``((h, w, dx, dy), node ids)`` of every window shape in use.

        ``dx``/``dy`` are the window's grid spacings exactly as
        ``np.gradient`` would read them off its sliced axes (linspace steps
        can differ by one ulp, so they are part of the key); thin windows
        take no derivatives and key on ``0.0``. Ids ascend within a group.
        """
        xs, ys = self.snapshot.xs, self.snapshot.ys
        hl, wl = h[live], w[live]
        thin = (hl < 2) | (wl < 2)
        x0, y0 = ix0[live], iy0[live]
        dx = np.where(thin, 0.0, xs[np.minimum(x0 + 1, len(xs) - 1)] - xs[x0])
        dy = np.where(thin, 0.0, ys[np.minimum(y0 + 1, len(ys) - 1)] - ys[y0])
        keys, group = np.unique(
            np.column_stack([hl, wl, dx, dy]), axis=0, return_inverse=True
        )
        group = group.ravel()
        order = np.argsort(group, kind="stable")
        splits = np.cumsum(np.bincount(group))[:-1]
        return [
            ((int(kh), int(kw), float(kdx), float(kdy)), members)
            for (kh, kw, kdx, kdy), members in zip(
                keys, np.split(live[order], splits)
            )
        ]


class TraceSampler:
    """Trace sampling (the paper's future-work item, Section 7).

    Instead of sampling only where it *ends up*, a mobile node records the
    field at evenly spaced points along its movement segment each round.
    The extra (position, value) pairs feed the reconstruction for free —
    no extra hardware, just logging while driving.
    """

    def __init__(self, samples_per_move: int = 3) -> None:
        if samples_per_move < 1:
            raise ValueError(
                f"samples_per_move must be >= 1, got {samples_per_move}"
            )
        self.samples_per_move = int(samples_per_move)

    def sample_path(
        self,
        field: DynamicField,
        origin: np.ndarray,
        destination: np.ndarray,
        t: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(positions, values) along the open segment origin→destination."""
        o = np.asarray(origin, dtype=float).reshape(2)
        d = np.asarray(destination, dtype=float).reshape(2)
        if np.allclose(o, d):
            return np.empty((0, 2)), np.empty((0,))
        fractions = np.linspace(0.0, 1.0, self.samples_per_move + 2)[1:-1]
        pts = o[None, :] + fractions[:, None] * (d - o)[None, :]
        values = field.sample(pts, t)
        return pts, values
