"""End-to-end surface reconstruction from scattered samples.

Ties the pieces together the way the paper's evaluation does: take the
positions a distribution algorithm produced, sample the field there,
Delaunay-triangulate, evaluate ``DT`` on the reference grid, and score δ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.fields.base import Field, GridSample
from repro.geometry.interpolation import LinearSurfaceInterpolator
from repro.obs.instrument import get_instrumentation
from repro.surfaces.metrics import (
    max_absolute_error,
    rmse,
    volume_difference,
)


@dataclass(frozen=True)
class Reconstruction:
    """A reconstructed surface plus its quality scores against the reference."""

    sample_positions: np.ndarray
    sample_values: np.ndarray
    surface: GridSample
    delta: float
    rmse: float
    max_error: float

    @property
    def n_samples(self) -> int:
        return len(self.sample_positions)


def reconstruct_surface(
    reference: GridSample,
    positions: np.ndarray,
    values: Optional[np.ndarray] = None,
    field: Optional[Field] = None,
    mesher: Optional[
        Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    ] = None,
) -> Reconstruction:
    """Rebuild the surface from samples at ``positions`` and score it.

    Either pass the sampled ``values`` directly (what real nodes would
    report), or a ``field`` to sample — exactly one of the two.
    ``mesher`` triangulates the samples (see
    :class:`~repro.geometry.interpolation.LinearSurfaceInterpolator`); a
    run that reconstructs every round passes one it carries between
    rounds.

    Under enabled instrumentation the work is timed as a ``reconstruct``
    span with ``triangulate`` (the Delaunay build), ``rasterize`` and
    ``extrapolate`` (the grid evaluation) and ``score`` (δ, RMSE and max
    error) nested inside it.
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if (values is None) == (field is None):
        raise ValueError("pass exactly one of `values` or `field`")
    if values is None:
        assert field is not None
        vals = field.sample(pts)
    else:
        vals = np.asarray(values, dtype=float).reshape(-1)
    if len(vals) != len(pts):
        raise ValueError(f"{len(pts)} positions but {len(vals)} values")
    if len(pts) == 0:
        raise ValueError("cannot reconstruct from zero samples")

    # Timed under the ambient instrumentation (a no-op span by default):
    # this is the measurement hot path of every CMA round and FRA history
    # point.
    obs = get_instrumentation()
    with obs.span("reconstruct"):
        with obs.span("triangulate"):
            interp = LinearSurfaceInterpolator(pts, vals, mesher=mesher)
        surface = GridSample(
            xs=reference.xs,
            ys=reference.ys,
            values=interp.evaluate_grid(reference.xs, reference.ys),
        )
        with obs.span("score"):
            delta = volume_difference(reference, surface)
            rms = rmse(reference, surface)
            max_error = max_absolute_error(reference, surface)
    if obs.enabled:
        obs.summary("reconstruct.n_samples").observe(len(pts))
    return Reconstruction(
        sample_positions=pts,
        sample_values=vals,
        surface=surface,
        delta=delta,
        rmse=rms,
        max_error=max_error,
    )
