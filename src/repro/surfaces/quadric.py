"""On-node curvature estimation: the quadric least-squares fit of Eqn. 11.

A CPS node senses ``m ≈ ⌊πRs²⌋`` samples inside its sensing disk and must
estimate the local Gaussian curvature from them alone (paper Section 5.2):

1. fit ``z = a x² + b x y + c y²`` by least squares over the m samples
   (Eqn. 11, an overdetermined system),
2. principal curvatures ``g1, g2 = (a + c) ∓ sqrt((a − c)² + b²)``
   (Eqns. 12–13),
3. Gaussian curvature ``G = g1 · g2``.

The paper's raw formulation has a practical flaw: with no constant or
linear terms, a *tilted plane* (zero curvature) produces a large spurious
fit and hence spurious curvature. We therefore default to a **centered**
mode — coordinates relative to the node, with constant + linear terms
included in the fit and discarded afterwards — which is exact for true
quadrics and unbiased on planes. The literal paper behaviour is retained as
:attr:`QuadricFitMode.PAPER` (used by the estimator-bias ablation).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


class QuadricFitMode(enum.Enum):
    """How the quadric of Eqn. 11 is fitted."""

    #: Literal Eqn. 11: fit raw z against (x², xy, y²) in absolute coordinates.
    PAPER = "paper"
    #: Centered coordinates, constant+linear terms fitted and discarded.
    CENTERED = "centered"


@dataclass(frozen=True)
class QuadricFit:
    """Result of a local quadric fit around a node.

    ``a, b, c`` are the second-order coefficients (Eqn. 11); ``d, e, f`` the
    linear/constant terms (zero in PAPER mode). ``residual`` is the RMS fit
    residual — a data-quality signal exposed to callers.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    residual: float

    def principal_curvatures(self) -> Tuple[float, float]:
        """``g1, g2`` per Eqns. 12–13."""
        return principal_curvatures(self.a, self.b, self.c)

    def gaussian_curvature(self) -> float:
        """``G = g1 · g2``."""
        g1, g2 = self.principal_curvatures()
        return g1 * g2


def principal_curvatures(a: float, b: float, c: float) -> Tuple[float, float]:
    """Eqns. 12–13: ``g1, g2 = (a + c) ∓ sqrt((a − c)² + b²)``."""
    root = math.sqrt((a - c) ** 2 + b**2)
    return a + c - root, a + c + root


def quadric_design(
    points: np.ndarray,
    center: np.ndarray = (0.0, 0.0),
    mode: QuadricFitMode = QuadricFitMode.CENTERED,
) -> np.ndarray:
    """The least-squares design matrix of Eqn. 11, for one fit or a stack.

    ``points`` is ``(..., m, 2)`` and ``center`` ``(..., 2)``; the result
    is ``(..., m, 3)`` in PAPER mode (``x², xy, y²`` in absolute
    coordinates) and ``(..., m, 6)`` in CENTERED mode (``x², xy, y², x,
    y, 1`` relative to the centre). Each ``(m, k)`` slice is C-contiguous
    and bit-identical to the matrix a single fit builds.
    """
    pts = np.asarray(points, dtype=float)
    if mode is QuadricFitMode.PAPER:
        x, y = pts[..., 0], pts[..., 1]
        return np.stack([x**2, x * y, y**2], axis=-1)
    c = np.asarray(center, dtype=float)
    x = pts[..., 0] - c[..., 0, None]
    y = pts[..., 1] - c[..., 1, None]
    return np.stack([x**2, x * y, y**2, x, y, np.ones_like(x)], axis=-1)


def fit_quadric(
    points: np.ndarray,
    values: np.ndarray,
    center: Tuple[float, float] = (0.0, 0.0),
    mode: QuadricFitMode = QuadricFitMode.CENTERED,
) -> QuadricFit:
    """Least-squares quadric through sensed samples.

    Parameters
    ----------
    points:
        ``(m, 2)`` sensed positions.
    values:
        ``(m,)`` sensed field values.
    center:
        The node position; coordinates are taken relative to it in
        CENTERED mode (ignored in PAPER mode, which uses absolute
        coordinates exactly as Eqn. 11 is written).
    mode:
        Fit formulation; see :class:`QuadricFitMode`.

    Raises
    ------
    ValueError
        If fewer samples than unknowns are supplied (m must be > 3 for
        PAPER, >= 6 for CENTERED — the paper notes "even Rs is 1 unit
        distance, m > 3").
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    z = np.asarray(values, dtype=float).reshape(-1)
    if len(pts) != len(z):
        raise ValueError(f"{len(pts)} points but {len(z)} values")

    if mode is QuadricFitMode.PAPER:
        if len(pts) < 3:
            raise ValueError(f"PAPER-mode fit needs >= 3 samples, got {len(pts)}")
        design = quadric_design(pts, mode=mode)
        coeffs, *_ = np.linalg.lstsq(design, z, rcond=None)
        a, b, c = (float(v) for v in coeffs)
        d = e = f = 0.0
        predicted = design @ coeffs
    else:
        if len(pts) < 6:
            raise ValueError(f"CENTERED-mode fit needs >= 6 samples, got {len(pts)}")
        design = quadric_design(pts, center, mode)
        coeffs, *_ = np.linalg.lstsq(design, z, rcond=None)
        a, b, c, d, e, f = (float(v) for v in coeffs)
        predicted = design @ coeffs

    residual = float(np.sqrt(np.mean((predicted - z) ** 2)))
    return QuadricFit(a=a, b=b, c=c, d=d, e=e, f=f, residual=residual)


def gaussian_curvature_from_quadric(
    points: np.ndarray,
    values: np.ndarray,
    center: Tuple[float, float] = (0.0, 0.0),
    mode: QuadricFitMode = QuadricFitMode.CENTERED,
    signed: bool = False,
) -> float:
    """One-call curvature estimate; ``signed=False`` returns |G| (DESIGN §6.5)."""
    g = fit_quadric(points, values, center=center, mode=mode).gaussian_curvature()
    return g if signed else abs(g)
