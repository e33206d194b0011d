"""Angle-indexed frames and empirical verification of the Cayley open cover.

For n >= 2k the frames x_theta = [0; (sin theta) I; (cos theta) I] give
k + 1 Cayley open subsets which cover the whole Stiefel manifold over R, C
and H: y escapes the i-th subset only when -cos theta_i is an eigenvalue of
its bottom block pi (of the complex adjoint chi(pi) over H), and pi has at
most k distinct real eigenvalues.  This module builds the frames and
stress-tests the cover claim on random samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kalg, stiefel
from .kalg import Field, Mat
from .stiefel import StiefelPoint


class DimensionError(Exception):
    """Raised when the cover construction needs n >= 2k and does not have it."""


@dataclass(frozen=True)
class ThetaLadder:
    """Strictly increasing angles in the open interval (0, pi/2)."""

    angles: tuple[float, ...]

    def __post_init__(self):
        for a in self.angles:
            if not 0.0 < a < math.pi / 2:
                raise ValueError(f"angle {a} outside (0, pi/2)")
        for lo, hi in zip(self.angles, self.angles[1:]):
            if not lo < hi:
                raise ValueError("angles must be strictly increasing")

    def __len__(self) -> int:
        return len(self.angles)


def default_ladder(k: int) -> ThetaLadder:
    """k + 1 evenly spaced angles strictly inside (0, pi/2)."""
    return ThetaLadder(tuple((i + 1) * math.pi / (2 * (k + 2)) for i in range(k + 1)))


def theta_frame(n: int, k: int, theta: float, field: Field) -> StiefelPoint:
    """The frame [0; (sin theta) I_k; (cos theta) I_k] for n >= 2k."""
    if n < 2 * k:
        raise DimensionError(f"need n >= 2k, got n={n}, k={k}")
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta {theta} outside (0, pi/2)")
    data = np.zeros((n, k, field.ncomp))
    for j in range(k):
        data[n - 2 * k + j, j, 0] = math.sin(theta)
        data[n - k + j, j, 0] = math.cos(theta)
    return StiefelPoint(Mat(field, data), check_tol=1e-14)


def cover_membership(y: StiefelPoint, ladder: ThetaLadder,
                     tol: float = kalg.DEFAULT_TOL) -> list[int]:
    """Indices i with y inside the Cayley open subset of the i-th angle frame.

    Membership only depends on the bottom block pi of y: the condition is
    invertibility of pi + (cos theta_i) I_k.
    """
    pi_blk = y.P
    I = kalg.identity(y.k, y.field)
    out = []
    for i, theta in enumerate(ladder.angles):
        if kalg.is_invertible(pi_blk + math.cos(theta) * I, tol):
            out.append(i)
    return out


def verify_cover(n: int, k: int, ladder: ThetaLadder, samples: int, seed: int,
                 field: Field = Field.QUATERNION,
                 tol: float = kalg.DEFAULT_TOL) -> dict:
    """Sample random frames and report how many escape every cover member.

    With k + 1 angles the expected uncovered count is zero in every field.
    Uncovered witnesses are serialized in full.
    """
    if n < 2 * k:
        raise DimensionError(f"need n >= 2k, got n={n}, k={k}")
    histogram: dict[int, int] = {}
    witnesses = []
    uncovered = 0
    for s in range(samples):
        y = stiefel.random_stiefel_point(n, k, field, seed + s)
        members = cover_membership(y, ladder, tol)
        histogram[len(members)] = histogram.get(len(members), 0) + 1
        if not members:
            uncovered += 1
            witnesses.append(stiefel.point_to_json(y))
    return {
        "n": n,
        "k": k,
        "field": field.value,
        "angles": list(ladder.angles),
        "samples": samples,
        "uncovered": uncovered,
        "multiplicity_histogram": {str(m): c for m, c in sorted(histogram.items())},
        "witnesses": witnesses,
    }
