"""Membership in, and empirical verification of, the Cayley open cover.

For n >= 2k the frames x_theta = [0; (sin theta) I; (cos theta) I] give
k + 1 Cayley open subsets which cover the whole Stiefel manifold over R, C
and H: y escapes the i-th subset only when -cos theta_i is an eigenvalue of
its bottom block pi (of the complex adjoint chi(pi) over H), and pi has at
most k distinct real eigenvalues.  Membership depends only on pi, so this
module tests it on pi + (cos theta_i) I_k without forming the frames, and
stress-tests the cover claim on random samples.

The verifier works on stacks of samples: one Gram-Schmidt over the
(S, n, k) Gaussian draws, then one stacked singularity decision for the
shifted (S, k, k) bottom blocks of every angle at once, which runs an SVD
only on blocks that the residual of their LAPACK inverse cannot decide.
All samples of one run come from a single stream,
np.random.default_rng(seed), and stacking never changes what it draws:
sample 0 is random_stiefel_point(seed), and the report equals
cover_membership applied to each frame of one unstacked draw.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import kalg, stiefel
from .kalg import Field, Mat
from .stiefel import StiefelPoint


# samples evaluated as one stack by verify_cover: bounds its memory
_CHUNK = 256


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
    """k + 1 evenly spaced angles strictly inside (0, pi/2); k must be a
    nonnegative integer, as verify_cover's counts must."""
    if not (isinstance(k, numbers.Integral) and k >= 0):
        raise ValueError(f"k must be nonnegative and an integer, got {k!r}")
    return ThetaLadder(tuple((i + 1) * math.pi / (2 * (k + 2)) for i in range(k + 1)))


def _check_dims(n: int, k: int) -> None:
    if n < 2 * k:
        raise DimensionError(f"need n >= 2k, got n={n}, k={k}")


def _memberships(field: Field, pi: np.ndarray, ladder: ThetaLadder,
                 tol: float) -> np.ndarray:
    """(S, len(ladder)) booleans: whether pi_s + (cos theta_i) I_k is invertible.

    pi holds the components (S, k, k, ncomp) of S bottom blocks, which are
    viewed as native arrays (kalg._KERNELS) once.  The shifted blocks of
    every sample and angle, sample by sample, form one stack, which
    kalg._invertible_stack decides in calls of at most _CHUNK members: one
    LAPACK inversion each, and an SVD only for blocks whose residual cannot
    decide.
    """
    ks = kalg._KERNELS[field]
    pi = ks.native(pi)
    cos = np.array([math.cos(theta) for theta in ladder.angles])
    out = np.empty(len(pi) * len(cos), dtype=bool)
    for start in range(0, len(out), _CHUNK):
        member = np.arange(start, min(start + _CHUNK, len(out)))
        shifted = pi[member // len(cos)]
        ks.shift_diagonal(shifted, cos[member % len(cos), None])
        out[start:start + _CHUNK] = kalg._invertible_stack(ks, shifted, tol)
    return out.reshape(len(pi), len(cos))


def cover_membership(y: StiefelPoint, ladder: ThetaLadder,
                     tol: float = kalg.DEFAULT_TOL) -> list[int]:
    """Indices i with y inside the Cayley open subset of the i-th angle frame.

    Membership only depends on the bottom block pi of y: the condition is
    invertibility of pi + (cos theta_i) I_k.  tol is checked up front, so
    that an empty ladder, which makes no decision, rejects it too.  Raises
    DimensionError for n < 2k, where the angle frames, and so the cover,
    do not exist, as verify_cover does.
    """
    kalg._validate_tol(tol)
    _check_dims(y.n, y.k)
    return np.flatnonzero(_memberships(y.field, y.P.data[None], ladder, tol)[0]).tolist()


def verify_cover(n: int, k: int, ladder: ThetaLadder, samples: int, seed: int,
                 field: Field = Field.QUATERNION,
                 tol: float = kalg.DEFAULT_TOL) -> dict:
    """Sample random frames and report how many escape every cover member.

    Sample s is frame s of the stream np.random.default_rng(seed), so
    sample 0 is random_stiefel_point(n, k, field, seed); its members are
    those of cover_membership.  Both run on stacks of up to _CHUNK samples.
    With k + 1 angles the expected uncovered count is zero in every field.
    Uncovered witnesses are serialized in full.
    """
    for name, value in (("n", n), ("k", k), ("samples", samples), ("seed", seed)):
        if not (isinstance(value, numbers.Integral) and value >= 0):
            raise ValueError(f"{name} must be nonnegative and an integer, got {value!r}")
    kalg._validate_tol(tol)  # up front, so that samples=0 rejects it too
    n, k, samples = int(n), int(k), int(samples)  # the report holds Python ints
    _check_dims(n, k)
    histogram: Counter[int] = Counter()
    witnesses = []
    rng = np.random.default_rng(seed)
    for start in range(0, samples, _CHUNK):
        frames = stiefel._random_frames(n, k, field, rng, min(_CHUNK, samples - start))
        counts = _memberships(field, frames[:, n - k:], ladder, tol).sum(axis=1)
        histogram.update(counts.tolist())
        witnesses += [stiefel.point_to_json(StiefelPoint(Mat(field, frames[s])))
                      for s in np.flatnonzero(counts == 0)]
    return {
        "n": n,
        "k": k,
        "field": field.value,
        "angles": list(ladder.angles),
        "samples": samples,
        "uncovered": len(witnesses),
        "multiplicity_histogram": {str(m): c for m, c in sorted(histogram.items())},
        "witnesses": witnesses,
    }
