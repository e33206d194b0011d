"""Orthogonality-constrained minimization by Cayley curvilinear search.

The search curve is alpha(t) = c(tA) x with A = F x* - x F* built from the
Euclidean gradient F; the curve stays on the manifold for every t, so no
re-orthonormalization is ever performed.  A has rank at most 2k, so the
curve is evaluated through the Sherman-Morrison-Woodbury formula with one
2k x 2k inversion per point and O(n k^2) products; no n x n matrix is
formed (Wen and Yin, "A feasible method for optimization with
orthogonality constraints", Math. Prog. 2013).

Every line search after the first starts from a Barzilai-Borwein step, as
in Wen and Yin's Algorithm 2, and backtracks under the monotone Armijo
test, so every accepted step decreases f (Barzilai and Borwein,
"Two-point step size gradient methods", IMA J. Numer. Anal. 1988).  Its
Armijo constant, backtrack factor and backtrack budget are constants.

The generator, the curve points, the gradient A x, the Barzilai-Borwein
differences and the Rayleigh objective's M x run on native arrays through
the search's kernel set for the field (kalg._SEARCH_KERNELS): the real or
complex view over R and C, and over H the interleaved complex adjoint, on
which a product is one matmul.  x and F convert once per generator, which
holds only native arrays, M once per objective, and each curve point
converts back once, over H as its (i, 0) rows; the 2k x 2k core goes to
kalg._invert with the search's kernel set, whose LAPACK operand is the
native array itself in every field.  Every slice takes the native column
count, so R, C and H run the same lines.  Inputs are checked once where
they enter: the gradient's shape and base ring, the curve parameter, and
the x*x = I check of every point.  Every value is the same to the bit as
the same formulas on Mat values over the ring of the native arrays: R, C,
and C on the adjoints over H, with the inner products and norms halved.
Over H that differs from the formulas on quaternion Mat values at
rounding level, within the bounds that SearchGenerator and curve state.
The objectives form their image of a point (M x on native arrays, x B - C
on Mat values) once for f and egrad at that point, and check the point's
base ring and rows as M @ x would.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kalg
from .kalg import Mat, Singular
from .stiefel import NotOrthonormal, StiefelPoint


# Every line search starts at a step t with t |N U*U|_F at most this.  Beyond it
# c(tA) x is within about 1/(t |N U*U|_F) of its limit as t -> inf (a reflection
# of x), so f barely changes, the quadratic backtrack only halves t, and the
# _MAX_BACKTRACKS halvings from a huge start would never leave that stretch.
_SATURATION = 1e8
# the Armijo constant, the largest backtrack factor, the backtracks before a failure
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 40


class NotHermitian(Exception):
    """Raised when a matrix required to be Hermitian is not."""


@dataclass(frozen=True)
class Objective:
    """A smooth objective on the Stiefel manifold with its Euclidean gradient."""

    f: Callable[[StiefelPoint], float]
    egrad: Callable[[StiefelPoint], Mat]


@dataclass(frozen=True)
class SearchParams:
    """gradient_descent's first trial step, integer iteration budget and
    gradient-norm tolerance; its other settings are module constants."""

    initial_step: float = 1.0
    max_iters: int = 1000
    grad_tol: float = 1e-6

    def __post_init__(self):
        # curve takes the step as t and needs 2t finite too
        if not (0.0 < self.initial_step and math.isfinite(2.0 * self.initial_step)):
            raise ValueError("initial_step must be positive with 2 * initial_step finite, "
                             f"got {self.initial_step}")
        if not 0.0 <= self.grad_tol < math.inf:  # NaN or < 0: no gnorm passes; inf: all do
            raise ValueError(f"grad_tol must be finite and nonnegative, got {self.grad_tol}")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be a nonnegative integer, got {self.max_iters!r}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    x: StiefelPoint
    f: float
    gnorm: float
    step: float
    backtracks: int

    def to_json(self) -> dict:
        return {"iter": self.iteration, "f": self.f, "gnorm": self.gnorm,
                "step": self.step, "backtracks": self.backtracks}


@dataclass(frozen=True)
class OptimTrace:
    records: tuple[IterationRecord, ...]
    reason: str  # converged | max_iters | linesearch_failed

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]

    def to_jsonl(self) -> str:
        lines = [json.dumps(r.to_json(), sort_keys=True) for r in self.records]
        lines.append(json.dumps({"reason": self.reason}, sort_keys=True))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SearchGenerator:
    """The skew-Hermitian search generator A = F x* - x F*, factored as U N U*.

    With W = F - x(x*F), K = x*F - F*x and s = |W|_F (s = 1 when W = 0),
    U = [W/s, x] and N = [[0, sI], [-sI, K]] give U N U* = F x* - x F*
    exactly, for any x, orthonormal or not.  Dividing W by s keeps the
    condition number of the curve's core I + t N U*U growing like t |A|
    rather than t^2 |W|^2.  Holds the products every point of the curve
    needs: U, N U*U, N U*x, |N U*U|_F, which bounds the core's distance
    from I, and the rate |A|_F^2 = -Re tr((N U*U)^2) at which f decreases
    along the curve at t = 0, and the Riemannian gradient norm
    gnorm = |W + xK/2|_F, equal to |F - x herm(x*F)|_F for any x.

    from_gradient checks that F matches x in base ring and shape, then
    computes on the native arrays of kalg._SEARCH_KERNELS, converting x and
    F to them once.  U, NG = N U*U and NUx = N U*x are native arrays, over H
    the interleaved complex adjoints (a (2n, 4k) U) and not component
    arrays; the last half of U's columns is the native x.  The operations
    and their order are those of the same formulas on Mat values over the
    ring of the native arrays, so every field is the same to the bit.
    Over H those formulas run on adjoints, whose products are adjoints only
    up to rounding, so each field differs from that of the component form
    (the formulas on quaternion Mat values, from the same x and F) by at
    most 2^-48 times: phi for U; phi (s + |F|_F) for NG, NUx and
    |N U*U|_F; phi (s + |F|_F)^2 for the rate; and |F|_F for gnorm, with
    phi = 1 + |F|_F / s, the cancellation in W that both forms divide by s.
    The constant is a first-order bound with a margin, as curve's is.
    Where W is zero in exact arithmetic (n = k, or F = x S) rounding sets s,
    and U and N are not determined, but gnorm, A and the curve are.
    """

    x: StiefelPoint
    U: np.ndarray
    NG: np.ndarray
    NUx: np.ndarray
    rate: float
    gnorm: float
    ng_norm: float

    @classmethod
    def from_gradient(cls, x: StiefelPoint, F: Mat) -> "SearchGenerator":
        if F.shape != x.m.shape:
            raise ValueError("gradient shape must match the frame")
        if F.field is not x.field:
            raise ValueError(f"mixed base rings: {x.field.value} vs {F.field.value}")
        ks = kalg._SEARCH_KERNELS[x.field]
        xv, Fv = ks.native(x.m.data), ks.native(F.data)
        k = xv.shape[1]  # the native column count: 2k over H
        xF = ks.product(ks.conj_transpose(xv), Fv)
        W = Fv - ks.product(xv, xF)
        K = xF - ks.conj_transpose(xF)
        s = ks.norm(W) or 1.0
        U = np.concatenate([ks.scale(W, 1.0 / s), xv], axis=1)
        # with G = U*U split into k-row blocks, N G = [s G_bot; K G_bot - s G_top];
        # U*x is the last k columns of G, so N U*x is the last k columns of N G
        G = ks.product(ks.conj_transpose(U), U)
        sG = ks.scale(G, s)
        NG = np.concatenate([sG[k:], ks.product(K, G[k:]) - sG[:k]])
        gnorm = ks.norm(W + ks.product(xv, ks.scale(K, 0.5)))
        rate = -ks.inner(ks.conj_transpose(NG), NG)  # -Re tr(NG NG)
        return cls(x, U, NG, NG[:, k:].copy(), rate, gnorm, ks.norm(NG))


def curve(g: SearchGenerator, t: float) -> StiefelPoint:
    """Point alpha(t) = c(tA) x of the curvilinear search curve, A = U N U*.

    c is the Cayley transform at the identity of the group; the derivative
    at t = 0 is -2 A x.  By Woodbury,
    alpha(t) = x - 2t U (I + t N U*U)^{-1} N U*x, so one point costs a 2k x 2k
    inversion.  Raises Singular when that core fails mat_inverse's relative
    singular-value test at kalg.DEFAULT_TOL, and NotOrthonormal when the
    point fails the x*x = I check; both happen only once t |A| is large
    enough for rounding to swamp the step.  Raises ValueError when t or 2t
    is not finite.  The core is inverted by kalg._invert on the search's
    kernel set, with no conversion, and _invert runs the test's SVD only
    where its inverse cannot decide it.  The arithmetic runs on the
    generator's native arrays (kalg._SEARCH_KERNELS), in the order of the
    same formula on Mat values over their ring, so the point is the same to
    the bit; the point alone is converted back to components.

    Over H the arrays are interleaved adjoints and the point is the (i, 0)
    rows of the adjoint result.  The component form, the same formula on
    quaternion Mat values, evaluates the same exact point from the same x
    and F, and the two computed points lie within

        |alpha(t) - alpha_c(t)|_F <= 2^-48 (1 + |t| |N U*U|_F) (1 + |B|_F),

    B = (I + t N U*U)^{-1}.  Each product in either form is the exact
    product up to gamma_m |P||Q| entrywise, m its inner dimension (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.5),
    and LAPACK's inverse is backward stable, so the rounding of the core,
    of order u |t| |N U*U|_F with u = 2^-53, reaches the point through B,
    and that of every other factor stays of order u.  The constant 32 u is
    that first-order sum with a margin, not Higham's worst case, which
    grows with m: rounding errors of long sums grow far slower, and random
    frames up to n = 128 and every trial of the tests' whole solves stayed
    below 11 u.
    The point goes back to components and the next generator rebuilds the
    adjoints from components, so no structure error carries over; the
    x*x = I check and the singularity test are those of the component form.
    """
    if not math.isfinite(2.0 * t):  # t is NaN, infinite, or 2t overflows
        raise ValueError(f"curve parameter must be finite, and so must 2t; got {t}")
    fld = g.x.field
    ks = kalg._SEARCH_KERNELS[fld]
    core = ks.scale(g.NG, t)
    ks.shift_diagonal(core, 1.0)
    inv = kalg._invert(ks, core, kalg.DEFAULT_TOL)
    step = ks.product(g.U, ks.product(inv, g.NUx))
    x = g.U[:, g.NUx.shape[1]:]
    return StiefelPoint(Mat._trusted(fld, ks.components(x - ks.scale(step, 2.0 * t))))


def _bb_step(S: np.ndarray, D: np.ndarray, odd: bool, fallback: float) -> float:
    """Barzilai-Borwein start of a line search along the Cayley curve.

    S = x_k - x_{k-1} and D = A_k x_k - A_{k-1} x_{k-1} are the floats of
    native arrays (kalg._SEARCH_KERNELS), or components, as float arrays of
    any shape, of the differences of the iterates and of the gradients A x.
    Over H the search's are the adjoints', whose inner products are twice
    the quaternion ones; halving each would leave the step the same to the
    bit, short of an overflow, so none is halved.  The step is
    |S|^2 / |<S, D>| on odd iterations and |<S, D>| / |D|^2 on even ones,
    halved because the curve's derivative at t = 0 is -2 A x, and clamped
    to [1e-20, 1e20].  Returns fallback when <S, D> = Re tr(S* D) is 0 or
    not finite.
    """
    sd = abs(float(np.vdot(S, D)))
    num, den = (float(np.vdot(S, S)), sd) if odd else (sd, float(np.vdot(D, D)))
    if not (0.0 < sd < math.inf and den > 0.0):
        return fallback
    return min(max(0.5 * num / den, 1e-20), 1e20)


def gradient_descent(obj: Objective, x0: StiefelPoint,
                     p: SearchParams = SearchParams()) -> OptimTrace:
    """Curvilinear-search gradient descent with Barzilai-Borwein steps and
    Armijo backtracking.

    Each step moves along the Cayley curve generated by A = F x* - x F*
    with F the Euclidean gradient; the factors of A (SearchGenerator) are
    built once per iteration and every trial step is one call to curve.
    The first line search starts at initial_step; every later one starts
    at the Barzilai-Borwein step from the last two iterates and their
    gradients A x (_bb_step), and falls back to initial_step when
    Re tr(S* D) is 0 or not finite.  Either start is cut to
    _SATURATION / |N U*U|_F, where the curve has saturated.
    f decreases along the curve at rate |A|_F^2 at t = 0, and a trial step
    tau is accepted when f(alpha(tau)) <= f(x) - 1e-4 tau |A|_F^2 (_ARMIJO_C),
    so every accepted step decreases f.
    A rejected tau is replaced by the minimiser of the quadratic through
    f(0), that slope and f(tau), clamped to [0.1, 0.5] * tau (0.5 is
    _BACKTRACK_FACTOR), or by 0.1 tau where that minimiser is NaN; halving
    alone can settle on a step that flips the steepest component of x every
    iteration.  A trial whose core is Singular (not finite included), whose
    point fails the x*x = I check or whose objective value is NaN is a
    rejected step too: tau is halved, and the backtrack counts.  After 40
    backtracks (_MAX_BACKTRACKS) the line search fails.
    Terminates when the Riemannian gradient norm, read from the generator
    (gnorm), drops below grad_tol, the iteration budget is exhausted, or
    the line search fails.
    """
    ks = kalg._SEARCH_KERNELS[x0.field]
    x = x0
    fval = obj.f(x)
    step_taken = 0.0
    backtracks = 0
    records = []
    reason = "max_iters"
    prev = None  # the floats of the previous iterate's frame and of its gradient A x
    for it in range(p.max_iters + 1):
        gen = SearchGenerator.from_gradient(x, obj.egrad(x))
        records.append(IterationRecord(it, x, fval, gen.gnorm, step_taken, backtracks))
        if gen.gnorm <= p.grad_tol:
            reason = "converged"
            break
        if it == p.max_iters:
            break
        rate = gen.rate
        xf = ks.floats(gen.U[:, gen.NUx.shape[1]:])
        Ax = ks.floats(ks.product(gen.U, gen.NUx))
        tau = p.initial_step
        if prev is not None:
            tau = _bb_step(xf - prev[0], Ax - prev[1], it % 2 == 1, tau)
        if tau * gen.ng_norm > _SATURATION:  # min(tau, S / ng_norm) with no 1/0
            tau = _SATURATION / gen.ng_norm
        prev = (xf, Ax)
        backtracks = 0
        while backtracks <= _MAX_BACKTRACKS:
            try:
                cand = curve(gen, tau)
            except (Singular, NotOrthonormal):
                cand = None
            fcand = math.nan if cand is None else obj.f(cand)
            if math.isnan(fcand):
                tau *= _BACKTRACK_FACTOR
                backtracks += 1
                continue
            if fcand <= fval - _ARMIJO_C * tau * rate:
                break
            # the step was rejected, so the denominator exceeds (1 - _ARMIJO_C) tau rate
            tau_q = rate * tau * tau / (2.0 * (fcand - fval + rate * tau))
            # 0.1 tau first: max keeps its first argument against a NaN tau_q,
            # which a huge tau gives when rate tau^2 and the denominator overflow
            tau = min(max(0.1 * tau, tau_q), _BACKTRACK_FACTOR * tau)
            backtracks += 1
        else:  # no trial was accepted
            reason = "linesearch_failed"
            break
        x, fval = cand, fcand
        step_taken = tau
    return OptimTrace(tuple(records), reason)


def _once_per_point(image: Callable[[StiefelPoint], object]) -> Callable[[StiefelPoint], object]:
    """image(x), formed again only for a point object other than the last one
    seen: the search evaluates f at the point it accepts and egrad right
    after, so the objectives' image of a point is formed once."""
    last = (None, None)

    def at(x: StiefelPoint):
        nonlocal last
        if last[0] is not x:
            last = (x, image(x))
        return last[1]

    return at


def rayleigh_objective(M: Mat) -> Objective:
    """Trace objective f(x) = Re tr(x* M x); M is checked Hermitian within kalg.CHECK_TOL.

    M x is formed once per point, on the native arrays of
    kalg._SEARCH_KERNELS (over H one matmul of adjoints), and converted
    back to components only for egrad; f and egrad are the same to the bit
    as Re tr(x* (M @ x)) and 2 (M @ x) on Mat values over the ring of the
    native arrays (over H, C on the adjoints, with f halved), and reject a
    point over another base ring or with another number of rows as M @ x
    does.
    """
    resid = kalg.frobenius_norm(M - M.H)
    if not resid <= kalg.CHECK_TOL * max(1.0, kalg.frobenius_norm(M)):
        raise NotHermitian(f"M - M* residual {resid:.3e}")
    fld = M.field
    ks = kalg._SEARCH_KERNELS[fld]
    Mv = ks.native(M.data)

    @_once_per_point
    def image(x: StiefelPoint) -> tuple[np.ndarray, np.ndarray]:
        M._check_product(x.m)
        xv = ks.native(x.m.data)
        return xv, ks.product(Mv, xv)

    def f(x: StiefelPoint) -> float:
        return ks.inner(*image(x))

    def egrad(x: StiefelPoint) -> Mat:
        return Mat._trusted(fld, ks.components(image(x)[1]) * 2.0)

    return Objective(f, egrad)


def procrustes_objective(B: Mat, C: Mat) -> Objective:
    """Least-squares fit f(x) = |x B - C|_F^2."""
    if B.field is not C.field or B.cols != C.cols:
        raise ValueError("B and C must share base ring and column count")
    BH = B.H
    residual = _once_per_point(lambda x: x.m @ B - C)

    def f(x: StiefelPoint) -> float:
        return kalg.frobenius_norm(residual(x)) ** 2

    def egrad(x: StiefelPoint) -> Mat:
        return 2.0 * (residual(x) @ BH)

    return Objective(f, egrad)
