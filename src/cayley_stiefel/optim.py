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
"Two-point step size gradient methods", IMA J. Numer. Anal. 1988).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kalg
from .kalg import Mat, Singular
from .stiefel import NotOrthonormal, StiefelPoint


class NotHermitian(Exception):
    """Raised when a matrix required to be Hermitian is not."""


@dataclass(frozen=True)
class Objective:
    """A smooth objective on the Stiefel manifold with its Euclidean gradient."""

    f: Callable[[StiefelPoint], float]
    egrad: Callable[[StiefelPoint], Mat]


@dataclass(frozen=True)
class SearchParams:
    initial_step: float = 1.0
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_iters: int = 1000
    grad_tol: float = 1e-6
    max_backtracks: int = 40

    def __post_init__(self):
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if not 0.0 < self.initial_step < math.inf:
            raise ValueError(f"initial_step must be finite and positive, got {self.initial_step}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")
        if self.max_backtracks < 0:
            raise ValueError(f"max_backtracks must be nonnegative, got {self.max_backtracks}")


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


def _inner(a: Mat, b: Mat) -> float:
    """Real inner product Re tr(a* b) of two matrices of one shape.

    It is the dot product of the real component arrays in R, C and H, so
    no matrix product is formed.
    """
    return float(np.vdot(a.data, b.data))


def descent_skew(x: StiefelPoint, F: Mat) -> Mat:
    """The skew-Hermitian search generator F x* - x F*."""
    if F.shape != x.m.shape:
        raise ValueError("gradient shape must match the frame")
    return F @ x.m.H - x.m @ F.H


@dataclass(frozen=True)
class SearchGenerator:
    """The search generator A = descent_skew(x, F), factored as U N U*.

    With W = F - x(x*F), K = x*F - F*x and s = |W|_F (s = 1 when W = 0),
    U = [W/s, x] and N = [[0, sI], [-sI, K]] give U N U* = F x* - x F*
    exactly, for any x, orthonormal or not.  Dividing W by s keeps the
    condition number of the curve's core I + t N U*U growing like t |A|
    rather than t^2 |W|^2.  Holds the products every point of the curve
    needs: U, N U*U, N U*x and the rate |A|_F^2 = -Re tr((N U*U)^2) at
    which f decreases along the curve at t = 0, and the Riemannian gradient
    norm gnorm = |W + xK/2|_F, equal to |F - x herm(x*F)|_F for any x.
    """

    x: StiefelPoint
    U: Mat
    NG: Mat
    NUx: Mat
    rate: float
    gnorm: float

    @classmethod
    def from_gradient(cls, x: StiefelPoint, F: Mat) -> "SearchGenerator":
        if F.shape != x.m.shape:
            raise ValueError("gradient shape must match the frame")
        k, fld = x.k, x.field
        xF = x.m.H @ F
        W = F - x.m @ xF
        K = xF - xF.H
        s = kalg.frobenius_norm(W) or 1.0
        U = kalg.hstack((1.0 / s) * W, x.m)
        # with G = U*U split into k-row blocks, N G = [s G_bot; K G_bot - s G_top];
        # U*x is the last k columns of G, so N U*x is the last k columns of N G
        G = (U.H @ U).data
        bot = Mat._trusted(fld, G[k:])
        NG = Mat._trusted(fld, np.concatenate([s * G[k:], (K @ bot).data - s * G[:k]]))
        gnorm = kalg.frobenius_norm(W + x.m @ (0.5 * K))
        return cls(x, U, NG, NG.block(0, 2 * k, k, 2 * k), -_inner(NG.H, NG), gnorm)


def curve(g: SearchGenerator, t: float, tol: float = kalg.DEFAULT_TOL) -> StiefelPoint:
    """Point alpha(t) = c(tA) x of the curvilinear search curve, A = U N U*.

    c is the Cayley transform at the identity of the group; the derivative
    at t = 0 is -2 A x.  By Woodbury,
    alpha(t) = x - 2t U (I + t N U*U)^{-1} N U*x, so one point costs a 2k x 2k
    inversion.  Raises Singular when that core fails the relative
    singular-value test at tol, and NotOrthonormal when the point fails the
    x*x = I check; both happen only once t |A| is large enough for rounding
    to swamp the step.
    """
    if not math.isfinite(t):
        raise ValueError(f"curve parameter must be finite, got {t}")
    core = g.NG.data * t
    kalg._shift_diagonal(core, 1.0)
    step = g.U @ (kalg.mat_inverse(Mat._trusted(g.NG.field, core), tol) @ g.NUx)
    return StiefelPoint(g.x.m - (2.0 * t) * step)


def riemannian_gradient(x: StiefelPoint, egrad: Mat) -> Mat:
    """Projection of the Euclidean gradient onto the tangent space at x."""
    return egrad - x.m @ kalg.hermitian_part(x.m.H @ egrad)


def _bb_step(S: Mat, D: Mat, odd: bool, fallback: float) -> float:
    """Barzilai-Borwein start of a line search along the Cayley curve.

    S = x_k - x_{k-1} and D = A_k x_k - A_{k-1} x_{k-1} are the differences
    of the iterates and of the gradients A x.  The step is
    |S|^2 / |<S, D>| on odd iterations and |<S, D>| / |D|^2 on even ones,
    halved because the curve's derivative at t = 0 is -2 A x, and clamped
    to [1e-20, 1e20].  Returns fallback when <S, D> = Re tr(S* D) is 0 or
    not finite.
    """
    sd = abs(_inner(S, D))
    num, den = (_inner(S, S), sd) if odd else (sd, _inner(D, D))
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
    Re tr(S* D) is 0 or not finite.
    f decreases along the curve at rate |A|_F^2 at t = 0, and a trial step
    tau is accepted when f(alpha(tau)) <= f(x) - armijo_c * tau * |A|_F^2,
    so every accepted step decreases f.
    A rejected tau is replaced by the minimiser of the quadratic through
    f(0), that slope and f(tau), clamped to [0.1, backtrack_factor] * tau;
    halving alone can settle on a step that flips the steepest component
    of x every iteration.  A trial whose core is Singular or whose point
    fails the x*x = I check is a rejected step too: tau shrinks by
    backtrack_factor, and the backtrack counts.  Terminates when the
    Riemannian gradient norm, read from the generator (gnorm), drops below
    grad_tol, the iteration budget is exhausted, or the line search fails.
    """
    x = x0
    fval = obj.f(x)
    step_taken = 0.0
    backtracks = 0
    records = []
    reason = "max_iters"
    prev = None  # the previous iterate's frame and its gradient A x
    for it in range(p.max_iters + 1):
        gen = SearchGenerator.from_gradient(x, obj.egrad(x))
        records.append(IterationRecord(it, x, fval, gen.gnorm, step_taken, backtracks))
        if gen.gnorm <= p.grad_tol:
            reason = "converged"
            break
        if it == p.max_iters:
            reason = "max_iters"
            break
        rate = gen.rate
        Ax = gen.U @ gen.NUx
        tau = p.initial_step
        if prev is not None:
            tau = _bb_step(x.m - prev[0], Ax - prev[1], it % 2 == 1, tau)
        prev = (x.m, Ax)
        accepted = None
        backtracks = 0
        while backtracks <= p.max_backtracks:
            try:
                cand = curve(gen, tau)
            except (Singular, NotOrthonormal):
                tau *= p.backtrack_factor
                backtracks += 1
                continue
            fcand = obj.f(cand)
            if fcand <= fval - p.armijo_c * tau * rate:
                accepted = (cand, fcand)
                break
            # the step was rejected, so the denominator exceeds (1 - armijo_c) tau rate
            tau_q = rate * tau * tau / (2.0 * (fcand - fval + rate * tau))
            tau = min(max(tau_q, 0.1 * tau), p.backtrack_factor * tau)
            backtracks += 1
        if accepted is None:
            reason = "linesearch_failed"
            break
        x, fval = accepted
        step_taken = tau
    return OptimTrace(tuple(records), reason)


def rayleigh_objective(M: Mat, tol: float = 1e-8) -> Objective:
    """Trace objective f(x) = Re tr(x* M x) for a Hermitian matrix M."""
    resid = kalg.frobenius_norm(M - M.H)
    if not resid <= tol * max(1.0, kalg.frobenius_norm(M)):
        raise NotHermitian(f"M - M* residual {resid:.3e}")

    # the last point seen and its M x: the search evaluates f at the point
    # it accepts and egrad right after, so M x is formed once per point
    last = (None, None)

    def image(x: StiefelPoint) -> Mat:
        nonlocal last
        seen, Mx = last
        if seen is not x:
            Mx = M @ x.m
            last = (x, Mx)
        return Mx

    def f(x: StiefelPoint) -> float:
        return _inner(x.m, image(x))

    def egrad(x: StiefelPoint) -> Mat:
        return 2.0 * image(x)

    return Objective(f, egrad)


def procrustes_objective(B: Mat, C: Mat) -> Objective:
    """Least-squares fit f(x) = |x B - C|_F^2."""
    if B.field is not C.field or B.cols != C.cols:
        raise ValueError("B and C must share base ring and column count")

    def f(x: StiefelPoint) -> float:
        return kalg.frobenius_norm(x.m @ B - C) ** 2

    def egrad(x: StiefelPoint) -> Mat:
        return 2.0 * ((x.m @ B - C) @ B.H)

    return Objective(f, egrad)
