"""Orthogonality-constrained minimization by Cayley curvilinear search.

The search curve is alpha(t) = c(tA) x with A = F x* - x F* built from the
Euclidean gradient F; the curve stays on the manifold for every t, so no
re-orthonormalization is ever performed.  An experimental variant evaluates
the intrinsic Stiefel Cayley transform instead of the group curve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Callable

from . import group, kalg, stiefel
from .kalg import Mat
from .stiefel import Lift, StiefelPoint, TangentCoords


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


def real_trace(m: Mat) -> float:
    """Real part of the trace of a square matrix."""
    if m.rows != m.cols:
        raise ValueError("trace needs a square matrix")
    return float(sum(m.data[i, i, 0] for i in range(m.rows)))


def descent_skew(x: StiefelPoint, F: Mat) -> Mat:
    """The skew-Hermitian search generator F x* - x F*."""
    if F.shape != x.m.shape:
        raise ValueError("gradient shape must match the frame")
    return F @ x.m.H - x.m @ F.H


def curve(x: StiefelPoint, A: Mat, t: float, tol: float = kalg.DEFAULT_TOL) -> StiefelPoint:
    """Point alpha(t) = c(tA) x of the curvilinear search curve.

    c is the Cayley transform at the identity of the group; the derivative
    at t = 0 is -2 A x.
    """
    Q = group.cayley_at_identity(t * A, tol)
    return StiefelPoint(Q @ x.m)


def riemannian_gradient(x: StiefelPoint, egrad: Mat) -> Mat:
    """Projection of the Euclidean gradient onto the tangent space at x."""
    return egrad - x.m @ kalg.hermitian_part(x.m.H @ egrad)


def gradient_descent(obj: Objective, x0: StiefelPoint,
                     p: SearchParams = SearchParams()) -> OptimTrace:
    """Curvilinear-search gradient descent with Armijo backtracking.

    Each step moves along the Cayley curve generated by A = F x* - x F*
    with F the Euclidean gradient.  f decreases along it at rate |A|_F^2
    at t = 0, and a trial step tau is accepted when
    f(alpha(tau)) <= f(x) - armijo_c * tau * |A|_F^2.  A rejected tau is
    replaced by the minimiser of the quadratic through f(0), that slope and
    f(tau), clamped to [0.1, backtrack_factor] * tau; halving alone can
    settle on a step that flips the steepest component of x every
    iteration.  Terminates when the Riemannian gradient norm drops below
    grad_tol, the iteration budget is exhausted, or the line search fails.
    """
    x = x0
    fval = obj.f(x)
    step_taken = 0.0
    backtracks = 0
    records = []
    reason = "max_iters"
    for it in range(p.max_iters + 1):
        G = obj.egrad(x)
        gnorm = kalg.frobenius_norm(riemannian_gradient(x, G))
        records.append(IterationRecord(it, x, fval, gnorm, step_taken, backtracks))
        if gnorm <= p.grad_tol:
            reason = "converged"
            break
        if it == p.max_iters:
            reason = "max_iters"
            break
        A = descent_skew(x, G)
        rate = kalg.frobenius_norm(A) ** 2
        tau = p.initial_step
        accepted = None
        backtracks = 0
        while backtracks <= p.max_backtracks:
            cand = curve(x, A, tau)
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


def intrinsic_lift(x: StiefelPoint) -> Lift:
    """Lift A = D* with D a completion of x, so the intrinsic curve starts at x.

    The Stiefel Cayley transform under this lift sends the zero tangent to
    the last k columns of D, which are x itself.
    """
    D = stiefel.complete_lift(x)
    A = D.A.inverse
    return Lift(stiefel.rho(A, x.k), A)


def intrinsic_curve(lift: Lift, u: TangentCoords, t: float,
                    tol: float = kalg.DEFAULT_TOL) -> StiefelPoint:
    """Experimental retraction: the Stiefel Cayley transform evaluated at t u.

    The lift must come from intrinsic_lift so the curve passes through the
    current iterate at t = 0; derivatives are validated numerically rather
    than claimed by formula.
    """
    if u.lift is not lift:
        raise ValueError("tangent coordinates must be expressed in the given lift")
    return stiefel.gamma(u.scaled(t), tol)


def rayleigh_objective(M: Mat, tol: float = 1e-8) -> Objective:
    """Trace objective f(x) = Re tr(x* M x) for a Hermitian matrix M."""
    resid = kalg.frobenius_norm(M - M.H)
    if resid > tol * max(1.0, kalg.frobenius_norm(M)):
        raise NotHermitian(f"M - M* residual {resid:.3e}")

    def f(x: StiefelPoint) -> float:
        return real_trace(x.m.H @ (M @ x.m))

    def egrad(x: StiefelPoint) -> Mat:
        return 2.0 * (M @ x.m)

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
