import json
import math
import sys

import numpy as np
import pytest

from conftest import (assert_same_bits, matmul_adjoint, random_skew, recorded_kernel,
                      svd_test_runs)

from cayley_stiefel import group, kalg, optim, stiefel
from cayley_stiefel.kalg import Field, Mat, Singular
from cayley_stiefel.optim import (NotHermitian, Objective, SearchGenerator, SearchParams,
                                  _bb_step, curve, gradient_descent,
                                  procrustes_objective, rayleigh_objective)
from cayley_stiefel.stiefel import NotOrthonormal, StiefelPoint


def fro(m):
    return kalg.frobenius_norm(m)


def real_trace(m):
    """Re tr(m) from the diagonal, the reference for the component inner products."""
    assert m.rows == m.cols
    return float(m.data[:, :, 0].trace())


def descent_skew(x, F):
    """The skew-Hermitian search generator F x* - x F*, the reference for SearchGenerator."""
    return F @ x.m.H - x.m @ F.H


def riemannian_gradient(x, egrad):
    """Projection of the Euclidean gradient onto the tangent space at x, the reference
    for SearchGenerator.gnorm."""
    return egrad - x.m @ kalg.hermitian_part(x.m.H @ egrad)


def chi(m):
    """Complex matrix of m, with quaternions in the adjoint [[Z1, Z2], [-conj Z2, conj Z1]].

    Over H every eigenvalue of a Hermitian m appears twice.
    """
    d = m.data
    if m.field is Field.REAL:
        return d[:, :, 0]
    z1 = d[:, :, 0] + 1j * d[:, :, 1]
    if m.field is Field.COMPLEX:
        return z1
    z2 = d[:, :, 2] + 1j * d[:, :, 3]
    return np.block([[z1, z2], [-z2.conj(), z1.conj()]])


def diag_real(values):
    n = len(values)
    data = np.zeros((n, n, 1))
    for i, v in enumerate(values):
        data[i, i, 0] = v
    return Mat(Field.REAL, data)


class TestDescentSkew:
    def test_zero_gradient(self, field):
        x = stiefel.random_stiefel_point(4, 2, field, 1)
        assert fro(descent_skew(x, kalg.zeros(4, 2, field))) == 0.0

    def test_gradient_equal_to_frame_cancels(self, field):
        x = stiefel.random_stiefel_point(4, 2, field, 2)
        assert fro(descent_skew(x, x.m)) <= 1e-14

    def test_skewness(self, field):
        x = stiefel.random_stiefel_point(5, 2, field, 3)
        F = kalg.random_gaussian(5, 2, field, 4)
        A = descent_skew(x, F)
        assert fro(A + A.H) <= 1e-13 * fro(A)


def dense_curve(x, F, t):
    """c(tA) x with A = descent_skew(x, F), through the n x n Cayley transform."""
    return group.cayley_at_identity(t * descent_skew(x, F)) @ x.m


class TestCurve:
    def test_starts_at_x(self, field):
        x = stiefel.random_stiefel_point(5, 2, field, 5)
        g = SearchGenerator.from_gradient(x, kalg.random_gaussian(5, 2, field, 6))
        assert fro(curve(g, 0.0).m - x.m) == 0.0

    # at 1e308 the parameter is finite but 2t overflows
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 1e308, -1e308])
    def test_rejects_non_finite_parameter(self, t):
        x = stiefel.random_stiefel_point(5, 2, Field.REAL, 5)
        g = SearchGenerator.from_gradient(x, kalg.random_gaussian(5, 2, Field.REAL, 6))
        with pytest.raises(ValueError):
            curve(g, t)

    def test_derivative_at_zero(self, field):
        x = stiefel.random_stiefel_point(5, 2, field, 7)
        F = kalg.random_gaussian(5, 2, field, 8)
        A, g = descent_skew(x, F), SearchGenerator.from_gradient(x, F)
        expected = -2.0 * (A @ x.m)
        h = 1e-5
        fd = (1.0 / (2 * h)) * (curve(g, h).m - curve(g, -h).m)
        assert fro(fd - expected) <= 1e-6 * (1 + fro(expected))

    def test_derivative_order_two(self, field):
        x = stiefel.random_stiefel_point(5, 2, field, 9)
        F = kalg.random_gaussian(5, 2, field, 10)
        A, g = descent_skew(x, F), SearchGenerator.from_gradient(x, F)
        expected = -2.0 * (A @ x.m)

        def err(h):
            fd = (1.0 / (2 * h)) * (curve(g, h).m - curve(g, -h).m)
            return fro(fd - expected)

        assert 3.5 <= err(1e-3) / err(5e-4) <= 4.5

    def test_stays_on_manifold(self, field):
        x = stiefel.random_stiefel_point(5, 2, field, 11)
        g = SearchGenerator.from_gradient(x, kalg.random_gaussian(5, 2, field, 12))
        for t in (0.1, 0.7, 2.5):
            a = curve(g, t)
            assert fro(a.m.H @ a.m - kalg.identity(2, field)) <= 1e-11

    def test_feasibility_over_500_steps(self):
        # the curve preserves the manifold with no re-orthonormalization
        fld = Field.REAL
        x = stiefel.random_stiefel_point(8, 3, fld, 13)
        M = kalg.hermitian_part(kalg.random_gaussian(8, 8, fld, 14))
        obj = rayleigh_objective(M)
        for _ in range(500):
            x = curve(SearchGenerator.from_gradient(x, obj.egrad(x)), 0.01)
        assert fro(x.m.H @ x.m - kalg.identity(3, fld)) <= 1e-8

    @pytest.mark.parametrize("n,k,seed", [(6, 2, 60), (5, 3, 61)],
                             ids=["generic", "rank_deficient_W"])
    def test_matches_dense_cayley(self, field, n, k, seed):
        # at n = 5, k = 3 the columns of W = F - x x*F span at most n - k = 2 dimensions
        x = stiefel.random_stiefel_point(n, k, field, seed)
        F = kalg.random_gaussian(n, k, field, seed + 100)
        g = SearchGenerator.from_gradient(x, F)
        normA = fro(descent_skew(x, F))
        assert abs(g.rate - normA ** 2) <= 1e-12 * normA ** 2
        for t in (0.0, 1e-3, 0.5, 3.0, 100.0):
            err = fro(curve(g, t).m - dense_curve(x, F, t))
            assert err <= 1e-12 * (1 + t * normA)

    def test_gradient_normal_to_frame(self, field):
        # F = x S makes W = 0, so A = x K x* with K = S - S*
        x = stiefel.random_stiefel_point(5, 2, field, 62)
        F = x.m @ kalg.random_gaussian(2, 2, field, 63)
        g = SearchGenerator.from_gradient(x, F)
        normA = fro(descent_skew(x, F))
        for t in (0.0, 1e-3, 0.5, 3.0, 100.0):
            err = fro(curve(g, t).m - dense_curve(x, F, t))
            assert err <= 1e-12 * (1 + t * normA)

    def test_exact_off_the_manifold(self, field):
        # iterates drift from x*x = I by rounding; the Woodbury form stays
        # exact there, while a k x k formula that assumes x*x = I is off by ~1e-9
        x0 = stiefel.random_stiefel_point(6, 2, field, 64)
        x = stiefel.StiefelPoint(Mat(field, (1.0 + 1e-9) * x0.m.data))
        F = kalg.random_gaussian(6, 2, field, 65)
        g = SearchGenerator.from_gradient(x, F)
        for t in (0.5, 3.0):
            assert fro(curve(g, t).m - dense_curve(x, F, t)) <= 1e-13


def search_ring(field):
    """The ring the search computes in (kalg._SEARCH_KERNELS): the field itself
    over R and C, and C over H, where its native arrays are interleaved adjoints."""
    return Field.COMPLEX if field is Field.QUATERNION else field


def to_ring(m, ring):
    """m as a Mat over ring: m itself, or over H its interleaved adjoint
    (conftest.matmul_adjoint) as a complex Mat."""
    if ring is m.field:
        return m
    return Mat(ring, kalg._KERNELS[ring].components(matmul_adjoint(m.data)))


def from_ring(m, field):
    """The components over field of a Mat from to_ring: over H its (i, 0) rows."""
    if m.field is field:
        return m.data
    return np.ascontiguousarray(m.data[::2]).reshape(m.rows // 2, m.cols // 2, 4)


def ring_inner(a, b, field):
    """Re tr(A* B) over field from Mat values over any ring of to_ring: an
    adjoint's inner products are twice the quaternion ones, so they are halved."""
    return (1.0 if a.field is field else 0.5) * float(np.vdot(a.data, b.data))


def ring_norm(m, field):
    """|M|_F over field from a Mat over any ring of to_ring (ring_inner)."""
    return math.sqrt(ring_inner(m, m, field))


def generator_mats(g):
    """The generator's native U, NG and NUx as Mat values over the ring they are
    in: complex adjoints over H, or components in the component form."""
    ring = Field.COMPLEX if np.iscomplexobj(g.U) else g.x.field
    ks = kalg._KERNELS[ring]
    return tuple(Mat(ring, ks.components(a)) for a in (g.U, g.NG, g.NUx))


def dense_generator(x, F):
    """U, and the dense N = [[0, sI], [-sI, K]] of the SearchGenerator docstring."""
    k, fld = x.k, x.field
    xF = x.m.H @ F
    W = F - x.m @ xF
    K = xF - xF.H
    s = fro(W) or 1.0
    U = kalg.hstack((1.0 / s) * W, x.m)
    sI = s * kalg.identity(k, fld)
    N = kalg.vstack(kalg.hstack(kalg.zeros(k, k, fld), sI), kalg.hstack(-sI, K))
    return U, N


class TestSearchGenerator:
    @pytest.mark.parametrize("drift", [0.0, 1e-9])
    def test_blocks_match_dense_N(self, field, drift):
        x0 = stiefel.random_stiefel_point(7, 3, field, 66)
        x = StiefelPoint((1.0 + drift) * x0.m)
        F = kalg.random_gaussian(7, 3, field, 67)
        g = SearchGenerator.from_gradient(x, F)
        U, N = dense_generator(x, F)
        _, NG, NUx = generator_mats(g)  # over H, the adjoints as complex Mats
        bound = 1e-13 * (1 + fro(F) ** 2)
        assert ring_norm(NG - to_ring(N @ (U.H @ U), NG.field), field) <= bound
        assert ring_norm(NUx - to_ring(N @ (U.H @ x.m), NG.field), field) <= bound
        assert abs(g.rate + real_trace(NG @ NG) * (0.5 if NG.field is not field else 1.0)) <= bound

    def test_product_count(self, field, monkeypatch):
        # x*F, x (x*F), U*U, K G_bot and x K/2, each one product of the search's
        # native kernel set; N is never formed, and over H no product builds an
        # adjoint (kalg._adjoint_product)
        x = stiefel.random_stiefel_point(7, 3, field, 68)
        F = kalg.random_gaussian(7, 3, field, 69)
        adjoint_products = recorded_adjoint_products(monkeypatch)
        products = recorded_kernel(monkeypatch, field, "product", kalg._SEARCH_KERNELS)
        SearchGenerator.from_gradient(x, F)
        assert len(products) == 5
        assert adjoint_products == []

    # t |NG|_F = c / 2, from 0 to 1.5 either way
    @pytest.mark.parametrize("c", [0.0, 0.5, -0.99, 0.99, 1.01, -1.01, 3.0])
    def test_curve_counts(self, field, c, monkeypatch):
        n, k, nc = 7, 3, field.ncomp
        x = stiefel.random_stiefel_point(n, k, field, 68)
        g = SearchGenerator.from_gradient(x, kalg.random_gaussian(n, k, field, 69))
        t = c * 0.5 / g.ng_norm
        adjoint_products = recorded_adjoint_products(monkeypatch)
        products = recorded_kernel(monkeypatch, field, "product", kalg._SEARCH_KERNELS)
        svd_tests = recorded_calls(monkeypatch, "_svd_test")
        curve(g, t)
        # inv N U*x and U (inv N U*x) for the step, on the search's native kernel
        # set; x*x of the point's frame check, on the field's; shapes as components
        step = [((2 * k, 2 * k, nc), (2 * k, k, nc)), ((n, 2 * k, nc), (2 * k, k, nc))]
        frame_check = [((k, n, nc), (n, k, nc))]
        if field is Field.QUATERNION:
            # the frame check stays on the component set, and the step builds no adjoint
            assert products == step
            assert adjoint_products == [("_frame_residuals", *frame_check)]
        else:
            assert products == step + frame_check
        # the core I + t N U*U is well conditioned, so its inverse decides the test
        assert svd_tests == []

    # F = x S puts W = 0 and N U*U of rank k: the core's condition number grows with t
    @pytest.mark.parametrize("c", [1.0, 1e3, 1e12])
    def test_curve_tests_an_ill_conditioned_core(self, field, c, monkeypatch):
        # the base frame [0; I]
        x = StiefelPoint(Mat(field, np.eye(7, 3, -4)[:, :, None] * np.eye(1, field.ncomp)))
        g = SearchGenerator.from_gradient(x, x.m @ kalg.random_gaussian(3, 3, field, 5))
        t = c / g.ng_norm
        ring = search_ring(field)  # over H the core is an adjoint, a complex matrix
        core = kalg._KERNELS[ring].components(g.NG) * t
        kalg._shift_diagonal(core, 1.0)
        must_run = svd_test_runs(ring, core, kalg.DEFAULT_TOL)
        assert must_run is (c > 1e6)
        svd_tests = recorded_calls(monkeypatch, "_svd_test")
        try:
            curve(g, t)
        except (Singular, NotOrthonormal):
            pass
        assert len(svd_tests) == must_run

    def test_conversion_count(self, field, monkeypatch):
        # into the native arrays: x and F, once per generator, which holds only
        # native arrays; back to components: the point once per curve point.
        # The point's frame check views its components once.
        n, k = 7, 3
        x = stiefel.random_stiefel_point(n, k, field, 68)
        F = kalg.random_gaussian(n, k, field, 69)
        conversions = recorded_conversions(monkeypatch, field)
        g = SearchGenerator.from_gradient(x, F)
        assert conversions == [("native", "from_gradient")] * 2
        conversions.clear()
        curve(g, 0.25 / g.ng_norm)
        assert conversions == [("components", "curve"), ("native", "_frame_residuals")]

    def test_conversions_per_iteration(self, field, monkeypatch):
        # a Rayleigh solve: per generator 2 in and egrad's 1 out; per curve
        # point 1 out, the frame check's 1 in and M x's 1 in, which the start
        # x0 makes once more
        M = kalg.hermitian_part(kalg.random_gaussian(9, 9, field, 7))
        x0 = stiefel.random_stiefel_point(9, 3, field, 8)
        obj = rayleigh_objective(M)  # which views M once
        conversions = recorded_conversions(monkeypatch, field)
        trace = gradient_descent(obj, x0, SearchParams(max_iters=6))
        generators = len(trace.records)
        points = sum(r.backtracks + 1 for r in trace.records[1:])
        assert trace.reason == "max_iters" and points > generators - 1
        counts = {}
        for key in conversions:
            counts[key] = counts.get(key, 0) + 1
        assert counts == {("native", "from_gradient"): 2 * generators,
                          ("components", "egrad"): generators,
                          ("components", "curve"): points,
                          ("native", "_frame_residuals"): points,
                          ("native", "image"): points + 1}

    def test_rejects_gradient_over_another_ring(self, field):
        x = stiefel.random_stiefel_point(7, 3, field, 68)
        other = Field.COMPLEX if field is Field.REAL else Field.REAL
        with pytest.raises(ValueError, match="mixed base rings"):
            SearchGenerator.from_gradient(x, kalg.random_gaussian(7, 3, other, 69))

    def test_rejects_gradient_of_another_shape(self, field):
        x = stiefel.random_stiefel_point(7, 3, field, 68)
        with pytest.raises(ValueError, match="gradient shape"):
            SearchGenerator.from_gradient(x, kalg.random_gaussian(7, 2, field, 69))


def recorded_calls(monkeypatch, name):
    """Patch kalg.<name> to record the shapes of its array arguments; returns the record."""
    calls = []
    fn = getattr(kalg, name)

    def recorded(fld, *arrays, **kwargs):
        calls.append(tuple(a.shape for a in arrays if isinstance(a, np.ndarray)))
        return fn(fld, *arrays, **kwargs)

    monkeypatch.setattr(kalg, name, recorded)
    return calls


def recorded_conversions(monkeypatch, field):
    """Patch the conversions of field's native kernel sets, the search's and
    the rest of the library's (kalg._SEARCH_KERNELS and kalg._KERNELS, one set
    but over H), to record (native or components, the calling function's
    name); returns the record."""
    calls = []
    for ks in {id(s): s for s in (kalg._KERNELS[field], kalg._SEARCH_KERNELS[field])}.values():
        for name in ("native", "components"):
            def recorded(a, name=name, kernel=getattr(ks, name)):
                calls.append((name, sys._getframe(1).f_code.co_name))
                return kernel(a)

            monkeypatch.setattr(ks, name, recorded)
    return calls


def recorded_adjoint_products(monkeypatch):
    """Patch the product of kalg._KERNELS over H, kalg._adjoint_product, which
    builds the adjoint of its right operand, to record (the calling function's
    name, the component shapes of its arguments); returns the record."""
    ks = kalg._KERNELS[Field.QUATERNION]
    calls = []

    def recorded(a, b, kernel=ks.product):
        calls.append((sys._getframe(1).f_code.co_name, (a.shape, b.shape)))
        return kernel(a, b)

    monkeypatch.setattr(ks, "product", recorded)
    return calls


def mat_from_gradient(x, F, ring=None):
    """SearchGenerator.from_gradient on Mat values over ring, one Mat per
    intermediate: the reference for its arithmetic on native arrays, which it
    holds as they are.  ring defaults to the search's (search_ring): over H the
    formulas run over C on the interleaved adjoints, with the inner products
    and norms halved, as the search makes them.  ring=H gives the component
    form, on quaternion Mat values."""
    if F.shape != x.m.shape:
        raise ValueError("gradient shape must match the frame")
    fld = x.field
    ring = ring or search_ring(fld)
    xm, Fm = to_ring(x.m, ring), to_ring(F, ring)
    k = xm.cols
    xF = xm.H @ Fm
    W = Fm - xm @ xF
    K = xF - xF.H
    s = ring_norm(W, fld) or 1.0
    U = kalg.hstack((1.0 / s) * W, xm)
    G = (U.H @ U).data
    bot = Mat._trusted(ring, G[k:])
    NG = Mat._trusted(ring, np.concatenate([s * G[k:], (K @ bot).data - s * G[:k]]))
    gnorm = ring_norm(W + xm @ (0.5 * K), fld)
    ks = kalg._KERNELS[ring]
    return SearchGenerator(x, ks.native(U.data), ks.native(NG.data),
                           ks.native(NG.block(0, 2 * k, k, 2 * k).data),
                           -ring_inner(NG.H, NG, fld), gnorm, ring_norm(NG, fld))


def mat_curve(g, t):
    """curve on Mat values over the ring of g's arrays (generator_mats), with
    mat_inverse's SVD test on every core: the reference for its arithmetic on
    native arrays and its norm bound.  The point goes back to components as
    the search's does."""
    if not math.isfinite(t):
        raise ValueError(f"curve parameter must be finite, got {t}")
    U, NG, NUx = generator_mats(g)
    core = NG.data * t
    kalg._shift_diagonal(core, 1.0)
    step = U @ (kalg.mat_inverse(Mat._trusted(NG.field, core)) @ NUx)
    point = U.block(0, U.rows, NUx.cols, U.cols) - (2.0 * t) * step
    return StiefelPoint(Mat._trusted(g.x.field, from_ring(point, g.x.field)))


def curve_outcome(curve_fn, g, t):
    """The point's components, or the type of the rejection curve_fn raised."""
    try:
        return curve_fn(g, t).m.data
    except (Singular, NotOrthonormal) as exc:
        return type(exc)


class TestMatReference:
    """The array arithmetic of from_gradient and curve against the Mat formulas, bit for bit."""

    STEPS = [0.0, 1e-3, -0.05, 0.3, 1.0, 7.0, 1e6]

    @staticmethod
    def frames(n, k, field):
        """Four random frames, then one 1e-10 off x*x = I; each with a Gaussian gradient."""
        for seed in range(4):
            yield (stiefel.random_stiefel_point(n, k, field, 300 + seed),
                   kalg.random_gaussian(n, k, field, 400 + seed))
        x = stiefel.random_stiefel_point(n, k, field, 304)
        drift = 1e-10 * kalg.random_gaussian(n, k, field, 305).data
        yield StiefelPoint(Mat(field, x.m.data + drift)), kalg.random_gaussian(n, k, field, 404)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 3), (5, 2), (9, 4), (20, 4), (4, 0)])
    def test_bit_identical(self, field, n, k):
        bounded = set()
        for x, F in self.frames(n, k, field):
            g, ref = SearchGenerator.from_gradient(x, F), mat_from_gradient(x, F)
            for got, want in zip(generator_mats(g), generator_mats(ref)):
                assert_same_bits(got.data, want.data)
            for name in ("rate", "gnorm", "ng_norm"):
                assert_same_bits(getattr(g, name), getattr(ref, name))
            for t in self.STEPS:
                got, want = curve_outcome(curve, g, t), curve_outcome(mat_curve, ref, t)
                if isinstance(want, type) or isinstance(got, type):
                    assert got is want
                else:
                    assert_same_bits(got, want)
                bounded.add(abs(t) * g.ng_norm <= 0.5)
        # both paths are taken: t = 0 is within the bound and, for k >= 1, t = 1e6 is not
        assert bounded == ({True, False} if k else {True})

    # at n = 5, k = 3, W has rank at most 2, so the core I + t N U*U nears
    # singularity as t grows; at scale 1e8 the first trials are Singular or
    # lose the manifold to rounding
    @pytest.mark.parametrize("n,k,scale", [(20, 4, 1.0), (5, 3, 1e8)])
    def test_solve_bit_identical(self, field, n, k, scale, monkeypatch):
        M = scale * kalg.hermitian_part(kalg.random_gaussian(n, n, field, 7))
        self.check_solve(field, lambda: rayleigh_objective(M), n, k, scale, monkeypatch)

    # the same for the Procrustes fit: x B - C with B of 2 columns puts W of
    # rank at most 2, and B and C of scale sqrt(scale) give gradients of scale
    @pytest.mark.parametrize("n,k,scale", [(20, 4, 1.0), (5, 3, 1e8)])
    def test_procrustes_solve_bit_identical(self, field, n, k, scale, monkeypatch):
        B = math.sqrt(scale) * kalg.random_gaussian(k, 2, field, 9)
        C = math.sqrt(scale) * kalg.random_gaussian(n, 2, field, 10)
        self.check_solve(field, lambda: procrustes_objective(B, C), n, k, scale, monkeypatch)

    @staticmethod
    def check_solve(field, objective, n, k, scale, monkeypatch):
        """gradient_descent on objective() from a random frame against the same
        search on the Mat formulas, record for record, bit for bit; above scale 1
        the search must reject trials both as Singular and as NotOrthonormal."""
        x0 = stiefel.random_stiefel_point(n, k, field, 8)
        p = SearchParams(grad_tol=1e-6 * scale)
        rejected = set()

        def recorded(g, t):
            try:
                return curve(g, t)
            except (Singular, NotOrthonormal) as exc:
                rejected.add(type(exc))
                raise

        monkeypatch.setattr(optim, "curve", recorded)
        got = gradient_descent(objective(), x0, p)
        monkeypatch.setattr(SearchGenerator, "from_gradient", staticmethod(mat_from_gradient))
        monkeypatch.setattr(optim, "curve", mat_curve)
        want = gradient_descent(objective(), x0, p)
        assert got.reason == want.reason == "converged"
        assert rejected == ({Singular, NotOrthonormal} if scale > 1.0 else set())
        assert len(got.records) == len(want.records)
        for a, b in zip(got.records, want.records):
            assert (a.iteration, a.backtracks) == (b.iteration, b.backtracks)
            for va, vb in ((a.f, b.f), (a.gnorm, b.gnorm), (a.step, b.step),
                           (a.x.m.data, b.x.m.data)):
                assert_same_bits(va, vb)


# the constant of the bounds of SearchGenerator's and curve's docstrings on
# the H search's distance from the component form: 32 u, u = 2^-53
COMPONENT_FORM_BOUND = 2.0 ** -48


def assert_within_component_form_bound(g, ref, F):
    """The H generator g against the component-form ref from the same x and F,
    as SearchGenerator's docstring bounds it: gnorm, and where W = F - x x*F is
    not zero in exact arithmetic (n > k) the rest, with phi = 1 + |F|_F / s.
    Adjoint arrays are measured in the search's norm, |M|_F of the quaternion
    matrix."""
    ks, eps, x = kalg._SEARCH_KERNELS[Field.QUATERNION], COMPONENT_FORM_BOUND, g.x
    assert abs(g.gnorm - ref.gnorm) <= eps * fro(F)
    if x.n > x.k:
        s = fro(F - x.m @ (x.m.H @ F)) or 1.0
        phi = 1.0 + fro(F) / s
        assert ks.norm(g.U - ks.native(ref.U)) <= eps * phi
        for got, want in ((g.NG, ref.NG), (g.NUx, ref.NUx)):
            assert ks.norm(got - ks.native(want)) <= eps * phi * (s + fro(F))
        assert abs(g.ng_norm - ref.ng_norm) <= eps * phi * (s + fro(F))
        assert abs(g.rate - ref.rate) <= eps * phi * (s + fro(F)) ** 2


def assert_point_within_component_form_bound(g, ref, t):
    """curve(g, t) against the component-form point mat_curve(ref, t), as curve's
    docstring bounds it, with B = (I + t N U*U)^{-1}; a rejected trial must be
    rejected by both, alike."""
    got, want = curve_outcome(curve, g, t), curve_outcome(mat_curve, ref, t)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    ks = kalg._SEARCH_KERNELS[Field.QUATERNION]
    core = ks.scale(g.NG, t)
    ks.shift_diagonal(core, 1.0)
    B = np.linalg.inv(core) if core.size else core
    bound = COMPONENT_FORM_BOUND * (1.0 + abs(t) * g.ng_norm) * (1.0 + ks.norm(B))
    assert np.linalg.norm(got - want) <= bound


class TestComponentFormBound:
    """The H search on interleaved adjoints against its component form, the
    Mat formulas on quaternion values (mat_from_gradient with ring H, and
    mat_curve): within the stated bounds, field by field and point by point."""

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 3), (5, 2), (9, 4), (20, 4), (4, 0)])
    def test_generators_and_points(self, n, k):
        fld = Field.QUATERNION
        for x, F in TestMatReference.frames(n, k, fld):
            g, ref = SearchGenerator.from_gradient(x, F), mat_from_gradient(x, F, fld)
            assert_within_component_form_bound(g, ref, F)
            for t in TestMatReference.STEPS:
                assert_point_within_component_form_bound(g, ref, t)

    # every generator and every trial point of a whole solve, each against the
    # component form from the same x and F
    @pytest.mark.parametrize("problem", ["rayleigh", "procrustes"])
    def test_solve_steps(self, problem, monkeypatch):
        fld, n, k = Field.QUATERNION, 20, 4
        obj = solve_objective(problem, fld, n, k, 1.0)
        generators, trials = [], []
        from_gradient, traced = SearchGenerator.from_gradient, optim.curve

        def recorded_generator(x, F):
            generators.append((from_gradient(x, F), F))
            return generators[-1][0]

        def recorded_curve(g, t):
            trials.append((g, t))
            return traced(g, t)

        monkeypatch.setattr(SearchGenerator, "from_gradient", staticmethod(recorded_generator))
        monkeypatch.setattr(optim, "curve", recorded_curve)
        trace = gradient_descent(obj, stiefel.random_stiefel_point(n, k, fld, 8))
        monkeypatch.undo()
        assert trace.reason == "converged" and len(trials) >= len(generators) - 1 > 10
        refs = {}
        for g, F in generators:
            refs[id(g)] = mat_from_gradient(g.x, F, fld)
            assert_within_component_form_bound(g, refs[id(g)], F)
        for g, t in trials:
            assert_point_within_component_form_bound(g, refs[id(g)], t)

    # at scale 1e8 trials are rejected as Singular and as NotOrthonormal
    # (TestMatReference.check_solve); the component form ends the same way
    @pytest.mark.parametrize("problem", ["rayleigh", "procrustes"])
    def test_solve_end_reason_at_large_scale(self, problem, monkeypatch):
        fld, n, k, scale = Field.QUATERNION, 5, 3, 1e8
        x0 = stiefel.random_stiefel_point(n, k, fld, 8)
        p = SearchParams(grad_tol=1e-6 * scale)
        got = gradient_descent(solve_objective(problem, fld, n, k, scale), x0, p)
        monkeypatch.setitem(kalg._SEARCH_KERNELS, fld, kalg._KERNELS[fld])
        monkeypatch.setattr(SearchGenerator, "from_gradient",
                            staticmethod(lambda x, F: mat_from_gradient(x, F, fld)))
        monkeypatch.setattr(optim, "curve", mat_curve)
        want = gradient_descent(solve_objective(problem, fld, n, k, scale), x0, p)
        assert got.reason == want.reason == "converged"


def solve_objective(problem, field, n, k, scale):
    """The objectives of TestMatReference's solves: a Rayleigh trace of a
    Hermitian M of the given scale, or a Procrustes fit whose B has 2 columns."""
    if problem == "rayleigh":
        M = scale * kalg.hermitian_part(kalg.random_gaussian(n, n, field, 7))
        return rayleigh_objective(M)
    B = math.sqrt(scale) * kalg.random_gaussian(k, 2, field, 9)
    C = math.sqrt(scale) * kalg.random_gaussian(n, 2, field, 10)
    return procrustes_objective(B, C)


class TestRayleighObjective:
    def test_f_is_trace_of_x_star_M_x(self, field):
        M = kalg.hermitian_part(kalg.random_gaussian(9, 9, field, 70))
        x = stiefel.random_stiefel_point(9, 3, field, 71)
        expected = real_trace(x.m.H @ (M @ x.m))
        assert abs(rayleigh_objective(M).f(x) - expected) <= 1e-13 * fro(M)

    def test_values_match_mat_formulas(self, field):
        # M x on the search's native arrays: f and egrad have the bits of the Mat
        # formulas, over H run over C on the adjoints (search_ring)
        M = kalg.hermitian_part(kalg.random_gaussian(9, 9, field, 70))
        obj = rayleigh_objective(M)
        ring = search_ring(field)
        for seed in (71, 72):
            x = stiefel.random_stiefel_point(9, 3, field, seed)
            xm = to_ring(x.m, ring)
            Mx = to_ring(M, ring) @ xm
            assert_same_bits(obj.f(x), ring_inner(xm, Mx, field))
            assert_same_bits(obj.egrad(x).data, 2.0 * from_ring(Mx, field))

    def test_rejects_a_point_of_another_ring_or_order(self, field):
        # f and egrad check the point as M @ x does, and a rejected point is not
        # kept as the last one seen
        M = kalg.hermitian_part(kalg.random_gaussian(5, 5, field, 81))
        obj = rayleigh_objective(M)
        for other in Field:
            if other is not field:
                y = stiefel.random_stiefel_point(5, 2, other, 82)
                for fn in (obj.f, obj.egrad, obj.f):
                    with pytest.raises(ValueError, match="mixed base rings"):
                        fn(y)
        smaller = rayleigh_objective(kalg.hermitian_part(kalg.random_gaussian(4, 4, field, 83)))
        x = stiefel.random_stiefel_point(5, 2, field, 84)
        for fn in (smaller.f, smaller.egrad, smaller.f):
            with pytest.raises(ValueError, match="shape mismatch"):
                fn(x)
        assert_same_bits(obj.egrad(x).data, (2.0 * (M @ x.m)).data)

    def test_egrad_after_f_at_another_point(self, field):
        # egrad reuses the M x of the last point f saw only when it is the same point
        M = kalg.hermitian_part(kalg.random_gaussian(9, 9, field, 72))
        obj = rayleigh_objective(M)
        x = stiefel.random_stiefel_point(9, 3, field, 73)
        y = stiefel.random_stiefel_point(9, 3, field, 74)
        obj.f(x)
        assert fro(obj.egrad(x) - 2.0 * (M @ x.m)) == 0.0
        obj.f(y)
        assert fro(obj.egrad(x) - 2.0 * (M @ x.m)) == 0.0
        assert fro(obj.egrad(y) - 2.0 * (M @ y.m)) == 0.0

    def test_identity_matrix_gives_k(self, field):
        obj = rayleigh_objective(kalg.identity(5, field))
        x = stiefel.random_stiefel_point(5, 3, field, 15)
        assert obj.f(x) == pytest.approx(3.0)

    def test_diagonal_standard_columns(self):
        M = diag_real([1, 2, 3, 4])
        obj = rayleigh_objective(M)
        data = np.zeros((4, 2, 1))
        data[0, 0, 0] = data[1, 1, 0] = 1.0
        x = stiefel.StiefelPoint(Mat(Field.REAL, data))
        assert obj.f(x) == pytest.approx(3.0)

    def test_gradient_finite_difference(self, field):
        M = kalg.hermitian_part(kalg.random_gaussian(5, 5, field, 16))
        obj = rayleigh_objective(M)
        x = stiefel.random_stiefel_point(5, 2, field, 17)
        lift = stiefel.complete_lift(x)
        v = lift.A.m @ kalg.vstack(kalg.random_gaussian(3, 2, field, 18),
                                   random_skew(2, field, 19))
        h = 1e-6
        xp = stiefel.StiefelPoint(Mat(field, x.m.data + h * v.data))
        xm = stiefel.StiefelPoint(Mat(field, x.m.data - h * v.data))
        df = (obj.f(xp) - obj.f(xm)) / (2 * h)
        inner = real_trace(obj.egrad(x).H @ v)
        assert abs(df - inner) <= 1e-5 * (1 + abs(inner))

    def test_rejects_non_hermitian(self, field):
        with pytest.raises(NotHermitian):
            rayleigh_objective(kalg.random_gaussian(4, 4, field, 20))


class TestProcrustesObjective:
    def test_exact_fit(self, field):
        B = kalg.random_gaussian(2, 3, field, 21)
        xhat = stiefel.random_stiefel_point(5, 2, field, 22)
        obj = procrustes_objective(B, xhat.m @ B)
        assert obj.f(xhat) <= 1e-20

    def test_gradient_finite_difference(self, field):
        B = kalg.random_gaussian(2, 3, field, 23)
        C = kalg.random_gaussian(5, 3, field, 24)
        obj = procrustes_objective(B, C)
        x = stiefel.random_stiefel_point(5, 2, field, 25)
        lift = stiefel.complete_lift(x)
        v = lift.A.m @ kalg.vstack(kalg.random_gaussian(3, 2, field, 26),
                                   random_skew(2, field, 27))
        h = 1e-6
        xp = stiefel.StiefelPoint(Mat(field, x.m.data + h * v.data))
        xm = stiefel.StiefelPoint(Mat(field, x.m.data - h * v.data))
        df = (obj.f(xp) - obj.f(xm)) / (2 * h)
        inner = real_trace(obj.egrad(x).H @ v)
        assert abs(df - inner) <= 1e-5 * (1 + abs(inner))

    def test_egrad_after_f_at_another_point(self, field, monkeypatch):
        # x B - C is formed once per point: f and then egrad at one point make
        # two products, x B and (x B - C) B*; egrad at a point other than the
        # last one seen makes both
        B = kalg.random_gaussian(2, 3, field, 31)
        C = kalg.random_gaussian(5, 3, field, 32)
        x = stiefel.random_stiefel_point(5, 2, field, 33)
        y = stiefel.random_stiefel_point(5, 2, field, 34)
        want = {id(p): (fro(p.m @ B - C) ** 2, 2.0 * ((p.m @ B - C) @ B.H)) for p in (x, y)}
        obj = procrustes_objective(B, C)
        products = recorded_kernel(monkeypatch, field, "product")
        assert obj.f(x) == want[id(x)][0]
        assert_same_bits(obj.egrad(x).data, want[id(x)][1].data)
        assert len(products) == 2
        assert obj.f(y) == want[id(y)][0]
        assert_same_bits(obj.egrad(x).data, want[id(x)][1].data)
        assert_same_bits(obj.egrad(y).data, want[id(y)][1].data)
        assert len(products) == 2 + 1 + 2 + 2

    def test_descent_toward_exact_fit(self):
        fld = Field.REAL
        B = kalg.random_gaussian(2, 3, fld, 28)
        xhat = stiefel.random_stiefel_point(5, 2, fld, 29)
        obj = procrustes_objective(B, xhat.m @ B)
        x0 = stiefel.random_stiefel_point(5, 2, fld, 30)
        trace = gradient_descent(obj, x0, SearchParams(max_iters=2000))
        fs = [r.f for r in trace.records]
        assert all(a >= b - 1e-12 for a, b in zip(fs, fs[1:]))
        assert trace.final.f <= 1e-8


class TestGradientDescent:
    def test_stationary_start(self, field):
        obj = Objective(f=lambda x: 1.0,
                        egrad=lambda x: kalg.zeros(4, 2, field))
        x0 = stiefel.random_stiefel_point(4, 2, field, 31)
        trace = gradient_descent(obj, x0)
        assert trace.reason == "converged"
        assert trace.final.iteration == 0
        assert np.array_equal(trace.final.x.m.data, x0.m.data)

    def test_small_rayleigh_reaches_min_eigenvalue(self):
        obj = rayleigh_objective(diag_real([1, 2, 3]))
        x0 = stiefel.random_stiefel_point(3, 1, Field.REAL, 32)
        trace = gradient_descent(obj, x0, SearchParams(max_iters=2000))
        assert trace.reason == "converged"
        assert abs(trace.final.f - 1.0) <= 1e-6

    def test_rayleigh_matches_eigensolver(self):
        fld = Field.REAL
        M = kalg.hermitian_part(kalg.random_gaussian(20, 20, fld, 33))
        obj = rayleigh_objective(M)
        x0 = stiefel.random_stiefel_point(20, 4, fld, 34)
        trace = gradient_descent(obj, x0, SearchParams(max_iters=3000))
        oracle = float(np.sort(np.linalg.eigvalsh(M.data[:, :, 0]))[:4].sum())
        assert trace.reason == "converged"
        assert abs(trace.final.f - oracle) <= 1e-5

    def test_armijo_decrease_recorded(self, field):
        # f decreases along the curve at rate |A|_F^2 at t = 0
        M = kalg.hermitian_part(kalg.random_gaussian(8, 8, field, 35))
        obj = rayleigh_objective(M)
        x0 = stiefel.random_stiefel_point(8, 2, field, 36)
        trace = gradient_descent(obj, x0, SearchParams(max_iters=200))
        for prev, rec in zip(trace.records, trace.records[1:]):
            rate = fro(descent_skew(prev.x, obj.egrad(prev.x))) ** 2
            assert rec.f <= prev.f - optim._ARMIJO_C * rec.step * rate + 1e-12

    def test_well_separated_spectrum_does_not_zigzag(self):
        # halving from tau = 1 settles on steps that flip the components of
        # x along the top eigenvectors and stalls for hundreds of iterations
        eigs = np.concatenate([np.linspace(0.0, 1.0, 4), np.linspace(2.0, 4.0, 16)])
        q, _ = np.linalg.qr(np.random.default_rng(100).standard_normal((20, 20)))
        M = Mat(Field.REAL, (q @ np.diag(eigs) @ q.T)[:, :, None])
        x0 = stiefel.random_stiefel_point(20, 4, Field.REAL, 200)
        trace = gradient_descent(rayleigh_objective(kalg.hermitian_part(M)), x0,
                                 SearchParams(max_iters=100))
        assert trace.reason == "converged"
        assert abs(trace.final.f - 2.0) <= 1e-8

    @pytest.mark.parametrize("scale", [1e6, 1e8, 1e10])
    def test_rayleigh_converges_at_large_scale(self, field, scale):
        # convergence, and the backtrack budget, when M is far from unit scale:
        # later searches start from the Barzilai-Borwein step, which carries
        # the scale (restarting at tau = 1 cost 4784 backtracks at real, 1e10).
        # No trial here is Singular or fails the x*x = I check;
        # TestMatReference::test_solve_bit_identical reaches both rejections
        M = scale * kalg.hermitian_part(kalg.random_gaussian(12, 12, field, 7))
        x0 = stiefel.random_stiefel_point(12, 3, field, 8)
        trace = gradient_descent(rayleigh_objective(M), x0, SearchParams(grad_tol=1e-6 * scale))
        assert trace.reason == "converged"
        assert sum(r.backtracks for r in trace.records) <= 200
        mult = 2 if field is Field.QUATERNION else 1
        oracle = float(np.sort(np.linalg.eigvalsh(chi(M)))[:3 * mult].sum()) / mult
        assert abs(trace.final.f - oracle) <= 1e-10 * scale

    def test_huge_first_step_converges(self, field, capfd):
        # tau = 1e305 starts at the curve's saturation, so nothing overflows (warnings
        # are errors) and the backtracks reach steps where the curve moves; uncut,
        # 40 backtracks from the saturated curve reached only tau 2^-40
        M = 1e3 * kalg.hermitian_part(kalg.random_gaussian(6, 6, field, 39))
        x0 = stiefel.random_stiefel_point(6, 2, field, 40)
        trace = gradient_descent(rayleigh_objective(M), x0, SearchParams(initial_step=1e305))
        assert trace.reason == "converged"
        assert capfd.readouterr().out == ""

    def test_iterates_stay_feasible(self, field):
        M = kalg.hermitian_part(kalg.random_gaussian(6, 6, field, 37))
        obj = rayleigh_objective(M)
        x0 = stiefel.random_stiefel_point(6, 2, field, 38)
        trace = gradient_descent(obj, x0, SearchParams(max_iters=500))
        for rec in trace.records:
            assert fro(rec.x.m.H @ rec.x.m - kalg.identity(2, field)) <= 1e-8

    @pytest.mark.parametrize("problem", ["rayleigh", "procrustes"])
    def test_real_square_iterates_keep_the_sign_of_det(self, problem):
        # over R, c(tA) of a skew-symmetric A has determinant 1, so at n = k the
        # search never leaves the component of O(n) that x0 lies in: a Procrustes
        # fit C = xhat B with det(xhat) != det(x0) converges at f > 0
        fld, mismatched = Field.REAL, 0
        for n in (2, 3, 4):
            for seed in range(10):
                # the problems as cli.run_optimize builds them
                x0 = stiefel.random_stiefel_point(n, n, fld, seed)
                xhat = stiefel.random_stiefel_point(n, n, fld, seed + 2)
                if problem == "rayleigh":
                    obj = rayleigh_objective(
                        kalg.hermitian_part(kalg.random_gaussian(n, n, fld, seed + 1)))
                else:
                    B = kalg.random_gaussian(n, n + 1, fld, seed + 1)
                    obj = procrustes_objective(B, xhat.m @ B)
                trace = gradient_descent(obj, x0, SearchParams(max_iters=2000))
                sign = np.sign(np.linalg.det(x0.m.data[:, :, 0]))
                for rec in trace.records:
                    assert np.sign(np.linalg.det(rec.x.m.data[:, :, 0])) == sign, (n, seed)
                mismatched += sign != np.sign(np.linalg.det(xhat.m.data[:, :, 0]))
        assert mismatched == 14

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": -1}, {"max_iters": -3}, {"max_iters": 2.5}, {"max_iters": 1000.0},
        {"initial_step": 0.0}, {"initial_step": -1.0}, {"initial_step": np.inf},
        {"initial_step": np.nan}, {"initial_step": 1e308}, {"grad_tol": np.nan},
        {"grad_tol": -1e-6}, {"grad_tol": np.inf}])
    def test_params_reject_unusable_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SearchParams(**kwargs)

    def test_params_accept_boundary_values(self):
        p = SearchParams(max_iters=0, initial_step=1e-300, grad_tol=0.0)
        assert (p.max_iters, p.initial_step, p.grad_tol) == (0, 1e-300, 0.0)


def prescribed_spectrum(eigs, field, seed):
    """Q diag(eigs) Q* with Q a random unitary over the field."""
    n = len(eigs)
    Q = stiefel.random_stiefel_point(n, n, field, seed).m
    data = np.zeros((n, n, field.ncomp))
    data[range(n), range(n), 0] = eigs
    return kalg.hermitian_part(Q @ Mat(field, data) @ Q.H)


class TestStepRule:
    @staticmethod
    def trial_steps(monkeypatch):
        steps = []
        traced = optim.curve

        def recorded(g, t, *args):
            steps.append((g, t))
            return traced(g, t, *args)

        monkeypatch.setattr(optim, "curve", recorded)
        return steps

    def test_first_search_starts_at_initial_step(self, field, monkeypatch):
        M = kalg.hermitian_part(kalg.random_gaussian(8, 8, field, 75))
        x0 = stiefel.random_stiefel_point(8, 2, field, 76)
        steps = self.trial_steps(monkeypatch)
        gradient_descent(rayleigh_objective(M), x0, SearchParams(initial_step=0.37, max_iters=1))
        assert steps[0][1] == 0.37

    def test_later_searches_start_at_bb_step(self, field, monkeypatch):
        M = kalg.hermitian_part(kalg.random_gaussian(8, 8, field, 77))
        obj = rayleigh_objective(M)
        x0 = stiefel.random_stiefel_point(8, 2, field, 78)
        steps = self.trial_steps(monkeypatch)
        trace = gradient_descent(obj, x0, SearchParams(initial_step=0.37, max_iters=4))
        gens = [SearchGenerator.from_gradient(r.x, obj.egrad(r.x)) for r in trace.records]
        firsts = {}
        for g, t in steps:
            firsts.setdefault(id(g.x), t)
        for it in range(1, 4):
            prev, rec = trace.records[it - 1], trace.records[it]
            # over H the floats of the adjoints, as the search takes them
            S = to_ring(rec.x.m, search_ring(field)) - to_ring(prev.x.m, search_ring(field))
            U, _, NUx = generator_mats(gens[it])
            U_prev, _, NUx_prev = generator_mats(gens[it - 1])
            D = U @ NUx - U_prev @ NUx_prev
            assert firsts[id(rec.x)] == _bb_step(S.data, D.data, it % 2 == 1, 0.37)

    def test_bb_step_values(self, field):
        S = kalg.random_gaussian(6, 2, field, 79)
        D = kalg.random_gaussian(6, 2, field, 80)
        sd = abs(real_trace(S.H @ D))
        s, d = S.data, D.data
        assert _bb_step(s, d, True, 1.0) == pytest.approx(0.5 * fro(S) ** 2 / sd, rel=1e-12)
        assert _bb_step(s, d, False, 1.0) == pytest.approx(0.5 * sd / fro(D) ** 2, rel=1e-12)
        assert _bb_step(1e-30 * s, d, False, 1.0) == 1e-20
        assert _bb_step(s, 1e-30 * d, True, 1.0) == 1e20

    @pytest.mark.parametrize("odd", [True, False])
    def test_falls_back_when_inner_product_vanishes(self, field, odd):
        # <S, D> = Re tr(S* D) = 0: S and D have disjoint entries
        S = np.zeros((6, 2, field.ncomp))
        D = np.zeros((6, 2, field.ncomp))
        S[0, 0, :] = 1.0
        D[1, 1, :] = 2.0
        assert _bb_step(S, D, odd, 0.37) == 0.37
        # and when the difference is not finite
        assert _bb_step(np.full((6, 2, field.ncomp), np.inf), D + 1.0, odd, 0.37) == 0.37

    def test_nan_objective_value_is_a_rejected_trial(self, field, monkeypatch):
        M = kalg.hermitian_part(kalg.random_gaussian(8, 8, field, 83))
        rayleigh = rayleigh_objective(M)
        calls = []

        def f(x):
            # the 2nd call is the first trial point
            calls.append(x)
            return math.nan if len(calls) == 2 else rayleigh.f(x)

        x0 = stiefel.random_stiefel_point(8, 2, field, 84)
        steps = self.trial_steps(monkeypatch)
        trace = gradient_descent(Objective(f, rayleigh.egrad), x0, SearchParams(initial_step=0.37))
        assert trace.reason == "converged"
        assert [t for _, t in steps[:2]] == [0.37, 0.37 * 0.5]
        assert trace.records[1].backtracks >= 1

    @pytest.mark.parametrize("initial_step", [1e8, 1e12, 1e305])
    def test_start_is_cut_at_the_saturation(self, field, initial_step, monkeypatch):
        M = kalg.hermitian_part(kalg.random_gaussian(8, 8, field, 85))
        obj = rayleigh_objective(M)
        x0 = stiefel.random_stiefel_point(8, 2, field, 86)
        steps = self.trial_steps(monkeypatch)
        gradient_descent(obj, x0, SearchParams(initial_step=initial_step, max_iters=1))
        gen = SearchGenerator.from_gradient(x0, obj.egrad(x0))
        assert 1.0 < gen.ng_norm < 1e3
        assert steps[0][1] == optim._SATURATION / gen.ng_norm

    def test_nan_start_value_takes_the_backtrack_clamp(self, field, monkeypatch):
        # f(x0) = NaN makes the quadratic backtrack's minimiser NaN for every trial:
        # each tau becomes 0.1 tau, never NaN, and the search fails after the first
        # trial and its 40 backtracks
        M = kalg.hermitian_part(kalg.random_gaussian(8, 8, field, 87))
        rayleigh = rayleigh_objective(M)
        x0 = stiefel.random_stiefel_point(8, 2, field, 88)
        obj = Objective(lambda x: math.nan if x is x0 else rayleigh.f(x), rayleigh.egrad)
        steps = self.trial_steps(monkeypatch)
        trace = gradient_descent(obj, x0, SearchParams(initial_step=0.37))
        assert trace.reason == "linesearch_failed"
        taus = [t for _, t in steps]
        assert len(taus) == 41 and taus[0] == 0.37
        assert all(b == 0.1 * a for a, b in zip(taus, taus[1:]))

    def test_benchmark_spectrum_is_monotone(self, field):
        # bottom k eigenvalues linspace(0, 0.1, k), gap 0.5, the rest up to 1.1
        eigs = np.concatenate([np.linspace(0.0, 0.1, 4), np.linspace(0.6, 1.1, 16)])
        M = prescribed_spectrum(eigs, field, 81)
        x0 = stiefel.random_stiefel_point(20, 4, field, 82)
        trace = gradient_descent(rayleigh_objective(M), x0)
        assert trace.reason == "converged"
        fs = [r.f for r in trace.records]
        assert all(b <= a for a, b in zip(fs, fs[1:]))
        assert abs(fs[-1] - 0.2) <= 1e-10


class TestTraceSerialization:
    def test_jsonl_format(self):
        obj = rayleigh_objective(diag_real([1, 2, 3]))
        x0 = stiefel.random_stiefel_point(3, 1, Field.REAL, 48)
        trace = gradient_descent(obj, x0, SearchParams(max_iters=50, grad_tol=1e-4))
        lines = trace.to_jsonl().strip().split("\n")
        final = json.loads(lines[-1])
        assert final == {"reason": trace.reason}
        for line in lines[:-1]:
            rec = json.loads(line)
            assert set(rec) == {"iter", "f", "gnorm", "step", "backtracks"}


class TestRiemannianGradient:
    def test_is_tangent(self, field):
        x = stiefel.random_stiefel_point(5, 2, field, 49)
        G = kalg.random_gaussian(5, 2, field, 50)
        rg = riemannian_gradient(x, G)
        assert fro(rg.H @ x.m + x.m.H @ rg) <= 1e-12

    def test_normal_gradient_projects_to_zero(self, field):
        # egrad = 2x for the identity-matrix trace objective
        x = stiefel.random_stiefel_point(5, 2, field, 51)
        assert fro(riemannian_gradient(x, 2.0 * x.m)) <= 1e-13

    @pytest.mark.parametrize("drift", [0.0, 1e-9])
    def test_matches_search_generator_gnorm(self, field, drift):
        # exact for a drifted x too, where sqrt(|W|^2 + |K|^2/4) is off by ~drift |F|^2
        x = stiefel.StiefelPoint((1.0 + drift) * stiefel.random_stiefel_point(7, 3, field, 52).m)
        F = kalg.random_gaussian(7, 3, field, 53)
        gnorm = SearchGenerator.from_gradient(x, F).gnorm
        assert abs(gnorm - fro(riemannian_gradient(x, F))) <= 1e-13 * (1 + fro(F))
