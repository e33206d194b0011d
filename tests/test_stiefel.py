import json
import math

import numpy as np
import pytest

from conftest import (assert_same_bits, differential_min_gain, gamma_differential,
                      identity_tangent, in_cayley_open, kernel_witness, mat_payload,
                      overflow_nan, random_lift_tangent, random_skew, svd_test_runs)

from cayley_stiefel import group, kalg, stiefel
from cayley_stiefel.group import GroupElement, InvalidTangent
from cayley_stiefel.kalg import Field, Mat, Singular
from cayley_stiefel.stiefel import (Lift, NotOrthonormal, OutsideCayleyOpen, StiefelPoint,
                                    TangentCoords)

Q = Field.QUATERNION


def fro(m):
    return kalg.frobenius_norm(m)


def base_point(n, k, fld):
    """The frame [0; I_k]."""
    data = np.zeros((n, k, fld.ncomp))
    for j in range(k):
        data[n - k + j, j, 0] = 1.0
    return StiefelPoint(Mat(fld, data))


def residual(fld, data):
    """|x*x - I|_F of a frame's or a group element's components."""
    return kalg._frame_residuals(fld, data[None])[0]


def zero_bottom_point(n, k, fld, seed):
    """A frame of the form [T; 0] (needs n >= 2k)."""
    T = stiefel.random_stiefel_point(n - k, k, fld, seed)
    data = np.concatenate([T.m.data, np.zeros((k, k, fld.ncomp))], axis=0)
    return StiefelPoint(Mat(fld, data))


def ambient(t):
    """The n x k tangent vector A [X; Y] with coordinates t."""
    return t.lift.A.m @ kalg.vstack(t.X, t.Y)


def zero_tangent(lift):
    return TangentCoords(lift, kalg.zeros(lift.n - lift.k, lift.k, lift.field),
                         kalg.zeros(lift.k, lift.k, lift.field))


def mat_b_matrix(t):
    """group.b_matrix on Mat values: the reference for its arithmetic on component
    arrays."""
    X = t.X
    return kalg.mat_inverse(kalg.identity(X.cols, X.field) + X.H @ X + t.Y)


def mat_gamma(t):
    """stiefel.gamma on Mat values: the reference for its arithmetic on component arrays."""
    lift, X = t.lift, t.X
    b = mat_b_matrix(t)
    right = (lift.beta @ X + lift.P).H
    top = -2.0 * ((X @ b) @ right) + lift.beta.H
    bot = 2.0 * (b @ right) - lift.P.H
    return StiefelPoint(kalg.vstack(top, bot))


def mat_gamma_inverse(lift, y, tol=kalg.DEFAULT_TOL):
    """stiefel.gamma_inverse on Mat values."""
    tau, pi = y.m.block(0, y.n - y.k, 0, y.k), y.P
    try:
        C_inv = kalg.mat_inverse(pi + lift.P.H, tol)
    except Singular as exc:
        raise OutsideCayleyOpen(f"pi + P* is singular: {exc}") from exc
    X = -((tau - lift.beta.H) @ C_inv)
    D = (lift.beta @ X + lift.P).H
    Y = kalg.skew_hermitian_part(2.0 * (D @ C_inv))
    return TangentCoords._trusted(lift, X, Y)


def mat_cayley_block(t):
    """stiefel.cayley_block on Mat values."""
    lift, X = t.lift, t.X
    b = mat_b_matrix(t)
    bVh = b @ (lift.A.m @ kalg.vstack(X, kalg.identity(lift.k, lift.field))).H
    update = kalg.vstack(-2.0 * (X @ bVh), 2.0 * (bVh - lift.point.m.H))
    return GroupElement(lift.A.m.H + update)


def mat_local_section(lift, y):
    """stiefel.local_section on Mat values."""
    return mat_cayley_block(mat_gamma_inverse(lift, y))


def mat_contraction(lift, y, t):
    """stiefel.contraction on Mat values."""
    return mat_gamma(mat_gamma_inverse(lift, y).scaled(t))


def svd_tests(monkeypatch, fn, *args):
    """The tol of each SVD test (kalg._invertible_operand) that fn(*args) runs;
    a rejection fn raises is ignored."""
    tols = []
    invertible_operand = kalg._invertible_operand

    def recorded(fld, data, tol):
        tols.append(tol)
        return invertible_operand(fld, data, tol)

    with monkeypatch.context() as mp:
        mp.setattr(kalg, "_invertible_operand", recorded)
        try:
            fn(*args)
        except (Singular, OutsideCayleyOpen, ValueError):
            pass
    return tols


class TestRho:
    def test_identity_projects_to_base_frame(self, field):
        x = stiefel.rho(GroupElement(kalg.identity(5, field)), 2)
        assert fro(x.m - base_point(5, 2, field).m) == 0.0

    def test_extracts_last_columns(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 1)
        got = stiefel.rho(lift.A, 2)
        assert np.array_equal(got.m.data, lift.point.m.data)

    def test_result_is_orthonormal(self, field):
        M = 0.5 * random_skew(6, field, 2)
        A = GroupElement(group.cayley_at_identity(M))
        x = stiefel.rho(A, 3)
        assert fro(x.m.H @ x.m - kalg.identity(3, field)) <= 1e-12


class TestCompleteLift:
    def test_base_frame_completes_to_identity(self, field):
        lift = stiefel.complete_lift(base_point(5, 2, field))
        assert fro(lift.A.m - kalg.identity(5, field)) == 0.0

    def test_bit_identical_to_mat_steps_at_base_frame(self, field):
        # projector steps on Mat values complete the base frame to exactly I,
        # sign bits included; every reflector here is I - 2 e_r e_r*, which
        # leaves the first n - k rows exact, so the lift keeps those bits
        for n in range(1, 17):
            for k in range(n + 1):
                got = stiefel.complete_lift(base_point(n, k, field)).A.m.data
                want = kalg.identity(n, field).data
                assert np.array_equal(got, want), (n, k)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (n, k)

    def test_square_frame_is_its_own_lift(self, field):
        x = stiefel.random_stiefel_point(3, 3, field, 3)
        lift = stiefel.complete_lift(x)
        assert np.array_equal(lift.A.m.data, x.m.data)

    def test_random_frames(self, field):
        for s in range(5):
            x = stiefel.random_stiefel_point(7, 3, field, 40 + s)
            lift = stiefel.complete_lift(x)
            assert np.array_equal(lift.A.m.data[:, 4:], x.m.data)
            assert fro(lift.A.m @ lift.A.m.H - kalg.identity(7, field)) <= 1e-10

    def test_random_frame_sweep(self, field):
        # the lift is unitary to the frame's own residual: the reflectors are
        # unitary and make the completion orthogonal to x
        for n in range(1, 17):
            for k in range(n + 1):
                x = stiefel.random_stiefel_point(n, k, field, 100 * n + k)
                A = stiefel.complete_lift(x).A.m.data
                assert np.array_equal(A[:, n - k:], x.m.data), (n, k)
                assert residual(field, A) <= residual(field, x.m.data) + 1e-14, (n, k)

    def test_loose_frames_lift(self, field):
        # frames that StiefelPoint accepts lift: one 2.83e-9 off x*x = I, and
        # one just under CHECK_TOL
        x = stiefel.random_stiefel_point(6, 2, field, 3).m
        for scale, resid in ((1.0 + 1e-9, 2.83e-9), (1.0 + 3.53e-9, 9.98e-9)):
            loose = StiefelPoint(scale * x)
            assert residual(field, loose.m.data) == pytest.approx(resid, rel=1e-3)
            A = stiefel.complete_lift(loose).A.m.data
            assert np.array_equal(A[:, 4:], loose.m.data)
            assert residual(field, A) <= residual(field, loose.m.data) + 1e-14


class TestTangentFromAmbient:
    """Coordinates read off an ambient vector v at x: A*v = [X; Y], so Y = x*v.
    TangentCoords accepts them when Y is skew-Hermitian relative to |Y|."""

    def test_zero(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 4)
        assert fro(ambient(zero_tangent(lift))) == 0.0

    def test_round_trip(self, field):
        lift, t = random_lift_tangent(6, 2, field, 5)
        B = lift.A.m.H @ ambient(t)
        assert fro(B.block(0, 4, 0, 2) - t.X) <= 1e-12
        assert fro(B.block(4, 6, 0, 2) - t.Y) <= 1e-12

    def test_y_skewness_automatic(self, field):
        lift, t = random_lift_tangent(6, 3, field, 6)
        Y = lift.point.m.H @ ambient(t)
        assert fro(Y + Y.H) <= 1e-12

    def test_rejects_nontangent(self, field):
        # v = x has A*v = [0; I]
        lift, _ = random_lift_tangent(5, 2, field, 7)
        with pytest.raises(InvalidTangent):
            TangentCoords(lift, kalg.zeros(3, 2, field), lift.point.m.H @ lift.point.m)

    @staticmethod
    def tangent_plus_hermitian(lift, seed, scale_X, scale_Y, scale_E):
        """A [X; Y + E]: X, Y of norms scale_X, scale_Y with Y skew; E Hermitian of norm scale_E."""
        fld, k = lift.field, lift.k
        X = kalg.random_gaussian(lift.n - k, k, fld, seed)
        Y = random_skew(k, fld, seed + 1)
        E = kalg.hermitian_part(kalg.random_gaussian(k, k, fld, seed + 2))
        Y = (scale_Y / fro(Y)) * Y + (scale_E / fro(E)) * E
        return lift.A.m @ kalg.vstack((scale_X / fro(X)) * X, Y)

    @pytest.mark.parametrize("scale_X,scale_Y,scale_E,tangent", [
        (1e9, 1e9, 1e-6, True),   # rounding-sized next to |x*v|: accepted
        (1e9, 1.0, 1e-6, False),  # rounding-sized next to |v| only: rejected
        (1e9, 1e9, 1e3, False),   # clearly not tangent
        (1.0, 1.0, 1e-3, False),
    ])
    def test_tangency_is_relative_to_x_star_v(self, field, scale_X, scale_Y, scale_E, tangent):
        lift, _ = random_lift_tangent(6, 2, field, 48)
        v = self.tangent_plus_hermitian(lift, 49, scale_X, scale_Y, scale_E)
        B = lift.A.m.H @ v
        X, Y = B.block(0, 4, 0, 2), B.block(4, 6, 0, 2)
        if tangent:
            got = TangentCoords(lift, X, Y)
            assert fro(ambient(got) - v) <= 1e-12 * fro(v)
        else:
            with pytest.raises(InvalidTangent):
                TangentCoords(lift, X, Y)

    def test_large_scale_passes_every_skew_check(self, field):
        # rounding leaves |Y + Y*| near 1e-6 here, tiny next to |Y| ~ 1e9
        lift, t = random_lift_tangent(6, 2, field, 47, scale=1e9)
        Y = lift.point.m.H @ ambient(t)
        assert fro(Y + Y.H) > 1e-8
        got = TangentCoords(lift, t.X, Y)
        got.ambient_group()
        group.b_matrix(got)


class TestGamma:
    def test_zero_tangent_anchor(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 8)
        got = stiefel.gamma(zero_tangent(lift))
        anchor = kalg.vstack(lift.beta.H, lift.P.H)
        assert fro(got.m - anchor) <= 1e-14

    def test_zero_bottom_block_ignores_y(self, field):
        x = zero_bottom_point(6, 2, field, 9)
        lift = stiefel.complete_lift(x)
        Z = kalg.zeros(4, 2, field)
        vals = [stiefel.gamma(TangentCoords(lift, Z, random_skew(2, field, 90 + s)))
                for s in range(3)]
        expected = kalg.vstack(lift.beta.H, kalg.zeros(2, 2, field))
        for v in vals:
            assert fro(v.m - expected) <= 1e-13

    def test_matches_group_route(self, field):
        for s in range(5):
            lift, t = random_lift_tangent(6, 2, field, 100 + s)
            via_group = stiefel.rho(
                GroupElement(group.cayley_at(lift.A, t.ambient_group())), 2)
            assert fro(stiefel.gamma(t).m - via_group.m) <= 1e-11


class TestInjectivityDomain:
    def test_zero_tangent_with_invertible_bottom(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 10)
        assert stiefel.differential_is_injective(zero_tangent(lift))

    def test_zero_bottom_block_outside(self, field):
        x = zero_bottom_point(6, 2, field, 11)
        lift = stiefel.complete_lift(x)
        t = TangentCoords(lift, kalg.zeros(4, 2, field), random_skew(2, field, 12))
        assert not stiefel.differential_is_injective(t)

    def test_lift_independent(self, field):
        lift, t = random_lift_tangent(6, 2, field, 13)
        E = GroupElement(group.cayley_at_identity(0.5 * random_skew(4, field, 14)))
        blk = kalg.vstack(
            kalg.hstack(E.m, kalg.zeros(4, 2, field)),
            kalg.hstack(kalg.zeros(2, 4, field), kalg.identity(2, field)))
        lift2 = Lift(lift.point, GroupElement(lift.A.m @ blk))
        t2 = TangentCoords(lift2, E.m.H @ t.X, t.Y)
        assert stiefel.differential_is_injective(t) == stiefel.differential_is_injective(t2)


class TestCayleyOpen:
    def test_gamma_zero_membership(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 15)
        y = stiefel.gamma(zero_tangent(lift))
        # pi + P* = 2P*, invertible iff P is
        assert in_cayley_open(lift.point, y) == \
            kalg.is_invertible(lift.P)

    def test_circle_case(self):
        one = StiefelPoint(Mat(Field.REAL, np.ones((1, 1, 1))))
        minus = StiefelPoint(Mat(Field.REAL, -np.ones((1, 1, 1))))
        assert in_cayley_open(one, one)
        assert not in_cayley_open(one, minus)

    def test_agrees_with_gamma_inverse(self, field):
        # gamma_inverse rejects exactly the targets outside the reference's open set
        base = stiefel.complete_lift(base_point(4, 2, field))
        cases = [(base, StiefelPoint(-base.point.m))]  # pi + P* = 0
        lift, _ = random_lift_tangent(4, 2, field, 16)
        cases.append((lift, StiefelPoint(-lift.point.m)))  # antipodal: pi + P* = P* - P
        for s in range(10):
            lift, _ = random_lift_tangent(4, 2, field, 900 + s)
            cases.append((lift, stiefel.random_stiefel_point(4, 2, field, 950 + s)))
        for lift, y in cases:
            try:
                stiefel.gamma_inverse(lift, y)
                inside = True
            except OutsideCayleyOpen:
                inside = False
            assert inside == in_cayley_open(lift.point, y)


class TestGammaInverse:
    def test_anchor_maps_to_zero(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 17)
        y = stiefel.gamma(zero_tangent(lift))
        got = stiefel.gamma_inverse(lift, y)
        assert fro(got.X) <= 1e-12 and fro(got.Y) <= 1e-12

    def test_round_trip_from_tangent(self, field):
        for s in range(5):
            lift, t = random_lift_tangent(6, 2, field, 200 + s)
            if not stiefel.differential_is_injective(t):
                continue
            back = stiefel.gamma_inverse(lift, stiefel.gamma(t))
            assert fro(back.X - t.X) <= 1e-9
            assert fro(back.Y - t.Y) <= 1e-9

    def test_round_trip_from_point(self, field):
        for s in range(5):
            lift, _ = random_lift_tangent(6, 2, field, 300 + s)
            y = stiefel.random_stiefel_point(6, 2, field, 400 + s)
            if not in_cayley_open(lift.point, y):
                continue
            coords = stiefel.gamma_inverse(lift, y)
            assert fro(stiefel.gamma(coords).m - y.m) <= 1e-9
            assert stiefel.differential_is_injective(coords)

    def test_outside_raises(self):
        one = StiefelPoint(Mat(Field.REAL, np.ones((1, 1, 1))))
        lift = stiefel.complete_lift(one)
        minus = StiefelPoint(Mat(Field.REAL, -np.ones((1, 1, 1))))
        with pytest.raises(OutsideCayleyOpen):
            stiefel.gamma_inverse(lift, minus)

    @pytest.mark.parametrize("n,k", [(6, 2), (16, 4), (5, 5)])
    @pytest.mark.parametrize("scale", [1e-2, 0.5, 3.0, 30.0])
    def test_matches_three_inversion_formula(self, field, n, k, scale):
        # Y = skew(b^{-1}) with b = (1/2) C D^{-1}, inverting D and b explicitly
        lift, t = random_lift_tangent(n, k, field, 61, scale)
        y = stiefel.gamma(t)
        got = stiefel.gamma_inverse(lift, y)
        C = y.P + lift.P.H
        D = (lift.beta @ got.X + lift.P).H
        b = 0.5 * (C @ kalg.mat_inverse(D))
        Y_ref = kalg.skew_hermitian_part(kalg.mat_inverse(b))
        assert fro(got.Y - Y_ref) <= 1e-10 * (1 + scale)


class TestGammaDifferential:
    def test_zero_direction(self, field):
        lift, t = random_lift_tangent(5, 2, field, 18)
        got = gamma_differential(t, kalg.zeros(3, 2, field), kalg.zeros(2, 2, field))
        assert fro(got) == 0.0

    def test_at_zero_tangent_closed_form(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 19)
        M = kalg.random_gaussian(3, 2, field, 20)
        N = random_skew(2, field, 21)
        got = gamma_differential(zero_tangent(lift), M, N)
        # X = 0, b = I, xi = N
        expected = kalg.vstack(-2.0 * (M @ lift.P.H),
                               2.0 * (M.H @ lift.beta.H) - 2.0 * (N @ lift.P.H))
        assert fro(got - expected) <= 1e-13

    def test_matches_finite_differences(self, field):
        lift, t = random_lift_tangent(6, 2, field, 22)
        M = kalg.random_gaussian(4, 2, field, 23)
        N = random_skew(2, field, 24)
        analytic = gamma_differential(t, M, N)
        h = 1e-5
        plus = stiefel.gamma(TangentCoords(lift, t.X + h * M, t.Y + h * N)).m
        minus = stiefel.gamma(TangentCoords(lift, t.X - h * M, t.Y - h * N)).m
        fd = (1.0 / (2 * h)) * (plus - minus)
        assert fro(analytic - fd) <= 1e-7 * (1 + fro(analytic))

    def test_order_two_convergence(self, field):
        lift, t = random_lift_tangent(6, 2, field, 25)
        M = kalg.random_gaussian(4, 2, field, 26)
        N = random_skew(2, field, 27)
        analytic = gamma_differential(t, M, N)

        def err(h):
            plus = stiefel.gamma(TangentCoords(lift, t.X + h * M, t.Y + h * N)).m
            minus = stiefel.gamma(TangentCoords(lift, t.X - h * M, t.Y - h * N)).m
            return fro((1.0 / (2 * h)) * (plus - minus) - analytic)

        ratio = err(1e-3) / err(5e-4)
        assert 3.5 <= ratio <= 4.5


class TestDifferentialInjectivity:
    def test_zero_tangent_injective(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 29)
        assert stiefel.differential_is_injective(zero_tangent(lift))

    def test_kernel_witness_at_degenerate_point(self, field):
        x = zero_bottom_point(6, 2, field, 30)
        lift = stiefel.complete_lift(x)
        t = TangentCoords(lift, kalg.zeros(4, 2, field), random_skew(2, field, 31))
        assert not stiefel.differential_is_injective(t)
        N = kernel_witness(t)
        assert N is not None
        out = gamma_differential(t, kalg.zeros(4, 2, field), N)
        assert fro(out) <= 1e-9 * fro(N)

    def test_agrees_with_domain_predicate(self, field):
        # invertibility of beta X + P decides whether the differential has a kernel
        x = zero_bottom_point(5, 2, field, 499)
        lift = stiefel.complete_lift(x)
        cases = [TangentCoords(lift, kalg.zeros(3, 2, field), random_skew(2, field, 498))]
        cases += [random_lift_tangent(5, 2, field, 500 + s)[1] for s in range(20)]
        for t in cases:
            assert stiefel.differential_is_injective(t) == (differential_min_gain(t) > 1e-8)

    def test_injective_case_has_gain(self, field):
        lift, t = random_lift_tangent(5, 2, field, 32)
        assert stiefel.differential_is_injective(t)
        assert differential_min_gain(t) > 1e-4
        assert kernel_witness(t) is None


class TestLocalSection:
    def test_anchor_section_is_a_star(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 33)
        y = stiefel.gamma(zero_tangent(lift))
        s = stiefel.local_section(lift, y)
        assert fro(s.m - lift.A.m.H) <= 1e-12

    def test_section_identity_and_membership(self, field):
        for s_ in range(5):
            lift, _ = random_lift_tangent(6, 2, field, 600 + s_)
            y = stiefel.random_stiefel_point(6, 2, field, 700 + s_)
            if not in_cayley_open(lift.point, y):
                continue
            s = stiefel.local_section(lift, y)
            assert fro(stiefel.rho(s, 2).m - y.m) <= 1e-9
            assert fro(s.m @ s.m.H - kalg.identity(6, field)) <= 1e-9
            # s lands in the domain of the transform based at A*
            assert kalg.is_invertible(lift.A.m.H + s.m)

    def test_outside_raises(self):
        one = StiefelPoint(Mat(Field.REAL, np.ones((1, 1, 1))))
        lift = stiefel.complete_lift(one)
        minus = StiefelPoint(Mat(Field.REAL, -np.ones((1, 1, 1))))
        with pytest.raises(OutsideCayleyOpen):
            stiefel.local_section(lift, minus)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_matches_dense_route(self, field, t):
        lift, _ = random_lift_tangent(6, 2, field, 37)
        y = stiefel.contraction(lift, stiefel.random_stiefel_point(6, 2, field, 38), t)
        W = stiefel.gamma_inverse(lift, y).ambient_group()
        dense = GroupElement(group.cayley_at(lift.A, W))
        assert fro(stiefel.local_section(lift, y).m - dense.m) <= 1e-12


class TestCayleyBlock:
    @pytest.mark.parametrize("n,k", [(1, 1), (3, 3), (4, 0), (5, 2), (16, 4)])
    def test_matches_cayley_at(self, field, n, k):
        # c(Z) A* with one k x k inversion against (I - A*W)(A + W)^{-1}, W = A Z
        for s in range(4):
            lift, t = random_lift_tangent(n, k, field, 620 + s)
            dense = group.cayley_at(lift.A, t.ambient_group())
            assert fro(stiefel.cayley_block(t).m - dense) <= 1e-12


class TestCoreCounts:
    """Each k x k core is inverted once and the section is checked once."""

    @staticmethod
    def count(monkeypatch, n=None):
        # every inversion is one LAPACK call, whether or not the SVD test runs,
        # and every product, Mat or component array, is one kalg._product
        counts = {"inverse": 0, "element": 0, "square_products": 0}
        inverse, post_init, product = np.linalg.inv, GroupElement.__post_init__, kalg._product

        def counted_inverse(a):
            counts["inverse"] += 1
            return inverse(a)

        def counted_post_init(self):
            counts["element"] += 1
            post_init(self)

        def counted_product(fld, a, b):
            counts["square_products"] += a.shape[-3:-1] == b.shape[-3:-1] == (n, n)
            return product(fld, a, b)

        monkeypatch.setattr(np.linalg, "inv", counted_inverse)
        monkeypatch.setattr(GroupElement, "__post_init__", counted_post_init)
        monkeypatch.setattr(kalg, "_product", counted_product)
        return counts

    def test_gamma_inverse_inverts_once(self, field, monkeypatch):
        lift, t = random_lift_tangent(7, 3, field, 71)
        y = stiefel.gamma(t)
        counts = self.count(monkeypatch)
        stiefel.gamma_inverse(lift, y)
        assert counts["inverse"] == 1

    def test_local_section_inverts_twice_and_checks_once(self, field, monkeypatch):
        lift, t = random_lift_tangent(7, 3, field, 72)
        y = stiefel.gamma(t)
        counts = self.count(monkeypatch, n=7)
        stiefel.local_section(lift, y)
        assert counts["inverse"] == 2
        assert counts["element"] == 1
        # the one n x n product is the A*A residual of that GroupElement check
        assert counts["square_products"] == 1


def near_base_point(n, k, fld, gaps):
    """A frame y with y*y = I whose bottom block is diag(gaps) - I, so that
    pi + P* at the base frame [0; I] has the singular values gaps (each in (0, 2))."""
    data = np.zeros((n, k, fld.ncomp))
    for j, gap in enumerate(gaps):
        c = gap - 1.0
        data[j, j, 0] = math.sqrt(1.0 - c * c)
        data[n - k + j, j, 0] = c
    return StiefelPoint(Mat(fld, data))


class TestSvdTestCounts:
    """The transforms run mat_inverse's SVD test only on a core whose condition
    number nears 1/tol, whatever its size, and gamma_inverse at the caller's tol."""

    # |X*X|_F = c / (2 tol), from 0 to ten times 1/(2 tol): the core grows, but its
    # condition number stays that of X*X, so its inverse decides the test every time
    @pytest.mark.parametrize("c", [0.0, 0.5, 0.98, 1.02, 1.2, 10.0])
    def test_b_matrix_at_multiples_of_the_bound(self, field, c, monkeypatch):
        lift, t = random_lift_tangent(7, 3, field, 81)
        s = math.sqrt(c / (2.0 * kalg.DEFAULT_TOL) / fro(t.X.H @ t.X))
        tols = svd_tests(monkeypatch, group.b_matrix, TangentCoords(lift, s * t.X, t.Y))
        assert tols == []

    # a Y with a zero last row and column leaves the core a singular value near 1,
    # so its condition number grows with |Y|: well below 1/tol up to 2e8, above at 1e14
    @pytest.mark.parametrize("y_norm", [1e7, 5e7, 2e8, 1e14])
    def test_b_matrix_at_large_y(self, field, y_norm, monkeypatch):
        lift, t = random_lift_tangent(7, 3, field, 82)
        Y = t.Y.data.copy()
        Y[-1], Y[:, -1] = 0.0, 0.0
        coords = TangentCoords(lift, t.X, (y_norm / np.linalg.norm(Y)) * Mat(field, Y))
        core = kalg.identity(3, field) + coords.X.H @ coords.X + coords.Y
        must_run = svd_test_runs(field, core.data, kalg.DEFAULT_TOL)
        assert must_run is (y_norm > 1e12)
        tols = svd_tests(monkeypatch, group.b_matrix, coords)
        assert tols == ([kalg.DEFAULT_TOL] if must_run else [])

    @pytest.mark.parametrize("tol", [kalg.DEFAULT_TOL, 1e-6])
    def test_per_transform(self, field, tol, monkeypatch):
        lift, t = random_lift_tangent(16, 4, field, 83, scale=0.5)
        y = stiefel.gamma(t)
        # every core of a transform at the benchmark's scale is well conditioned
        assert svd_tests(monkeypatch, stiefel.gamma, t) == []
        assert svd_tests(monkeypatch, stiefel.gamma_inverse, lift, y, tol) == []
        assert svd_tests(monkeypatch, stiefel.local_section, lift, y, tol) == []
        assert svd_tests(monkeypatch, stiefel.contraction, lift, y, 0.3, tol) == []
        # pi + P* with singular values 3 tol and 1 is tested, at the caller's tol, and passes
        base = stiefel.complete_lift(base_point(16, 4, field))
        near = near_base_point(16, 4, field, [3.0 * tol, 1.0, 1.0, 1.0])
        assert svd_tests(monkeypatch, stiefel.gamma_inverse, base, near, tol) == [tol]
        stiefel.gamma_inverse(base, near, tol)
        # and -x, with pi + P* = 0, fails it
        assert svd_tests(monkeypatch, stiefel.gamma_inverse, base,
                         StiefelPoint(-base.point.m), tol) == [tol]


def outcome(fn, *args):
    """The components of what fn returns (None, a Mat or a type holding one, or
    TangentCoords as the pair X, Y), or the type of the rejection it raised."""
    try:
        out = fn(*args)
    except (Singular, OutsideCayleyOpen, ValueError) as exc:  # NotOrthonormal is a ValueError
        return type(exc)
    if out is None:
        return None
    if isinstance(out, TangentCoords):
        return out.X.data, out.Y.data
    return (out if isinstance(out, Mat) else out.m).data


def assert_same_outcome(got, want):
    if isinstance(want, (type, type(None))) or isinstance(got, (type, type(None))):
        assert got is want
    elif isinstance(want, tuple):
        for a, b in zip(got, want, strict=True):
            assert_same_bits(a, b)
    else:
        assert_same_bits(got, want)


class TestTransformReference:
    """The transforms on component arrays against the Mat formulas, bit for bit."""

    @staticmethod
    def tangents(n, k, field):
        """Tangents of several kinds, each on its lift:
        random ones at the benchmark's scale 0.5 and at 3; one whose Y is off
        skew-Hermitian by half the check's tolerance; random ones at 1e8, whose
        core is large but well conditioned; a rank-one X at 1e8 with |Y| near 1,
        whose core fails the SVD test; and a small tangent on the lift of a
        frame 2e-9 sqrt(k) off x*x = I."""
        for seed, scale in ((0, 0.5), (1, 0.5), (2, 3.0)):
            yield random_lift_tangent(n, k, field, 500 + seed, scale)
        lift, t = random_lift_tangent(n, k, field, 503)
        at_1e8 = [(1e8 / fro(m)) * m if fro(m) else m for m in (t.X, t.Y)]
        yield lift, TangentCoords(lift, *at_1e8)
        lift, t = random_lift_tangent(n, k, field, 504, 3.0)
        if k:
            E = kalg.hermitian_part(kalg.random_gaussian(k, k, field, 505))
            Y = t.Y + (0.25e-8 * max(1.0, fro(t.Y)) / fro(E)) * E
            yield lift, TangentCoords(lift, t.X, Y)
        if n > k >= 1:
            rank_one = t.X.data.copy()
            rank_one[:, 1:] = 0.0
            yield lift, TangentCoords(lift, (1e8 / np.linalg.norm(rank_one)) * Mat(field, rank_one),
                                      (1.0 / max(1.0, fro(t.Y))) * t.Y)
        if n > k:
            loose = stiefel.complete_lift(StiefelPoint((1.0 + 1e-9) * lift.point.m))
            yield loose, TangentCoords(loose, 0.1 * t.X, 0.1 * t.Y)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 3), (5, 2), (16, 4), (4, 0)])
    def test_bit_identical(self, field, n, k, monkeypatch):
        def check(fn, ref, *args):
            want = outcome(ref, *args)
            assert_same_outcome(outcome(fn, *args), want)
            if isinstance(want, type):
                seen.add(want)
            return want

        seen, tested = set(), set()
        base = stiefel.complete_lift(base_point(n, k, field))
        # -x for the base frame x = [0; I] has pi + P* = 0: outside the Cayley open set
        cases = [(base, zero_tangent(base), StiefelPoint(-base.point.m))]
        for i, (lift, t) in enumerate(self.tangents(n, k, field)):
            cases.append((lift, t, stiefel.random_stiefel_point(n, k, field, 600 + i)))
        for lift, t, other in cases:
            tested.add(bool(svd_tests(monkeypatch, group.b_matrix, t)))
            check(group.b_matrix, mat_b_matrix, t)
            y = check(stiefel.gamma, mat_gamma, t)
            check(stiefel.cayley_block, mat_cayley_block, t)
            targets = [other] if isinstance(y, type) else [StiefelPoint(Mat(field, y)), other]
            for target in targets:
                check(stiefel.gamma_inverse, mat_gamma_inverse, lift, target)
                check(stiefel.local_section, mat_local_section, lift, target)
                for s in (0.0, 0.3, 1.0):
                    check(stiefel.contraction, mat_contraction, lift, target, s)
        # b_matrix runs the SVD test on the rank-one core alone, and every rejection
        # on the way is seen; with k = 1 that X has full rank and the core is well
        # conditioned
        assert tested == ({False, True} if n > k >= 2 else {False})
        # no NotOrthonormal: the loose lift is as unitary as its frame
        expected = {OutsideCayleyOpen} if k else set()
        if n > k >= 2:
            expected |= {Singular}
        assert expected <= seen

    def test_rejects_target_of_another_shape_or_ring(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 84)
        other = Field.COMPLEX if field is Field.REAL else Field.REAL
        for y in (stiefel.random_stiefel_point(5, 3, field, 85),
                  stiefel.random_stiefel_point(6, 2, field, 85),
                  stiefel.random_stiefel_point(5, 2, other, 85)):
            for fn in (stiefel.gamma_inverse, stiefel.local_section):
                with pytest.raises(ValueError, match="shape and base ring"):
                    fn(lift, y)
            with pytest.raises(ValueError, match="shape and base ring"):
                stiefel.contraction(lift, y, 0.5)

    def test_tangent_rejects_blocks_of_another_shape(self, field):
        lift, t = random_lift_tangent(5, 2, field, 86)
        for X, Y in ((t.X.H, t.Y), (t.X, random_skew(3, field, 87)),
                     (kalg.zeros(3, 1, field), kalg.zeros(1, 1, field))):
            with pytest.raises(ValueError, match="shapes do not match the lift"):
                TangentCoords(lift, X, Y)

    def test_tangent_rejects_blocks_over_another_ring(self, field):
        lift, t = random_lift_tangent(5, 2, field, 86)
        other = Field.COMPLEX if field is Field.REAL else Field.REAL
        X = kalg.random_gaussian(3, 2, other, 87)
        Y = random_skew(2, other, 88)
        for args in ((X, t.Y), (t.X, Y), (X, Y)):
            with pytest.raises(ValueError, match="lift's base ring"):
                TangentCoords(lift, *args)


class TestSkewCheckCounts:
    """Y is checked skew-Hermitian once, when its tangent is built: no transform
    that takes a TangentCoords checks it again."""

    @staticmethod
    def count(monkeypatch):
        counts = {"skew": 0}
        is_skew = kalg.is_skew_hermitian

        def counted(*args, **kwargs):
            counts["skew"] += 1
            return is_skew(*args, **kwargs)

        monkeypatch.setattr(kalg, "is_skew_hermitian", counted)
        return counts

    @pytest.mark.parametrize("name, expected", [
        ("gamma", 0), ("gamma_inverse", 0), ("local_section", 0), ("contraction", 0),
        ("cayley_block", 0), ("b_matrix", 0), ("ambient_group", 0)])
    def test_checks_per_transform(self, field, monkeypatch, name, expected):
        lift, t = random_lift_tangent(16, 4, field, 73, scale=0.5)
        y = stiefel.gamma(t)
        calls = {"gamma": lambda: stiefel.gamma(t),
                 "gamma_inverse": lambda: stiefel.gamma_inverse(lift, y),
                 "local_section": lambda: stiefel.local_section(lift, y),
                 "contraction": lambda: stiefel.contraction(lift, y, 0.5),
                 "cayley_block": lambda: stiefel.cayley_block(t),
                 "b_matrix": lambda: group.b_matrix(t),
                 "ambient_group": t.ambient_group}
        counts = self.count(monkeypatch)
        calls[name]()
        assert counts["skew"] == expected

    def test_unchecked_results_are_exactly_skew(self, field):
        lift, t = random_lift_tangent(7, 3, field, 74)
        got = stiefel.gamma_inverse(lift, stiefel.gamma(t))
        for coords in (got, got.scaled(0.3), got.scaled(7.0)):
            assert kalg.frobenius_norm(coords.Y + coords.Y.H) == 0.0
            assert coords.X.shape == (4, 3) and coords.Y.shape == (3, 3)

    def test_near_tolerance_y_is_accepted_once_and_trusted(self, field):
        # |Y + Y*| is half the 1e-8 relative tolerance (and |Y| > 1): the
        # constructor accepts Y, and gamma does not reject it afterwards
        lift, t = random_lift_tangent(7, 3, field, 76)
        E = kalg.hermitian_part(kalg.random_gaussian(3, 3, field, 77))
        Y = t.Y + (0.25e-8 * fro(t.Y) / fro(E)) * E
        assert fro(Y) > 1.0
        assert fro(Y + Y.H) == pytest.approx(0.5e-8 * fro(Y), rel=1e-3)
        assert isinstance(stiefel.gamma(TangentCoords(lift, t.X, Y)), StiefelPoint)

    def test_public_paths_keep_checking(self, field, monkeypatch):
        lift, t = random_lift_tangent(7, 3, field, 75)
        counts = self.count(monkeypatch)
        TangentCoords(lift, t.X, t.Y)
        group.b_matrix(identity_tangent(t.X, t.Y))
        assert counts["skew"] == 2
        not_skew = kalg.identity(3, field)
        with pytest.raises(InvalidTangent):
            TangentCoords(lift, t.X, not_skew)
        with pytest.raises(InvalidTangent):
            group.b_matrix(identity_tangent(t.X, not_skew))


class TestContraction:
    def test_endpoints_and_midpoint(self, field):
        lift, _ = random_lift_tangent(6, 2, field, 34)
        y = stiefel.random_stiefel_point(6, 2, field, 35)
        if not in_cayley_open(lift.point, y):
            pytest.skip("sampled y outside the Cayley open subset")
        anchor = stiefel.gamma(zero_tangent(lift))
        assert fro(stiefel.contraction(lift, y, 0.0).m - anchor.m) <= 1e-9
        assert fro(stiefel.contraction(lift, y, 1.0).m - y.m) <= 1e-9
        mid = stiefel.contraction(lift, y, 0.5)
        assert fro(mid.m.H @ mid.m - kalg.identity(2, field)) <= 1e-10

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_matches_dense_route(self, field, t):
        lift, _ = random_lift_tangent(6, 2, field, 34)
        y = stiefel.random_stiefel_point(6, 2, field, 35)
        W = stiefel.gamma_inverse(lift, y).ambient_group()
        dense = stiefel.rho(GroupElement(group.cayley_at(lift.A, t * W)), 2)
        assert fro(stiefel.contraction(lift, y, t).m - dense.m) <= 1e-12

    def test_rejects_parameter_outside_unit_interval(self, field):
        lift, _ = random_lift_tangent(4, 2, field, 36)
        y = stiefel.gamma(zero_tangent(lift))
        with pytest.raises(ValueError):
            stiefel.contraction(lift, y, 1.5)


class TestEquivariance:
    def test_identity_change(self, field):
        lift, t = random_lift_tangent(5, 2, field, 37)
        E = GroupElement(kalg.identity(3, field))
        assert stiefel.lift_change_equivariance_check(lift, E, t) <= 1e-14

    def test_zero_tangent(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 38)
        E = GroupElement(group.cayley_at_identity(0.5 * random_skew(3, field, 39)))
        assert stiefel.lift_change_equivariance_check(
            lift, E, zero_tangent(lift)) <= 1e-12

    def test_random(self, field):
        for s in range(5):
            lift, t = random_lift_tangent(6, 2, field, 800 + s)
            E = GroupElement(group.cayley_at_identity(
                0.5 * random_skew(4, field, 900 + s)))
            assert stiefel.lift_change_equivariance_check(lift, E, t) <= 1e-10


class TestPointValidation:
    def test_rejects_nonorthonormal(self, field):
        with pytest.raises(NotOrthonormal):
            StiefelPoint(2.0 * base_point(4, 2, field).m)

    def test_rejects_nan_from_overflow(self, field):
        with pytest.raises(NotOrthonormal):
            StiefelPoint(overflow_nan(4, 2, field))

    def test_tangent_coords_reject_nan(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 45)
        with pytest.raises(InvalidTangent):
            TangentCoords(lift, kalg.zeros(3, 2, field), overflow_nan(2, 2, field))


class TestRandomStiefelPoint:
    def test_empty_frame(self, field):
        x = stiefel.random_stiefel_point(4, 0, field, 40)
        assert x.k == 0

    def test_reproducible(self, field):
        a = stiefel.random_stiefel_point(5, 2, field, 41)
        b = stiefel.random_stiefel_point(5, 2, field, 41)
        assert np.array_equal(a.m.data, b.m.data)

    def test_orthonormality_sweep(self, field):
        for s in range(100):
            x = stiefel.random_stiefel_point(6, 3, field, 4000 + s)
            assert fro(x.m.H @ x.m - kalg.identity(3, field)) <= 1e-12

    def test_loose_draw_is_orthonormalised_again(self):
        # one Gram-Schmidt pass leaves this draw 2.81e-12 off x*x = I
        raw = np.random.default_rng(2828).standard_normal((1, 28, 28, 1))
        assert residual(Field.REAL, stiefel._gram_schmidt(Field.REAL, raw)[0][0]) > 1e-12
        x = stiefel.random_stiefel_point(28, 28, Field.REAL, 2828)
        assert residual(Field.REAL, x.m.data) <= 1e-12


class TestNonInjectivity:
    def test_distinct_skews_same_image(self, field):
        x = zero_bottom_point(6, 2, field, 42)
        lift = stiefel.complete_lift(x)
        Z = kalg.zeros(4, 2, field)
        Y1 = random_skew(2, field, 43)
        Y2 = random_skew(2, field, 44)
        assert fro(Y1 - Y2) > 0.1
        g1 = stiefel.gamma(TangentCoords(lift, Z, Y1))
        g2 = stiefel.gamma(TangentCoords(lift, Z, Y2))
        assert fro(g1.m - g2.m) <= 1e-13


class TestJson:
    def test_point_round_trip(self, field):
        x = stiefel.random_stiefel_point(5, 2, field, 45)
        obj = json.loads(json.dumps(stiefel.point_to_json(x)))
        assert (obj["n"], obj["k"]) == (5, 2)
        assert np.array_equal(mat_payload(obj["matrix"]), x.m.data)

    def test_lift_round_trip(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 46)
        obj = json.loads(json.dumps(stiefel.lift_to_json(lift)))
        assert (obj["n"], obj["k"]) == (obj["point"]["n"], obj["point"]["k"]) == (5, 2)
        assert np.array_equal(mat_payload(obj["point"]["matrix"]), lift.point.m.data)
        assert np.array_equal(mat_payload(obj["A"]), lift.A.m.data)
