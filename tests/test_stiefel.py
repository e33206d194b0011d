import json

import numpy as np
import pytest

from conftest import overflow_nan, random_lift_tangent, random_skew

from cayley_stiefel import group, kalg, stiefel
from cayley_stiefel.group import GroupElement, InvalidTangent
from cayley_stiefel.kalg import Field, Mat, Singular
from cayley_stiefel.stiefel import (Lift, NotOrthonormal, OutsideCayleyOpen, StiefelPoint,
                                    TangentCoords, differential_min_gain,
                                    kernel_witness)

Q = Field.QUATERNION


def fro(m):
    return kalg.frobenius_norm(m)


def base_point(n, k, fld):
    """The frame [0; I_k]."""
    data = np.zeros((n, k, fld.ncomp))
    for j in range(k):
        data[n - k + j, j, 0] = 1.0
    return StiefelPoint(Mat(fld, data))


def zero_bottom_point(n, k, fld, seed):
    """A frame of the form [T; 0] (needs n >= 2k)."""
    T = stiefel.random_stiefel_point(n - k, k, fld, seed)
    data = np.concatenate([T.m.data, np.zeros((k, k, fld.ncomp))], axis=0)
    return StiefelPoint(Mat(fld, data))


def zero_tangent(lift):
    return TangentCoords(lift, kalg.zeros(lift.n - lift.k, lift.k, lift.field),
                         kalg.zeros(lift.k, lift.k, lift.field))


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


class TestTangentFromAmbient:
    def test_zero(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 4)
        got = stiefel.tangent_from_ambient(lift, kalg.zeros(5, 2, field))
        assert fro(got.X) == 0.0 and fro(got.Y) == 0.0

    def test_round_trip(self, field):
        lift, t = random_lift_tangent(6, 2, field, 5)
        got = stiefel.tangent_from_ambient(lift, t.ambient())
        assert fro(got.X - t.X) <= 1e-12
        assert fro(got.Y - t.Y) <= 1e-12
        assert fro(got.lift.A.m @ kalg.vstack(got.X, got.Y) - t.ambient()) <= 1e-12

    def test_y_skewness_automatic(self, field):
        lift, t = random_lift_tangent(6, 3, field, 6)
        got = stiefel.tangent_from_ambient(lift, t.ambient())
        assert fro(got.Y + got.Y.H) <= 1e-12

    def test_rejects_nontangent(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 7)
        with pytest.raises(InvalidTangent):
            stiefel.tangent_from_ambient(lift, lift.point.m)

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
        if tangent:
            got = stiefel.tangent_from_ambient(lift, v)
            assert fro(lift.A.m @ kalg.vstack(got.X, got.Y) - v) <= 1e-12 * fro(v)
        else:
            with pytest.raises(InvalidTangent):
                stiefel.tangent_from_ambient(lift, v)

    def test_large_scale_passes_every_skew_check(self, field):
        # rounding leaves |Y + Y*| near 1e-6 here, tiny next to |Y| ~ 1e9
        lift, t = random_lift_tangent(6, 2, field, 47, scale=1e9)
        got = stiefel.tangent_from_ambient(lift, t.ambient())
        assert fro(got.Y + got.Y.H) > 1e-8
        got.ambient_group()
        group.b_matrix(kalg.zeros(4, 2, field), got.Y)
        stiefel.gamma_differential(zero_tangent(lift), kalg.zeros(4, 2, field), got.Y)


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
        assert stiefel.in_injectivity_domain(zero_tangent(lift))

    def test_zero_bottom_block_outside(self, field):
        x = zero_bottom_point(6, 2, field, 11)
        lift = stiefel.complete_lift(x)
        t = TangentCoords(lift, kalg.zeros(4, 2, field), random_skew(2, field, 12))
        assert not stiefel.in_injectivity_domain(t)

    def test_lift_independent(self, field):
        lift, t = random_lift_tangent(6, 2, field, 13)
        E = GroupElement(group.cayley_at_identity(0.5 * random_skew(4, field, 14)))
        blk = kalg.vstack(
            kalg.hstack(E.m, kalg.zeros(4, 2, field)),
            kalg.hstack(kalg.zeros(2, 4, field), kalg.identity(2, field)))
        lift2 = Lift(lift.point, GroupElement(lift.A.m @ blk))
        t2 = TangentCoords(lift2, E.m.H @ t.X, t.Y)
        assert stiefel.in_injectivity_domain(t) == stiefel.in_injectivity_domain(t2)


class TestCayleyOpen:
    def test_gamma_zero_membership(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 15)
        y = stiefel.gamma(zero_tangent(lift))
        # pi + P* = 2P*, invertible iff P is
        assert stiefel.in_cayley_open(lift.point, y) == \
            kalg.is_invertible(lift.P)

    def test_antipodal_bottom_block(self, field):
        x = stiefel.random_stiefel_point(4, 2, field, 16)
        y_data = -x.m.data
        y = StiefelPoint(Mat(field, y_data))
        # pi = -P so pi + P* = -P + P* which can be singular; use x with
        # Hermitian bottom block: the circle case below is the sharp one
        assert stiefel.in_cayley_open(x, x) == kalg.is_invertible(x.P + x.P.H)
        assert isinstance(stiefel.in_cayley_open(x, y), bool)

    def test_circle_case(self):
        one = StiefelPoint(Mat(Field.REAL, np.ones((1, 1, 1))))
        minus = StiefelPoint(Mat(Field.REAL, -np.ones((1, 1, 1))))
        assert stiefel.in_cayley_open(one, one)
        assert not stiefel.in_cayley_open(one, minus)


class TestGammaInverse:
    def test_anchor_maps_to_zero(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 17)
        y = stiefel.gamma(zero_tangent(lift))
        got = stiefel.gamma_inverse(lift, y)
        assert fro(got.X) <= 1e-12 and fro(got.Y) <= 1e-12

    def test_round_trip_from_tangent(self, field):
        for s in range(5):
            lift, t = random_lift_tangent(6, 2, field, 200 + s)
            if not stiefel.in_injectivity_domain(t):
                continue
            back = stiefel.gamma_inverse(lift, stiefel.gamma(t))
            assert fro(back.X - t.X) <= 1e-9
            assert fro(back.Y - t.Y) <= 1e-9

    def test_round_trip_from_point(self, field):
        for s in range(5):
            lift, _ = random_lift_tangent(6, 2, field, 300 + s)
            y = stiefel.random_stiefel_point(6, 2, field, 400 + s)
            if not stiefel.in_cayley_open(lift.point, y):
                continue
            coords = stiefel.gamma_inverse(lift, y)
            assert fro(stiefel.gamma(coords).m - y.m) <= 1e-9
            assert stiefel.in_injectivity_domain(coords)

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
        got = stiefel.gamma_differential(
            t, kalg.zeros(3, 2, field), kalg.zeros(2, 2, field))
        assert fro(got) == 0.0

    def test_at_zero_tangent_closed_form(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 19)
        M = kalg.random_gaussian(3, 2, field, 20)
        N = random_skew(2, field, 21)
        got = stiefel.gamma_differential(zero_tangent(lift), M, N)
        # X = 0, b = I, xi = N
        expected = kalg.vstack(-2.0 * (M @ lift.P.H),
                               2.0 * (M.H @ lift.beta.H) - 2.0 * (N @ lift.P.H))
        assert fro(got - expected) <= 1e-13

    def test_matches_finite_differences(self, field):
        lift, t = random_lift_tangent(6, 2, field, 22)
        M = kalg.random_gaussian(4, 2, field, 23)
        N = random_skew(2, field, 24)
        analytic = stiefel.gamma_differential(t, M, N)
        h = 1e-5
        plus = stiefel.gamma(TangentCoords(lift, t.X + h * M, t.Y + h * N)).m
        minus = stiefel.gamma(TangentCoords(lift, t.X - h * M, t.Y - h * N)).m
        fd = (1.0 / (2 * h)) * (plus - minus)
        assert fro(analytic - fd) <= 1e-7 * (1 + fro(analytic))

    def test_order_two_convergence(self, field):
        lift, t = random_lift_tangent(6, 2, field, 25)
        M = kalg.random_gaussian(4, 2, field, 26)
        N = random_skew(2, field, 27)
        analytic = stiefel.gamma_differential(t, M, N)

        def err(h):
            plus = stiefel.gamma(TangentCoords(lift, t.X + h * M, t.Y + h * N)).m
            minus = stiefel.gamma(TangentCoords(lift, t.X - h * M, t.Y - h * N)).m
            return fro((1.0 / (2 * h)) * (plus - minus) - analytic)

        ratio = err(1e-3) / err(5e-4)
        assert 3.5 <= ratio <= 4.5

    def test_rejects_nonskew_direction(self, field):
        lift, t = random_lift_tangent(5, 2, field, 28)
        with pytest.raises(InvalidTangent):
            stiefel.gamma_differential(t, kalg.zeros(3, 2, field),
                                       kalg.identity(2, field))


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
        out = stiefel.gamma_differential(t, kalg.zeros(4, 2, field), N)
        assert fro(out) <= 1e-9 * fro(N)

    def test_agrees_with_domain_predicate(self, field):
        for s in range(20):
            lift, t = random_lift_tangent(5, 2, field, 500 + s)
            assert stiefel.differential_is_injective(t) == \
                stiefel.in_injectivity_domain(t)

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
            if not stiefel.in_cayley_open(lift.point, y):
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


class TestCoreCounts:
    """Each k x k core is inverted once and the section is checked once."""

    @staticmethod
    def count(monkeypatch, n=None):
        counts = {"inverse": 0, "element": 0, "square_products": 0}
        inverse, post_init, matmul = kalg.mat_inverse, GroupElement.__post_init__, Mat.__matmul__

        def counted_inverse(*args, **kwargs):
            counts["inverse"] += 1
            return inverse(*args, **kwargs)

        def counted_post_init(self):
            counts["element"] += 1
            post_init(self)

        def counted_matmul(a, b):
            counts["square_products"] += a.shape == b.shape == (n, n)
            return matmul(a, b)

        monkeypatch.setattr(kalg, "mat_inverse", counted_inverse)
        monkeypatch.setattr(GroupElement, "__post_init__", counted_post_init)
        monkeypatch.setattr(Mat, "__matmul__", counted_matmul)
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
        # the one n x n product is the A A* residual of that GroupElement check
        assert counts["square_products"] == 1


class TestSkewCheckCounts:
    """Y is checked skew-Hermitian once, when its tangent is built: no transform
    that takes a TangentCoords or a SkewBlockTangent checks it again."""

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
        ("gamma_differential", 1), ("kernel_witness", 0), ("cayley_identity_block", 0)])
    def test_checks_per_transform(self, field, monkeypatch, name, expected):
        lift, t = random_lift_tangent(16, 4, field, 73, scale=0.5)
        y = stiefel.gamma(t)
        M = kalg.random_gaussian(12, 4, field, 78)
        N = random_skew(4, field, 79)
        block = group.SkewBlockTangent(t.X, t.Y)
        calls = {"gamma": lambda: stiefel.gamma(t),
                 "gamma_inverse": lambda: stiefel.gamma_inverse(lift, y),
                 "local_section": lambda: stiefel.local_section(lift, y),
                 "contraction": lambda: stiefel.contraction(lift, y, 0.5),
                 # the one check is on the caller's direction N
                 "gamma_differential": lambda: stiefel.gamma_differential(t, M, N),
                 "kernel_witness": lambda: kernel_witness(t),
                 "cayley_identity_block": lambda: group.cayley_identity_block(block)}
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
        group.SkewBlockTangent(t.X, t.Y)
        group.b_matrix(t.X, t.Y)
        assert counts["skew"] == 3
        not_skew = kalg.identity(3, field)
        with pytest.raises(InvalidTangent):
            TangentCoords(lift, t.X, not_skew)
        with pytest.raises(InvalidTangent):
            group.SkewBlockTangent(t.X, not_skew)
        with pytest.raises(InvalidTangent):
            group.b_matrix(t.X, not_skew)


class TestContraction:
    def test_endpoints_and_midpoint(self, field):
        lift, _ = random_lift_tangent(6, 2, field, 34)
        y = stiefel.random_stiefel_point(6, 2, field, 35)
        if not stiefel.in_cayley_open(lift.point, y):
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
        back = stiefel.point_from_json(json.loads(json.dumps(stiefel.point_to_json(x))))
        assert np.array_equal(back.m.data, x.m.data)

    def test_lift_round_trip(self, field):
        lift, _ = random_lift_tangent(5, 2, field, 46)
        back = stiefel.lift_from_json(json.loads(json.dumps(stiefel.lift_to_json(lift))))
        assert np.array_equal(back.A.m.data, lift.A.m.data)

    def test_header_mismatch_rejected(self):
        x = stiefel.random_stiefel_point(4, 2, Field.REAL, 47)
        obj = stiefel.point_to_json(x)
        obj["k"] = 3
        with pytest.raises(ValueError):
            stiefel.point_from_json(obj)
