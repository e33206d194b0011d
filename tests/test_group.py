import numpy as np
import pytest

from conftest import overflow_nan, random_skew

from cayley_stiefel import group, kalg
from cayley_stiefel.group import GroupElement, InvalidTangent, SkewBlockTangent
from cayley_stiefel.kalg import Field, Mat, Singular

Q = Field.QUATERNION


def fro(m):
    return kalg.frobenius_norm(m)


def random_group_element(n, fld, seed):
    M = 0.5 * random_skew(n, fld, seed)
    return GroupElement(group.cayley_at_identity(M))


class TestCayleyAtIdentity:
    def test_zero_maps_to_identity(self, field):
        got = group.cayley_at_identity(kalg.zeros(3, 3, field))
        assert fro(got - kalg.identity(3, field)) == 0.0

    def test_real_rotation_block(self):
        M = Mat(Field.REAL, np.array([[0.0, 1.0], [-1.0, 0.0]]).reshape(2, 2, 1))
        expected = Mat(Field.REAL, np.array([[0.0, -1.0], [1.0, 0.0]]).reshape(2, 2, 1))
        assert fro(group.cayley_at_identity(M) - expected) <= 1e-15

    def test_1x1_quaternion(self):
        i = kalg.scalar([0, 1, 0, 0], Q)
        # (1 - i)(1 + i)^{-1} = (1 - i)^2 / 2 = -i
        assert fro(group.cayley_at_identity(i) + i) <= 1e-15

    def test_singular_outside_domain(self):
        with pytest.raises(Singular):
            group.cayley_at_identity(-1.0 * kalg.identity(3, Field.REAL))

    def test_involution(self, field):
        for s in range(5):
            M = 0.5 * random_skew(4, field, 30 + s)
            c = group.cayley_at_identity(M)
            assert fro(group.cayley_at_identity(c) - M) <= 1e-9

    def test_group_membership_on_skew(self, field):
        for s in range(5):
            M = random_skew(4, field, 40 + s)
            c = group.cayley_at_identity(M)
            assert fro(c @ c.H - kalg.identity(4, field)) <= 1e-10


class TestCayleyAt:
    def test_zero_gives_a_star(self, field):
        A = random_group_element(4, field, 1)
        got = group.cayley_at(A, kalg.zeros(4, 4, field))
        assert fro(got - A.m.H) <= 1e-12

    def test_base_identity_matches_plain_transform(self, field):
        A = GroupElement(kalg.identity(4, field))
        X = 0.5 * random_skew(4, field, 2)
        assert fro(group.cayley_at(A, X) - group.cayley_at_identity(X)) <= 1e-13

    def test_factored_form(self, field):
        # (I - A*X)(A + X)^{-1} agrees with c(A*X) A*
        A = random_group_element(4, field, 3)
        X = A.m @ (0.4 * random_skew(4, field, 4))
        lhs = group.cayley_at(A, X)
        rhs = group.cayley_at_identity(A.m.H @ X) @ A.m.H
        assert fro(lhs - rhs) <= 1e-12

    def test_inverse_pair_on_tangents(self, field):
        for s in range(5):
            A = random_group_element(4, field, 50 + s)
            W = A.m @ (0.3 * random_skew(4, field, 60 + s))
            back = group.cayley_at(A.inverse, group.cayley_at(A, W))
            assert fro(back - W) <= 1e-9

    def test_singular_outside_domain(self, field):
        A = GroupElement(kalg.identity(3, field))
        with pytest.raises(Singular):
            group.cayley_at(A, -1.0 * A.m)


class TestBMatrix:
    def test_zero_inputs(self, field):
        got = group.b_matrix(kalg.zeros(3, 2, field), kalg.zeros(2, 2, field))
        assert fro(got - kalg.identity(2, field)) == 0.0

    def test_real_column(self):
        X = Mat(Field.REAL, np.array([1.0, 2.0]).reshape(2, 1, 1))
        got = group.b_matrix(X, kalg.zeros(1, 1, Field.REAL))
        assert got.data[0, 0, 0] == pytest.approx(1.0 / 6.0)

    def test_complex_scalar(self):
        Y = kalg.scalar([0, 1], Field.COMPLEX)
        got = group.b_matrix(kalg.zeros(2, 1, Field.COMPLEX), Y)
        assert np.allclose(got.data.ravel(), [0.5, -0.5])

    def test_rejects_nonskew(self, field):
        with pytest.raises(InvalidTangent):
            group.b_matrix(kalg.zeros(2, 2, field), kalg.identity(2, field))

    def test_always_invertible_sweep(self, field):
        # the load-bearing fact: I + X*X + Y has an inverse for every skew Y
        for s in range(200):
            X = kalg.random_gaussian(4, 2, field, 1000 + s)
            Y = random_skew(2, field, 2000 + s)
            group.b_matrix(X, Y)  # must not raise


class TestBlockFormula:
    def test_zero_tangent(self, field):
        t = SkewBlockTangent(kalg.zeros(3, 2, field), kalg.zeros(2, 2, field))
        got = group.cayley_identity_block(t)
        assert fro(got.m - kalg.identity(5, field)) == 0.0

    def test_x_zero_reduces_to_y_block(self, field):
        Y = random_skew(2, field, 5)
        t = SkewBlockTangent(kalg.zeros(3, 2, field), Y)
        got = group.cayley_identity_block(t)
        assert fro(got.m.block(0, 3, 0, 3) - kalg.identity(3, field)) <= 1e-14
        assert fro(got.m.block(0, 3, 3, 5)) <= 1e-14
        assert fro(got.m.block(3, 5, 0, 3)) <= 1e-14
        cy = group.cayley_at_identity(Y)
        assert fro(got.m.block(3, 5, 3, 5) - cy) <= 1e-13

    def test_two_route_equality(self, field):
        for s in range(8):
            X = kalg.random_gaussian(4, 2, field, 70 + s)
            Y = random_skew(2, field, 80 + s)
            t = SkewBlockTangent(X, Y)
            block = group.cayley_identity_block(t)
            generic = group.cayley_at_identity(t.embed())
            assert fro(block.m - generic) <= 1e-11


class TestTypes:
    def test_group_element_rejects_nonorthogonal(self, field):
        with pytest.raises(ValueError):
            GroupElement(2.0 * kalg.identity(3, field))

    def test_skew_block_tangent_rejects_nonskew(self, field):
        with pytest.raises(InvalidTangent):
            SkewBlockTangent(kalg.zeros(2, 2, field), kalg.identity(2, field))

    def test_nan_fails_every_residual_check(self, field):
        # products are not re-scanned for finiteness, so overflow reaches
        # these checks as NaN, which compares false with any tolerance
        nan = overflow_nan(3, 3, field)
        assert np.isnan(nan.data).all()
        with pytest.raises(ValueError):
            GroupElement(nan)
        with pytest.raises(InvalidTangent):
            SkewBlockTangent(kalg.zeros(2, 3, field), nan)
