import numpy as np
import pytest

from conftest import identity_tangent, overflow_nan, random_skew, scalar

from cayley_stiefel import group, kalg, stiefel
from cayley_stiefel.group import InvalidTangent
from cayley_stiefel.kalg import Field, Mat, Singular
from cayley_stiefel.stiefel import NotOrthonormal, StiefelPoint

Q = Field.QUATERNION


def fro(m):
    return kalg.frobenius_norm(m)


def random_group_element(n, fld, seed):
    M = 0.5 * random_skew(n, fld, seed)
    return StiefelPoint(group.cayley_at_identity(M))


class TestCayleyAtIdentity:
    def test_zero_maps_to_identity(self, field):
        got = group.cayley_at_identity(kalg.zeros(3, 3, field))
        assert fro(got - kalg.identity(3, field)) == 0.0

    def test_real_rotation_block(self):
        M = Mat(Field.REAL, np.array([[0.0, 1.0], [-1.0, 0.0]]).reshape(2, 2, 1))
        expected = Mat(Field.REAL, np.array([[0.0, -1.0], [1.0, 0.0]]).reshape(2, 2, 1))
        assert fro(group.cayley_at_identity(M) - expected) <= 1e-15

    def test_1x1_quaternion(self):
        i = scalar([0, 1, 0, 0], Q)
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
        A = StiefelPoint(kalg.identity(4, field))
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
            back = group.cayley_at(StiefelPoint(A.m.H), group.cayley_at(A, W))
            assert fro(back - W) <= 1e-9

    def test_singular_outside_domain(self, field):
        A = StiefelPoint(kalg.identity(3, field))
        with pytest.raises(Singular):
            group.cayley_at(A, -1.0 * A.m)


class TestBMatrix:
    def test_zero_inputs(self, field):
        got = group.b_matrix(identity_tangent(kalg.zeros(3, 2, field), kalg.zeros(2, 2, field)))
        assert fro(got - kalg.identity(2, field)) == 0.0

    def test_real_column(self):
        X = Mat(Field.REAL, np.array([1.0, 2.0]).reshape(2, 1, 1))
        got = group.b_matrix(identity_tangent(X, kalg.zeros(1, 1, Field.REAL)))
        assert got.data[0, 0, 0] == pytest.approx(1.0 / 6.0)

    def test_complex_scalar(self):
        Y = scalar([0, 1], Field.COMPLEX)
        got = group.b_matrix(identity_tangent(kalg.zeros(2, 1, Field.COMPLEX), Y))
        assert np.allclose(got.data.ravel(), [0.5, -0.5])

    def test_rejects_nonskew(self, field):
        # the tangent b_matrix takes cannot hold a Y that is not skew-Hermitian
        with pytest.raises(InvalidTangent):
            group.b_matrix(identity_tangent(kalg.zeros(2, 2, field), kalg.identity(2, field)))

    def test_always_invertible_sweep(self, field):
        # the load-bearing fact: I + X*X + Y has an inverse for every skew Y
        for s in range(200):
            X = kalg.random_gaussian(4, 2, field, 1000 + s)
            Y = random_skew(2, field, 2000 + s)
            group.b_matrix(identity_tangent(X, Y))  # must not raise

    @pytest.mark.parametrize("x_scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("y_scale", [1e-3, 1.0, 1e3])
    def test_core_singular_values_at_least_one(self, field, x_scale, y_scale):
        # Re v*(I + X*X + Y)v = 1 + |Xv|^2 for unit v: why the core takes no tolerance
        for s in range(20):
            X = x_scale * kalg.random_gaussian(4, 3, field, 3000 + s)
            Y = random_skew(3, field, 4000 + s, y_scale)
            core = kalg.identity(3, field) + X.H @ X + Y
            ks = kalg._KERNELS[field]
            op, finite, _ = kalg._screened_operand(ks, ks.native(core.data))
            _, sv = kalg._svd_test(op, finite, kalg.DEFAULT_TOL)
            assert sv.min() >= 1.0 - 1e-12


class TestBlockFormula:
    def test_zero_tangent(self, field):
        t = identity_tangent(kalg.zeros(3, 2, field), kalg.zeros(2, 2, field))
        got = stiefel.cayley_block(t)
        assert fro(got.m - kalg.identity(5, field)) == 0.0

    def test_x_zero_reduces_to_y_block(self, field):
        Y = random_skew(2, field, 5)
        t = identity_tangent(kalg.zeros(3, 2, field), Y)
        got = stiefel.cayley_block(t)
        assert fro(got.m.block(0, 3, 0, 3) - kalg.identity(3, field)) <= 1e-14
        assert fro(got.m.block(0, 3, 3, 5)) <= 1e-14
        assert fro(got.m.block(3, 5, 0, 3)) <= 1e-14
        cy = group.cayley_at_identity(Y)
        assert fro(got.m.block(3, 5, 3, 5) - cy) <= 1e-13

    def test_two_route_equality(self, field):
        for s in range(8):
            X = kalg.random_gaussian(4, 2, field, 70 + s)
            Y = random_skew(2, field, 80 + s)
            t = identity_tangent(X, Y)
            block = stiefel.cayley_block(t)
            generic = group.cayley_at_identity(t.embed())
            assert fro(block.m - generic) <= 1e-11


class TestTypes:
    def test_group_element_rejects_nonorthogonal(self, field):
        # a group element is an n x n StiefelPoint, checked x*x = I
        with pytest.raises(NotOrthonormal, match=r"x\*x - I residual 5\.196e\+00"):
            StiefelPoint(2.0 * kalg.identity(3, field))  # |4I - I|_F = sqrt(27)

    def test_nan_fails_every_residual_check(self, field):
        # products are not re-scanned for finiteness, so overflow reaches
        # these checks as NaN, which compares false with any tolerance
        nan = overflow_nan(3, 3, field)
        assert np.isnan(nan.data).all()
        with pytest.raises(NotOrthonormal):
            StiefelPoint(nan)
        with pytest.raises(InvalidTangent):
            identity_tangent(kalg.zeros(2, 3, field), nan)
