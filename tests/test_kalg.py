import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (assert_same_bits, conditioned, conj_transpose, mat_payload,
                      matmul_adjoint, random_lift_tangent, random_skew, scalar, svd_test_runs,
                      view_product)

from cayley_stiefel import cover, group, kalg, stiefel
from cayley_stiefel.kalg import Field, Mat, Singular

Q = Field.QUATERNION


def quat(w, x, y, z):
    return scalar([w, x, y, z], Q)


ONE = quat(1, 0, 0, 0)
I_, J_, K_ = quat(0, 1, 0, 0), quat(0, 0, 1, 0), quat(0, 0, 0, 1)


def close(a, b, tol=1e-12):
    return kalg.frobenius_norm(a - b) <= tol


class TestField:
    def test_members_hash_by_identity(self):
        # every kernel-set lookup hashes its field: object's C-level hash, not
        # Enum's Python-level one
        assert Field.__hash__ is object.__hash__
        assert len(set(Field)) == 3
        for fld in Field:
            assert hash(fld) == object.__hash__(fld)
            parsed = Field.parse(fld.value.upper())
            assert parsed is fld
            assert {fld: fld.value}[parsed] == fld.value
            assert kalg._KERNELS[parsed] is kalg._KERNELS[fld]
            assert parsed.ncomp == {Field.REAL: 1, Field.COMPLEX: 2, Field.QUATERNION: 4}[fld]
        with pytest.raises(ValueError, match="unknown field 'octonion'"):
            Field.parse("octonion")


class TestQuaternionRing:
    def test_multiplication_table(self):
        assert close(I_ @ I_, -1.0 * ONE, 0)
        assert close(J_ @ J_, -1.0 * ONE, 0)
        assert close(K_ @ K_, -1.0 * ONE, 0)
        assert close(I_ @ J_ @ K_, -1.0 * ONE, 0)
        assert close(I_ @ J_, K_, 0)
        assert close(J_ @ K_, I_, 0)
        assert close(K_ @ I_, J_, 0)

    def test_noncommutative(self):
        assert close(I_ @ J_, -1.0 * (J_ @ I_), 0)
        p = quat(1, 2, 3, 4)
        q = quat(-1, 0.5, 2, -3)
        assert kalg.frobenius_norm(p @ q - q @ p) > 1.0

    def test_associative_on_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, q, r = (scalar(rng.standard_normal(4), Q) for _ in range(3))
            assert close((p @ q) @ r, p @ (q @ r), 1e-13)

    def test_q_times_conjugate_is_norm_squared(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = scalar(rng.standard_normal(4), Q)
            n2 = kalg.frobenius_norm(q) ** 2
            assert close(q @ q.H, n2 * ONE, 1e-12 * (1 + n2))

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = scalar(rng.standard_normal(4), Q)
            q = scalar(rng.standard_normal(4), Q)
            lhs = kalg.frobenius_norm(p @ q)
            rhs = kalg.frobenius_norm(p) * kalg.frobenius_norm(q)
            assert abs(lhs - rhs) <= 1e-12 * (1 + rhs)

    @given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
    def test_norm_multiplicativity_hypothesis(self, comps):
        p = scalar(comps[:4], Q)
        q = scalar(comps[4:], Q)
        lhs = kalg.frobenius_norm(p @ q)
        rhs = kalg.frobenius_norm(p) * kalg.frobenius_norm(q)
        assert abs(lhs - rhs) <= 1e-9 * (1 + rhs)


def chi(data):
    """The complex adjoint [[Z1, Z2], [-conj Z2, conj Z1]] of M = Z1 + Z2 j."""
    z1 = data[..., 0] + 1j * data[..., 1]
    z2 = data[..., 2] + 1j * data[..., 3]
    return np.block([[z1, z2], [-z2.conj(), z1.conj()]])


def interleave(rows):
    """The permutation matrix P with (P v)_(2i + h) = v_(h rows + i)."""
    p = np.zeros((2 * rows, 2 * rows))
    for i in range(rows):
        for h in range(2):
            p[2 * i + h, h * rows + i] = 1.0
    return p


PRODUCT_SHAPES = [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (1, 1, 1),
                  (5, 3, 7), (7, 5, 1), (1, 6, 4), (4, 4, 4)]


class TestProductKernel:
    @pytest.mark.parametrize("r, c, m", PRODUCT_SHAPES)
    def test_product_matches_adjoint_oracle(self, r, c, m):
        rng = np.random.default_rng(r * 100 + c * 10 + m)
        a = Mat(Q, rng.standard_normal((r, c, 4)))
        b = Mat(Q, rng.standard_normal((c, m, 4)))
        got = a @ b
        assert got.shape == (r, m)
        err = np.linalg.norm(chi(a.data) @ chi(b.data) - chi(got.data))
        assert err <= 1e-14 * kalg.frobenius_norm(a) * kalg.frobenius_norm(b)

    @pytest.mark.parametrize("r, c, m", [(3, 2, 4), (1, 5, 1), (4, 4, 4), (2, 0, 3)])
    def test_stacked_and_broadcast_products_match_members(self, field, r, c, m):
        rng = np.random.default_rng(40 + r + c + m)
        S, nc = 5, field.ncomp
        a = rng.standard_normal((S, r, c, nc))
        b = rng.standard_normal((S, c, m, nc))
        b0 = b[0]
        ks = kalg._KERNELS[field]
        stacked = ks.components(ks.product(ks.native(a), ks.native(b)))
        broadcast = ks.components(ks.product(ks.native(a), ks.native(b0)))
        assert stacked.shape == broadcast.shape == (S, r, m, nc)
        for s in range(S):
            A, B = Mat(field, a[s]), Mat(field, b[s])
            bound = 1e-14 * kalg.frobenius_norm(A) * kalg.frobenius_norm(B)
            assert np.linalg.norm(stacked[s] - (A @ B).data) <= bound
            bound = 1e-14 * kalg.frobenius_norm(A) * np.linalg.norm(b0)
            assert np.linalg.norm(broadcast[s] - (A @ Mat(field, b0)).data) <= bound

    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 5), (5, 3), (6, 6), (0, 2)])
    def test_adjoint_is_interleaved_chi(self, rows, cols):
        data = np.random.default_rng(rows + 7 * cols).standard_normal((rows, cols, 4))
        got = kalg._adjoint(data)
        expected = interleave(rows) @ chi(data) @ interleave(cols).T
        assert got.shape == (2 * rows, 2 * cols)
        assert np.array_equal(got, expected)
        if rows and cols:
            s_got = np.linalg.svd(got, compute_uv=False)
            s_chi = np.linalg.svd(chi(data), compute_uv=False)
            assert np.allclose(s_got, s_chi, rtol=0, atol=1e-13 * s_chi[0])

    def test_stacked_adjoint_matches_members(self):
        # with signed zeros, and on stacks of column vectors as the Gram-Schmidt
        # step of the random frames makes them
        for shape in [(4, 3, 2, 4), (256, 4, 1, 4), (150, 2, 2, 4), (3, 0, 2, 4),
                      (2, 3, 5, 1, 4)]:
            data = signed_zeros(shape, 3)
            got = kalg._adjoint(data)
            assert_same_bits(got.view(np.float64), matmul_adjoint(data).view(np.float64))
            for s in range(shape[0]):
                assert_same_bits(got[s].view(np.float64),
                                 kalg._adjoint(data[s]).view(np.float64))

    @pytest.mark.parametrize("rows, cols", [(17, 20), (9, 13), (2, 5), (6, 1), (0, 3)])
    def test_strided_block_matches_its_copy(self, rows, cols):
        # a 2-D operand such as the lift's rows B[:r + 1, :n + j], a strided
        # block of a wider array, with signed zeros
        block = signed_zeros((rows + 3, cols + 4, 4), rows + 11 * cols)[1:rows + 1, 2:cols + 2]
        assert not block.flags.c_contiguous or not block.size
        got = kalg._adjoint(block)
        assert_same_bits(got.view(np.float64), kalg._adjoint(block.copy()).view(np.float64))
        assert_same_bits(got.view(np.float64), matmul_adjoint(block).view(np.float64))

    def test_no_stack_or_concatenate(self, monkeypatch):
        a = kalg.random_gaussian(4, 4, Q, 1)
        b = kalg.random_gaussian(4, 3, Q, 2)

        def forbidden(*args, **kwargs):
            raise AssertionError("the quaternion product and inverse build no block arrays")

        monkeypatch.setattr(np, "stack", forbidden)
        monkeypatch.setattr(np, "concatenate", forbidden)
        a @ b
        kalg.mat_inverse(a)
        kalg.is_invertible(a)


def signed_zeros(shape, seed):
    """Gaussian components with about a fifth of them +0.0 and a fifth -0.0."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    draw = rng.random(shape)
    data[draw < 0.2] = 0.0
    data[draw > 0.8] = -0.0
    return data


# (stack axes, rows, inner, cols): stacked, broadcast, 2-D and zero-size operands
KERNEL_SHAPES = [((), 5, 3, 4), ((), 1, 6, 1), ((), 60, 4, 8), ((4,), 3, 2, 5),
                 ((2, 3), 2, 4, 1), ((256,), 4, 1, 4), ((), 0, 3, 2), ((), 3, 0, 2),
                 ((3,), 2, 2, 0), ((0,), 2, 3, 2)]


def product(field, a, b):
    """The product of the field's kernel set, on the native arrays of two
    component stacks; its components."""
    ks = kalg._KERNELS[field]
    return ks.components(ks.product(ks.native(a), ks.native(b)))


class TestThinKernels:
    """The product, conjugate transpose and norm kernels against the numpy
    forms they replace, bit for bit, signed zeros included."""

    @pytest.mark.parametrize("lead, r, c, m", KERNEL_SHAPES)
    def test_product_matches_view_product(self, field, lead, r, c, m):
        nc = field.ncomp
        a = signed_zeros((*lead, r, c, nc), r + 10 * c + 100 * m)
        b = signed_zeros((*lead, c, m, nc), r + 10 * c + 100 * m + 1)
        assert_same_bits(product(field, a, b), view_product(field, a, b))
        if lead and 0 not in lead:  # broadcast one right operand over the stack
            assert_same_bits(product(field, a, b[(0,) * len(lead)]),
                             view_product(field, a, b[(0,) * len(lead)]))

    @pytest.mark.parametrize("lead, r, c, _", KERNEL_SHAPES)
    def test_conj_transpose_negates_swapped_imaginary_parts(self, field, lead, r, c, _):
        ks = kalg._KERNELS[field]
        data = signed_zeros((*lead, r, c, field.ncomp), 7 * r + c)
        want = np.swapaxes(data, -3, -2).copy()
        want[..., 1:] = -want[..., 1:]
        got = ks.conj_transpose(ks.native(data))
        assert_same_bits(ks.components(got), want)
        assert got.flags.c_contiguous and not np.shares_memory(got, data)

    def test_conj_transpose_of_views_is_c_contiguous(self, field):
        # the H product reshapes views of its left operand, so a conjugate
        # transpose must come back C-contiguous from any input layout: a block of
        # columns, a block of a stack, a transposed stack and a strided slice
        nc = field.ncomp
        ks = kalg._KERNELS[field]
        wide = signed_zeros((3, 7, 9, nc), 5)
        for data in (wide[0, :4, 2:8], wide[:, 1:5, :3], wide.swapaxes(1, 2),
                     wide[:, ::2, ::3]):
            got = ks.conj_transpose(ks.native(data))
            want = ks.conj_transpose(ks.native(np.ascontiguousarray(data)))
            assert got.flags.c_contiguous
            assert_same_bits(ks.components(got), ks.components(want))
            right = ks.native(signed_zeros((*data.shape[:-3], data.shape[-3], 2, nc), 6))
            assert_same_bits(ks.components(ks.product(got, right)),
                             ks.components(ks.product(want, right)))

    @pytest.mark.parametrize("lead, r, c, _", KERNEL_SHAPES)
    def test_norm_matches_linalg_norm(self, field, lead, r, c, _):
        data = signed_zeros((*lead, r, c, field.ncomp), 11 * r + c)
        got = kalg._norm(data)
        assert type(got) is float
        assert_same_bits(got, float(np.linalg.norm(data)))
        if lead and data.size:  # the stacked norms, member by member
            flat = data.reshape(-1, r, c, field.ncomp)
            want = [float(np.linalg.norm(member)) for member in flat]
            assert_same_bits(kalg._norms(flat), want)

    @pytest.mark.parametrize("n, k", [(6, 2), (5, 5), (60, 4), (3, 0)])
    def test_frame_residual_of_a_member_is_its_stacked_residual(self, field, n, k):
        frames = np.stack([stiefel.random_stiefel_point(n, k, field, 50 + s).m.data
                           for s in range(3)])
        frames[1] *= 1.0 + 1e-9
        stacked = kalg._frame_residuals(field, frames)
        for s in range(3):
            single = kalg._frame_residuals(field, frames[s])
            assert type(single) is float
            assert_same_bits(single, stacked[s])


# (stack axes, n): square stacks for the diagonal shift, 2-D, stacked and zero-size
SQUARE_SHAPES = [((), 4), ((), 1), ((), 9), ((3,), 5), ((2, 3), 2), ((), 0), ((0,), 3)]


class TestNativeKernels:
    """Each kernel of a field's native kernel set (kalg._KERNELS) against the
    numpy form it stands for, bit for bit, signed zeros included: the native
    array in, its components out."""

    @pytest.mark.parametrize("lead, r, c, _", KERNEL_SHAPES)
    def test_conversions_are_views(self, field, lead, r, c, _):
        ks = kalg._KERNELS[field]
        data = signed_zeros((*lead, r, c, field.ncomp), 3 * r + c)
        a = ks.native(data)
        assert a.shape == (data.shape if field is Q else data.shape[:-1])
        back = ks.components(a)
        assert_same_bits(back, data)
        assert_same_bits(ks.floats(a).reshape(-1), data.reshape(-1))
        if data.size:
            for view in (a, back, ks.floats(a)):
                assert np.shares_memory(view, data)

    @pytest.mark.parametrize("lead, r, c, m", KERNEL_SHAPES)
    def test_product(self, field, lead, r, c, m):
        ks = kalg._KERNELS[field]
        a = signed_zeros((*lead, r, c, field.ncomp), r + 10 * c + 100 * m + 2)
        b = signed_zeros((*lead, c, m, field.ncomp), r + 10 * c + 100 * m + 3)
        got = ks.product(ks.native(a), ks.native(b))
        assert_same_bits(ks.components(got), view_product(field, a, b))
        if lead and 0 not in lead:  # broadcast one right operand over the stack
            b0 = b[(0,) * len(lead)]
            assert_same_bits(ks.components(ks.product(ks.native(a), ks.native(b0))),
                             view_product(field, a, b0))

    @pytest.mark.parametrize("lead, r, c, _", KERNEL_SHAPES)
    def test_conj_transpose(self, field, lead, r, c, _):
        ks = kalg._KERNELS[field]
        data = signed_zeros((*lead, r, c, field.ncomp), 13 * r + c)
        got = ks.conj_transpose(ks.native(data))
        assert got.flags.c_contiguous and not np.shares_memory(got, data)
        assert_same_bits(ks.components(got), conj_transpose(data))

    @pytest.mark.parametrize("lead, r, c, _", KERNEL_SHAPES)
    @pytest.mark.parametrize("factor", [0.5, -3.0, 0.0])
    def test_scale(self, field, lead, r, c, _, factor):
        # numpy's complex-by-real product would give +0.0 where the components give -0.0
        ks = kalg._KERNELS[field]
        data = signed_zeros((*lead, r, c, field.ncomp), 17 * r + c)
        got = ks.scale(ks.native(data), factor)
        assert not np.shares_memory(got, data)
        assert_same_bits(ks.components(got), data * factor)

    @pytest.mark.parametrize("lead, n", SQUARE_SHAPES)
    def test_shift_diagonal(self, field, lead, n):
        ks = kalg._KERNELS[field]
        data = signed_zeros((*lead, n, n, field.ncomp), 19 * n + len(lead))
        want = data.copy()
        kalg._shift_diagonal(want, -1.0)
        a = ks.native(data)
        ks.shift_diagonal(a, -1.0)  # in place, on the components' memory
        assert_same_bits(data, want)

    # larger arrays too: a complex dot sums in another order, which shows in
    # the last bits only on some of them
    @pytest.mark.parametrize("lead, r, c, _", KERNEL_SHAPES + [((), 40, 30, 0), ((8,), 20, 20, 0)])
    def test_norm(self, field, lead, r, c, _):
        ks = kalg._KERNELS[field]
        data = signed_zeros((*lead, r, c, field.ncomp), 23 * r + c)
        got = ks.norm(ks.native(data))
        assert type(got) is float
        assert_same_bits(got, float(np.linalg.norm(data)))

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_invert_takes_and_returns_native_arrays(self, field, n):
        ks = kalg._KERNELS[field]
        data = conditioned(field, n, 10.0, 29 + n)
        got = kalg._invert(ks, ks.native(data), kalg.DEFAULT_TOL)
        assert got.shape == ks.native(data).shape
        assert_same_bits(ks.components(got), reference_inverse(field, data, kalg.DEFAULT_TOL))


class TestFrameScreen:
    """A frame that is not finite has residual NaN, with no numpy warning
    (warnings are errors in this suite)."""

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_non_finite_frame(self, field, entry):
        data = stiefel.random_stiefel_point(6, 2, field, 61).m.data.copy()
        data[3, 1, field.ncomp - 1] = entry
        assert math.isnan(kalg._frame_residuals(field, data))

    def test_overflowing_frame(self, field):
        data = np.full((4, 2, field.ncomp), 1e160)  # finite, |x|_F^2 overflows
        assert math.isnan(kalg._frame_residuals(field, data))

    def test_stack_member_by_member(self, field):
        frames = np.stack([stiefel.random_stiefel_point(6, 2, field, 62 + s).m.data
                           for s in range(3)])
        frames[1, 0, 0, 0] = np.inf
        got = kalg._frame_residuals(field, frames)
        assert math.isnan(got[1])
        for s in (0, 2):
            assert_same_bits(got[s], kalg._frame_residuals(field, frames[s]))


class TestConjTranspose:
    def test_identity(self, field):
        I3 = kalg.identity(3, field)
        assert close(I3.H, I3, 0)

    def test_1x1_quaternion(self):
        assert close(I_.H, -1.0 * I_, 0)

    def test_involution(self):
        m = kalg.random_gaussian(3, 2, Field.COMPLEX, 3)
        assert np.array_equal(m.H.H.data, m.data)

    def test_anti_homomorphism(self, field):
        for s in range(10):
            a = kalg.random_gaussian(4, 3, field, 10 + s)
            b = kalg.random_gaussian(3, 5, field, 20 + s)
            scale = kalg.frobenius_norm(a) * kalg.frobenius_norm(b)
            assert close((a @ b).H, b.H @ a.H, 1e-12 * scale)


class TestInverse:
    def test_identity(self, field):
        I4 = kalg.identity(4, field)
        assert close(kalg.mat_inverse(I4), I4, 0)

    def test_1x1_quaternion_i(self):
        assert close(kalg.mat_inverse(I_), -1.0 * I_, 1e-15)

    def test_random_quaternion_residual(self):
        m = kalg.random_gaussian(4, 4, Q, 4)
        resid = kalg.frobenius_norm(m @ kalg.mat_inverse(m) - kalg.identity(4, Q))
        assert resid <= 1e-10

    @pytest.mark.parametrize("n", [1, 3, 6, 12])
    def test_residual_relative_bound(self, field, n):
        m = kalg.random_gaussian(n, n, field, 100 + n)
        inv = kalg.mat_inverse(m)
        I = kalg.identity(n, field)
        bound = 1e-10 * kalg.frobenius_norm(m)
        assert kalg.frobenius_norm(m @ inv - I) <= bound
        assert kalg.frobenius_norm(inv @ m - I) <= bound

    def test_singular_raises(self):
        with pytest.raises(Singular):
            kalg.mat_inverse(kalg.zeros(3, 3, Field.REAL))
        rank1 = Mat(Field.REAL, np.ones((2, 2, 1)))
        with pytest.raises(Singular):
            kalg.mat_inverse(rank1)

    def test_quaternion_inverse_vs_complex_embedding(self):
        # oracle: chi(M) = [[A, B], [-conj(B), conj(A)]] with M = A + B j
        m = kalg.random_gaussian(5, 5, Q, 5)
        a = m.data[:, :, 0] + 1j * m.data[:, :, 1]
        b = m.data[:, :, 2] + 1j * m.data[:, :, 3]
        chi = np.block([[a, b], [-b.conj(), a.conj()]])
        chi_inv = np.linalg.inv(chi)
        n = 5
        expected = np.stack([chi_inv[:n, :n].real, chi_inv[:n, :n].imag,
                             chi_inv[:n, n:].real, chi_inv[:n, n:].imag], axis=2)
        got = kalg.mat_inverse(m)
        assert np.allclose(got.data, expected, atol=1e-11)


class TestIsInvertible:
    def test_trivial(self, field):
        assert kalg.is_invertible(kalg.identity(3, field))
        assert not kalg.is_invertible(kalg.zeros(3, 3, field))

    def test_rank_one_real(self):
        m = Mat(Field.REAL, np.ones((2, 2, 1)))
        assert not kalg.is_invertible(m)

    def test_unit_triangular_with_huge_condition(self, field):
        # I - strictly-upper-ones: every elimination pivot is 1, cond ~ 1e16
        n = 50
        data = np.zeros((n, n, field.ncomp))
        data[:, :, 0] = np.eye(n) - np.triu(np.ones((n, n)), 1)
        m = Mat(field, data)
        assert not kalg.is_invertible(m)
        with pytest.raises(Singular):
            kalg.mat_inverse(m)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_not_finite_is_singular(self, field, value, capfd):
        # no LAPACK call sees the matrix: it would print to stdout, fail to
        # converge or return a NaN "inverse"
        full = np.full((2, 2, field.ncomp), value)
        one_entry = kalg.identity(3, field).data.copy()
        one_entry[0, 2, -1] = value
        for data in (full, one_entry):
            m = Mat._trusted(field, data)
            assert not kalg.is_invertible(m)
            with pytest.raises(Singular, match="not finite"):
                kalg.mat_inverse(m)
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_not_finite_members_of_a_stack(self, field, value):
        stack = np.stack([kalg.random_gaussian(3, 3, field, 60 + i).data for i in range(4)])
        stack[1, 0, 0, 0] = value
        stack[2] *= 1e200  # finite, though its sum of squares overflows
        stack[3] = value
        ks = kalg._KERNELS[field]
        invertible, s = kalg._svd_test(*kalg._screened_operand(ks, native(field, stack))[:2],
                                       kalg.DEFAULT_TOL)
        assert invertible.tolist() == [True, False, True, False]
        assert np.isnan(s[[1, 3]]).all()
        for i in (0, 2):
            alone, s_alone = kalg._svd_test(
                *kalg._screened_operand(ks, native(field, stack[i]))[:2], kalg.DEFAULT_TOL)
            assert alone and np.array_equal(s[i], s_alone)


def native(field, data):
    """The native array (kalg._KERNELS) of a component array: the form the
    singularity decisions take."""
    return kalg._KERNELS[field].native(data)


def reference_inverse(field, data, tol):
    """mat_inverse with the SVD test on every matrix: Singular, or the components
    of LAPACK's inverse of the operand."""
    a, finite, _ = kalg._screened_operand(kalg._KERNELS[field], native(field, data))
    if not kalg._svd_test(a, finite, tol)[0]:
        return Singular
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return Singular
    if field is Q:
        n = len(data)
        return np.ascontiguousarray(inv.reshape(n, 2, n, 2)[:, 0]).view(np.float64)
    return inv[..., None].view(np.float64)


def swept_conditions(tol):
    """Condition numbers from 1 to 1e17 and exactly singular, denser near 1/tol."""
    conds = list(np.geomspace(1.0, 1e17, 18)) + [np.inf]
    if tol:
        conds += list(np.geomspace(0.03 / tol, 30.0 / tol, 25))
    return conds


class TestInverseDecision:
    """mat_inverse runs its SVD test only where its own inverse cannot decide it,
    and decides as the test on every matrix would, to the bit."""

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-6])
    def test_sweep_agrees_with_the_svd_test(self, field, tol, monkeypatch):
        conds = swept_conditions(tol)
        svd_runs, ran = [], []
        svd_test = kalg._svd_test

        def recorded(op, finite, t):
            svd_runs.append(t)
            return svd_test(op, finite, t)

        monkeypatch.setattr(kalg, "_svd_test", recorded)
        for n in (1, 2, 4):
            for i, cond in enumerate(conds if n > 1 else [1.0]):
                for scale in (1.0, 1e-100, 1e100):
                    data = conditioned(field, n, cond, 17 * i + n, scale)
                    want = reference_inverse(field, data, tol)
                    must_run = svd_test_runs(field, data, tol)
                    svd_runs.clear()
                    try:
                        got = kalg.mat_inverse(Mat(field, data), tol).data
                    except Singular:
                        got = Singular
                    if want is Singular:
                        assert got is Singular
                    else:
                        assert_same_bits(got, want)
                    assert svd_runs in ([], [tol])
                    if must_run is not None:
                        assert bool(svd_runs) == must_run, (n, cond, scale)
                    ran.append(bool(svd_runs))
        assert any(ran) and not all(ran)

    def test_a_wrong_inverse_is_not_trusted(self, field, monkeypatch):
        # an inverse that does not invert proves nothing, however small it is
        monkeypatch.setattr(np.linalg, "inv", lambda a: np.eye(len(a), dtype=a.dtype))
        rank_one = np.zeros((2, 2, field.ncomp))
        rank_one[:, :, 0] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(Singular, match="smallest singular value"):
            kalg.mat_inverse(Mat(field, rank_one))

    def test_singular_message_is_the_svd_test(self, field):
        with pytest.raises(Singular, match="at most 1.0e-06 times the largest"):
            kalg.mat_inverse(Mat(field, conditioned(field, 3, 1e7, 5)), 1e-6)

    def test_tol_times_a_huge_sigma_max(self, field):
        # tol * sigma_max overflows: the test still decides, with no warning
        data = np.zeros((2, 2, field.ncomp))
        data[:, :, 0] = [[1e308, 0.5e308], [0.0, 1e308]]
        with pytest.raises(Singular, match="at most 5.0e\\+00 times the largest"):
            kalg.mat_inverse(Mat(field, data), 5.0)
        assert not kalg.is_invertible(Mat(field, data), 5.0)


class TestStackDecision:
    """_invertible_stack decides each member of a stack as the SVD test of
    _svd_test does, and runs that test, in one call, on the members that the
    residual of their inverse cannot decide."""

    @staticmethod
    def svd_members(monkeypatch):
        """The operand stacks that reach the SVD test, recorded."""
        seen = []
        svd_test = kalg._svd_test

        def recorded(op, finite, tol):
            seen.append(op)
            return svd_test(op, finite, tol)

        monkeypatch.setattr(kalg, "_svd_test", recorded)
        return seen

    @staticmethod
    def svd_decision(field, data, tol):
        """The SVD test on the screened operands of components data."""
        return kalg._svd_test(*kalg._screened_operand(kalg._KERNELS[field],
                                                      native(field, data))[:2], tol)[0]

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-6])
    def test_sweep_agrees_with_the_svd_test(self, field, tol, monkeypatch):
        conds = swept_conditions(tol)
        seen, ran = self.svd_members(monkeypatch), []
        for n in (1, 2, 4):
            for scale in (1.0, 1e-100, 1e100):
                stack = np.stack([conditioned(field, n, cond, 17 * i + n, scale)
                                  for i, cond in enumerate(conds if n > 1 else [1.0])])
                want = self.svd_decision(field, stack, tol)
                seen.clear()
                got = kalg._invertible_stack(kalg._KERNELS[field], native(field, stack), tol)
                assert got.tolist() == want.tolist(), (n, scale)
                assert len(seen) <= 1
                ks = kalg._KERNELS[field]
                reached = [any(np.array_equal(ks.operand(native(field, m)), r) for r in seen[0])
                           if seen else False for m in stack]
                for m, cond, svd_ran in zip(stack, conds, reached):
                    must_run = svd_test_runs(field, m, tol)
                    if must_run is not None:
                        assert svd_ran == must_run, (n, cond, scale)
                ran += reached
        assert any(ran) and not all(ran)

    @pytest.mark.parametrize("zero_pivot", [False, True], ids=["inverted", "zero_pivot"])
    def test_mixed_stack(self, field, zero_pivot, capfd):
        # NaN and inf members, a finite member whose sum of squares overflows
        # (|A|_F^2 = inf and |B|_F^2 = 0 in the residual test) and, with
        # zero_pivot, a rank-two member that fails np.linalg.inv for the stack
        stack = np.stack([kalg.random_gaussian(3, 3, field, 70 + i).data for i in range(5)])
        stack[1, 2, 0, -1] = np.nan
        stack[2] = np.inf
        stack[3] *= 1e200
        stack[4] = 0.0
        stack[4, :, :, 0] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
        if not zero_pivot:
            stack = stack[:4]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kalg._invertible_stack(kalg._KERNELS[field], native(field, stack),
                                         kalg.DEFAULT_TOL)
        assert got.tolist() == [True, False, False, True, False][:len(stack)]
        for i, member in enumerate(stack):
            assert got[i] == self.svd_decision(field, member, kalg.DEFAULT_TOL)
        assert capfd.readouterr() == ("", "")

    def test_no_inverse_when_no_residual_can_prove(self, field, monkeypatch):
        # |A|_F |B|_F >= p = 2 or 4 here, so 4 |A|_F |B|_F tol > 1 for tol = 0.2
        stack = np.stack([conditioned(field, 2, cond, i)
                          for i, cond in enumerate([1.0, 3.0, 1e3])])
        want = self.svd_decision(field, stack, 0.2).tolist()
        monkeypatch.setattr(np.linalg, "inv", lambda a: pytest.fail("inverted"))
        got = kalg._invertible_stack(kalg._KERNELS[field], native(field, stack), 0.2).tolist()
        assert got == want == [True, True, False]

    def test_rejects_a_non_square_stack(self, field):
        with pytest.raises(ValueError, match="square"):
            kalg._invertible_stack(kalg._KERNELS[field],
                                   native(field, np.zeros((2, 3, 2, field.ncomp))),
                                   kalg.DEFAULT_TOL)


class TestOneScreenPerDecision:
    """Every decision screens its input once and builds its operand once (over
    H's component set, one adjoint), and its SVD test, when it runs, reads
    that operand: one screen, one operand and one SVD test per call."""

    @staticmethod
    def counted(monkeypatch, field):
        """Counts of _screened_operand, operand and _svd_test calls, recorded."""
        counts = dict.fromkeys(("screen", "operand", "svd"), 0)
        ks = kalg._KERNELS[field]

        def counting(key, fn):
            def counted_fn(*args):
                counts[key] += 1
                return fn(*args)
            return counted_fn

        monkeypatch.setattr(kalg, "_screened_operand", counting("screen", kalg._screened_operand))
        monkeypatch.setattr(kalg, "_svd_test", counting("svd", kalg._svd_test))
        monkeypatch.setattr(ks, "operand", counting("operand", ks.operand))
        return counts

    @pytest.mark.parametrize("cond, outcome", [(1.0, "inverse"), (5e11, "inverse"),
                                               (5e13, Singular)])
    def test_mat_inverse(self, field, cond, outcome, monkeypatch):
        # from about 5e11 no residual proves the test at DEFAULT_TOL
        # (svd_test_runs), and the test passes; 5e13 fails it
        data = conditioned(field, 4, cond, 3)
        assert svd_test_runs(field, data, kalg.DEFAULT_TOL) in (None, cond > 1.0)
        counts = self.counted(monkeypatch, field)
        try:
            kalg.mat_inverse(Mat(field, data))
            got = "inverse"
        except Singular:
            got = Singular
        assert got is outcome
        assert counts == {"screen": 1, "operand": 1, "svd": int(cond > 1.0)}

    @pytest.mark.parametrize("cond", [1.0, 5e11, 5e13])
    def test_is_invertible(self, field, cond, monkeypatch):
        counts = self.counted(monkeypatch, field)
        assert kalg.is_invertible(Mat(field, conditioned(field, 4, cond, 3))) is (cond < 1e13)
        assert counts == {"screen": 1, "operand": 1, "svd": 1}

    # DEFAULT_TOL proves the first member alone, and tol 0.5 none of them
    @pytest.mark.parametrize("tol", [kalg.DEFAULT_TOL, 0.5])
    def test_stack(self, field, tol, monkeypatch):
        stack = np.stack([conditioned(field, 4, cond, 3 + i)
                          for i, cond in enumerate([1.0, 5e11, 1e14])])
        counts = self.counted(monkeypatch, field)
        got = kalg._invertible_stack(kalg._KERNELS[field], native(field, stack), tol)
        assert got.tolist() == ([True, True, False] if tol < 1e-11 else [True, False, False])
        assert counts == {"screen": 1, "operand": 1, "svd": 1}


def tol_taking_calls():
    """Each public function that takes a tol, as a call on fixed arguments."""
    near_singular = Mat(Q, [[[1, 0, 0, 0], [1, 0, 0, 0]], [[1, 0, 0, 0], [1 + 1e-15, 0, 0, 0]]])
    rank_one = Mat(Field.REAL, [[[1], [2]], [[2], [4]]])
    lift, t = random_lift_tangent(5, 2, Q, 3)
    y = stiefel.gamma(t)
    return {
        "mat_inverse": lambda tol: kalg.mat_inverse(near_singular, tol),
        "is_invertible": lambda tol: kalg.is_invertible(rank_one, tol),
        "cayley_at_identity": lambda tol: group.cayley_at_identity(random_skew(3, Q, 4), tol),
        "gamma_inverse": lambda tol: stiefel.gamma_inverse(lift, y, tol),
        "differential_is_injective": lambda tol: stiefel.differential_is_injective(t, tol),
        "cover_membership": lambda tol: cover.cover_membership(y, cover.default_ladder(2), tol),
    }


@pytest.mark.parametrize("name", list(tol_taking_calls()))
@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
def test_unusable_tol_is_rejected(name, tol):
    # NaN or -1 passes every singularity test (mat_inverse inverted near_singular
    # to entries of 9e14, is_invertible called rank_one invertible), inf fails all
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        tol_taking_calls()[name](tol)


class TestFrobeniusNorm:
    def test_zero(self, field):
        assert kalg.frobenius_norm(kalg.zeros(2, 3, field)) == 0.0

    def test_identity(self):
        assert kalg.frobenius_norm(kalg.identity(3, Field.REAL)) == pytest.approx(np.sqrt(3))

    def test_unit_quaternion_sum(self):
        assert kalg.frobenius_norm(quat(1, 1, 1, 1)) == pytest.approx(2.0)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 5), (40, 30)])
    def test_bits_match_linalg_norm(self, field, rows, cols):
        # the one ddot np.linalg.norm makes on the components, signed zeros and
        # all, on a Mat and on blocks of it
        m = Mat(field, signed_zeros((rows, cols, field.ncomp), 7 * rows + cols))
        for a in (m, m.block(0, rows, cols // 2, cols), m.block(rows // 3, rows, 0, cols)):
            got = kalg.frobenius_norm(a)
            assert type(got) is float
            assert_same_bits(got, float(np.linalg.norm(a.data)))


class TestRandomGaussian:
    def test_deterministic(self, field):
        a = kalg.random_gaussian(2, 2, field, 77)
        b = kalg.random_gaussian(2, 2, field, 77)
        assert np.array_equal(a.data, b.data)

    def test_moments(self, field):
        m = kalg.random_gaussian(100, 100, field, 6)
        samples = m.data.ravel()
        assert abs(samples.mean()) <= 5.0 / np.sqrt(samples.size)
        assert abs(samples.var() - 1.0) <= 0.1


class TestSkewHermitianPart:
    def test_hermitian_gives_zero(self, field):
        m = kalg.random_gaussian(3, 3, field, 7)
        h = 0.5 * (m + m.H)
        assert close(kalg.skew_hermitian_part(h), kalg.zeros(3, 3, field), 1e-15)

    def test_skew_fixed(self, field):
        m = kalg.skew_hermitian_part(kalg.random_gaussian(3, 3, field, 8))
        assert close(kalg.skew_hermitian_part(m), m, 0)

    def test_1x1_complex(self):
        m = scalar([3, 4], Field.COMPLEX)
        assert close(kalg.skew_hermitian_part(m), scalar([0, 4], Field.COMPLEX), 0)

    def test_exact_skewness(self, field):
        m = kalg.random_gaussian(4, 4, field, 9)
        s = kalg.skew_hermitian_part(m)
        assert kalg.frobenius_norm(s + s.H) == 0.0

    @pytest.mark.parametrize("part", [kalg.skew_hermitian_part, kalg.hermitian_part])
    def test_rejects_non_square(self, part):
        with pytest.raises(ValueError, match=r"shape mismatch \(2, 3\)"):
            part(kalg.zeros(2, 3, Field.REAL))

    def test_predicate_is_relative(self, field):
        s = kalg.skew_hermitian_part(kalg.random_gaussian(4, 4, field, 10))
        h = kalg.hermitian_part(kalg.random_gaussian(4, 4, field, 11))
        h = (1.0 / kalg.frobenius_norm(h)) * h
        for scale in (1e-3, 1.0, 1e6, 1e12):
            m = scale * s
            size = max(1.0, kalg.frobenius_norm(m))
            assert kalg.is_skew_hermitian(m + (1e-10 * size) * h, 1e-8)
            assert not kalg.is_skew_hermitian(m + (1e-6 * size) * h, 1e-8)


class TestMatValidation:
    def test_rejects_nonfinite(self):
        data = np.zeros((1, 1, 1))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Mat(Field.REAL, data)

    def test_rejects_complex_entries(self, field):
        # a complex matrix is Field.COMPLEX with 2 real components per entry
        with pytest.raises(ValueError, match="complex entries"):
            Mat(field, np.full((1, 1, field.ncomp), 1.0 + 2.0j))

    def test_rejects_mixed_fields(self):
        a = kalg.identity(2, Field.REAL)
        b = kalg.identity(2, Field.COMPLEX)
        with pytest.raises(ValueError):
            a @ b

    def test_rejects_shape_mismatch(self):
        a = kalg.zeros(2, 3, Field.REAL)
        b = kalg.zeros(2, 3, Field.REAL)
        with pytest.raises(ValueError):
            a @ b

    @pytest.mark.parametrize("bounds", [(0, 3, 0, 4), (0, 2, 0, 5), (-1, 2, 0, 3),
                                        (0, 2, -1, 3), (2, 1, 0, 3), (0, 2, 3, 2)])
    def test_block_rejects_a_range_outside_the_matrix(self, field, bounds):
        # numpy would clip a bound past the end and wrap a negative one
        with pytest.raises(ValueError, match="outside a 2x3 matrix"):
            kalg.random_gaussian(2, 3, field, 8).block(*bounds)

    def test_block_accepts_every_range_inside_the_matrix(self, field):
        a = kalg.random_gaussian(2, 3, field, 9)
        assert np.array_equal(a.block(0, 2, 0, 3).data, a.data)
        assert a.block(1, 1, 3, 3).shape == (0, 0)
        assert np.array_equal(a.block(1, 2, 1, 3).data, a.data[1:, 1:])

    def test_immutable(self):
        m = kalg.identity(2, Field.REAL)
        with pytest.raises(ValueError):
            m.data[0, 0, 0] = 5.0


class TestTrustedResults:
    def test_public_constructor_copies_and_checks(self, field):
        data = np.ones((2, 2, field.ncomp))
        m = Mat(field, data)
        data[0, 0, 0] = 5.0
        assert m.data[0, 0, 0] == 1.0
        data[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            Mat(field, data)

    def test_results_are_read_only(self, field):
        a = kalg.random_gaussian(3, 3, field, 1)
        b = kalg.random_gaussian(3, 3, field, 2)
        results = [a @ b, a + b, a - b, -a, 2.0 * a, a.block(0, 2, 1, 3), a.H,
                   kalg.hstack(a, b), kalg.vstack(a, b), kalg.mat_inverse(a),
                   kalg.zeros(2, 3, field), kalg.identity(3, field)]
        for m in results:
            assert m.data.dtype == np.float64 and m.data.shape[2] == field.ncomp
            with pytest.raises(ValueError):
                m.data[0, 0, 0] = 5.0

    def test_results_are_fresh_and_contiguous(self, field):
        a = kalg.random_gaussian(4, 4, field, 5)
        b = kalg.random_gaussian(4, 2, field, 6)
        for m in (a @ b, kalg.mat_inverse(a)):
            assert m.data.flags.c_contiguous
            assert not np.shares_memory(m.data, a.data)
            assert not np.shares_memory(m.data, b.data)
        stack = np.random.default_rng(7).standard_normal((3, 4, 4, field.ncomp))
        out = product(field, stack, stack)
        assert out.flags.c_contiguous and not np.shares_memory(out, stack)

    @pytest.mark.parametrize("s", [np.inf, -np.inf, np.nan])
    def test_scaling_rejects_nonfinite(self, field, s):
        m = kalg.identity(2, field)
        with pytest.raises(ValueError):
            m * s
        with pytest.raises(ValueError):
            s * m


class TestJson:
    def test_round_trip(self, field):
        m = kalg.random_gaussian(3, 2, field, 11)
        obj = json.loads(json.dumps(kalg.mat_to_json(m)))
        assert obj["field"] == field.value
        assert np.array_equal(mat_payload(obj), m.data)

    def test_schema_fields(self):
        obj = kalg.mat_to_json(kalg.identity(2, Q))
        assert obj["field"] == "quaternion"
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert len(obj["data"]) == 4 and len(obj["data"][0]) == 4

    def test_empty(self):
        obj = json.loads(json.dumps(kalg.mat_to_json(kalg.zeros(3, 0, Field.COMPLEX))))
        assert (obj["rows"], obj["cols"], obj["data"]) == (3, 0, [])
        assert mat_payload(obj).shape == (3, 0, 2)
