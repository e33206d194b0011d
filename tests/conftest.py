import math

import numpy as np
import pytest

from cayley_stiefel import group, kalg, stiefel
from cayley_stiefel.kalg import Field, Mat
from cayley_stiefel.stiefel import StiefelPoint, TangentCoords

FIELDS = [Field.REAL, Field.COMPLEX, Field.QUATERNION]


@pytest.fixture(params=FIELDS, ids=[f.value for f in FIELDS])
def field(request):
    return request.param


def conj_transpose(data):
    """Conjugate transpose of a (..., rows, cols, ncomp) component stack: the
    swapped copy with its imaginary parts negated, the reference for the
    kernel sets' conjugate transposes."""
    out = np.swapaxes(data, -3, -2).copy()
    out[..., 1:] *= -1.0
    return out


def matmul_adjoint(data):
    """kalg._adjoint with its second block row formed by a stacked matmul, one
    cols x 4 by 4 x 4 product per row: the reference for its single np.dot."""
    *lead, rows, cols, _ = data.shape
    out = np.empty((*lead, rows, 2, cols, 4))
    out[..., 0, :, :] = data
    np.matmul(data, kalg._ADJOINT_ROW, out=out[..., 1, :, :])
    return out.view(np.complex128).reshape(*lead, 2 * rows, 2 * cols)


def view_product(field, a, b):
    """Product of (..., rows, cols, ncomp) component stacks: one matmul of
    their real or complex views over R and C, and of the complex rows of a
    with matmul_adjoint of b over H.  The reference for the kernel sets'
    products."""
    if field is Field.QUATERNION:
        z = a.view(np.complex128).reshape(*a.shape[:-2], 2 * a.shape[-2])
        p = z @ matmul_adjoint(b)
        return p.reshape(*p.shape[:-1], p.shape[-1] // 2, 2).view(np.float64)
    if field is Field.REAL:
        return (a[..., 0] @ b[..., 0])[..., None]
    p = a.view(np.complex128)[..., 0] @ b.view(np.complex128)[..., 0]
    return p[..., None].view(np.float64)


def random_skew(k, fld, seed, scale=1.0):
    """The skew-Hermitian part (M - M*) / 2 of a scaled Gaussian M, formed by numpy."""
    m = (scale * kalg.random_gaussian(k, k, fld, seed)).data
    return Mat(fld, 0.5 * (m - conj_transpose(m)))


def random_lift_tangent(n, k, fld, seed, scale=1.0):
    """A random frame, its completion, and random tangent coordinates."""
    x = stiefel.random_stiefel_point(n, k, fld, seed)
    lift = stiefel.complete_lift(x)
    X = scale * kalg.random_gaussian(n - k, k, fld, seed + 7919)
    Y = random_skew(k, fld, seed + 104729, scale)
    return lift, TangentCoords(lift, X, Y)


def identity_tangent(X, Y):
    """TangentCoords (X, Y) on the identity lift of the base frame [0; I]: the
    tangent [[0, X], [-X*, Y]] at the identity of the group."""
    identity = StiefelPoint(kalg.identity(X.rows + X.cols, X.field))
    return TangentCoords(stiefel.Lift(stiefel.rho(identity, X.cols), identity), X, Y)


def assert_same_bits(a, b):
    """Equal values and equal signs of zero, entry for entry."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def recorded_kernel(monkeypatch, field, name, kernels=kalg._KERNELS):
    """Patch the kernel `name` of field's native kernel set in kernels
    (kalg._KERNELS, or the search's kalg._SEARCH_KERNELS) to record the
    component shapes (rows, cols, ncomp) of its array arguments; returns the
    record."""
    ks = kernels[field]
    calls, kernel, components = [], getattr(ks, name), ks.components

    def recorded(*args):
        calls.append(tuple(components(a).shape for a in args if isinstance(a, np.ndarray)))
        return kernel(*args)

    monkeypatch.setattr(ks, name, recorded)
    return calls


def reference_lift(x):
    """Components of complete_lift(x).A by the Householder QL loop in its
    plainest numpy form, the reference for the library's bits: a conjugate
    transpose is a copy with its imaginary parts negated, a product is
    view_product, the identity is set by fancy indexing, B = [I, x] is one
    concatenate and the reflector scalars come from np.sqrt."""
    field, n, k = x.field, x.n, x.k
    eye = np.zeros((n, n, field.ncomp))
    eye[range(n), range(n), 0] = 1.0
    B = np.concatenate([eye, x.m.data], axis=1)
    for j in reversed(range(k)):
        r = n - k + j
        a = B[:r + 1, n + j:n + j + 1]
        abs_r = np.sqrt(a[r, 0] @ a[r, 0])
        q = a[r, 0] / abs_r if abs_r else np.eye(field.ncomp)[0]
        v = a.copy()
        v[r, 0] += q * np.sqrt(np.vdot(a, a))
        rows = B[:r + 1, :n + j]
        w = view_product(field, conj_transpose(v), rows)
        rows -= view_product(field, v, w) * (2.0 / np.vdot(v, v))
    return np.concatenate([conj_transpose(B[:n - k, :n]) + 0.0, x.m.data], axis=1)


def svd_test_runs(fld, data, tol):
    """Whether mat_inverse must run its SVD test on the square matrix with
    components data: True where sigma_max / sigma_min >= 1 / (2e), False
    where it is at most 1 / (8 p e), None between; e = max(tol, p 2^-50)
    and p is the order of LAPACK's operand (n, or 2n over H).

    Above the first bound no inverse can prove the test passes (kalg._invert).
    Below the second |A|_F |A^-1|_F <= p sigma_max / sigma_min leaves a
    backward-stable inverse well inside the rule that skips it.
    """
    p = data.shape[0] * (2 if fld is Field.QUATERNION else 1)
    e = max(tol, p * 2.0 ** -50)
    ks = kalg._KERNELS[fld]
    op, finite, _ = kalg._screened_operand(ks, ks.native(data))
    s = kalg._svd_test(op, finite, 0.0)[1]
    cond = s[0] / s[-1] if s[-1] else math.inf
    if cond >= 1.0 / (2.0 * e):
        return True
    return False if cond <= 1.0 / (8.0 * p * e) else None


def conditioned(field, n, cond, seed, scale=1.0):
    """Components of scale U diag(s) V* with U, V random unitary over the field
    and s falling geometrically from 1 to 1/cond (to 0 for cond = inf)."""
    u, v = (stiefel.random_stiefel_point(n, n, field, seed + i).m for i in (0, 1))
    s = np.zeros((n, n, field.ncomp))
    s[range(n), range(n), 0] = np.geomspace(1.0, 1.0 / cond, n) if cond < np.inf else 1.0
    if cond == np.inf:
        s[n - 1, n - 1, 0] = 0.0
    return scale * (u @ Mat(field, s) @ v.H).data


def scalar(value, fld):
    """1 x 1 matrix from raw scalar components."""
    return kalg.Mat(fld, np.asarray(value, dtype=np.float64).reshape(1, 1, fld.ncomp))


def mat_payload(obj):
    """The component array of a kalg.mat_to_json payload, shaped by its own header."""
    return np.reshape(obj["data"], (obj["rows"], obj["cols"], Field.parse(obj["field"]).ncomp))


def overflow_nan(rows, cols, fld):
    """c - c for c = a @ b with finite 1e200 entries: NaN from kalg arithmetic alone."""
    a = kalg.Mat(fld, np.full((rows, 3, fld.ncomp), 1e200))
    b = kalg.Mat(fld, np.full((3, cols, fld.ncomp), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        c = a @ b
        return c - c


# References for the paper's statements about the Stiefel Cayley transform that
# the library itself does not need: its differential, the kernel witnesses and
# minimum gain of that differential, the Cayley open sets and the angle frames
# of the cover.  They are written on Mat values, as plainly as the checks allow.


def in_cayley_open(x, y, tol=kalg.DEFAULT_TOL):
    """Whether y lies in the Cayley open subset attached to x: pi + P* is
    invertible, with pi the bottom k x k block of y and P that of x."""
    return kalg.is_invertible(y.P + x.P.H, tol)


def sample_in_cayley_open(lift, seed):
    """A random frame inside the Cayley open subset of the lift's base point."""
    for attempt in range(20):
        y = stiefel.random_stiefel_point(lift.n, lift.k, lift.field,
                                         seed + 7_000_003 * attempt)
        if in_cayley_open(lift.point, y):
            return y
    raise AssertionError("could not sample inside the Cayley open subset")


def theta_frame(n, k, theta, fld):
    """The angle frame [0; (sin theta) I_k; (cos theta) I_k] of the cover, n >= 2k."""
    data = np.zeros((n, k, fld.ncomp))
    for j in range(k):
        data[n - 2 * k + j, j, 0] = math.sin(theta)
        data[n - k + j, j, 0] = math.cos(theta)
    return StiefelPoint(Mat(fld, data))


def gamma_differential(t, M, N):
    """Differential of the Stiefel Cayley transform at t in the direction (M, N),
    N skew-Hermitian.

    With b = (I + X*X + Y)^{-1} and xi = X*M + M*X + N it is
    (-2MbX* + 2Xb xi bX* - 2XbM*) beta* + (-2Mb + 2Xb xi b) P* on top of
    (-2b xi bX* + 2bM*) beta* - 2b xi b P*.
    """
    lift, X = t.lift, t.X
    b = group.b_matrix(t)
    xi = X.H @ M + M.H @ X + N
    top = (-2.0 * (M @ b @ X.H) + 2.0 * (X @ b @ xi @ b @ X.H)
           - 2.0 * (X @ b @ M.H)) @ lift.beta.H \
        + (-2.0 * (M @ b) + 2.0 * (X @ b @ xi @ b)) @ lift.P.H
    bot = (-2.0 * (b @ xi @ b @ X.H) + 2.0 * (b @ M.H)) @ lift.beta.H \
        - 2.0 * (b @ xi @ b @ lift.P.H)
    return kalg.vstack(top, bot)


def unit_basis(rows, cols, fld):
    """Components of the real unit matrices: an orthonormal basis of all
    rows x cols matrices, one per row of an identity."""
    size = rows * cols * fld.ncomp
    return np.eye(size).reshape(size, rows, cols, fld.ncomp)


def skew_hermitian_basis(k, fld):
    """Components of a real orthonormal basis of the k x k skew-Hermitian
    matrices: the range of the projection E -> (E - E*)/2 of the unit matrices."""
    units = unit_basis(k, k, fld)
    skew = 0.5 * (units - conj_transpose(units))
    u, s, _ = np.linalg.svd(skew.reshape(len(units), -1).T)
    return u[:, s > 0.5].T.reshape(-1, k, k, fld.ncomp)


def differential_matrix(t, directions):
    """Real matrix of the differential at t: column j holds the components of
    gamma_differential(t, M_j, N_j) for the j-th pair of directions."""
    return np.stack([gamma_differential(t, M, N).data.ravel() for M, N in directions],
                    axis=1)


def differential_min_gain(t):
    """Smallest singular value of the differential over unit directions (M, N)."""
    n, k, fld = t.lift.n, t.lift.k, t.field
    zero_M, zero_N = kalg.zeros(n - k, k, fld), kalg.zeros(k, k, fld)
    directions = [(Mat(fld, E), zero_N) for E in unit_basis(n - k, k, fld)]
    directions += [(zero_M, Mat(fld, B)) for B in skew_hermitian_basis(k, fld)]
    return float(np.linalg.svd(differential_matrix(t, directions), compute_uv=False)[-1])


def kernel_witness(t):
    """A unit skew-Hermitian N with gamma_differential(t, 0, N) = 0, or None.

    N is the right singular vector of the least singular value of the
    differential on the directions (0, N), when that value is at most
    1e-10 max(1, largest).
    """
    k, fld = t.lift.k, t.field
    basis = skew_hermitian_basis(k, fld)
    if not len(basis):  # over R with k = 1 the only skew matrix is zero
        return None
    zero_M = kalg.zeros(t.lift.n - k, k, fld)
    _, s, vt = np.linalg.svd(differential_matrix(t, [(zero_M, Mat(fld, B)) for B in basis]))
    if s[-1] > 1e-10 * max(1.0, s[0]):
        return None
    N = Mat(fld, np.tensordot(vt[-1], basis, axes=1))
    return (1.0 / kalg.frobenius_norm(N)) * N
