"""Dense matrix arithmetic over R, C and the quaternions H.

Scalars are stored as small vectors of real double-precision components
(1 for R, 2 for C, 4 for H), so every formula in the rest of the library is
written once.  Arithmetic over R and C runs on a zero-copy real or complex
view of that storage.  A quaternion w + xi + yj + zk is the complex pair
z1 + z2 j with z1 = w + xi, z2 = y + zi, and a quaternion matrix
M = Z1 + Z2 j works through its complex adjoint
chi(M) = [[Z1, Z2], [-conj Z2, conj Z1]] with rows and columns both
interleaved, (i, 0), (i, 1), ... (_adjoint).  The stored rows of M, viewed as
complex, are the (i, 0) rows of that adjoint, so M N is one complex product
of those rows with the adjoint of N, and M inverts by LAPACK on its adjoint,
whose inverse is the adjoint of M^{-1}.  The interleaving permutes chi's rows
and columns alike, so the singular values are chi's.  Products never
silently commute.

The product, the conjugate transpose and the singularity test are written
once, on stacks of component arrays of shape (S, rows, cols, ncomp), so S
matrices cost one numpy or LAPACK call and not S of them.  The random
frames of stiefel and the cover test use these private stacked forms;
Mat products and conjugate transposes and is_invertible are their case
with no stack axis.  Every inversion is _invert, on component arrays:
LAPACK inverts first, and the SVD test runs only where the residual of
that inverse cannot prove the test passes.  mat_inverse is _invert on Mat
values; the library's transforms and its search curve call _invert on
their k x k and 2k x 2k cores directly.

Validation happens at the boundaries.  The public constructor Mat(field,
data) copies its input and rejects non-finite and complex entries (a
complex matrix is Field.COMPLEX with 2 components).  Results that kalg
computes itself (products, sums, negation, scaling, blocks, conjugate
transposes, stacks, inverses, zeros and identities) wrap their fresh
array read-only, with no copy and no finiteness scan; overflow can then
give inf or NaN entries, which the residual checks of the manifold and
group types reject, and which the singularity test reports as Singular
before any LAPACK call sees them.
"""

from __future__ import annotations

import enum
import math

import numpy as np

DEFAULT_TOL = 1e-12
CHECK_TOL = 1e-8  # residual checks of input frames, group elements, tangents, Hermitian M


class Singular(Exception):
    """Raised when a matrix has no inverse under the working tolerance."""


class Field(enum.Enum):
    """Base ring selector: real numbers, complex numbers or quaternions."""

    REAL = "real"
    COMPLEX = "complex"
    QUATERNION = "quaternion"

    @property
    def ncomp(self) -> int:
        return _NCOMP[self]

    @classmethod
    def parse(cls, name: str) -> "Field":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown field {name!r}; expected real, complex or quaternion")


_NCOMP = {Field.REAL: 1, Field.COMPLEX: 2, Field.QUATERNION: 4}


def _view(field: Field, data: np.ndarray) -> np.ndarray:
    """Zero-copy real (R) or complex (C) view of (..., rows, cols, ncomp) components."""
    return data[..., 0] if field is Field.REAL else data.view(np.complex128)[..., 0]


def _components(a: np.ndarray) -> np.ndarray:
    """Inverse of _view for a fresh C-contiguous real or complex result."""
    return a[..., None].view(np.float64)


# (w, x, y, z) -> (-y, z, w, -x): the components of (-conj Z2, conj Z1)
_ADJOINT_ROW = np.array([[0.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, -1.0],
                         [-1.0, 0.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0]])


def _adjoint(data: np.ndarray) -> np.ndarray:
    """Interleaved complex adjoint of a (..., rows, cols, 4) quaternion stack.

    The (..., 2 rows, 2 cols) complex array chi(M) = [[Z1, Z2], [-conj Z2,
    conj Z1]] with rows and columns both reordered (i, 0), (i, 1), ...: row
    (i, 0) holds (Z1, Z2) of row i interleaved, row (i, 1) holds
    (-conj Z2, conj Z1).
    """
    *lead, rows, cols, _ = data.shape
    out = np.empty((*lead, rows, 2, cols, 4))
    out[..., 0, :, :] = data
    np.matmul(data, _ADJOINT_ROW, out=out[..., 1, :, :])
    return out.view(np.complex128).reshape(*lead, 2 * rows, 2 * cols)


def _product(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of (..., rows, cols, ncomp) component stacks, broadcast over the
    leading axes; Mat.__matmul__ is its case with no stack axis."""
    if field is Field.QUATERNION:
        # row i of a as complex, (Z1, Z2) interleaved, times the adjoint of b
        # gives row i of (Z1 W1 - Z2 conj W2, Z1 W2 + Z2 conj W1) interleaved
        z = a.view(np.complex128).reshape(*a.shape[:-2], 2 * a.shape[-2])
        p = z @ _adjoint(b)
        return p.reshape(*p.shape[:-1], p.shape[-1] // 2, 2).view(np.float64)
    return _components(_view(field, a) @ _view(field, b))


def _shift_diagonal(data: np.ndarray, c: float) -> None:
    """Add c I to every matrix of a C-contiguous (..., n, n, ncomp) stack, in place."""
    n, nc = data.shape[-2], data.shape[-1]
    # a strided view of the diagonal: fancy indexing costs several times more
    data.reshape(*data.shape[:-3], n * n, nc)[..., ::n + 1, 0] += c


def _conj_transpose(data: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a (..., rows, cols, ncomp) stack."""
    out = np.swapaxes(data, -3, -2).copy()
    out[..., 1:] *= -1.0
    return out


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a stack, summed as np.linalg.norm sums one."""
    flat = a.reshape(len(a), 1, -1)
    return np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _frame_residuals(field: Field, data: np.ndarray) -> np.ndarray:
    """|x*x - I|_F for each x of a (S, n, k, ncomp) component stack: the residual
    of orthonormal frames and, with k = n, of group elements."""
    gram = _product(field, _conj_transpose(data), data)
    _shift_diagonal(gram, -1.0)
    return _norms(gram)


class Mat:
    """Dense rows x cols matrix over one of the three base rings.

    Entries are stored row-major in a float64 array of shape
    (rows, cols, ncomp).  Instances are immutable after construction and
    every operation returns a fresh matrix, so values are safe to share
    across threads.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data: np.ndarray):
        if np.iscomplexobj(data):  # a float64 cast would drop the imaginary parts
            raise ValueError("complex entries: a complex matrix is Field.COMPLEX, 2 components")
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[2] != field.ncomp:
            raise ValueError(f"expected (rows, cols, {field.ncomp}) array, got {data.shape}")
        if data.size and not np.all(np.isfinite(data)):
            raise ValueError("matrix entries must be finite")
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)

    @classmethod
    def _trusted(cls, field: Field, data: np.ndarray) -> "Mat":
        """Wrap a float64 (rows, cols, ncomp) array that kalg has just created.

        For fresh results only, which no caller holds: the array is neither
        copied nor checked for finiteness, and is made read-only in place.
        """
        data.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "data", data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[:2]

    @property
    def H(self) -> "Mat":
        """Conjugate transpose."""
        return conj_transpose(self)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        """Contiguous submatrix with rows [r0, r1) and columns [c0, c1)."""
        return Mat._trusted(self.field, self.data[r0:r1, c0:c1].copy())

    def _check_same_field(self, other: "Mat"):
        if self.field is not other.field:
            raise ValueError(f"mixed base rings: {self.field.value} vs {other.field.value}")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return Mat._trusted(self.field, self.data + other.data)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return Mat._trusted(self.field, self.data - other.data)

    def __neg__(self) -> "Mat":
        return Mat._trusted(self.field, -self.data)

    def __mul__(self, scalar: float) -> "Mat":
        scalar = float(scalar)
        if not math.isfinite(scalar):
            raise ValueError(f"scalar factor must be finite, got {scalar}")
        return Mat._trusted(self.field, self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return Mat._trusted(self.field, _product(self.field, self.data, other.data))

    def __repr__(self) -> str:
        return f"Mat({self.field.value}, {self.rows}x{self.cols})"


def zeros(rows: int, cols: int, field: Field) -> Mat:
    return Mat._trusted(field, np.zeros((rows, cols, field.ncomp)))


def identity(n: int, field: Field) -> Mat:
    data = np.zeros((n, n, field.ncomp))
    data[range(n), range(n), 0] = 1.0
    return Mat._trusted(field, data)


def conj_transpose(m: Mat) -> Mat:
    return Mat._trusted(m.field, _conj_transpose(m.data))


def frobenius_norm(m: Mat) -> float:
    return float(np.linalg.norm(m.data))


def skew_hermitian_part(m: Mat) -> Mat:
    return 0.5 * (m - m.H)  # a non-square m fails the shape check of -


def is_skew_hermitian(m: Mat, tol: float) -> bool:
    """Whether |M + M*|_F <= tol * max(1, |M|_F); NaN entries fail."""
    return frobenius_norm(m + m.H) <= tol * max(1.0, frobenius_norm(m))


def hermitian_part(m: Mat) -> Mat:
    return 0.5 * (m + m.H)  # a non-square m fails the shape check of +


def hstack(*mats: Mat) -> Mat:
    field = mats[0].field
    return Mat._trusted(field, np.concatenate([m.data for m in mats], axis=1))


def vstack(*mats: Mat) -> Mat:
    field = mats[0].field
    return Mat._trusted(field, np.concatenate([m.data for m in mats], axis=0))


def _operand(field: Field, data: np.ndarray) -> np.ndarray:
    """The real or complex array LAPACK works on: the view of the components
    over R and C, the interleaved adjoint over H."""
    return _adjoint(data) if field is Field.QUATERNION else _view(field, data)


def _validate_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:  # NaN or -1 would pass every singularity test, inf none
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _invertible_operand(field: Field, data: np.ndarray,
                        tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Operands and the relative singularity test for a stack of square matrices.

    data holds (S, n, n, ncomp) or (n, n, ncomp) components.  Returns
    (a, invertible, s): each matrix as a real or complex array, its
    interleaved adjoint over H; a boolean array over the stack, False where
    sigma_min <= tol * sigma_max or where an entry is not finite; and the
    singular values, from one stacked SVD, NaN for a matrix that is not
    finite.  The adjoint has the singular values of M, each twice, so the
    test means the same in all three rings.  Raises ValueError for a tol
    outside [0, inf).
    """
    _validate_tol(tol)
    if data.shape[-3] != data.shape[-2]:
        raise ValueError("inversion needs a square matrix")
    # LAPACK prints to stdout, fails to converge or returns NaN on a matrix that
    # is not finite, so such a member reaches the SVD as zeros.  The sum of
    # squares is finite only if every entry is: one cheap screen of the stack.
    all_finite = math.isfinite(np.vdot(data, data))
    if not all_finite:
        finite = np.isfinite(data).all(axis=(-3, -2, -1))
        data = np.where(finite[..., None, None, None], data, 0.0)
    a = _operand(field, data)
    s = np.linalg.svd(a, compute_uv=False)
    if s.shape[-1] == 0:
        return a, np.ones(s.shape[:-1], dtype=bool), s
    # numpy scalars for one matrix (0-d arrays cost microseconds), arrays over a stack
    smin, smax = s.T[-1], s.T[0]
    # as smin <= smax, a tol of 1 or more calls every matrix singular; capping it
    # at 1 keeps tol * smax from overflowing
    invertible = ~(smin <= min(tol, 1.0) * smax)
    if not all_finite:
        s[~finite] = np.nan
        invertible &= finite
    return a, invertible, s


def _invert(field: Field, data: np.ndarray, tol: float) -> np.ndarray:
    """Components of the inverse of a square (n, n, ncomp) matrix M, by LAPACK
    on its operand A (_operand), under the singularity test of mat_inverse.

    LAPACK inverts first, giving B, and B alone decides the test when the
    computed R = I - A B has |R|_F <= 1/4 and 4 |A|_F |B|_F e <= 1, with
    e = max(tol, p 2^-50) and p the order of A (n, or 2n over H):

    - Forming A B rounds by at most 5 p u |A|_F |B|_F <= 5/32, u = 2^-53
      (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      sections 3.5 and 3.6), so the exact I - A B has spectral norm below 1/2.
    - Then sigma_min(A B) > 1/2, so sigma_min(A) > 1 / (2 |B|_F), and
      sigma_max(A) <= |A|_F: the exact ratio sigma_min / sigma_max exceeds 2e.
    - LAPACK's singular values are within q u sigma_max of the exact ones, q
      a modest function of p (LAPACK Users' Guide, section 4.9).  For q <= 4p,
      q u <= e / 2, so the computed smallest exceeds 1.5 e times the exact
      largest and tol times the computed largest does not: the test passes.
      The margins absorb the rounding of the norms.

    Otherwise the SVD test of _invertible_operand decides, and B is returned
    if it passes.  Either way the result is the same np.linalg.inv of the
    same operand.  Over H the inverse of the adjoint is the adjoint of
    M^{-1}, whose (i, 0) rows hold (Z1', Z2') interleaved.  Raises
    Singular and ValueError as mat_inverse does.
    """
    _validate_tol(tol)
    if data.shape[-3] != data.shape[-2]:
        raise ValueError("inversion needs a square matrix")
    # |M|_F^2, finite unless an entry is not finite or the sum overflows
    sq = float(np.vdot(data, data))
    if not math.isfinite(sq) and not np.isfinite(data).all():
        raise Singular("matrix entries are not finite")
    a = _operand(field, data)
    p = a.shape[-1]
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        inv, failure = None, exc
    else:
        r = a.dot(inv)
        r.reshape(-1)[::p + 1] -= 1.0  # A B - I
        # Python floats: inf * 0 gives NaN, which fails the test, with no warning
        e = max(float(tol), p * 2.0 ** -50)
        a_sq = 2.0 * sq if field is Field.QUATERNION else sq  # |A|_F^2: chi doubles it
        if (np.vdot(r, r).real <= 0.0625
                and 16.0 * a_sq * float(np.vdot(inv, inv).real) * e * e <= 1.0):
            return _from_operand(field, inv)
    _, invertible, s = _invertible_operand(field, data, tol)
    if not invertible:
        raise Singular(f"smallest singular value {s[-1]:.3e} is at most "
                       f"{tol:.1e} times the largest {s[0]:.3e}")
    if inv is None:  # LAPACK found an exactly zero pivot
        raise Singular(str(failure)) from failure
    return _from_operand(field, inv)


def _from_operand(field: Field, a: np.ndarray) -> np.ndarray:
    """Components of the matrix whose operand is a: inverse of _operand."""
    if field is Field.QUATERNION:
        n = a.shape[-1] // 2
        return np.ascontiguousarray(a.reshape(n, 2, n, 2)[:, 0]).view(np.float64)
    return _components(a)


def mat_inverse(m: Mat, tol: float = DEFAULT_TOL) -> Mat:
    """Inverse of a square matrix by LAPACK, through the adjoint over H.

    Raises Singular when sigma_min <= tol * sigma_max or an entry is not
    finite, and ValueError for a tol outside [0, inf).  The SVD that decides
    the first runs only where the inverse cannot decide it itself (_invert).
    """
    return Mat._trusted(m.field, _invert(m.field, m.data, tol))


def is_invertible(m: Mat, tol: float = DEFAULT_TOL) -> bool:
    """Whether mat_inverse(m, tol) passes its Singular test; no inverse is formed."""
    return bool(_invertible_operand(m.field, m.data, tol)[1])


def random_gaussian(rows: int, cols: int, field: Field, seed: int) -> Mat:
    """Matrix with every real component drawn i.i.d. standard normal."""
    rng = np.random.default_rng(seed)
    return Mat(field, rng.standard_normal((rows, cols, field.ncomp)))


def mat_to_json(m: Mat) -> dict:
    """Serialize per the shared schema: one component list per entry, row-major."""
    return {
        "field": m.field.value,
        "rows": m.rows,
        "cols": m.cols,
        "data": m.data.reshape(m.rows * m.cols, m.field.ncomp).tolist(),
    }
