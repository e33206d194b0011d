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

Every kernel runs on native arrays, through one kernel set per field
(_Kernels, _KERNELS[field]): the real view of the components over R, the
complex view over C and the components themselves over H.  The two forms
convert without a copy, so code converts once where a Mat enters and once
where one leaves, and every kernel in between is as few numpy calls as
it can be, as the lift and the transforms call them many times on a few
rows each, where a numpy call costs more than its arithmetic: a product
is one @ (over H, one np.dot more forms the adjoint), a conjugate
transpose one call on the swapped view (a copy over R, np.conjugate over
C, a product with the signs (1, -1, -1, -1) over H), a scaling one
multiply of the floats, a shift of the diagonal one in-place add on its
strided view (_shift_diagonal), and a Frobenius norm one ddot of the
floats (_norm).  Each gives the bits of the general numpy form it
replaces, signed zeros included.  The kernels broadcast over leading
stack axes, so S matrices cost one numpy or LAPACK call and not S of
them, as the random frames of stiefel and the cover test use them.

The search (optim) looks its set up in _SEARCH_KERNELS: the same sets
over R and C, and over H one more, _ADJOINT_KERNELS, whose native array
is the interleaved adjoint chi(M) itself, built once where a matrix
enters (_adjoint) and read back as its (i, 0) rows where one leaves
(_adjoint_rows).  A product there is one matmul of two adjoints, with no
adjoint built per product; the conjugate transpose, scaling and diagonal
shift are C's kernels, as chi(M*) = chi(M)^H entry for entry; the norm
and the inner product are the quaternion ones, half the adjoint's sums of
products, as |chi(M)|_F^2 = 2 |M|_F^2; and the adjoint of a square matrix
is already the operand LAPACK inverts.  A product of two adjoints is an
adjoint only up to rounding, so that set's values differ from the
component set's at rounding level (optim.curve states the bound).  The
lift, the transforms and the cover index quaternion entries and stay on
the component set, whose adjoint product (_adjoint_product) builds the
adjoint of its right operand.

One rule decides singularity wherever an inverse is formed: LAPACK
inverts first, and the SVD test (_svd_test) runs only where the residual
of that inverse cannot prove the test passes (_residual_proves).  A
decision screens once (_screened_operand), which builds the operand that
LAPACK inverts and the SVD test reads: the native array itself over R and
C and for the search's adjoints, the adjoint for H's component set; no
decision names a field.  _invert decides one native matrix: mat_inverse is
_invert on Mat values, and the transforms and the search curve call it on
their k x k and 2k x 2k cores with the kernel set they hold.
_invertible_stack decides a native stack, the cover test's shifted
blocks, with one LAPACK inversion and one SVD test on the members left,
and is_invertible is that decision on a stack of one.  tol is checked
once, where it enters (_validate_tol).

Validation happens at the boundaries.  The public constructor Mat(field,
data) copies its input and rejects non-finite and complex entries (a
complex matrix is Field.COMPLEX with 2 components).  Results that kalg
computes itself (products, sums, negation, scaling, blocks, conjugate
transposes, stacks, inverses, zeros and identities) wrap their fresh
array read-only, with no copy and no finiteness scan; overflow can then
give inf or NaN entries, which the residual checks of the manifold and
group types reject, and which the singularity test reports as Singular
before any LAPACK call sees them.  The frame residual and the singularity
test both screen such entries with one ddot, |M|_F^2, so neither meets
inf * 0 and numpy does not warn.
"""

from __future__ import annotations

import enum
import math
import operator

import numpy as np

DEFAULT_TOL = 1e-12
CHECK_TOL = 1e-8  # residual checks of frames (group elements among them), tangents, Hermitian M


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
    (-conj Z2, conj Z1).  The (i, 1) rows of a stack come from one np.dot
    of all entries with _ADJOINT_ROW, so a stack of column vectors costs one
    BLAS call and not one per row; those of one matrix come from one
    np.matmul into the output, which copies no strided block.

    The shape picks the form, and each form runs in a benchmark workload,
    so both stay: the matmul form in the lift (lift_s), where it measured
    x1.5 on the H lift at n = 256; the np.dot form in the cover's H
    Gram-Schmidt and operands (cover_samples_per_s.quaternion), where it
    measured 57.6 -> 18.9 us on a (256, 4, 1, 4) stack.
    """
    *lead, rows, cols, _ = data.shape
    out = np.empty((*lead, rows, 2, cols, 4))
    out[..., 0, :, :] = data
    # each output component is one exact +-input component plus exact zeros,
    # so the bits, signed zeros too, do not depend on how BLAS sums them
    if lead:
        out[..., 1, :, :] = np.dot(data.reshape(-1, 4), _ADJOINT_ROW).reshape(data.shape)
    else:  # no reshape copy of a strided block, such as the lift's rows
        np.matmul(data, _ADJOINT_ROW, out=out[:, 1])
    return out.view(np.complex128).reshape(*lead, 2 * rows, 2 * cols)


def _adjoint_rows(a: np.ndarray) -> np.ndarray:
    """Components (rows, cols, 4) of the quaternion matrix whose 2-D
    interleaved adjoint is a, square or not: its (i, 0) rows."""
    rows, cols = a.shape[0] // 2, a.shape[1] // 2
    return np.ascontiguousarray(a.reshape(rows, 2, cols, 2)[:, 0]).view(np.float64)


def _adjoint_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of (..., rows, cols, 4) quaternion stacks, broadcast over the
    leading axes: row i of a as complex, (Z1, Z2) interleaved, times the
    adjoint of b gives row i of (Z1 W1 - Z2 conj W2, Z1 W2 + Z2 conj W1)
    interleaved."""
    z = a.view(np.complex128).reshape(*a.shape[:-2], 2 * a.shape[-2])
    p = z @ _adjoint(b)
    return p.reshape(*p.shape[:-1], p.shape[-1] // 2, 2).view(np.float64)


def _shift_diagonal(data: np.ndarray, c: float | np.ndarray) -> None:
    """Add c I to every matrix of a C-contiguous (..., n, n, ncomp) stack, one
    matrix included, in place; c is a float, or an array of shape (..., 1)
    with one per matrix."""
    n, nc = data.shape[-2], data.shape[-1]
    # a strided view of the diagonal, added to in place: fancy indexing costs
    # several times more, and an indexed += stores the view back onto itself
    diagonal = data.reshape(*data.shape[:-3], n * n, nc)[..., ::n + 1, 0]
    diagonal += c


# (1, -1, -1, -1): the quaternion conjugate, component by component
_QUATERNION_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a C-contiguous float64 array: the one ddot that
    np.linalg.norm makes on it, without the wrapper, so the same bits."""
    return math.sqrt(np.vdot(a, a))


def _sum_squares(a: np.ndarray) -> np.ndarray:
    """|member|_F^2 for each member of a real or complex stack, summed as
    np.linalg.norm sums one."""
    flat = a.reshape(len(a), 1, -1).view(np.float64)
    return (flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a stack, real or complex, so of a
    native stack (_KERNELS) of any field."""
    return np.sqrt(_sum_squares(a))


class _Kernels:
    """The kernels of one base ring on its native arrays: the library's only
    products, conjugate transposes, scalings, diagonal shifts and norms.

    The native array of a (..., rows, cols, ncomp) component stack is its
    real view (..., rows, cols) over R, its complex view over C, and the
    components themselves over H.  native and components convert between the
    two without a copy; floats is the float64 view of a native array, the
    components in their stored order.  Over R and C a product is one @ on
    the views, a conjugate transpose one numpy call on the swapped view, and
    a scaling one multiply of the floats, as numpy's complex-by-real product
    would turn -0.0 parts into +0.0 and inf ones into NaN.  Over H a product
    goes through the adjoint (_adjoint_product), and a conjugate transpose
    multiplies the swapped components by (1, -1, -1, -1).  A diagonal shift
    adds to the real parts in place (_shift_diagonal), and a norm is the
    ddot of the floats (_norm): never a complex dot, which sums in another
    order; inner is Re tr(a* b), the ddot of two arrays' floats.  Every
    kernel gives the bits of the general numpy form it stands for, signed
    zeros included, so code written once on a _Kernels runs in all three
    rings.  operand is the array LAPACK inverts, and from_operand reads a
    2-D one back: the identity over R and C and on the complex adjoints of
    _ADJOINT_KERNELS, _adjoint and _adjoint_rows over H.  _KERNELS holds one
    set per field, and _SEARCH_KERNELS the search's; a caller looks its set
    up once and hands it to the singularity decisions.
    """

    __slots__ = ("native", "components", "floats", "product", "conj_transpose", "scale",
                 "shift_diagonal", "norm", "inner", "operand", "from_operand")

    def __init__(self, **kernels):
        for name, kernel in kernels.items():
            setattr(self, name, kernel)


def _identity(a: np.ndarray) -> np.ndarray:
    return a


def _adjoint_norm(a: np.ndarray) -> float:
    """|M|_F from the interleaved adjoint chi(M), whose squares sum to 2 |M|_F^2."""
    floats = a.view(np.float64)
    return math.sqrt(0.5 * np.vdot(floats, floats))


_KERNELS = {
    Field.REAL: _Kernels(
        native=operator.itemgetter((Ellipsis, 0)),
        components=lambda a: a[..., None],
        floats=_identity,
        product=np.matmul,
        conj_transpose=lambda a: a.swapaxes(-2, -1).copy(),
        scale=np.multiply,
        shift_diagonal=lambda a, c: _shift_diagonal(a[..., None], c),
        norm=_norm,
        inner=lambda a, b: float(np.vdot(a, b)),
        operand=_identity,
        from_operand=_identity),
    Field.COMPLEX: _Kernels(
        native=lambda a: a.view(np.complex128)[..., 0],
        components=lambda a: a[..., None].view(np.float64),
        floats=operator.methodcaller("view", np.float64),
        product=np.matmul,
        conj_transpose=lambda a: np.conjugate(a.swapaxes(-2, -1), order="C"),
        scale=lambda a, c: (a.view(np.float64) * c).view(np.complex128),
        shift_diagonal=lambda a, c: _shift_diagonal(a[..., None].view(np.float64), c),
        norm=lambda a: _norm(a.view(np.float64)),
        inner=lambda a, b: float(np.vdot(a.view(np.float64), b.view(np.float64))),
        operand=_identity,
        from_operand=_identity),
    Field.QUATERNION: _Kernels(
        native=_identity,
        components=_identity,
        floats=_identity,
        product=_adjoint_product,
        conj_transpose=lambda a: np.multiply(a.swapaxes(-3, -2), _QUATERNION_CONJ, order="C"),
        scale=np.multiply,
        shift_diagonal=_shift_diagonal,
        norm=_norm,
        inner=lambda a, b: float(np.vdot(a, b)),
        operand=_adjoint,
        from_operand=_adjoint_rows),
}

# the search's set over H: native arrays are the interleaved adjoints, on which
# C's kernels act as they act on any complex matrix, as chi(M*) = chi(M)^H
_ADJOINT_KERNELS = _Kernels(
    native=_adjoint,
    components=_adjoint_rows,
    floats=_KERNELS[Field.COMPLEX].floats,
    product=np.matmul,
    conj_transpose=_KERNELS[Field.COMPLEX].conj_transpose,
    scale=_KERNELS[Field.COMPLEX].scale,
    shift_diagonal=_KERNELS[Field.COMPLEX].shift_diagonal,
    norm=_adjoint_norm,
    inner=lambda a, b: 0.5 * float(np.vdot(a.view(np.float64), b.view(np.float64))),
    operand=_identity,
    from_operand=_identity)

_SEARCH_KERNELS = {Field.REAL: _KERNELS[Field.REAL], Field.COMPLEX: _KERNELS[Field.COMPLEX],
                   Field.QUATERNION: _ADJOINT_KERNELS}


def _frame_residuals(field: Field, data: np.ndarray) -> float | np.ndarray:
    """|x*x - I|_F of an (n, k, ncomp) frame x, a float, or of each x of an
    (S, n, k, ncomp) stack, an array: the residual of orthonormal frames and,
    with k = n, of group elements.  It runs on the native arrays (_KERNELS).
    The sums of squares are the same ddot either way, so a member's residual
    is the same to the bit on its own.

    A frame with an entry that is not finite, or whose |x|_F^2 overflows,
    has residual NaN, which fails every check.  One ddot screens for it, as
    in _invert, before x*x meets inf * 0, of which numpy would warn.  A
    stack that fails the screen is taken member by member."""
    if not math.isfinite(np.vdot(data, data)):
        if data.ndim == 3:
            return math.nan
        return np.array([_frame_residuals(field, member) for member in data])
    ks = _KERNELS[field]
    x = ks.native(data)
    gram = ks.product(ks.conj_transpose(x), x)
    ks.shift_diagonal(gram, -1.0)
    return ks.norm(gram) if data.ndim == 3 else _norms(gram)


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
        data.setflags(write=False)
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
        """Contiguous submatrix with rows [r0, r1) and columns [c0, c1).

        Raises ValueError unless 0 <= r0 <= r1 <= rows and 0 <= c0 <= c1 <= cols:
        numpy would wrap a negative bound and clip one past the end.
        """
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError(f"block rows [{r0}, {r1}) and columns [{c0}, {c1}) "
                             f"outside a {self.rows}x{self.cols} matrix")
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

    def _check_product(self, other: "Mat"):
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_product(other)
        ks = _KERNELS[self.field]
        return Mat._trusted(self.field,
                            ks.components(ks.product(ks.native(self.data), ks.native(other.data))))

    def __repr__(self) -> str:
        return f"Mat({self.field.value}, {self.rows}x{self.cols})"


def zeros(rows: int, cols: int, field: Field) -> Mat:
    return Mat._trusted(field, np.zeros((rows, cols, field.ncomp)))


def identity(n: int, field: Field) -> Mat:
    data = np.zeros((n, n, field.ncomp))
    data.reshape(n * n, field.ncomp)[::n + 1, 0] = 1.0  # the strided diagonal of _shift_diagonal
    return Mat._trusted(field, data)


def conj_transpose(m: Mat) -> Mat:
    ks = _KERNELS[m.field]
    return Mat._trusted(m.field, ks.components(ks.conj_transpose(ks.native(m.data))))


def frobenius_norm(m: Mat) -> float:
    return _norm(m.data)  # a Mat's data is C-contiguous


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


def _validate_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:  # NaN or -1 would pass every singularity test, inf none
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _screened_operand(ks: _Kernels,
                      a: np.ndarray) -> tuple[np.ndarray, bool | np.ndarray, float]:
    """(operand, finite, sq) of a native matrix or stack of the set ks: the
    operand (ks.operand), with the identity's in place of every matrix that
    is not finite; True when every matrix is finite, otherwise whether each
    one is, a boolean over the stack; and the screen, the ddot |a|_F^2 of
    the floats.

    LAPACK prints to stdout, fails to converge or returns NaN on a matrix
    that is not finite, and the adjoint would meet inf * 0.  The sum of
    squares is finite only if every entry is: one cheap screen of the stack.
    """
    floats = ks.floats(a)
    sq = np.vdot(floats, floats)
    if math.isfinite(sq):
        return ks.operand(a), True, sq
    op = ks.operand(np.where(np.isfinite(a), a, 0.0))
    finite = np.isfinite(floats).reshape(*op.shape[:-2], -1).all(axis=-1)
    op[~finite] = np.eye(*op.shape[-2:])  # the operand of the identity, an adjoint too
    return op, finite, sq


def _svd_test(op: np.ndarray, finite: bool | np.ndarray,
              tol: float) -> tuple[bool | np.ndarray, np.ndarray]:
    """The relative singularity test on the operands op of one matrix or a
    stack, with finite as _screened_operand returned them, at a checked tol.

    Returns (invertible, s): False where sigma_min <= tol * sigma_max or
    where finite is, a boolean for one matrix and an array over a stack;
    and the singular values, from one stacked SVD, NaN for a matrix that is
    not finite.  An interleaved adjoint has the singular values of M, each
    twice, so the test means the same in all three rings.  Raises
    ValueError for matrices that are not square.
    """
    if op.shape[-1] != op.shape[-2]:
        raise ValueError("inversion needs a square matrix")
    s = np.linalg.svd(op, compute_uv=False)
    if s.shape[-1] == 0:
        return np.ones(s.shape[:-1], dtype=bool), s
    # numpy scalars for one matrix (0-d arrays cost microseconds), arrays over a stack
    smin, smax = s.T[-1], s.T[0]
    # as smin <= smax, a tol of 1 or more calls every matrix singular; capping it
    # at 1 keeps tol * smax from overflowing
    invertible = ~(smin <= min(tol, 1.0) * smax)
    if finite is not True:
        s[~finite] = np.nan
        invertible &= finite
    return invertible, s


def _residual_proves(r_sq, a_sq, b_sq, p: int, tol: float):
    """Whether a computed inverse B of A proves that A passes the singularity
    test at tol, from the squared Frobenius norms of R = I - A B, A and B.

    B proves it when |R|_F <= 1/4 and 4 |A|_F |B|_F e <= 1, with
    e = max(tol, p 2^-50) and p the order of A:

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

    Floats for one matrix, arrays over a stack; a NaN norm, as inf * 0 gives,
    proves nothing.
    """
    e = max(tol, p * 2.0 ** -50)
    return (r_sq <= 0.0625) & (16.0 * a_sq * b_sq * e * e <= 1.0)


def _invert(ks: _Kernels, a: np.ndarray, tol: float) -> np.ndarray:
    """Inverse of a square matrix M, as a native array of the kernel set ks in
    and out, by LAPACK on its operand (ks.operand), under the singularity
    test of mat_inverse at a tol its caller has checked.

    The screen (_screened_operand) builds the operand, and an entry that is
    not finite raises Singular before LAPACK sees it.  LAPACK then inverts,
    giving B, and B alone decides the test when its residual proves that the
    test passes (_residual_proves, p the operand's order).  Otherwise the
    SVD test (_svd_test) decides on the same operand, and B is returned if
    it passes.  Either way the result is np.linalg.inv of the operand, read
    back by ks.from_operand; over the component set of H the operand is the
    adjoint, whose inverse is the adjoint of M^{-1}.  Raises Singular as
    mat_inverse does.
    """
    op, finite, a_sq = _screened_operand(ks, a)
    if not finite:
        raise Singular("matrix entries are not finite")
    if op is not a:  # the adjoint's own |A|_F^2, about 2 |M|_F^2
        a_sq = np.vdot(op.view(np.float64), op.view(np.float64))
    p = op.shape[-1]
    try:
        inv = np.linalg.inv(op)
    except np.linalg.LinAlgError as exc:
        inv, failure = None, exc
    else:
        r = op.dot(inv)
        r.reshape(-1)[::p + 1] -= 1.0  # A B - I
        # Python floats: inf * 0 gives NaN, which proves nothing, with no warning
        if _residual_proves(float(np.vdot(r, r).real), float(a_sq),
                            float(np.vdot(inv, inv).real), p, float(tol)):
            return ks.from_operand(inv)
    invertible, s = _svd_test(op, True, tol)
    if not invertible:
        raise Singular(f"smallest singular value {s[-1]:.3e} is at most "
                       f"{tol:.1e} times the largest {s[0]:.3e}")
    if inv is None:  # LAPACK found an exactly zero pivot
        raise Singular(str(failure)) from failure
    return ks.from_operand(inv)


def _invertible_stack(ks: _Kernels, a: np.ndarray, tol: float) -> np.ndarray:
    """Whether each member of a native stack of S square matrices of the
    kernel set ks passes the singularity test of mat_inverse, at a tol its
    caller has checked: one boolean per member, decided as _invert decides.

    One np.linalg.inv inverts the screened stack of operands, and a member
    whose residual proves the test (_residual_proves) needs nothing more.
    One SVD test (_svd_test) decides the members left: every member when
    the stacked call fails, on an exactly zero pivot or a stack that is not
    square, which the SVD test rejects, or when tol is so large that no
    residual can prove the test.  A member that is not finite fails, and
    LAPACK sees the identity in its place.
    """
    op, finite, _ = _screened_operand(ks, a)
    p = op.shape[-1]
    try:
        # every inverse has |A|_F |B|_F >= p: if R = 0 at that bound proves nothing, none can
        inv = np.linalg.inv(op) if _residual_proves(0.0, p, p, p, float(tol)) else None
    except np.linalg.LinAlgError:  # a zero pivot, or a stack that is not square
        inv = None
    if inv is None:
        invertible = np.zeros(len(op), dtype=bool)
    else:
        r = op @ inv
        r.reshape(len(r), -1)[:, ::p + 1] -= 1.0  # A B - I
        # an overflowing sum of squares is inf, and inf * 0 NaN: either proves nothing
        with np.errstate(over="ignore", invalid="ignore"):
            invertible = _residual_proves(_sum_squares(r), _sum_squares(op), _sum_squares(inv), p,
                                          float(tol))
    undecided = np.flatnonzero(~invertible)
    if len(undecided):
        invertible[undecided] = _svd_test(op[undecided], True, tol)[0]
    if finite is not True:  # the identity stood in for these, and proved or passed
        invertible &= finite
    return invertible


def mat_inverse(m: Mat, tol: float = DEFAULT_TOL) -> Mat:
    """Inverse of a square matrix by LAPACK, through the adjoint over H.

    Raises Singular when sigma_min <= tol * sigma_max or an entry is not
    finite, and ValueError for a tol outside [0, inf), then for a matrix
    that is not square.  The SVD test runs only where the inverse cannot
    decide it itself (_invert).
    """
    _validate_tol(tol)
    if m.rows != m.cols:
        raise ValueError("inversion needs a square matrix")
    ks = _KERNELS[m.field]
    return Mat._trusted(m.field, ks.components(_invert(ks, ks.native(m.data), tol)))


def is_invertible(m: Mat, tol: float = DEFAULT_TOL) -> bool:
    """Whether mat_inverse(m, tol) passes its Singular test: the stack decision
    (_invertible_stack) on a stack of one, so the SVD test runs only where
    the residual of LAPACK's inverse cannot decide it.

    Raises ValueError for a tol outside [0, inf), then for a matrix that is
    not square; a matrix with an entry that is not finite is not invertible.
    """
    _validate_tol(tol)
    ks = _KERNELS[m.field]
    return bool(_invertible_stack(ks, ks.native(m.data)[None], tol)[0])


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
