import numpy as np
import pytest

from cayley_stiefel import kalg, stiefel
from cayley_stiefel.kalg import Field
from cayley_stiefel.stiefel import TangentCoords

FIELDS = [Field.REAL, Field.COMPLEX, Field.QUATERNION]


@pytest.fixture(params=FIELDS, ids=[f.value for f in FIELDS])
def field(request):
    return request.param


def random_skew(k, fld, seed, scale=1.0):
    return kalg.skew_hermitian_part(scale * kalg.random_gaussian(k, k, fld, seed))


def random_lift_tangent(n, k, fld, seed, scale=1.0):
    """A random frame, its completion, and random tangent coordinates."""
    x = stiefel.random_stiefel_point(n, k, fld, seed)
    lift = stiefel.complete_lift(x)
    X = scale * kalg.random_gaussian(n - k, k, fld, seed + 7919)
    Y = random_skew(k, fld, seed + 104729, scale)
    return lift, TangentCoords(lift, X, Y)


def assert_same_bits(a, b):
    """Equal values and equal signs of zero, entry for entry."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


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
