"""Self-tests of the benchmark's own reference and tracer; they never import the library.

Run with: python3 -m pytest bench -q
"""

import numpy as np
import pytest

import reference as ref
from tracer import Tracer


def hamilton(p, q):
    """Product of quaternions given as (1, i, j, k) components, written out by hand."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ])


def hamilton_matmul(A, B):
    out = np.zeros((A.shape[0], B.shape[1], 4))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            for m in range(A.shape[1]):
                out[i, j] += hamilton(A[i, m], B[m, j])
    return out


def test_hamilton_table():
    one, i, j, k = np.eye(4)
    assert np.array_equal(hamilton(i, j), k)
    assert np.array_equal(hamilton(j, k), i)
    assert np.array_equal(hamilton(k, i), j)
    assert np.array_equal(hamilton(j, i), -k)
    for u in (i, j, k):
        assert np.array_equal(hamilton(u, u), -one)


@pytest.mark.parametrize("seed", range(5))
def test_chi_is_multiplicative(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 4, 4))
    B = rng.standard_normal((4, 2, 4))
    assert np.allclose(ref.chi(A) @ ref.chi(B), ref.chi(hamilton_matmul(A, B)), atol=1e-12)


def test_chi_star_and_inverse_map():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 2, 4))
    assert np.allclose(ref.chi(ref.conj_transpose(A)), ref.chi(A).conj().T)
    assert np.array_equal(ref.unchi(ref.chi(A), 4), A)
    C = rng.standard_normal((2, 2, 2))
    assert np.array_equal(ref.unchi(ref.chi(C), 2), C)


@pytest.mark.parametrize("ncomp", [1, 2, 4])
def test_random_frame_is_orthonormal_and_in_subfield(ncomp):
    x = ref.random_frame(7, 3, ncomp, np.random.default_rng(3))
    assert x.shape == (7, 3, ncomp)
    c = ref.chi(x)
    assert ref.unitarity_residual(c) < 1e-13
    # the polar factor stays in the image of chi: re-encoding changes nothing
    assert np.allclose(ref.chi(ref.unchi(c, ncomp)), c, atol=1e-13)


def test_fold_derives_self_time_from_spans():
    tr = Tracer()
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner [1, 4] holds leaf [2, 3]
    tr.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                ["leaf", 2.0, 3.0, 1], ["inner", 5.0, 6.0, 0]]
    tr.fold()
    assert tr.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert tr.self_s["outer"] == pytest.approx(6.0)
    assert tr.self_s["inner"] == pytest.approx(3.0)
    assert tr.total_s["inner"] == pytest.approx(4.0)
    assert tr.spans == []


def test_wrap_records_parents_only_while_enabled():
    tr = Tracer()
    inner = tr.wrap("inner", lambda v: v + 1)
    outer = tr.wrap("outer", lambda v: inner(v) * 2)
    assert outer(1) == 4 and tr.spans == []
    tr.enabled = True
    outer(1)
    assert [(s[0], s[3]) for s in tr.spans] == [("outer", -1), ("inner", 0)]
    tr.fold()
    assert tr.calls == {"outer": 1, "inner": 1}
