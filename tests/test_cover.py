import itertools
import json
import math
import warnings

import numpy as np
import pytest

from conftest import assert_same_bits, conditioned, in_cayley_open, svd_test_runs, theta_frame

from cayley_stiefel import cover, kalg, stiefel
from cayley_stiefel.cover import (DimensionError, ThetaLadder, cover_membership,
                                  default_ladder, verify_cover)
from cayley_stiefel.kalg import Field, Mat
from cayley_stiefel.stiefel import NotOrthonormal, StiefelPoint

Q = Field.QUATERNION


def fro(m):
    return kalg.frobenius_norm(m)


def negated_bottom_frame(n, k, theta, fld):
    """Frame [0; (sin theta) I; -(cos theta) I]: adversarial bottom block."""
    data = np.zeros((n, k, fld.ncomp))
    for j in range(k):
        data[n - 2 * k + j, j, 0] = math.sin(theta)
        data[n - k + j, j, 0] = -math.cos(theta)
    return StiefelPoint(Mat(fld, data))


class TestThetaLadder:
    def test_valid(self):
        ThetaLadder((0.1, 0.5, 1.2))

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            ThetaLadder((0.5, 0.5))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ThetaLadder((0.0, 0.5))
        with pytest.raises(ValueError):
            ThetaLadder((0.5, math.pi / 2))

    def test_default_ladder(self):
        ladder = default_ladder(3)
        assert len(ladder) == 4
        assert all(0 < a < math.pi / 2 for a in ladder.angles)

    @pytest.mark.parametrize("k", [-1, -3, 2.5, 2.0, "2", None])
    def test_default_ladder_rejects_k(self, k):
        # a negative k gave an empty ladder, on which every sample is uncovered
        with pytest.raises(ValueError, match="k must be nonnegative and an integer"):
            default_ladder(k)

    def test_default_ladder_accepts_integer_types(self):
        assert default_ladder(np.int64(2)) == default_ladder(2)
        assert len(default_ladder(0)) == 1


class TestThetaFrame:
    @pytest.mark.parametrize("theta", [0.1, math.pi / 4, 1.4])
    def test_orthonormal(self, field, theta):
        x = theta_frame(6, 2, theta, field)
        assert fro(x.m.H @ x.m - kalg.identity(2, field)) <= 1e-15

    def test_quarter_turn_explicit(self):
        x = theta_frame(2, 1, math.pi / 4, Field.REAL)
        assert np.allclose(x.m.data.ravel(), [math.sqrt(2) / 2, math.sqrt(2) / 2])

    def test_self_membership(self, field):
        x = theta_frame(4, 2, 0.7, field)
        assert in_cayley_open(x, x)


def eigen_bottom_frame(n, W, thetas):
    """Frame [0; W diag(sin) W*; W diag(-cos) W*]: pi has eigenvalues -cos(theta)."""
    k, fld = W.rows, W.field

    def conj_diag(values):
        data = np.zeros((k, k, fld.ncomp))
        data[range(k), range(k), 0] = values
        return W @ Mat(fld, data) @ W.H

    sin = conj_diag([math.sin(t) for t in thetas])
    pi = conj_diag([-math.cos(t) for t in thetas])
    return StiefelPoint(kalg.vstack(kalg.zeros(n - 2 * k, k, fld), sin, pi))


class TestCoverMembership:
    def test_frame_covers_itself(self):
        ladder = default_ladder(2)
        x = theta_frame(4, 2, ladder.angles[0], Q)
        assert 0 in cover_membership(x, ladder)

    def test_matches_the_angle_frames(self, field):
        # member i is the Cayley open subset of the i-th angle frame
        ladder = default_ladder(2)
        frames = [theta_frame(4, 2, theta, field) for theta in ladder.angles]
        ys = [stiefel.random_stiefel_point(4, 2, field, 300 + s) for s in range(20)]
        ys += [negated_bottom_frame(4, 2, theta, field) for theta in ladder.angles]
        for y in ys:
            assert cover_membership(y, ladder) == \
                [i for i, x in enumerate(frames) if in_cayley_open(x, y)]

    def test_adversarial_block_excludes_exactly_one(self, field):
        ladder = default_ladder(2)
        for i, theta in enumerate(ladder.angles):
            y = negated_bottom_frame(4, 2, theta, field)
            members = cover_membership(y, ladder)
            assert members == [j for j in range(len(ladder)) if j != i]

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
    def test_k_eigenvalues_on_the_ladder_leave_one_member(self, field, n, k):
        # pi has at most k distinct real eigenvalues, so k + 1 angles cover every field
        ladder = default_ladder(k)
        for S in itertools.combinations(range(k + 1), k):
            W = stiefel.random_stiefel_point(k, k, field, 90 + sum(S)).m
            y = eigen_bottom_frame(n, W, [ladder.angles[i] for i in S])
            assert cover_membership(y, ladder) == sorted(set(range(k + 1)) - set(S))

    def test_random_quaternionic_nonempty(self):
        ladder = default_ladder(2)
        for s in range(50):
            y = stiefel.random_stiefel_point(4, 2, Q, 100 + s)
            assert cover_membership(y, ladder)

    def test_tolerance_band_stable(self):
        ladder = default_ladder(2)
        for s in range(20):
            y = stiefel.random_stiefel_point(4, 2, Q, 200 + s)
            a = cover_membership(y, ladder, tol=1e-12)
            b = cover_membership(y, ladder, tol=1e-11)
            assert a == b


class TestVerifyCover:
    def test_empty_run(self):
        report = verify_cover(4, 2, default_ladder(2), 0, 0)
        assert report["uncovered"] == 0
        assert report["samples"] == 0
        assert report["multiplicity_histogram"] == {}

    def test_quaternionic_sweep(self):
        report = verify_cover(4, 2, default_ladder(2), 500, 7)
        assert report["uncovered"] == 0
        assert report["witnesses"] == []
        assert sum(report["multiplicity_histogram"].values()) == 500

    def test_exploratory_fields_run(self):
        for fld in (Field.REAL, Field.COMPLEX):
            report = verify_cover(4, 2, default_ladder(2), 50, 3, field=fld)
            assert report["field"] == fld.value
            assert report["uncovered"] + sum(
                report["multiplicity_histogram"].get(str(m), 0)
                for m in range(1, 4)) == 50

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            verify_cover(3, 2, default_ladder(2), 10, 0)

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="samples must be nonnegative"):
            verify_cover(4, 2, default_ladder(2), -5, 0)

    # the rule of SearchParams.max_iters: 3.0 is rejected too
    @pytest.mark.parametrize("samples", [2.5, 3.0, "3"])
    def test_rejects_non_integer_samples(self, samples):
        with pytest.raises(ValueError, match="samples must be nonnegative and an integer"):
            verify_cover(4, 2, default_ladder(2), samples, 0)

    @pytest.mark.parametrize("samples", [0, 3])
    def test_rejects_negative_seed(self, samples):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            verify_cover(4, 2, default_ladder(2), samples, -1)

    # the rule of samples: numpy's generators would raise TypeError for 1.5
    @pytest.mark.parametrize("seed", [1.5, 3.0, "3"])
    @pytest.mark.parametrize("samples", [0, 3])
    def test_rejects_non_integer_seed(self, samples, seed):
        with pytest.raises(ValueError, match="seed must be nonnegative and an integer"):
            verify_cover(4, 2, default_ladder(2), samples, seed)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_rejects_unusable_tol(self, field, tol):
        # nan and -1 would put every sample in every member, inf in none
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            verify_cover(4, 2, default_ladder(2), 20, 1, field, tol)

    # the rule of samples: a float k would meet the n >= 2k guard, a float n numpy
    @pytest.mark.parametrize("n,k,name", [(4, 2.5, "k"), (5, 2.5, "k"), (4.0, 2, "n"),
                                          (-4, 2, "n"), (4, -1, "k"), (4, "2", "k")])
    def test_rejects_non_integer_dimensions(self, n, k, name):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative and an integer"):
            verify_cover(n, k, default_ladder(2), 3, 0)

    def test_numpy_integers_report_python_ints(self):
        report = verify_cover(np.int64(4), np.int64(2), default_ladder(2), np.int64(5),
                              np.int64(0))
        assert [type(report[key]) for key in ("n", "k", "samples")] == [int, int, int]
        assert json.loads(json.dumps(report)) == verify_cover(4, 2, default_ladder(2), 5, 0)

    def test_report_schema(self):
        report = verify_cover(4, 2, default_ladder(2), 5, 0)
        assert set(report) == {"n", "k", "field", "angles", "samples",
                               "uncovered", "multiplicity_histogram", "witnesses"}


def singular_values(fld, block):
    """numpy's singular values of a k x k block: of its complex adjoint
    [[Z1, Z2], [-conj Z2, conj Z1]] over H, for M = Z1 + Z2 j."""
    if fld is Field.REAL:
        return np.linalg.svd(block[..., 0], compute_uv=False)
    z1 = block[..., 0] + 1j * block[..., 1]
    if fld is Field.COMPLEX:
        return np.linalg.svd(z1, compute_uv=False)
    z2 = block[..., 2] + 1j * block[..., 3]
    return np.linalg.svd(np.block([[z1, z2], [-z2.conj(), z1.conj()]]), compute_uv=False)


def reference_draw(n, k, samples, seed, fld):
    """The frames of verify_cover's samples, from one unstacked draw."""
    return stiefel._random_frames(n, k, fld, np.random.default_rng(seed), samples)


def reference_report(n, k, ladder, samples, seed, fld, tol=kalg.DEFAULT_TOL):
    """verify_cover's report from one unstacked draw, with membership decided
    here: sample y is in member i unless sigma_min <= tol sigma_max for
    pi + (cos theta_i) I, pi its bottom block."""
    frames = reference_draw(n, k, samples, seed, fld)
    histogram, witnesses = {}, []
    for s in range(samples):
        members = 0
        for theta in ladder.angles:
            block = frames[s, n - k:].copy()
            block[range(k), range(k), 0] += math.cos(theta)
            sv = singular_values(fld, block)
            members += not sv[-1] <= tol * sv[0]
        histogram[members] = histogram.get(members, 0) + 1
        if not members:
            witnesses.append(stiefel.point_to_json(StiefelPoint(Mat(fld, frames[s]))))
    return {"n": n, "k": k, "field": fld.value, "angles": list(ladder.angles),
            "samples": samples, "uncovered": len(witnesses),
            "multiplicity_histogram": {str(m): c for m, c in sorted(histogram.items())},
            "witnesses": witnesses}


def assert_same_report(report, expected):
    """Field by field, naming the first differing witness instead of diffing all of them."""
    assert report.keys() == expected.keys()
    for key in expected:
        if key != "witnesses":
            assert report[key] == expected[key], key
    got, want = report["witnesses"], expected["witnesses"]
    first = next((i for i, (a, b) in enumerate(zip(got, want))
                  if json.dumps(a) != json.dumps(b)), None)
    assert first is None, f"witness {first} differs"
    assert len(got) == len(want)


class DeficientDraws:
    """A generator that passes each standard_normal draw to spoil, which makes
    a member's columns (nearly) dependent, and counts the draws."""

    def __init__(self, rng, spoil):
        self.rng, self.spoil, self.calls = rng, spoil, 0

    def standard_normal(self, shape):
        a = self.rng.standard_normal(shape)
        self.spoil(a)
        self.calls += 1
        return a


class TestStackedVerifier:
    """verify_cover evaluates stacks of samples; the report is the per-sample one."""

    @pytest.mark.parametrize("tol", [kalg.DEFAULT_TOL, 0.5], ids=["default_tol", "witnesses"])
    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 3), (9, 4)])
    def test_matches_per_sample_loop(self, field, n, k, tol, monkeypatch):
        # more samples than one stack; tol = 0.5 leaves samples uncovered for k >= 2
        samples, ladder = cover._CHUNK + 3, default_ladder(k)
        # the bottom blocks the verifier decides: at the default tol the report
        # holds no value of a frame, so these tell one sample stream from another
        blocks = []
        memberships = cover._memberships

        def recorded(fld, pi, *args):
            blocks.append(pi.copy())
            return memberships(fld, pi, *args)

        monkeypatch.setattr(cover, "_memberships", recorded)
        report = verify_cover(n, k, ladder, samples, 31, field, tol)
        assert_same_report(report, reference_report(n, k, ladder, samples, 31, field, tol))
        assert_same_bits(np.concatenate(blocks), reference_draw(n, k, samples, 31, field)[:, n - k:])
        if tol == 0.5 and k >= 2:
            assert report["uncovered"] > 0
        first = stiefel._random_frames(n, k, field, np.random.default_rng(31), 1)[0]
        assert np.array_equal(first, stiefel.random_stiefel_point(n, k, field, 31).m.data)

    def test_nearly_dependent_draw_is_orthonormalised_in_one_draw(self, field):
        # member 5's column 1 is its column 0 plus eps noise: the second
        # Gram-Schmidt pass repairs it, and the stream is drawn once
        stream = stiefel._random_frames(4, 2, field, np.random.default_rng(41), 10)
        for eps in (1e-6, 1e-9, 1e-12, 1e-15):
            def spoil(a):
                a[5, :, 1] = a[5, :, 0] + eps * a[5, :, 1]

            rng = DeficientDraws(np.random.default_rng(41), spoil)
            frames = stiefel._random_frames(4, 2, field, rng, 10)
            assert rng.calls == 1
            assert kalg._frame_residuals(field, frames[5:6])[0] <= 1e-12
            assert np.array_equal(np.delete(frames, 5, axis=0), np.delete(stream, 5, axis=0))

    def test_zero_projected_column_raises(self, field):
        # both columns of member 0 are (2, 0, 0, 0): column 1 projects to exactly
        # zero, which stays zero through both passes, with no division by it
        def spoil(a):
            a[0] = 0.0
            a[0, 0, :, 0] = 2.0

        rng = DeficientDraws(np.random.default_rng(7), spoil)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotOrthonormal, match="exceeds 1.0e-12"):
                stiefel._random_frames(4, 2, field, rng, 5)
        assert rng.calls == 1


class TestSvdCounts:
    """The cover decides every shifted block by the residual of its LAPACK
    inverse; an SVD runs only on blocks the residual cannot decide."""

    @staticmethod
    def count(monkeypatch):
        """The operand stacks that reach np.linalg.svd, recorded."""
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(kalg.np.linalg, "svd", counted)
        return calls

    def test_verify_cover(self, field, monkeypatch):
        calls = self.count(monkeypatch)
        verify_cover(4, 2, default_ladder(2), 2 * cover._CHUNK + 1, 5, field)
        assert calls == []

    def test_cover_membership(self, field, monkeypatch):
        y = stiefel.random_stiefel_point(6, 3, field, 5)
        calls = self.count(monkeypatch)
        cover_membership(y, default_ladder(3))
        assert calls == []

    def test_planted_blocks_alone_reach_the_svd(self, field, monkeypatch):
        # samples 2 and 5 have pi + (cos theta_1) I of condition about 1e14, so
        # no inverse can prove it invertible at tol 1e-12; the other blocks are generic
        k, ladder, tol = 2, default_ladder(2), kalg.DEFAULT_TOL
        frames = stiefel._random_frames(4, k, field, np.random.default_rng(3), 8)
        pi = frames[:, 4 - k:].copy()
        for s in (2, 5):
            pi[s] = conditioned(field, k, 1e14, s)
            pi[s, range(k), range(k), 0] -= math.cos(ladder.angles[1])
        shifted = np.repeat(pi, len(ladder), axis=0)
        for i, theta in enumerate(ladder.angles):
            shifted[i::len(ladder), range(k), range(k), 0] += math.cos(theta)
        must_run = [svd_test_runs(field, block, tol) for block in shifted]
        planted = [3 * s + 1 for s in (2, 5)]
        assert must_run == [m in planted for m in range(len(shifted))]
        calls = self.count(monkeypatch)
        members = cover._memberships(field, pi, ladder, tol)
        assert len(calls) == 1
        ks = kalg._KERNELS[field]
        assert np.array_equal(calls[0], ks.operand(ks.native(shifted[planted])))
        assert members.ravel().tolist() == [m not in planted for m in range(len(shifted))]


class TestEdgeCases:
    """Sizes at the edges of the stacked decision."""

    def test_k_zero(self, field):
        # 0 x 0 blocks are invertible: every sample is in the one member
        report = verify_cover(2, 0, default_ladder(0), 7, 1, field)
        assert report["multiplicity_histogram"] == {"1": 7}
        assert report["uncovered"] == 0

    def test_empty_ladder_covers_nothing(self, field):
        report = verify_cover(4, 2, ThetaLadder(()), 3, 1, field)
        assert report["multiplicity_histogram"] == {"0": 3}
        frames = stiefel._random_frames(4, 2, field, np.random.default_rng(1), 3)
        assert report["witnesses"] == [stiefel.point_to_json(StiefelPoint(Mat(field, f)))
                                       for f in frames]

    @pytest.mark.parametrize("n, k", [(4, 3), (5, 3), (1, 1)])
    def test_membership_needs_two_k_rows(self, field, n, k):
        # the angle frames [0; sin I; cos I] have 2k rows: for n < 2k there is no
        # cover to be a member of, as verify_cover says
        y = stiefel.random_stiefel_point(n, k, field, 1)
        with pytest.raises(DimensionError, match=f"need n >= 2k, got n={n}, k={k}"):
            cover_membership(y, default_ladder(k))
        with pytest.raises(DimensionError, match=f"need n >= 2k, got n={n}, k={k}"):
            verify_cover(n, k, default_ladder(k), 1, 1, field)

    @pytest.mark.parametrize("n, k", [(0, 0), (3, 0), (2, 1), (4, 2), (6, 3)])
    def test_membership_at_n_of_at_least_two_k(self, field, n, k):
        y = stiefel.random_stiefel_point(n, k, field, 1)
        assert cover_membership(y, default_ladder(k)) == list(range(k + 1))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_empty_ladder_rejects_unusable_tol(self, field, tol):
        # no angle means no decision call: the tol is checked up front
        y = stiefel.random_stiefel_point(4, 2, field, 1)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            cover_membership(y, ThetaLadder(()), tol)

    def test_no_samples(self, field):
        report = verify_cover(4, 2, default_ladder(2), 0, 1, field)
        assert (report["uncovered"], report["multiplicity_histogram"]) == (0, {})

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_unusable_tol_is_rejected_before_any_draw(self, field, tol, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew frames")

        monkeypatch.setattr(stiefel, "_random_frames", no_draw)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            verify_cover(8, 4, default_ladder(4), 20, 1, field, tol)

    def test_no_decision_call_exceeds_a_chunk(self, field, monkeypatch):
        # (k + 1) samples' worth of blocks per chunk of samples: memory stays bounded
        sizes = []
        invertible_stack = kalg._invertible_stack

        def recorded(ks, data, tol):
            sizes.append(len(data))
            return invertible_stack(ks, data, tol)

        monkeypatch.setattr(kalg, "_invertible_stack", recorded)
        samples = 2 * cover._CHUNK + 1
        report = verify_cover(8, 4, default_ladder(4), samples, 2, field)
        assert max(sizes) <= cover._CHUNK
        assert sum(sizes) == 5 * samples
        assert report["multiplicity_histogram"] == {"5": samples}


class TestGeneratorCounts:
    """One generator per verify_cover call, one Gaussian draw per stack."""

    def test_verify_cover(self, field, monkeypatch):
        built, draws = [], []
        default_rng = np.random.default_rng

        class Counted:
            def __init__(self, seed):
                built.append(seed)
                self.rng = default_rng(seed)

            def standard_normal(self, shape):
                draws.append(shape)
                return self.rng.standard_normal(shape)

        monkeypatch.setattr(np.random, "default_rng", Counted)
        samples = 2 * cover._CHUNK + 1
        report = verify_cover(4, 2, default_ladder(2), samples, 5, field)
        assert built == [5]
        nc = field.ncomp
        assert draws == [(cover._CHUNK, 4, 2, nc), (cover._CHUNK, 4, 2, nc), (1, 4, 2, nc)]
        assert sum(report["multiplicity_histogram"].values()) == samples
