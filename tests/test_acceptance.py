"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output on failure) and asserts the stated tolerance and runtime
budget.  Sizes are desk scale; every check is property-based.
"""

import json
import math
import time

import numpy as np

from conftest import (FIELDS, differential_min_gain, gamma_differential, identity_tangent,
                      kernel_witness, random_lift_tangent, random_skew, sample_in_cayley_open)

from cayley_stiefel import cover, group, kalg, optim, stiefel
from cayley_stiefel.cli import main as cli_main
from cayley_stiefel.kalg import Field, Mat
from cayley_stiefel.stiefel import StiefelPoint, TangentCoords


def fro(m):
    return kalg.frobenius_norm(m)


def report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def zero_bottom_point(n, k, fld, seed):
    """Frame [T; 0] with T orthonormal: the transform there ignores Y."""
    T = stiefel.random_stiefel_point(n - k, k, fld, seed)
    data = np.concatenate([T.m.data, np.zeros((k, k, fld.ncomp))], axis=0)
    return StiefelPoint(Mat(fld, data))


def test_criterion_1_commuting_square():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for fld in FIELDS:
        for trial in range(100):
            n = int(rng.integers(3, 13))
            k = int(rng.integers(1, min(6, n - 1) + 1))
            lift, t = random_lift_tangent(n, k, fld, 10_000 * trial + 17, scale=0.5)
            direct = stiefel.gamma(t)
            via_group = stiefel.rho(
                StiefelPoint(group.cayley_at(lift.A, t.ambient_group())), k)
            worst = max(worst, fro(direct.m - via_group.m))
    elapsed = time.perf_counter() - start
    report(1, f"commuting square, worst residual {worst:.3e}, {elapsed:.1f} s",
           worst <= 1e-11 and elapsed <= 10.0)


def test_criterion_2_round_trips():
    start = time.perf_counter()
    worst_fwd = 0.0
    worst_bwd = 0.0
    for fld in FIELDS:
        for seed in range(100):
            lift, t = random_lift_tangent(6, 2, fld, 500 + seed, scale=0.4)
            back = stiefel.gamma_inverse(lift, stiefel.gamma(t))
            worst_fwd = max(worst_fwd, fro(back.X - t.X) + fro(back.Y - t.Y))
            y = sample_in_cayley_open(lift, 90_000 + seed)
            again = stiefel.gamma(stiefel.gamma_inverse(lift, y))
            worst_bwd = max(worst_bwd, fro(again.m - y.m))
    elapsed = time.perf_counter() - start
    report(2, f"round trips, residuals {worst_fwd:.3e} / {worst_bwd:.3e}, "
              f"{elapsed:.1f} s",
           worst_fwd <= 1e-9 and worst_bwd <= 1e-9 and elapsed <= 10.0)


def test_criterion_3_differential():
    rng = np.random.default_rng(303)
    ratios = []
    for trial in range(50):
        fld = FIELDS[trial % 3]
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, n - 1) + 1))
        lift, t = random_lift_tangent(n, k, fld, 20_000 + trial, scale=0.4)
        M = kalg.random_gaussian(n - k, k, fld, 30_000 + trial)
        N = random_skew(k, fld, 40_000 + trial)
        exact = gamma_differential(t, M, N)
        errs = []
        for h in (1e-3, 5e-4):
            plus = stiefel.gamma(TangentCoords(lift, t.X + h * M, t.Y + h * N))
            minus = stiefel.gamma(TangentCoords(lift, t.X - h * M, t.Y - h * N))
            fd = (1.0 / (2.0 * h)) * (plus.m - minus.m)
            errs.append(fro(fd - exact))
        ratios.append(errs[0] / errs[1] if errs[1] > 0 else 4.0)
    order_ok = all(3.5 <= r <= 4.5 for r in ratios)

    gains = []
    for fld in FIELDS:
        lift, t = random_lift_tangent(6, 2, fld, 55, scale=0.4)
        assert stiefel.differential_is_injective(t)
        gains.append(differential_min_gain(t))
    gain_ok = all(g > 1e-4 for g in gains)

    witness_worst = 0.0
    for fld in FIELDS:
        x = zero_bottom_point(6, 2, fld, 66)
        lift = stiefel.complete_lift(x)
        t = TangentCoords(lift, kalg.zeros(4, 2, fld), kalg.zeros(2, 2, fld))
        assert not stiefel.differential_is_injective(t)
        N = kernel_witness(t)
        assert N is not None
        out = gamma_differential(t, kalg.zeros(4, 2, fld), N)
        witness_worst = max(witness_worst, fro(out) / fro(N))
    report(3, f"differential, ratio range [{min(ratios):.2f}, {max(ratios):.2f}], "
              f"min gain {min(gains):.3e}, witness {witness_worst:.3e}",
           order_ok and gain_ok and witness_worst <= 1e-9)


def test_criterion_4_non_injectivity():
    worst = 0.0
    for fld in FIELDS:
        x = zero_bottom_point(6, 2, fld, 77)
        lift = stiefel.complete_lift(x)
        Y1 = random_skew(2, fld, 88)
        Y2 = random_skew(2, fld, 99)
        assert fro(Y1 - Y2) > 0.1
        Z = kalg.zeros(4, 2, fld)
        g1 = stiefel.gamma(TangentCoords(lift, Z, Y1))
        g2 = stiefel.gamma(TangentCoords(lift, Z, Y2))
        worst = max(worst, fro(g1.m - g2.m))
    report(4, f"non-injectivity at zero bottom block, residual {worst:.3e}",
           worst <= 1e-13)


def test_criterion_5_section_and_homotopy():
    worst_sec = 0.0
    worst_end = 0.0
    worst_mid = 0.0
    for fld in FIELDS:
        for seed in range(100):
            x = stiefel.random_stiefel_point(6, 2, fld, 600 + seed)
            lift = stiefel.complete_lift(x)
            y = sample_in_cayley_open(lift, 80_000 + seed)
            s = stiefel.local_section(lift, y)
            worst_sec = max(worst_sec, fro(stiefel.rho(s, 2).m - y.m))
            anchor = kalg.vstack(lift.beta.H, lift.P.H)
            h0 = stiefel.contraction(lift, y, 0.0)
            h1 = stiefel.contraction(lift, y, 1.0)
            hm = stiefel.contraction(lift, y, 0.5)
            worst_end = max(worst_end, fro(h0.m - anchor), fro(h1.m - y.m))
            worst_mid = max(worst_mid,
                            fro(hm.m.H @ hm.m - kalg.identity(2, fld)))
    report(5, f"section/homotopy, residuals {worst_sec:.3e} / {worst_end:.3e}, "
              f"midpoint orthonormality {worst_mid:.3e}",
           worst_sec <= 1e-9 and worst_end <= 1e-9 and worst_mid <= 1e-10)


def test_criterion_6_b_matrix_sweep():
    failures = 0
    for fld in FIELDS:
        for seed in range(1000):
            X = kalg.random_gaussian(4, 2, fld, 3_000_000 + seed)
            Y = random_skew(2, fld, 4_000_000 + seed)
            try:
                group.b_matrix(identity_tangent(X, Y))
            except kalg.Singular:
                failures += 1
    report(6, f"invertibility sweep, {failures} failures out of 3000",
           failures == 0)


def test_criterion_7_optimizer():
    fld = Field.REAL
    M = kalg.hermitian_part(kalg.random_gaussian(20, 20, fld, 424242))
    x0 = stiefel.random_stiefel_point(20, 4, fld, 424243)
    obj = optim.rayleigh_objective(M)
    start = time.perf_counter()
    trace = optim.gradient_descent(obj, x0, optim.SearchParams(grad_tol=1e-6))
    elapsed = time.perf_counter() - start
    oracle = float(np.sort(np.linalg.eigvalsh(M.data[:, :, 0]))[:4].sum())
    gap = abs(trace.final.f - oracle)
    drift = max(fro(r.x.m.H @ r.x.m - kalg.identity(4, fld))
                for r in trace.records)
    monotone = all(b.f <= a.f + 1e-14 for a, b in
                   zip(trace.records, trace.records[1:]))

    Mq = kalg.hermitian_part(kalg.random_gaussian(8, 8, Field.QUATERNION, 31337))
    xq = stiefel.random_stiefel_point(8, 2, Field.QUATERNION, 31338)
    tq = optim.gradient_descent(optim.rayleigh_objective(Mq), xq,
                                optim.SearchParams(grad_tol=1e-6))
    report(7, f"optimizer, oracle gap {gap:.3e}, drift {drift:.3e}, "
              f"{elapsed:.2f} s, quaternion gnorm {tq.final.gnorm:.3e}",
           gap <= 1e-5 and drift <= 1e-8 and monotone and elapsed <= 1.0
           and tq.reason == "converged" and tq.final.gnorm <= 1e-6)


def test_criterion_8_quaternionic_cover():
    ladder = cover.default_ladder(2)
    start = time.perf_counter()
    rep = cover.verify_cover(4, 2, ladder, 10_000, 2024)
    elapsed = time.perf_counter() - start
    adversarial_ok = True
    for i, theta in enumerate(ladder.angles):
        data = np.zeros((4, 2, 4))
        for j in range(2):
            data[j, j, 0] = math.sin(theta)
            data[2 + j, j, 0] = -math.cos(theta)
        y = StiefelPoint(Mat(Field.QUATERNION, data))
        members = cover.cover_membership(y, ladder)
        adversarial_ok &= members == [j for j in range(len(ladder)) if j != i]
    report(8, f"quaternionic cover, {rep['uncovered']} uncovered of 10000, "
              f"{elapsed:.1f} s",
           rep["uncovered"] == 0 and adversarial_ok and elapsed <= 30.0)


def test_criterion_9_equivariance():
    rng = np.random.default_rng(909)
    worst = 0.0
    for fld in FIELDS:
        for trial in range(100):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, min(3, n - 1) + 1))
            _, t = random_lift_tangent(n, k, fld, 50_000 + trial, scale=0.5)
            E = StiefelPoint(group.cayley_at_identity(
                0.5 * random_skew(n - k, fld, 60_000 + trial)))
            worst = max(worst, stiefel.lift_change_equivariance_check(E, t))
    report(9, f"lift-change equivariance, worst residual {worst:.3e}",
           worst <= 1e-10)


def test_criterion_10_cli_determinism(capsys):
    commands = [
        ["check", "--field", "quaternion", "--n", "5", "--k", "2",
         "--seed", "21", "--reproducible"],
        ["optimize", "--field", "real", "--n", "12", "--k", "3",
         "--seed", "21", "--reproducible"],
        ["cover", "--field", "quaternion", "--n", "4", "--k", "2",
         "--samples", "200", "--seed", "21", "--reproducible"],
    ]
    ok = True
    for argv in commands:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        ok &= code1 == code2 and out1.encode() == out2.encode() and len(out1) > 0
        json.loads(out1.strip().split("\n")[-1])
    with capsys.disabled():
        report(10, "CLI byte-identical across repeated seeded runs", ok)
