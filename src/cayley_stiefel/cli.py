"""Command-line front end: invariant checks, optimization runs, cover
verification and a worked demo, all seeded and JSON-emitting.

Machine-readable output goes to stdout (or --out); stderr carries
human-readable diagnostics only.  Exit codes: 0 success, 1 check/cover failure,
2 configuration error (an unwritable --out or --csv path, or a --tol under which
a needed inverse tests singular), 3 optimizer hit max_iters, 4 line search failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import cover, group, kalg, optim, stiefel
from .kalg import Field
from .stiefel import StiefelPoint, TangentCoords


def _add_common(p: argparse.ArgumentParser, tol: bool = True):
    p.add_argument("--field", default="real", choices=["real", "complex", "quaternion"],
                   help="base ring (default: real)")
    p.add_argument("--n", type=int, default=6, help="ambient dimension (default: 6)")
    p.add_argument("--k", type=int, default=2, help="frame size (default: 2)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="master RNG seed, nonnegative (default: 0)")
    if tol:
        # a NaN, negative or infinite tol is rejected where it enters the library
        # (kalg._validate_tol), before any singularity test runs
        p.add_argument("--tol", type=float, default=kalg.DEFAULT_TOL,
                       help="singular when sigma_min <= tol * sigma_max (default: 1e-12)")
    p.add_argument("--out", default=None, help="write machine output to this path")
    p.add_argument("--reproducible", action="store_true",
                   help="suppress the timestamp field for byte-identical reruns")


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:  # numpy's generators reject it, and check's offsets would hide it
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-stiefel",
        description="Cayley transforms on Stiefel manifolds: checks, optimization, covers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the invariant suites at the given sizes")
    _add_common(p_check)

    p_opt = sub.add_parser("optimize", help="run curvilinear-search gradient descent")
    _add_common(p_opt, tol=False)
    p_opt.add_argument("--problem", default="rayleigh", choices=["rayleigh", "procrustes"],
                       help="builtin benchmark problem (default: rayleigh)")
    p_opt.add_argument("--max-iters", type=int, default=2000)
    p_opt.add_argument("--step", type=float, default=1.0,
                       help="first trial step; later iterations start from the "
                            "Barzilai-Borwein step")
    p_opt.add_argument("--grad-tol", type=float, default=1e-6)
    p_opt.add_argument("--csv", default=None, help="also write a flattened CSV trace here")

    p_cov = sub.add_parser("cover", help="verify the angle-frame Cayley open cover")
    _add_common(p_cov)
    p_cov.add_argument("--samples", type=int, default=10000)

    p_demo = sub.add_parser("demo", help="worked transform / inverse / section / homotopy run")
    _add_common(p_demo)

    return parser


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _finish(payload: dict, args) -> str:
    if not args.reproducible:
        payload["timestamp"] = time.time()
    return json.dumps(payload, sort_keys=True) + "\n"


def _validate_dims(args):
    """Raise ValueError for sizes no subcommand can use."""
    if args.n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= args.k <= args.n:
        raise ValueError(f"need 0 <= k <= n, got n={args.n}, k={args.k}")


def _random_lift_and_tangent(n, k, field, seed, scale=1.0):
    x = stiefel.random_stiefel_point(n, k, field, seed)
    lift = stiefel.complete_lift(x)
    X = scale * kalg.random_gaussian(n - k, k, field, seed + 11)
    Y = kalg.skew_hermitian_part(scale * kalg.random_gaussian(k, k, field, seed + 12))
    return lift, TangentCoords(lift, X, Y)


def run_check(args) -> int:
    _validate_dims(args)
    field = Field.parse(args.field)
    n, k, seed, tol = args.n, args.k, args.seed, args.tol
    props: list[dict] = []

    def record(name: str, residual: float | None, threshold: float):
        # None: every draw was skipped, so the property checked nothing
        props.append({"name": name, "max_residual": residual, "threshold": threshold,
                      "pass": residual is not None and residual <= threshold})

    # conjugate-transpose anti-homomorphism and inverse residual; draws that
    # test Singular at --tol are skipped
    r_anti = r_inv = 0.0
    n_inv = 0
    for s in range(8):
        a = kalg.random_gaussian(n, n, field, seed + 100 + s)
        bm = kalg.random_gaussian(n, n, field, seed + 200 + s)
        scale = kalg.frobenius_norm(a) * kalg.frobenius_norm(bm)
        r_anti = max(r_anti, kalg.frobenius_norm((a @ bm).H - bm.H @ a.H) / scale)
        try:
            inv = kalg.mat_inverse(a, tol)
            r_inv = max(r_inv, kalg.frobenius_norm(a @ inv - kalg.identity(n, field))
                        / kalg.frobenius_norm(a))
            n_inv += 1
        except kalg.Singular:
            pass
    record("conj_transpose_anti_homomorphism", r_anti, 1e-12)
    record("mat_inverse_residual", r_inv if n_inv else None, 1e-10)

    # group-level properties; a tangent at the identity lives on the identity
    # lift of the base frame [0; I]
    identity = StiefelPoint(kalg.identity(n, field))
    identity_lift = stiefel.Lift(stiefel.rho(identity, k), identity)
    r_invol = r_member = r_block = r_pair = 0.0
    for s in range(8):
        M = 0.5 * kalg.skew_hermitian_part(kalg.random_gaussian(n, n, field, seed + 300 + s))
        c = group.cayley_at_identity(M, tol)
        r_invol = max(r_invol, kalg.frobenius_norm(group.cayley_at_identity(c, tol) - M))
        r_member = max(r_member, kalg.frobenius_norm(c @ c.H - kalg.identity(n, field)))
        X = kalg.random_gaussian(n - k, k, field, seed + 400 + s)
        Y = kalg.skew_hermitian_part(kalg.random_gaussian(k, k, field, seed + 500 + s))
        t = TangentCoords(identity_lift, X, Y)
        r_block = max(r_block, kalg.frobenius_norm(
            stiefel.cayley_block(t).m - group.cayley_at_identity(t.embed(), tol)))
        A = StiefelPoint(group.cayley_at_identity(M, tol))
        W = A.m @ (0.3 * kalg.skew_hermitian_part(
            kalg.random_gaussian(n, n, field, seed + 600 + s)))
        back = group.cayley_at(StiefelPoint(A.m.H), group.cayley_at(A, W, tol), tol)
        r_pair = max(r_pair, kalg.frobenius_norm(back - W))
    record("cayley_involution", r_invol, 1e-9)
    record("cayley_group_membership", r_member, 1e-10)
    record("block_formula_two_route", r_block, 1e-11)
    record("cayley_inverse_pair", r_pair, 1e-9)

    # every singular value of I + X*X + Y is at least 1 for skew-Hermitian Y,
    # whatever --tol says
    shortfall = 0.0
    ks = kalg._KERNELS[field]
    for s in range(100):
        X = kalg.random_gaussian(n - k, k, field, seed + 700 + s)
        Y = kalg.skew_hermitian_part(kalg.random_gaussian(k, k, field, seed + 800 + s))
        core = kalg.identity(k, field) + X.H @ X + Y
        sv = kalg._svd_test(*kalg._screened_operand(ks, ks.native(core.data))[:2], 0.0)[1]
        shortfall = max(shortfall, 1.0 - float(sv.min(initial=1.0)))
    record("b_matrix_core_sigma_min_shortfall", shortfall, 1e-12)

    # Stiefel-level properties; the round trip skips draws that are not
    # injective at --tol
    r_square = r_round = r_equiv = 0.0
    n_round = 0
    for s in range(8):
        lift, t = _random_lift_and_tangent(n, k, field, seed + 900 + 17 * s)
        via_group = stiefel.rho(StiefelPoint(
            group.cayley_at(lift.A, t.ambient_group(), tol)), k)
        r_square = max(r_square, kalg.frobenius_norm(stiefel.gamma(t).m - via_group.m))
        if stiefel.differential_is_injective(t, tol):
            y = stiefel.gamma(t)
            back = stiefel.gamma_inverse(lift, y, tol)
            r_round = max(r_round, kalg.frobenius_norm(back.X - t.X)
                          + kalg.frobenius_norm(back.Y - t.Y))
            n_round += 1
        E = StiefelPoint(group.cayley_at_identity(0.5 * kalg.skew_hermitian_part(
            kalg.random_gaussian(n - k, n - k, field, seed + 950 + s)), tol))
        r_equiv = max(r_equiv, stiefel.lift_change_equivariance_check(E, t))
    record("commuting_square", r_square, 1e-11)
    record("gamma_round_trip", r_round if n_round else None, 1e-9)
    record("lift_change_equivariance", r_equiv, 1e-10)

    ok = all(p["pass"] for p in props)
    payload = {"command": "check", "field": field.value, "n": n, "k": k, "seed": seed,
               "properties": props, "pass": ok}
    _emit(_finish(payload, args), args.out)
    return 0 if ok else 1


def run_optimize(args) -> int:
    _validate_dims(args)
    field = Field.parse(args.field)
    n, k, seed = args.n, args.k, args.seed
    x0 = stiefel.random_stiefel_point(n, k, field, seed)
    if args.problem == "rayleigh":
        M = kalg.hermitian_part(kalg.random_gaussian(n, n, field, seed + 1))
        obj = optim.rayleigh_objective(M)
    else:
        B = kalg.random_gaussian(k, k + 1, field, seed + 1)
        xhat = stiefel.random_stiefel_point(n, k, field, seed + 2)
        obj = optim.procrustes_objective(B, xhat.m @ B)
    params = optim.SearchParams(initial_step=args.step, max_iters=args.max_iters,
                                grad_tol=args.grad_tol)
    trace = optim.gradient_descent(obj, x0, params)
    if args.csv:
        # written first, so an unwritable path leaves stdout empty
        rows = [r.to_json() for r in trace.records]
        with open(args.csv, "w") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    _emit(trace.to_jsonl(), args.out)
    print(f"{args.problem}: {trace.reason} after {trace.final.iteration} iterations, "
          f"f = {trace.final.f:.9g}", file=sys.stderr)
    return {"converged": 0, "max_iters": 3, "linesearch_failed": 4}[trace.reason]


def run_cover(args) -> int:
    _validate_dims(args)
    report = cover.verify_cover(args.n, args.k, cover.default_ladder(args.k), args.samples,
                                args.seed, Field.parse(args.field), args.tol)
    _emit(_finish(report, args), args.out)
    if report["uncovered"] > 0:
        print(f"cover FAILED: {report['uncovered']} uncovered samples", file=sys.stderr)
        return 1
    return 0


def run_demo(args) -> int:
    _validate_dims(args)
    field = Field.parse(args.field)
    n, k, seed, tol = args.n, args.k, args.seed, args.tol
    lift, t = _random_lift_and_tangent(n, k, field, seed, scale=0.7)

    gamma0 = stiefel.gamma(TangentCoords(lift, kalg.zeros(n - k, k, field),
                                         kalg.zeros(k, k, field)))
    anchor = kalg.vstack(lift.beta.H, lift.P.H)
    r_anchor = kalg.frobenius_norm(gamma0.m - anchor)

    y = stiefel.gamma(t)
    back = stiefel.gamma_inverse(lift, y, tol)
    r_round = kalg.frobenius_norm(stiefel.gamma(back).m - y.m)

    s = stiefel.local_section(lift, y, tol)
    r_section = kalg.frobenius_norm(stiefel.rho(s, k).m - y.m)

    h0 = stiefel.contraction(lift, y, 0.0, tol)
    h1 = stiefel.contraction(lift, y, 1.0, tol)
    r_h0 = kalg.frobenius_norm(h0.m - gamma0.m)
    r_h1 = kalg.frobenius_norm(h1.m - y.m)

    print(f"demo on the {field.value} Stiefel manifold, n={n}, k={k}", file=sys.stderr)
    print(f"  transform of zero tangent vs lift blocks : {r_anchor:.3e}", file=sys.stderr)
    print(f"  transform/inverse round trip             : {r_round:.3e}", file=sys.stderr)
    print(f"  section projects back to y               : {r_section:.3e}", file=sys.stderr)
    print(f"  homotopy endpoints (t=0, t=1)            : {r_h0:.3e}, {r_h1:.3e}",
          file=sys.stderr)

    payload = {
        "command": "demo", "field": field.value, "n": n, "k": k, "seed": seed,
        "lift": stiefel.lift_to_json(lift),
        "target": stiefel.point_to_json(y),
        "residuals": {
            "gamma_zero_anchor": r_anchor,
            "round_trip": r_round,
            "section": r_section,
            "homotopy_t0": r_h0,
            "homotopy_t1": r_h1,
        },
    }
    _emit(_finish(payload, args), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    handlers = {"check": run_check, "optimize": run_optimize,
                "cover": run_cover, "demo": run_demo}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, cover.DimensionError, kalg.Singular,
            stiefel.OutsideCayleyOpen) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
