"""Command-line front end: invariant checks, optimization runs, cover
verification and a worked demo, all seeded and JSON-emitting.

Machine-readable output goes to stdout (or --out); stderr carries
human-readable diagnostics only.  Exit codes: 0 success, 1 check/cover
failure, 2 configuration error (including an --out or --csv path that
cannot be written), 3 optimizer hit max_iters, 4 line search failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from . import cover, group, kalg, optim, stiefel
from .kalg import Field
from .stiefel import TangentCoords


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--field", default="real", choices=["real", "complex", "quaternion"],
                   help="base ring (default: real)")
    p.add_argument("--n", type=int, default=6, help="ambient dimension (default: 6)")
    p.add_argument("--k", type=int, default=2, help="frame size (default: 2)")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed (default: 0)")
    p.add_argument("--tol", type=float, default=kalg.DEFAULT_TOL,
                   help="relative singular-value tolerance (default: 1e-12)")
    p.add_argument("--out", default=None, help="write machine output to this path")
    p.add_argument("--reproducible", action="store_true",
                   help="suppress the timestamp field for byte-identical reruns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-stiefel",
        description="Cayley transforms on Stiefel manifolds: checks, optimization, covers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the invariant suites at the given sizes")
    _add_common(p_check)

    p_opt = sub.add_parser("optimize", help="run curvilinear-search gradient descent")
    _add_common(p_opt)
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
    """Raise ValueError for sizes or a tolerance no subcommand can use."""
    if args.n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= args.k <= args.n:
        raise ValueError(f"need 0 <= k <= n, got n={args.n}, k={args.k}")
    if not 0.0 <= args.tol < math.inf:
        # a NaN tolerance would pass every singularity test
        raise ValueError(f"tol must be finite and nonnegative, got {args.tol}")


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

    def record(name: str, residual: float, threshold: float):
        props.append({"name": name, "max_residual": residual,
                      "threshold": threshold, "pass": residual <= threshold})

    # conjugate-transpose anti-homomorphism and inverse residual
    r_anti = r_inv = 0.0
    for s in range(8):
        a = kalg.random_gaussian(n, n, field, seed + 100 + s)
        bm = kalg.random_gaussian(n, n, field, seed + 200 + s)
        scale = kalg.frobenius_norm(a) * kalg.frobenius_norm(bm)
        r_anti = max(r_anti, kalg.frobenius_norm((a @ bm).H - bm.H @ a.H) / scale)
        try:
            inv = kalg.mat_inverse(a, tol)
            r_inv = max(r_inv, kalg.frobenius_norm(a @ inv - kalg.identity(n, field))
                        / kalg.frobenius_norm(a))
        except kalg.Singular:
            pass
    record("conj_transpose_anti_homomorphism", r_anti, 1e-12)
    record("mat_inverse_residual", r_inv, 1e-10)

    # group-level properties
    r_invol = r_member = r_block = r_pair = 0.0
    for s in range(8):
        M = 0.5 * kalg.skew_hermitian_part(kalg.random_gaussian(n, n, field, seed + 300 + s))
        c = group.cayley_at_identity(M, tol)
        r_invol = max(r_invol, kalg.frobenius_norm(group.cayley_at_identity(c, tol) - M))
        r_member = max(r_member, kalg.frobenius_norm(c @ c.H - kalg.identity(n, field)))
        X = kalg.random_gaussian(n - k, k, field, seed + 400 + s)
        Y = kalg.skew_hermitian_part(kalg.random_gaussian(k, k, field, seed + 500 + s))
        t = group.SkewBlockTangent(X, Y)
        r_block = max(r_block, kalg.frobenius_norm(
            group.cayley_identity_block(t, tol).m - group.cayley_at_identity(t.embed(), tol)))
        A = group.GroupElement(group.cayley_at_identity(M, tol))
        W = A.m @ (0.3 * kalg.skew_hermitian_part(
            kalg.random_gaussian(n, n, field, seed + 600 + s)))
        back = group.cayley_at(A.inverse, group.cayley_at(A, W, tol), tol)
        r_pair = max(r_pair, kalg.frobenius_norm(back - W))
    record("cayley_involution", r_invol, 1e-9)
    record("cayley_group_membership", r_member, 1e-10)
    record("block_formula_two_route", r_block, 1e-11)
    record("cayley_inverse_pair", r_pair, 1e-9)

    # invertibility of I + X*X + Y on random draws
    failures = 0
    for s in range(100):
        X = kalg.random_gaussian(n - k, k, field, seed + 700 + s)
        Y = kalg.skew_hermitian_part(kalg.random_gaussian(k, k, field, seed + 800 + s))
        if not kalg.is_invertible(kalg.identity(k, field) + X.H @ X + Y, tol):
            failures += 1
    record("b_matrix_always_invertible_failures", float(failures), 0.0)

    # Stiefel-level properties
    r_square = r_round = r_equiv = 0.0
    for s in range(8):
        lift, t = _random_lift_and_tangent(n, k, field, seed + 900 + 17 * s)
        via_group = stiefel.rho(group.GroupElement(
            group.cayley_at(lift.A, t.ambient_group(), tol)), k)
        r_square = max(r_square, kalg.frobenius_norm(stiefel.gamma(t, tol).m - via_group.m))
        if stiefel.in_injectivity_domain(t, tol):
            y = stiefel.gamma(t, tol)
            back = stiefel.gamma_inverse(lift, y, tol)
            r_round = max(r_round, kalg.frobenius_norm(back.X - t.X)
                          + kalg.frobenius_norm(back.Y - t.Y))
        E = group.GroupElement(group.cayley_at_identity(0.5 * kalg.skew_hermitian_part(
            kalg.random_gaussian(n - k, n - k, field, seed + 950 + s)), tol))
        r_equiv = max(r_equiv, stiefel.lift_change_equivariance_check(lift, E, t))
    record("commuting_square", r_square, 1e-11)
    record("gamma_round_trip", r_round, 1e-9)
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
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["iter", "f", "gnorm", "step", "backtracks"])
        for r in trace.records:
            writer.writerow([r.iteration, r.f, r.gnorm, r.step, r.backtracks])
        with open(args.csv, "w") as fh:
            fh.write(buf.getvalue())
    _emit(trace.to_jsonl(), args.out)
    print(f"{args.problem}: {trace.reason} after {trace.final.iteration} iterations, "
          f"f = {trace.final.f:.9g}", file=sys.stderr)
    return {"converged": 0, "max_iters": 3, "linesearch_failed": 4}[trace.reason]


def run_cover(args) -> int:
    _validate_dims(args)
    if args.samples < 0:
        raise ValueError("samples must be nonnegative")
    field = Field.parse(args.field)
    ladder = cover.default_ladder(args.k)
    report = cover.verify_cover(args.n, args.k, ladder, args.samples, args.seed,
                                field, args.tol)
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
                                         kalg.zeros(k, k, field)), tol)
    anchor = kalg.vstack(lift.beta.H, lift.P.H)
    r_anchor = kalg.frobenius_norm(gamma0.m - anchor)

    y = stiefel.gamma(t, tol)
    back = stiefel.gamma_inverse(lift, y, tol)
    r_round = kalg.frobenius_norm(stiefel.gamma(back, tol).m - y.m)

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
    except (ValueError, cover.DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
