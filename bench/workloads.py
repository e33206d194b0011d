"""Operation groups of the benchmark: inputs, timed library calls and checks.

Three groups of operations drive the library's public API:

- optimize: Rayleigh-trace solves with `optim.gradient_descent`, one per
  field, on a Hermitian M with a prescribed spectrum, so the optimum is
  known by construction;
- cover: `cover.verify_cover` with the default ladder at n=4, k=2, one call
  per field;
- transforms: one cycle of `complete_lift`, `gamma`, `gamma_inverse`,
  `local_section` and `contraction` per fixed frame, FRAMES frames per field.

A run builds its inputs once, from its seed, with numpy and never with the
library's random helpers.  It then repeats whole rounds.  A round runs every
group, so each run measures every end-to-end metric; the workload's own
group runs more often (REPEATS) and takes most of the time.  Every
output is checked against `reference`, never against stored results.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

import reference as ref

FIELDS = ("real", "complex", "quaternion")
GROUPS = ("optimize", "cover", "transforms")

# units of each group in one round of each workload.  cover has no workload
# of its own: its calls are short, so one unit per round already gives
# every run enough repeats, while a round dominated by cover leaves too few
# repeats of the long solves for a steady fastest repeat.
REPEATS = {
    "optimize": {"optimize": 2, "cover": 1, "transforms": 1},
    "transforms": {"optimize": 1, "cover": 1, "transforms": 4},
}
WORKLOADS = tuple(REPEATS)

# optimize: the bottom k eigenvalues of M span LOW_SPAN from 0, then comes
# a gap of GAP, then the other n - k span HIGH_SPAN.  The real solve is
# cheap today, so it runs at a larger n.
OPT_SHAPES = {"real": (60, 4), "complex": (20, 4), "quaternion": (20, 4)}
LOW_SPAN, GAP, HIGH_SPAN = 0.1, 0.5, 0.5
START_SEED = 20161222  # fixes the starting frame in eigen-coordinates
GRAD_TOL = 1e-6
F_TOL = 1e-6
DRIFT_TOL = 1e-8

COVER_N, COVER_K, COVER_SAMPLES = 4, 2, 50
MEMBER_RATIO = 1e-6       # sigma_min/sigma_max at or above this: a member
NON_MEMBER_RATIO = 1e-13  # at or below this: not a member; between: no verdict
WITNESS_RATIO = 1e-8

TRANSFORM_N, TRANSFORM_K, FRAMES, TANGENT_SCALE = 16, 4, 2, 0.5
TRANSFORM_TOL = 1e-10
ROUND_TRIP_TOL = 1e-9

WARM_UP_N, WARM_UP_K, WARM_UP_SAMPLES = 6, 2, 3


def spectrum(n: int, k: int) -> np.ndarray:
    return np.concatenate([np.linspace(0.0, LOW_SPAN, k),
                           np.linspace(LOW_SPAN + GAP, LOW_SPAN + GAP + HIGH_SPAN, n - k)])


def ladder_angles() -> list[float]:
    """The default ladder of k + 1 angles, computed apart from the library."""
    return [(i + 1) * math.pi / (2 * (COVER_K + 2)) for i in range(COVER_K + 1)]


def optimize_inputs(n: int, k: int, nc: int, rng: np.random.Generator) -> dict:
    """M = Q diag(spectrum) Q* and x0 = Q Z0 for a random unitary Q.

    The solver is unitarily equivariant, so every seed poses the same
    problem, Z0 against diag(spectrum), in a random eigenbasis; the
    iteration count is a property of the spectrum, not of the seed.
    """
    eigs = spectrum(n, k)
    Q = ref.chi(ref.random_frame(n, n, nc, rng))
    D = np.diag(np.concatenate([eigs, eigs])).astype(complex)
    Z0 = ref.chi(ref.random_frame(n, k, nc, np.random.default_rng(START_SEED)))
    return {"M": ref.hermitian_part(ref.unchi(Q @ D @ Q.conj().T, nc)),
            "x0": ref.unchi(Q @ Z0, nc),
            "fstar": float(eigs[:k].sum())}


def cover_inputs(nc: int, rng: np.random.Generator) -> dict:
    """A seed for verify_cover and frames for the membership check.

    The frames are one random frame and frames whose bottom block makes
    pi + cos(theta_i) I singular for each single ladder angle, then for k
    angles at once.
    """
    angles = ladder_angles()
    chosen = [[i] for i in range(len(angles))]
    chosen.append(sorted(rng.choice(len(angles), COVER_K, replace=False).tolist()))
    frames = [ref.random_frame(COVER_N, COVER_K, nc, rng)]
    frames += [_ladder_frame(angles, idx, nc, rng) for idx in chosen]
    return {"seed": int(rng.integers(1 << 30)), "frames": frames}


def transforms_inputs(n: int, k: int, nc: int, rng: np.random.Generator) -> dict:
    """A frame and tangent coordinates (X, Y) of scale TANGENT_SCALE."""
    return {"x": ref.random_frame(n, k, nc, rng),
            "X": TANGENT_SCALE * rng.standard_normal((n - k, k, nc)),
            "Y": ref.skew_part(TANGENT_SCALE * rng.standard_normal((k, k, nc)))}


def make_inputs(seed: int, small: bool = False) -> dict:
    """Every input of a run keyed by group and field; `small` gives warm-up sizes."""
    out = {group: {} for group in GROUPS}
    for fi, field in enumerate(FIELDS):
        nc = ref.NCOMP[field]
        rng = np.random.default_rng([seed, fi, small])
        opt_shape = (WARM_UP_N, WARM_UP_K) if small else OPT_SHAPES[field]
        lift_shape = (WARM_UP_N, WARM_UP_K) if small else (TRANSFORM_N, TRANSFORM_K)
        out["optimize"][field] = optimize_inputs(*opt_shape, nc, rng)
        out["cover"][field] = cover_inputs(nc, rng)
        out["transforms"][field] = [transforms_inputs(*lift_shape, nc, rng)
                                    for _ in range(1 if small else FRAMES)]
    return out


class Stats:
    """Timings, operation counts and check results of one run."""

    def __init__(self):
        # metric -> operation key -> seconds of each repeat
        self.times: dict[str, dict[object, list[float]]] = {}
        self.attempted = dict.fromkeys(GROUPS, 0)
        self.failed = dict.fromkeys(GROUPS, 0)
        self.checks: dict[str, list[int]] = {}
        self.iterations = 0
        self.cover_samples = 0
        self.notes: list[str] = []

    def add(self, metric: str, key, seconds: float):
        self.times.setdefault(metric, {}).setdefault(key, []).append(seconds)

    def check(self, name: str, ok: bool, detail: str = ""):
        made = self.checks.setdefault(name, [0, 0])
        made[0] += bool(ok)
        made[1] += 1
        if not ok:
            self.note(f"check {name} failed {detail}")

    def fail(self, group: str, count: int, text: str):
        self.failed[group] += count
        self.note(f"{group}: {text}")

    def note(self, text: str):
        if len(self.notes) < 20:
            self.notes.append(text)
            print(text, file=sys.stderr)

    @property
    def correct(self) -> bool:
        return all(passed == made for passed, made in self.checks.values())


class Bench:
    """Runs the operation groups against one imported copy of the library."""

    def __init__(self, lib: dict, inputs: dict, stats: Stats, tracer=None):
        self.lib = lib
        self.kalg, self.optim = lib["kalg"], lib["optim"]
        self.stiefel, self.cover = lib["stiefel"], lib["cover"]
        self.inputs = inputs
        self.stats = stats
        self.tracer = tracer

    def _mat(self, field: str, data: np.ndarray):
        return self.kalg.Mat(self.kalg.Field(field), data)

    def _timed(self, fn, *args):
        """(result, seconds) of one library call; traced when a tracer is set."""
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
                tracer.fold()
        return out, elapsed

    def run_round(self, workload: str):
        for group in GROUPS:
            run = getattr(self, f"run_{group}")
            for _ in range(REPEATS[workload][group]):
                run(self.inputs[group])

    def warm_up(self, seed: int):
        """One small operation of every kind in every field.

        Its results go to throwaway stats: failures count in the rounds.
        """
        small = make_inputs(seed, small=True)
        bench = Bench(self.lib, small, Stats())
        bench.run_optimize(small["optimize"])
        bench.run_cover(small["cover"], WARM_UP_SAMPLES)
        bench.run_transforms(small["transforms"])

    # -- optimize ---------------------------------------------------------

    def run_optimize(self, inputs: dict):
        stats, optim = self.stats, self.optim
        params = optim.SearchParams(grad_tol=GRAD_TOL)
        for field, inp in inputs.items():
            M = self._mat(field, inp["M"])
            x0 = self.stiefel.StiefelPoint(self._mat(field, inp["x0"]))
            stats.attempted["optimize"] += 1
            try:
                trace, elapsed = self._timed(self._solve, M, x0, params)
            except Exception as exc:  # a library error fails this solve only
                stats.fail("optimize", 1, f"{field}: {type(exc).__name__}: {exc}")
                continue
            x = ref.chi(trace.final.x.m.data)
            Mx = ref.chi(inp["M"]) @ x
            f = ref.real_trace(x.conj().T @ Mx)
            xG = 2.0 * x.conj().T @ Mx
            gnorm = ref.fro(2.0 * Mx - x @ (0.5 * (xG + xG.conj().T)))
            drift = ref.unitarity_residual(x)
            fstar = inp["fstar"]
            if (trace.reason != "converged" or gnorm > GRAD_TOL + 1e-12
                    or abs(f - fstar) > F_TOL * max(1.0, abs(fstar)) or drift > DRIFT_TOL):
                stats.fail("optimize", 1, f"{field}: {trace.reason}, |grad| {gnorm:.3e}, "
                                          f"f - f* = {f - fstar:.3e}, drift {drift:.3e}")
                continue
            stats.add(f"solve_s.{field}", field, elapsed)
            stats.iterations += len(trace.records) - 1

    def _solve(self, M, x0, params):
        obj = self.optim.rayleigh_objective(M)
        if self.tracer is not None:
            obj = self.optim.Objective(self.tracer.wrap("optim.objective", obj.f),
                                       self.tracer.wrap("optim.objective", obj.egrad))
        return self.optim.gradient_descent(obj, x0, params)

    # -- cover ------------------------------------------------------------

    def run_cover(self, inputs: dict, samples: int = COVER_SAMPLES):
        stats, cover = self.stats, self.cover
        angles = ladder_angles()
        ladder = cover.default_ladder(COVER_K)
        stats.check("cover.default_ladder", np.allclose(ladder.angles, angles, rtol=0, atol=1e-15))
        for field, inp in inputs.items():
            stats.attempted["cover"] += samples
            try:
                rep, elapsed = self._timed(cover.verify_cover, COVER_N, COVER_K, ladder,
                                           samples, inp["seed"], self.kalg.Field(field))
            except Exception as exc:
                stats.fail("cover", samples, f"{field}: {type(exc).__name__}: {exc}")
                continue
            stats.add(f"cover_samples_per_s.{field}", field, elapsed)
            stats.cover_samples += samples
            if field == "quaternion" and rep["uncovered"]:
                # the k+1-angle theorem: no quaternionic frame is uncovered
                stats.fail("cover", rep["uncovered"],
                           f"{rep['uncovered']} quaternionic frames uncovered")
            stats.check("cover.histogram_total", sum(rep["multiplicity_histogram"].values()) == samples)
            for w in rep["witnesses"] if field != "quaternion" else []:
                pi = np.asarray(w["matrix"]["data"]).reshape(COVER_N, COVER_K, -1)[COVER_N - COVER_K:]
                stats.check("cover.witness_singular",
                            all(ref.relative_sigma_min(_shift(pi, math.cos(t))) <= WITNESS_RATIO
                                for t in angles))

    def check_membership(self):
        """cover_membership against numpy on the run's membership frames.

        Only frames whose sigma_min/sigma_max is clearly above or below the
        singularity threshold get a verdict.
        """
        ladder = self.cover.default_ladder(COVER_K)
        for field, inp in self.inputs["cover"].items():
            for frame in inp["frames"]:
                members = set(self.cover.cover_membership(
                    self.stiefel.StiefelPoint(self._mat(field, frame)), ladder))
                pi = frame[COVER_N - COVER_K:]
                for i, t in enumerate(ladder_angles()):
                    ratio = ref.relative_sigma_min(_shift(pi, math.cos(t)))
                    if ratio >= MEMBER_RATIO or ratio <= NON_MEMBER_RATIO:
                        self.stats.check("cover.membership", (i in members) == (ratio >= MEMBER_RATIO),
                                         f"{field} angle {i}: sigma ratio {ratio:.3e}")

    # -- transforms -------------------------------------------------------

    def run_transforms(self, inputs: dict):
        stats, st = self.stats, self.stiefel
        for field, cycles in inputs.items():
            for i, inp in enumerate(cycles):
                stats.attempted["transforms"] += 1
                x = st.StiefelPoint(self._mat(field, inp["x"]))
                try:
                    lift, t_lift = self._timed(st.complete_lift, x)
                    v = st.TangentCoords(lift, self._mat(field, inp["X"]), self._mat(field, inp["Y"]))
                    (y, w), t_map = self._timed(self._map, lift, v)
                    (s, h), t_hom = self._timed(self._homotopy, lift, y)
                except Exception as exc:
                    stats.fail("transforms", 1, f"{field}: {type(exc).__name__}: {exc}")
                    continue
                bad = _transform_errors(inp, lift, y, w, s, h)
                if bad:
                    stats.fail("transforms", 1, f"{field}: " + ", ".join(bad))
                    continue
                stats.add("lift_s", (field, i), t_lift)
                stats.add("map_s", (field, i), t_map)
                stats.add("homotopy_s", (field, i), t_hom)

    def _map(self, lift, v):
        y = self.stiefel.gamma(v)
        return y, self.stiefel.gamma_inverse(lift, y)

    def _homotopy(self, lift, y):
        return self.stiefel.local_section(lift, y), self.stiefel.contraction(lift, y, 1.0)


def _shift(pi: np.ndarray, c: float) -> np.ndarray:
    """pi + c I for a square component array."""
    out = pi.copy()
    out[:, :, 0] += c * np.eye(pi.shape[0])
    return out


def _ladder_frame(angles, idx, nc, rng) -> np.ndarray:
    """Frame [V diag(s) W*; W diag(c) W*] with c_j = -cos(theta_{idx_j}).

    V is an (n-k) x k frame, W a k x k unitary and s = sqrt(1 - c^2).  The
    bottom block pi = W diag(c) W* makes pi + cos(theta_i) I singular for i
    in idx; the remaining c_j are drawn at least 0.1 from every -cos(theta).
    """
    k = COVER_K
    c = rng.uniform(-0.95, 0.95, k)
    for j, i in enumerate(idx):
        c[j] = -math.cos(angles[i])
    for j in range(len(idx), k):
        while min(abs(c[j] + math.cos(t)) for t in angles) < 0.1:
            c[j] = rng.uniform(-0.95, 0.95)
    s = np.sqrt(1.0 - c * c)
    V = ref.chi(ref.random_frame(COVER_N - k, k, nc, rng))
    W = ref.chi(ref.random_frame(k, k, nc, rng))
    Wh = W.conj().T
    top = V @ np.diag(np.concatenate([s, s])) @ Wh
    bot = W @ np.diag(np.concatenate([c, c])).astype(complex) @ Wh
    return np.concatenate([ref.unchi(top, nc), ref.unchi(bot, nc)], axis=0)


def _transform_errors(inp: dict, lift, y, w, s, h) -> list[str]:
    """Names of the cycle checks that fail, computed with the complex adjoint."""
    k = inp["x"].shape[1]
    A = lift.A.m.data
    n = A.shape[0]
    chi_A = ref.chi(A)
    chi_y = ref.chi(y.m.data)
    scale = 1.0 + ref.fro(ref.chi(inp["X"])) + ref.fro(ref.chi(inp["Y"]))
    round_trip = ref.fro(ref.chi(w.X.data - inp["X"])) + ref.fro(ref.chi(w.Y.data - inp["Y"]))
    errors = {
        "AA* = I": ref.fro(chi_A @ chi_A.conj().T - ref.eye_chi(n)) > TRANSFORM_TOL,
        "last k columns of A = x": not np.array_equal(A[:, n - k:], inp["x"]),
        "gamma = dense Cayley":
            ref.fro(ref.stiefel_cayley(A, inp["X"], inp["Y"]) - chi_y) > TRANSFORM_TOL,
        "gamma_inverse round trip": round_trip > ROUND_TRIP_TOL * scale,
        "rho(section) = y": ref.fro(ref.chi(s.m.data[:, n - k:]) - chi_y) > TRANSFORM_TOL,
        "contraction(y, 1) = y": ref.fro(ref.chi(h.m.data) - chi_y) > TRANSFORM_TOL,
    }
    return [name for name, bad in errors.items() if bad]
