"""Run a fixed set of `--reproducible` CLI commands against one source tree.

    python tools/reproducible_outputs.py TREE OUTDIR

runs 45 commands of `python -m cayley_stiefel` with TREE/src first on the
import path and BLAS on one thread, and writes each command's stdout,
stderr and exit code to OUTDIR/<command>/.  Run it on two trees and
compare the outputs with `diff -r OUTDIR_A OUTDIR_B`: an empty diff means
every byte the commands print, and every exit code, is the same.

The commands, each in R, C and H:

- `optimize` (rayleigh and procrustes), `demo`, `check` and
  `cover --samples 600`, each at n = 6, k = 2 and at n = 12, k = 4, seed 5;
- commands whose singularity decisions reach the SVD fallbacks, at the
  default seed but for the cover: `demo --tol 0.9` (exits 2, its message
  carries the fallback's singular values), `demo --tol 0.05 --n 12 --k 4`
  (exits 0 in R and H, 2 in C),
  `cover --tol 0.5 --n 6 --k 3 --samples 600 --seed 3` (exits 1),
  `check --tol 0` (exits 0) and `check --tol 0.3` (exits 2).
"""

import os
import subprocess
import sys
from pathlib import Path

FIELDS = ("real", "complex", "quaternion")
SIZES = (("6", "2"), ("12", "4"))
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def commands():
    """Every command, as its argument list after `python -m cayley_stiefel`."""
    for field in FIELDS:
        for n, k in SIZES:
            common = ["--field", field, "--n", n, "--k", k, "--seed", "5"]
            yield ["optimize", "--problem", "rayleigh", *common]
            yield ["optimize", "--problem", "procrustes", *common]
            yield ["demo", *common]
            yield ["check", *common]
            yield ["cover", "--samples", "600", *common]
        yield ["demo", "--tol", "0.9", "--field", field]
        yield ["demo", "--tol", "0.05", "--n", "12", "--k", "4", "--field", field]
        yield ["cover", "--tol", "0.5", "--n", "6", "--k", "3", "--samples", "600",
               "--field", field, "--seed", "3"]
        yield ["check", "--tol", "0", "--field", field]
        yield ["check", "--tol", "0.3", "--field", field]


def directory(args):
    """The output directory's name for a command: its arguments, dashes dropped."""
    return "_".join(a.lstrip("-") for a in args)


def main(argv):
    if len(argv) != 2:
        sys.exit(f"usage: {Path(sys.argv[0]).name} TREE OUTDIR")
    tree, outdir = Path(argv[0]).resolve(), Path(argv[1])
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    for args in commands():
        run = subprocess.run([sys.executable, "-m", "cayley_stiefel", *args, "--reproducible"],
                             cwd=tree, env=env, capture_output=True)
        out = outdir / directory(args)
        out.mkdir(parents=True, exist_ok=True)
        (out / "stdout").write_bytes(run.stdout)
        (out / "stderr").write_bytes(run.stderr)
        (out / "exit_code").write_text(f"{run.returncode}\n")
        print(run.returncode, *args)


if __name__ == "__main__":
    main(sys.argv[1:])
