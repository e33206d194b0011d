"""The library example in README.md runs and does what its comments say."""

import re
from pathlib import Path

from cayley_stiefel import kalg, stiefel

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names: dict = {}
    exec(block, names)
    y = names["y"]
    assert kalg.frobenius_norm(stiefel.rho(names["A"], y.k).m - y.m) <= 1e-12
    assert kalg.frobenius_norm(stiefel.gamma(names["w"]).m - y.m) <= 1e-12
