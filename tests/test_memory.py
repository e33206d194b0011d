"""Repeated library calls keep no memory that grows with the number of calls.

tracemalloc counts the Python and numpy allocations still alive after each
window of rounds.  A round lifts a frame, maps a tangent there and back,
takes a section and the homotopy at t = 1/2 and at t = 1, which reads
the core the lift keeps, runs a short solve and a small cover check,
in each field.  Caches that fill once (numpy's, the interpreter's) show in
the first windows only, so the warm-up window is not judged, and the least
growth of the later windows must stay under a few bytes per round: whatever
a call kept would add to every window.
"""

import gc
import tracemalloc

from conftest import FIELDS, random_lift_tangent

from cayley_stiefel import cover, kalg, optim, stiefel
from cayley_stiefel.stiefel import TangentCoords

ROUNDS = 20
BYTES_PER_ROUND = 64  # a round makes 21 calls; a kept float and its list slot take 32


def cases():
    out = []
    for fld in FIELDS:
        lift, t = random_lift_tangent(6, 2, fld, 5, scale=0.5)
        M = kalg.hermitian_part(kalg.random_gaussian(6, 6, fld, 9))
        out.append((lift.point, t.X, t.Y, M))
    return out


def one_round(inputs):
    for x, X, Y, M in inputs:
        lift = stiefel.complete_lift(x)
        y = stiefel.gamma(TangentCoords(lift, X, Y))
        stiefel.gamma_inverse(lift, y)
        stiefel.local_section(lift, y)
        stiefel.contraction(lift, y, 0.5)
        stiefel.contraction(lift, y, 1.0)
        optim.gradient_descent(optim.rayleigh_objective(M), x, optim.SearchParams(max_iters=3))
        cover.verify_cover(4, 2, cover.default_ladder(2), 3, 3, x.field)


def retained(inputs, rounds):
    """Bytes still allocated after `rounds` more rounds."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    for _ in range(rounds):
        one_round(inputs)
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before


def test_repeated_calls_retain_no_growing_memory():
    inputs = cases()
    tracemalloc.start()
    try:
        retained(inputs, ROUNDS)  # warm-up: caches fill
        windows = [retained(inputs, ROUNDS) for _ in range(3)]
    finally:
        tracemalloc.stop()
    assert min(windows) <= BYTES_PER_ROUND * ROUNDS, windows
