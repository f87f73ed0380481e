"""A fixed reference task that puts pass times in host-independent units.

On a shared host the same pass can run 1.5x slower for tens of seconds at a
time, and whole processes run up to 2x slower than others (seen on a 2-core
x86 VM), so seconds measured in one run do not compare with another run's.
The workload process therefore replays one fixed contraction sequence with the
benchmark's own checker (plain Python sets and dicts, like the program) right
before every operation.  A pass time divided by the mean time of one
reference replay in the same pass is then the pass's cost in reference units:
a slow phase stretches both alike.

The task depends on nothing in ``twinwidth`` and not on the benchmark seed,
so it is the same on every commit and every run.
"""

from __future__ import annotations

import random
from time import perf_counter

from replay import replay

VERTICES = 120  # about 5 ms per replay on a 2-core x86 VM


def _build():
    rng = random.Random("twbench-reference")
    edges = {(rng.randint(1, v - 1), v) for v in range(2, VERTICES + 1)}
    while len(edges) < 2 * VERTICES:
        u, v = sorted(rng.sample(range(1, VERTICES + 1), 2))
        edges.add((u, v))
    graph = f"p tww {VERTICES} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))
    order = list(range(1, VERTICES + 1))
    rng.shuffle(order)
    sequence = "".join(f"{order[0]} {v}\n" for v in order[1:])
    return graph, sequence


GRAPH, SEQUENCE = _build()


def reference_seconds(units):
    """Seconds taken by ``units`` replays of the reference sequence."""
    t0 = perf_counter()
    for _ in range(units):
        replay(GRAPH, SEQUENCE)
    return perf_counter() - t0
