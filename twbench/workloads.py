"""The benchmark's workloads: seeded instance lists and why each was chosen.

Every instance is generated with ``twinwidth.corpus`` from a generator seeded
by the workload name and the benchmark seed, then serialised to PACE text by
this module.  The program only ever sees that text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = {
    "fen1-deep-trees": (
        "fen-1 graphs far above the exact budget whose vertices sit almost all "
        "in dangling trees: tree rules, contraction and stump scans do the work"
    ),
    "fenk-kernel": (
        "fen 2-4 cores under large dangling trees: prune+tidy, both kernels, "
        "lifts, shallow width-2 decisions and budget misses"
    ),
    "exact-endgame": (
        "small dense random graphs with no real reductions: the exact solver "
        "refutes widths 0-2 under a fixed node cap"
    ),
    "smoke": "a few tiny instances of every family, for the benchmark's self-test",
}

DEFAULT_SEED = 1
PRACTICAL_FLOOR = 12  # solve's default policy, practical:12

# Untraced passes per run, fixed per workload so that medians and best times
# are taken over as many samples on every commit.  On a 2-core x86 host the
# seed code makes them in about 30 s, within the 36 s limit in BENCHMARK.json.
# Instance costs vary by seed (how often classify_stumps rescans, how many
# decisions hit the node cap), so a pass holds many instances and a run few
# passes: the seed-to-seed spread of a pass falls with the instance count.
PASSES = {"fen1-deep-trees": 3, "fenk-kernel": 3, "exact-endgame": 2, "smoke": 6}

# Reference replays (``reference.py``) run before each operation: about a
# tenth of the operation's own time, so that the reference samples the host's
# speed all through the pass at a small cost to the run.
REF_UNITS = {"fen1-deep-trees": 8, "fenk-kernel": 2, "exact-endgame": 1, "smoke": 1}

# fen1-deep-trees: doubling sizes per family.  The five (family, size)
# classes have distinct costs, so with an odd repeat count the median and
# the 90th percentile fall inside a class rather than between two.
FEN1_CYCLE = 50
FEN1_SIZES = {"cycle_with_trees": (500, 1000, 2000), "random_connected_graph": (1000, 2000)}
FEN1_REPEATS = 5

# Cap on search nodes per width decision.  A rare deep width-d search would
# otherwise cost as much as a whole pass; with the cap it ends as a "nodes"
# budget miss, which the outcome counts show.
NODE_CAP = 1000

# fenk-kernel: every (core, k) pair under 500 tree vertices, default vertex
# budget.  Budget-miss instances cost about 2x an answered one and their share
# is random, so the pass needs many instances; larger trees would make it too
# long for the run, and tree-size scaling is fen1-deep-trees' job.
FENK_CORES = (6, 8, 10)
FENK_KS = (2, 3, 4)
FENK_TREE_VERTICES = 500
FENK_REPEATS = 12

# exact-endgame: n vertices, n // 2 extra edges, budget n
EXACT_SIZES = tuple(range(14, 23))
EXACT_REPEATS = 24


@dataclass(frozen=True)
class Instance:
    name: str
    family: str
    params: dict
    n: int
    k: int
    text: str
    config: dict = field(default_factory=dict)
    exact_width: int | None = None  # known twin-width, checked when set

    def describe(self):
        return {
            "name": self.name,
            "family": self.family,
            "params": self.params,
            "n": self.n,
            "k": self.k,
            "config": self.config,
        }


def pace_text(g):
    """PACE text of a plain trigraph whose vertices are 0..n-1."""
    edges = sorted(g.black_edges())
    lines = [f"p tww {g.n} {len(edges)}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _instance(name, family, params, g, config=None, exact_width=None):
    from replay import feedback_edge_number, parse_pace

    text = pace_text(g)
    n, edges = parse_pace(text)
    return Instance(
        name, family, params, n, feedback_edge_number(n, edges), text,
        config or {}, exact_width,
    )


def build(workload, seed):
    """The workload's instance list for ``seed``; equal seeds, equal lists."""
    from twinwidth import corpus

    rng = random.Random(f"{workload}/{seed}")
    out = []
    if workload == "fen1-deep-trees":
        for rep in range(FEN1_REPEATS):
            for size in FEN1_SIZES["cycle_with_trees"]:
                t = size - FEN1_CYCLE
                out.append(_instance(
                    f"cwt-{FEN1_CYCLE}-{t}-r{rep}", "cycle_with_trees",
                    {"cycle_n": FEN1_CYCLE, "tree_vertices": t},
                    corpus.cycle_with_trees(FEN1_CYCLE, t, rng),
                    exact_width=2,  # a cycle of length >= 5 has twin-width 2
                ))
            for size in FEN1_SIZES["random_connected_graph"]:
                out.append(_instance(
                    f"rcg-{size}-1-r{rep}", "random_connected_graph",
                    {"n": size, "extra_edges": 1},
                    corpus.random_connected_graph(size, 1, rng),
                ))
    elif workload == "fenk-kernel":
        t = FENK_TREE_VERTICES
        for rep in range(FENK_REPEATS):
            for core in FENK_CORES:
                for k in FENK_KS:
                    out.append(_instance(
                        f"rwdt-{core}-{k}-{t}-r{rep}", "random_with_dangling_trees",
                        {"core_n": core, "extra_edges": k, "tree_vertices": t},
                        corpus.random_with_dangling_trees(core, k, t, rng),
                        config={"max_nodes": NODE_CAP},
                    ))
    elif workload == "exact-endgame":
        for rep in range(EXACT_REPEATS):
            for n in EXACT_SIZES:
                g = corpus.random_connected_graph(n, n // 2, rng)
                out.append(_instance(
                    f"rcg-{n}-{n // 2}-r{rep}", "random_connected_graph",
                    {"n": n, "extra_edges": n // 2}, g,
                    config={"max_vertices": n, "max_nodes": NODE_CAP},
                ))
    elif workload == "smoke":
        out.append(_instance(
            "cwt-6-20", "cycle_with_trees", {"cycle_n": 6, "tree_vertices": 20},
            corpus.cycle_with_trees(6, 20, rng), exact_width=2,
        ))
        out.append(_instance(
            "rwdt-5-2-20", "random_with_dangling_trees",
            {"core_n": 5, "extra_edges": 2, "tree_vertices": 20},
            corpus.random_with_dangling_trees(5, 2, 20, rng),
        ))
        out.append(_instance(
            "rcg-10-5", "random_connected_graph", {"n": 10, "extra_edges": 5},
            corpus.random_connected_graph(10, 5, rng),
            config={"max_vertices": 10, "max_nodes": NODE_CAP},
        ))
    else:
        raise KeyError(workload)
    return out
