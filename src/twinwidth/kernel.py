"""Kernelization pipelines and the end-to-end driver.

``tww2_bikernel`` reduces the width-2 decision to a trigraph with at most
116k vertices (k = feedback edge number) by pruning, tidying, and collapsing
every tidy path to a single vertex.  ``general_kernel`` instead absorbs paths
that are too short for the configured floor into the core and shortens the
rest down to exactly the floor; under the theoretical floor the bound is a
tower function of the core size, computed exactly with big integers, so in
practice the paths are simply absorbed.  ``solve`` chains the fast width-1
and width-2 routes, the feedback-edge-one construction, and the two kernels
with the exact solver as endgame; it runs prune and tidy once and derives the
bikernel and, when that does not close, the general kernel from that one
tidy decomposition and its lift.  Every emitted sequence is re-verified
before it is reported.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .errors import BudgetExceeded, Disconnected
from .reduce import fen1_sequence, prune, tidy
from .sequence import ContractionSequence, Emitter, Lift, compose, verify
from .solver import (
    DEFAULT_CONFIG,
    SolverConfig,
    decide_width_at_most,
    optimal_sequence,
)
from .structure import HPGraph, PseudoPath, TIDY, feedback_edge_set
from .trigraph import Trigraph, connected_components, is_connected


# -- bound policies ------------------------------------------------------------------


@dataclass(frozen=True)
class Theory:
    """Use the proven path floor, 3 * tower_bound(t, 2*t^2) + 9 for core size
    t, evaluated exactly.  Kernels stay equivalent but are astronomically
    large, so in practice every path gets absorbed into the core."""


@dataclass(frozen=True)
class Practical:
    """Use an explicit vertex floor for the dangling paths.  Exercises the
    full shortening pipeline at desk scale; the +1 width guarantee is only
    proven at Theory floors."""

    floor: int = 12


DEFAULT_POLICY = Practical(12)


def tower_bound(core_size: int, level: int) -> int:
    """Exact value of (3^(t+4) * t^2)^level; grows as a tower with the level."""
    if core_size < 1 or level < 0:
        raise ValueError("core_size >= 1 and level >= 0 required")
    return (3 ** (core_size + 4) * core_size * core_size) ** level


def path_floor(core_size: int) -> int:
    """Minimum path length (in vertices) the theory-backed shortening keeps."""
    return 3 * tower_bound(core_size, 2 * core_size * core_size) + 9


def _floor_for(policy, core_size: int) -> int:
    if isinstance(policy, Theory):
        return path_floor(core_size)
    return policy.floor


def decimal(value: int) -> str:
    """Exact decimal string of a big integer, lifting the interpreter's
    conversion-size guard for this one conversion when the value is a tower."""
    digits = int(value.bit_length() * 0.30103) + 2
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or digits < limit:
        return str(value)
    sys.set_int_max_str_digits(digits + 10)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@dataclass
class KernelOutcome:
    solved: ContractionSequence | None = None
    kernel: Trigraph | None = None
    lift: Lift | None = None
    meta: dict = field(default_factory=dict)

    @property
    def is_solved(self):
        return self.solved is not None


# -- shared pipeline -----------------------------------------------------------------


def _pipeline(g: Trigraph, config: SolverConfig, trace, fes, checked=False):
    """prune + tidy of ``g`` with feedback edge set ``fes``; returns
    (solved sequence | None, tidy HPGraph, lift)."""
    outcome = prune(g, config, trace, _checked=checked, _fes=fes)
    if outcome.is_solved:
        return outcome.solved, None, None
    hp, lift = tidy(outcome.instance, trace)
    return None, hp, compose(lift, outcome.lift)


def _shorten_paths(hp: HPGraph, lift, target: int):
    """Contract each path down to ``target`` vertices, always merging the
    lowest-labeled consecutive pair.  Returns the shortened decomposition and
    ``lift`` extended by those contractions, with a bound of at least 2."""
    pairs = Emitter(hp.g.next_label)
    new_paths = []
    for path in hp.paths:
        ids = list(path.vertices)
        while len(ids) > target:
            best = min(
                range(len(ids) - 1),
                key=lambda i: tuple(sorted((ids[i], ids[i + 1]))),
            )
            ids[best : best + 2] = [pairs.emit(ids[best], ids[best + 1])]
        new_paths.append(PseudoPath(tuple(ids), {}, TIDY))
    cur = hp.g.replay(pairs)[0]
    step = Lift(parent=hp.g, child=cur, prefix=tuple(pairs), at_least_two=True)
    return HPGraph(cur, hp.core, new_paths, hp.tww2_certified), compose(step, lift)


def tww2_bikernel(
    g: Trigraph,
    config: SolverConfig = DEFAULT_CONFIG,
    trace=None,
) -> KernelOutcome:
    """Reduce the width-2 decision to a kernel of at most 116k vertices by
    collapsing every tidy path to a single vertex."""
    if not is_connected(g):
        raise Disconnected("kernelization expects a connected graph")
    fes = feedback_edge_set(g)
    k = len(fes)
    solved, hp, lift = _pipeline(g, config, trace, fes)
    if solved is not None:
        return KernelOutcome(solved=solved, meta={"k": k})
    return _collapse_paths(hp, lift, k)


def general_kernel(
    g: Trigraph,
    policy=DEFAULT_POLICY,
    config: SolverConfig = DEFAULT_CONFIG,
    trace=None,
) -> KernelOutcome:
    """Absorb paths shorter than the policy floor into the core (recomputing
    the floor each round, since it grows with the core) and shorten the rest
    to exactly the floor."""
    if not is_connected(g):
        raise Disconnected("kernelization expects a connected graph")
    fes = feedback_edge_set(g)
    k = len(fes)
    solved, hp, lift = _pipeline(g, config, trace, fes)
    if solved is not None:
        return KernelOutcome(solved=solved, meta={"k": k})
    return _absorb_and_shorten(hp, lift, k, policy, trace)


def _collapse_paths(hp: HPGraph, lift, k: int) -> KernelOutcome:
    """The bikernel of a tidy decomposition: every path becomes one vertex."""
    out_hp, lift = _shorten_paths(hp, lift, 1)
    kernel = out_hp.g
    assert kernel.n <= 116 * k, f"kernel size {kernel.n} exceeds 116k = {116 * k}"
    meta = {
        "k": k,
        "core_size": len(out_hp.core),
        "path_lengths": [len(p) for p in hp.paths],
        "kernel_size": kernel.n,
        "certified": out_hp.tww2_certified,
    }
    return KernelOutcome(kernel=kernel, lift=lift, meta=meta)


def _absorb_and_shorten(hp: HPGraph, lift, k: int, policy, trace) -> KernelOutcome:
    """The general kernel of a tidy decomposition under ``policy``."""
    core = set(hp.core)
    paths = list(hp.paths)
    core_sizes = [len(core)]
    floors = []
    while True:
        floor = _floor_for(policy, max(1, len(core)))
        floors.append(floor)
        short = [p for p in paths if len(p) < floor]
        if not short:
            break
        for p in short:
            core.update(p.all_vertices())
        paths = [p for p in paths if len(p) >= floor]
        core_sizes.append(len(core))
        if trace is not None:
            trace.append({"rule": "absorb_short_paths", "count": len(short)})
    floor = floors[-1]
    working = HPGraph(hp.g, frozenset(core), paths, hp.tww2_certified)
    out_hp, lift = _shorten_paths(working, lift, floor)
    meta = {
        "k": k,
        "core_trajectory": core_sizes,
        "floors": [decimal(f) for f in floors],
        "path_lengths": [len(p) for p in out_hp.paths],
        "kernel_size": out_hp.g.n,
        "certified": out_hp.tww2_certified,
        "shortened": out_hp.g.n < working.g.n,
    }
    return KernelOutcome(kernel=out_hp.g, lift=lift, meta=meta)


# -- driver ------------------------------------------------------------------------


def _solve_connected(g: Trigraph, policy, config: SolverConfig, report: dict):
    trace = report.setdefault("rules", [])
    if g.has_red():
        # trigraph inputs (e.g. emitted kernels) skip the reduction pipeline,
        # whose rules are stated for plain graphs, and go straight to the
        # exact solver
        result = optimal_sequence(g, config)
        trace.append({"rule": "exact_trigraph", "width": result.width})
        report["status"] = "optimal" if result.optimal else "upper_bound"
        return result.sequence
    fes = feedback_edge_set(g)
    k = len(fes)
    report["k"] = k
    checked = False
    if g.n <= config.max_vertices:
        for d in (0, 1):
            try:
                seq = decide_width_at_most(g, d, config)
            except BudgetExceeded:
                break
            if seq is not None:
                trace.append({"rule": "solved_by_decision", "width": d})
                report["status"] = "optimal"
                return seq
        else:
            checked = True
            report["tww_at_least_2"] = True
    if k <= 1:
        seq = fen1_sequence(g, config, _checked=checked)
        trace.append({"rule": "fen1_construction"})
        report["status"] = "optimal" if checked else "upper_bound"
        return seq
    # one prune+tidy pass feeds both kernels
    solved, hp, lift = _pipeline(g, config, trace, fes, checked)
    if solved is not None:
        report["status"] = "optimal" if checked else "upper_bound"
        return solved
    outcome = _collapse_paths(hp, lift, k)
    report["bikernel"] = outcome.meta
    if outcome.kernel.n <= config.max_vertices:
        seq2 = decide_width_at_most(outcome.kernel, 2, config)
        if seq2 is not None:
            trace.append({"rule": "bikernel_width2"})
            report["status"] = (
                "optimal" if outcome.meta["certified"] else "upper_bound"
            )
            return outcome.lift.apply(seq2)
    general = _absorb_and_shorten(hp, lift, k, policy, trace)
    report["general_kernel"] = general.meta
    result = optimal_sequence(general.kernel, config)
    trace.append({"rule": "exact_endgame", "kernel_width": result.width})
    if not result.optimal:
        report["status"] = "upper_bound"
    elif not general.meta["shortened"] and general.meta["certified"]:
        # kernel is the reduced instance itself, equivalent to the input
        report["status"] = "optimal"
    elif isinstance(policy, Theory):
        report["status"] = "plus_one"
    else:
        report["status"] = "upper_bound"
    return general.lift.apply(result.sequence)


def _offset_pairs(seq: ContractionSequence, base_next: int, offset: int):
    """Remap a component sequence's fresh labels for splicing at ``offset``."""
    remap = {}
    out = []
    for i, (a, b) in enumerate(seq.pairs()):
        out.append((remap.get(a, a), remap.get(b, b)))
        remap[seq.base.next_label + i] = base_next + offset + i
    return out


def solve(g: Trigraph, policy=DEFAULT_POLICY, config: SolverConfig = DEFAULT_CONFIG):
    """Compute a verified contraction sequence for ``g`` plus a report.

    Disconnected inputs are solved per component and the sequences spliced in
    component-discovery order (twin-width of a disjoint union is the maximum
    over components; no cross-component contractions are emitted)."""
    report = {"n": g.n, "policy": _policy_name(policy)}
    comps = connected_components(g)
    if len(comps) <= 1:
        seq = _solve_connected(g, policy, config, report)
        width = verify(g, seq)
        report["width"] = width
        return seq, report
    report["components"] = len(comps)
    all_pairs = []
    statuses = []
    for comp in comps:
        sub = g.induce(comp)
        sub_report = {"n": sub.n, "policy": report["policy"]}
        seq = _solve_connected(sub, policy, config, sub_report)
        all_pairs.extend(_offset_pairs(seq, g.next_label, len(all_pairs)))
        statuses.append(sub_report.get("status", "upper_bound"))
        report.setdefault("rules", []).extend(sub_report.get("rules", []))
    combined = ContractionSequence.build(g, all_pairs)
    width = verify(g, combined)
    report["width"] = width
    order = {"upper_bound": 0, "plus_one": 1, "optimal": 2}
    report["status"] = min(statuses, key=lambda s: order.get(s, 0))
    return combined, report


def _policy_name(policy) -> str:
    if isinstance(policy, Theory):
        return "theory"
    return f"practical:{policy.floor}"
