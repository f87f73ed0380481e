"""Kernelization pipelines and the end-to-end driver.

``tww2_bikernel`` reduces the width-2 decision to a trigraph with at most
116k vertices (k = feedback edge number) by pruning, tidying, and collapsing
every tidy path to a single vertex.  ``general_kernel`` instead absorbs paths
that are too short for the configured floor into the core and shortens the
rest down to exactly the floor.  The theoretical floor is a tower in the
core size, longer than every tidy path, so every path is absorbed, and a
report prints it as its closed form, whose digits are never built.
``solve`` chains the fast width-1 and width-2 routes, the feedback-edge-one
construction, and the two kernels with the exact solver as endgame.  A
connected plain-graph solve builds one reduction runner
(``reduce._Reduction``) and plays every stage on it: the up-front width-0/1
check, prune, tidy, and then the feedback-edge-one walk or the kernels.
Each kernel is a list of pairs on the tidy trigraph, replayed on its one
frozen value, and its sequence is those pairs followed by the search's.
One scan of every input, red edges or not, yields its components and each
one's feedback edges, 2-core and dangling trees, and the exact search is
made once: its deadline bounds the solve, and the endgame skips caps
refuted on the same trigraph.  Every emitted sequence is re-verified before it is
reported.

A status rests on the runner's lower bound, set by the up-front check alone
(a kernel's meta is ``certified`` when it is 2), and one rule derives it for
a component or a union: ``optimal`` iff the bound, raised to the exact width
of an unshortened general kernel when it is 2, reaches the verified width;
else ``plus_one`` if within one of optimal; else ``upper_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionViolated
from .reduce import _Reduction, _connected_scan, _fen1, _prune, _tidy
from .sequence import ContractionSequence, Emitter, Lift, verify
from .solver import DEFAULT_CONFIG, SolverConfig, _Search
from .structure import HPGraph, _check, spanning_forest
from .trigraph import Trigraph


# -- bound policies ------------------------------------------------------------------


@dataclass(frozen=True)
class Theory:
    """Use the proven path floor, 3 * tower_bound(t, 2*t^2) + 9 for core size
    t, reported exactly as its closed form ``3*(3**a*b)**c+9`` with a = t+4,
    b = t^2 and c = 2t^2.  Kernels stay equivalent but are astronomically
    large, so in practice every path gets absorbed into the core."""


@dataclass(frozen=True)
class Practical:
    """Use an explicit vertex floor for the dangling paths.  Exercises the
    full shortening pipeline at desk scale; the +1 width guarantee is only
    proven at Theory floors.  The floor is an int (not a bool) of at least 1:
    a path keeps at least one vertex."""

    floor: int = 12

    def __post_init__(self):
        if type(self.floor) is not int or self.floor < 1:
            raise ValueError(f"practical floor must be an int of at least 1, got {self.floor!r}")


DEFAULT_POLICY = Practical()


def tower_bound(core_size: int, level: int) -> int:
    """Exact value of (3^(t+4) * t^2)^level; grows as a tower with the level."""
    if core_size < 1 or level < 0:
        raise ValueError("core_size >= 1 and level >= 0 required")
    return (3 ** (core_size + 4) * core_size * core_size) ** level


def path_floor(core_size: int) -> int:
    """Minimum path length (in vertices) the theory-backed shortening keeps."""
    return 3 * tower_bound(core_size, 2 * core_size * core_size) + 9


def _theory_floor(core_size: int) -> str:
    """``path_floor(core_size)`` as its exact closed form, with the core size
    substituted; none of its digits are built."""
    t = core_size
    return f"3*(3**{t + 4}*{t * t})**{2 * t * t}+9"


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


def _shorten(ids, target: int, pairs: Emitter):
    """Contract the path ``ids`` down to ``target`` vertices into ``pairs``,
    always merging the lowest-labeled consecutive pair.

    That pair is the smallest live label and its smaller neighbour, and a
    fresh label exceeds every older one, so the labels in ascending order,
    followed by the fresh ones as they are made, give the merges in order."""
    left = dict(zip(ids[1:], ids))
    right = dict(zip(ids, ids[1:]))
    order = sorted(ids)
    labels = iter(order)  # also yields the fresh labels appended to ``order``
    for _ in range(len(ids) - target):
        m = next(x for x in labels if x in left or x in right)
        a, b = left.get(m), right.get(m)
        a, b = (a, m) if b is None or (a is not None and a < b) else (m, b)
        w = pairs.emit(a, b)
        order.append(w)
        del right[a], left[b]
        if (x := left.pop(a, None)) is not None:
            left[w], right[x] = x, w
        if (x := right.pop(b, None)) is not None:
            right[w], left[x] = x, w


def _shorten_paths(paths, target: int, first: int) -> Emitter:
    """The pairs that contract each path down to ``target`` vertices with
    :func:`_shorten`, against a trigraph whose next fresh label is
    ``first``."""
    pairs = Emitter(first)
    for path in paths:
        _shorten(path.vertices, target, pairs)
    return pairs


def _kernel(g: Trigraph, config: SolverConfig, trace, derive) -> KernelOutcome:
    """A public kernel: a fresh runner on ``g``, decided, pruned, tidied, and
    shortened by the pairs of ``derive(run, hp)``, which returns them and the
    kernel's meta; the lift's bound becomes at least 2."""
    scan = _connected_scan(g, "kernelization expects a connected graph")
    if g.has_red():
        raise PreconditionViolated("kernelization expects a plain (all-black) graph")
    run = _Reduction(g, _Search(config), scan, trace)
    run.decide()
    if run.solved is not None or (hp := _prune(run)) is None:
        return KernelOutcome(solved=run.solved, meta={"k": len(run.fes)})
    pairs, meta = derive(run, _tidy(run, hp))
    run._play(pairs).at_least_two = True
    kernel = run.work._frozen()
    return KernelOutcome(kernel=kernel, lift=run.lift(kernel), meta=meta)


def tww2_bikernel(
    g: Trigraph,
    config: SolverConfig = DEFAULT_CONFIG,
    trace=None,
) -> KernelOutcome:
    """Reduce the width-2 decision to a kernel of at most 116k vertices by
    collapsing every tidy path to a single vertex."""
    return _kernel(g, config, trace, _collapse_paths)


def general_kernel(
    g: Trigraph,
    policy=DEFAULT_POLICY,
    config: SolverConfig = DEFAULT_CONFIG,
    trace=None,
) -> KernelOutcome:
    """Absorb paths shorter than the policy floor into the core and shorten
    the rest to exactly the floor; a theory floor absorbs every path."""
    return _kernel(g, config, trace, lambda run, hp: _absorb_and_shorten(run, hp, policy))


def _collapse_paths(run: _Reduction, hp: HPGraph):
    """The bikernel of a tidy decomposition, whose trigraph is the runner's
    working trigraph: every path becomes one vertex.  Returns the pairs that
    build it from the tidy trigraph, and its meta."""
    k = len(run.fes)
    pairs = _shorten_paths(hp.paths, 1, run.work.next_label)
    size = run.work.n - len(pairs)
    _check(size <= 116 * k, f"kernel size {size} exceeds 116k = {116 * k}")
    meta = {
        "k": k,
        "core_size": len(hp.core),
        "path_lengths": [len(p) for p in hp.paths],
        "kernel_size": size,
        "certified": run.lower >= 2,
    }
    return pairs, meta


def _absorb_and_shorten(run: _Reduction, hp: HPGraph, policy):
    """The general kernel of a tidy decomposition, whose trigraph is the
    runner's working trigraph, under ``policy``: the paths shorter than the
    floor are absorbed into the core in one pass, and the rest shortened to
    exactly the floor.  Returns the pairs that build it from the tidy
    trigraph, and its meta.

    A practical floor is fixed, so no path is short after the pass.  A
    theory floor exceeds 2^(2t^2) at core size t, and a tidy path is left
    only beside at least two hubs and the six boundary vertices that
    ``_tidy`` moves into the core, so t >= 8 and the floor exceeds 2^128,
    more than any path's length: every path is absorbed, and no floor is
    built.  The meta's floors, one per core size of the trajectory, are
    strings: a practical floor's digits, and a theory floor's closed form."""
    theory = isinstance(policy, Theory)
    floor = float("inf") if theory else policy.floor
    core = set(hp.core)
    core_sizes = [len(core)]
    short = [p for p in hp.paths if len(p) < floor]
    if short:
        for p in short:
            core.update(p.all_vertices())
        core_sizes.append(len(core))
        run.trace.append({"rule": "absorb_short_paths", "count": len(short)})
    paths = [p for p in hp.paths if len(p) >= floor]
    pairs = _shorten_paths(paths, floor, run.work.next_label)
    if theory:
        floors = [_theory_floor(max(1, t)) for t in core_sizes]
    else:
        floors = [str(floor)] * len(core_sizes)
    meta = {
        "k": len(run.fes),
        "core_trajectory": core_sizes,
        "path_lengths": [floor] * len(paths),
        "kernel_size": run.work.n - len(pairs),
        "certified": run.lower >= 2,
        "shortened": bool(pairs),
        "floors": floors,
    }
    return pairs, meta


# -- driver ------------------------------------------------------------------------


def _status(lower: int, width: int, within_one: bool) -> str:
    """The status of a verified ``width``, given a sound lower bound and
    whether the width is known to be within one of optimal."""
    return "optimal" if lower >= width else "plus_one" if within_one else "upper_bound"


def _solve_connected(g: Trigraph, policy, search: _Search, report: dict, scan):
    """Solve the connected ``g``, whose scan is ``scan``, into ``report``,
    its status included; returns the sequence, its verified width and
    ``g``'s lower bound."""
    seq, lower, plus_one = _pipeline(g, policy, search, report, scan)
    width = verify(g, seq)
    report["status"] = _status(lower, width, plus_one)
    return seq, width, lower


def _pipeline(g: Trigraph, policy, search: _Search, report: dict, scan):
    """A sequence of the connected ``g``, a lower bound on its twin-width, and
    whether the sequence is within one of optimal by the theory floor;
    ``scan`` is ``g``'s :class:`~twinwidth.structure.ComponentScan` (None if
    ``g`` is empty), unused when ``g`` has red edges."""
    trace = report.setdefault("rules", [])
    if g.has_red():
        # trigraph inputs (e.g. emitted kernels) skip the reduction pipeline,
        # whose rules are stated for plain graphs, and go straight to the
        # exact solver; a sequence's width counts the input's own red degrees
        result = search.optimal(g)
        trace.append({"rule": "exact_trigraph", "width": result.width})
        return result.sequence, result.width if result.optimal else g.max_red_degree(), False
    # one runner plays every stage; ``g`` is connected, and ``solve`` made
    # its scan, which yields its feedback edges, 2-core and dangling trees
    run = _Reduction(g, search, scan, trace)
    report["k"] = len(run.fes)
    run.decide()
    if run.lower >= 2:
        report["tww_at_least_2"] = True
    if run.solved is None and len(run.fes) <= 1:
        trace.append({"rule": "fen1_construction"})
        return _fen1(run), run.lower, False
    if run.solved is not None or (hp := _prune(run)) is None:
        return run.solved, run.lower, False
    hp = _tidy(run, hp)
    tidy = run.work._frozen()
    pairs, meta = _collapse_paths(run, hp)
    report["bikernel"] = meta
    limit = search.config.max_vertices
    if (limit is None or meta["kernel_size"] <= limit) and (
        found := search.first(tidy.replay(pairs)[0], (2,))
    ):
        trace.append({"rule": "bikernel_width2"})
        return run.sequence(pairs + found[1].pairs()), run.lower, False
    pairs, meta = _absorb_and_shorten(run, hp, policy)
    report["general_kernel"] = meta
    result = search.optimal(tidy.replay(pairs)[0])
    trace.append({"rule": "exact_endgame", "kernel_width": result.width})
    seq = run.sequence(pairs + result.sequence.pairs())
    if result.optimal and not meta["shortened"] and run.lower >= 2:
        # the kernel is the reduced instance itself, equivalent to the input
        return seq, max(run.lower, result.width), False
    return seq, run.lower, result.optimal and isinstance(policy, Theory)


def solve(g: Trigraph, policy=DEFAULT_POLICY, config: SolverConfig = DEFAULT_CONFIG):
    """Compute a verified contraction sequence for ``g`` plus a report.

    Disconnected inputs are solved per component and the sequences spliced in
    component-discovery order (twin-width of a disjoint union is the maximum
    over components; no cross-component contractions are emitted); each
    component's fresh labels are those its pairs take in the union.  The
    union's status follows the components' rule, with the largest component
    bound as its lower bound, and within one of optimal iff no component is
    ``upper_bound``."""
    report = {"n": g.n, "policy": _policy_name(policy)}
    search = _Search(config)
    scans = spanning_forest(g)
    if len(scans) <= 1:
        scan = scans[0] if scans else None
        seq, report["width"], _ = _solve_connected(g, policy, search, report, scan)
        return seq, report
    report["components"] = len(scans)
    all_pairs = []
    statuses = []
    lowers = []
    for sub, scan in zip(g.split(s.order for s in scans), scans):
        sub = sub._counted_from(g.next_label + len(all_pairs))
        sub_report = {"n": sub.n, "policy": report["policy"]}
        seq, _, lower = _solve_connected(sub, policy, search, sub_report, scan)
        all_pairs.extend(seq.pairs())
        statuses.append(sub_report["status"])
        lowers.append(lower)
        report.setdefault("rules", []).extend(sub_report["rules"])
    combined = ContractionSequence.build(g, all_pairs)
    report["width"] = verify(g, combined)
    report["status"] = _status(max(lowers), report["width"], "upper_bound" not in statuses)
    return combined, report


def _policy_name(policy) -> str:
    if isinstance(policy, Theory):
        return "theory"
    return f"practical:{policy.floor}"
