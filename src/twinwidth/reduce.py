"""Reduction rules for graphs with few feedback edges.

Each rule either solves the instance outright with a width-2 sequence or
returns a smaller instance together with a :class:`~twinwidth.sequence.Lift`
that turns any full sequence of the smaller instance back into one of the
original, within a certified width bound:

* dangling black stars are cut down to a black stump,
* deeper dangling black trees are cut down to a red stump,
* stump clusters on one vertex are merged until at most one stump (or a
  black-and-half pair) remains,
* pseudo-paths are cleaned into stump-free red paths ("tidied").

Every stage is a list of contraction pairs played on one runner,
:class:`_Reduction`: a plain working copy of the input, one prefix, the
lift's at-least-two flag and the input's lower bound.  Each owner of a
runner runs its up-front width-0/1 check once and then hands it to each
stage body in turn: ``_prune`` (tree and stump rules, then the core/path
decomposition), ``_tidy``, and then either the feedback-edge-one walk
``_fen1`` or the kernels.  The public functions are a fresh runner plus one
body; a :class:`~twinwidth.sequence.Lift` is built only where one is
returned.

The rules contract only tree vertices, so the input is looked at once: the
runner holds the input's one forest scan
(:class:`~twinwidth.structure.ComponentScan`), whose 2-core serves the
up-front check's induced-cycle witness and the decomposition, whose
dangling trees prune cuts, folding each along the scan's child lists, and
only the trees' owners are asked for their stumps.  A public tree rule cuts
only its own scan's trees, and ``prune`` and ``fen1_sequence`` check
connectivity with their scan, whose edges are of both colours.

Only the up-front check bounds the input's twin-width from below, by proofs
about the input: an induced cycle of five or more vertices, the width-0/1
search, or, where the search is skipped or misses, an induced S(2,2,2).
Rules that are only safe at twin-width at least 2 decide width 1 of the
reduced instance while it carries fewer than two red stumps and no such
cycle, and a sequence found solves the input; a refutation proves nothing
about the input, so the guards certify nothing.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import reduce as fold

from .errors import BudgetExceeded, Disconnected, PreconditionViolated
from .sequence import ContractionSequence, Emitter, Lift
from .solver import DEFAULT_CONFIG, SolverConfig, _Search
from .structure import (
    HPGraph,
    ORIGINAL,
    PseudoPath,
    Stump,
    StumpKind,
    StumpSet,
    TIDY,
    _check,
    feedback_edge_set,
    induced_cycle,
    induced_spider,
    red_stump_count,
    spanning_forest,
    stumps_at,
    validate_hp,
)
from .trigraph import EdgeColor, Trigraph


@dataclass
class RuleOutcome:
    """Either ``solved`` holds a full width<=2 sequence of the rule's input,
    or ``instance``/``lift`` describe the reduced instance."""

    solved: ContractionSequence | None = None
    instance: object = None  # Trigraph or HPGraph
    lift: Lift | None = None

    @property
    def is_solved(self):
        return self.solved is not None


# -- tree contraction ----------------------------------------------------------


def _fold(kids, root, pairs: Emitter):
    """Contract everything below ``root`` in the tree that the child lists
    ``kids`` (a scan's, vertex -> children in label order) hang from it into
    a single vertex, emitting the pairs into ``pairs``.

    One depth-first walk takes each vertex's children in order and merges a
    subtree's remnant into its parent's as the subtree returns, so siblings'
    remnants are merged as soon as both exist, which keeps every red degree
    at 2 or below; a leaf is its own remnant.  Returns the label of the
    final merged child, None if the root is a leaf.
    """
    frames = [[root, iter(kids.get(root, ())), None]]
    while True:
        top = frames[-1]
        for u in top[1]:
            if below := kids.get(u):
                frames.append([u, iter(below), None])
                break
            top[2] = u if top[2] is None else pairs.emit(top[2], u)
        else:
            v, _, acc = frames.pop()
            if not frames:
                return acc
            remnant = v if acc is None else pairs.emit(acc, v)
            top = frames[-1]
            top[2] = remnant if top[2] is None else pairs.emit(top[2], remnant)


def tree_sequence(t: Trigraph, root) -> ContractionSequence:
    """Full width<=2 sequence of a black tree where the root is touched only
    by the very last contraction: the tree's scan, rerooted at ``root``,
    folded."""
    t._require_live(root)
    if t.has_red():
        raise PreconditionViolated("tree contraction expects a black trigraph")
    forest = spanning_forest(t)
    if len(forest) > 1 or forest[0].fes:
        raise PreconditionViolated("input is not a connected acyclic black graph")
    forest[0].reroot(root)
    return _tree_sequence(t, forest[0].kids, root)


def _tree_sequence(t: Trigraph, kids, root) -> ContractionSequence:
    """The body of :func:`tree_sequence`, on the child lists ``kids`` of
    ``t`` rooted at ``root``."""
    pairs = Emitter(t.next_label)
    acc = _fold(kids, root, pairs)
    if acc is not None:
        pairs.emit(root, acc)
    return ContractionSequence.build(t, pairs)


def _is_star_at_root(g: Trigraph, tree) -> bool:
    """Whether every tree vertex but the root is a black child of the root:
    a pendant whose one edge is black and goes to the root."""
    _, v = tree.bridge
    return all(g.degree(x) == 1 and v in g.black_neighbors(x) for x in tree.vertices if x != v)


# -- individual rules -------------------------------------------------------------


class _Reduction:
    """The runner of one solve: plays every stage's pairs on a working copy
    of ``g`` into one prefix, with one lift flag.  A tree cut emits its
    fold's pairs into the prefix but does not play them: it applies their
    known end state with ``Trigraph._collapse``, and the verifier's replay
    of the whole sequence is the one full replay of those pairs.

    ``search`` is the solve's exact search (``solver._Search``), ``scan``
    the :class:`~twinwidth.structure.ComponentScan` made once by the caller
    (of the tree's component for a public tree rule, None for public
    ``merge_stumps`` and ``tidy``), ``fes`` and ``core`` its feedback edge
    set and 2-core, and ``trace`` the list the stages append their rule
    events to.  ``_prune`` takes the dangling trees from the scan, and the
    cut folds along its child lists, which prune drops as it goes.
    ``_decide`` makes every width decision, and a sequence found becomes
    ``solved``.  ``decide``, the up-front width-0/1 check of ``g`` made once
    before the first stage, alone sets ``lower``, ``g``'s lower bound.

    A guarded rule, safe only at twin-width >= 2, sets ``at_least_two``, the
    lift's bound, and certifies nothing.  It makes no width-1 decision from
    two red stumps on or with ``witness``, the up-front check's induced
    cycle, which the rules keep, as they contract only tree vertices.

    ``red_stumps`` is kept without a rescan: a tree cut adds one, the folded
    tree, and a stump merge changes only its owner's stumps (``stumps``
    keeps them, as a :class:`~twinwidth.structure.StumpSet`), as long as the
    owner keeps degree >= 3 and so never becomes a stump's inner vertex, as
    every core owner in ``prune`` does.  Star cuts and twin half stumps make
    no red edge.
    """

    def __init__(self, g: Trigraph, search: _Search, scan=None, trace=None):
        self.g = g
        self.work = g._thawed()
        self.search = search
        self.scan = scan
        self.fes = scan.fes if scan is not None else ()
        self.core = scan.core() if self.fes else frozenset()
        self.trace = [] if trace is None else trace
        self.prefix = []
        self.at_least_two = False
        self.lower = 0
        self.witness = None
        self.red_stumps = red_stump_count(g)
        self.stumps = None
        self.solved = None

    def _play(self, pairs):
        self.work._play(pairs)
        self.prefix += pairs
        return self

    def sequence(self, pairs) -> ContractionSequence:
        """The full sequence of ``g``: the prefix, then ``pairs`` of the
        working trigraph."""
        return ContractionSequence.build(self.g, self.prefix + list(pairs))

    def _decide(self, caps):
        """The working trigraph's lower bound by the ascending ``caps``: the
        first with a sequence, which becomes ``solved``, or one above the last
        if all are refuted.  A budget miss raises :class:`BudgetExceeded`."""
        found = self.search.first(self.work, caps)
        if found is None:
            return caps[-1] + 1
        self.solved = self.sequence(found[1].pairs())
        return found[0]

    def decide(self):
        """The up-front width-0/1 check, on a runner that has played nothing,
        and the one writer of ``lower``: an induced cycle of five or more
        vertices closing a feedback edge, kept as ``witness``, proves 2;
        without one the search decides caps 0 and 1, within the vertex
        budget; where it is skipped or misses, an induced S(2,2,2) proves 2,
        and without one an induced P4, read off the scan (an empty input has
        none), proves 1.  A witness records nothing for the search: a
        later search on ``g`` itself, an unshortened kernel, follows the
        bikernel's cap-2 decision on it, which records its own refutation."""
        self.witness = induced_cycle(self.g, self.core, self.fes)
        if self.witness is not None:
            self.lower = 2
            return
        try:
            self.lower = self._decide((0, 1))
        except BudgetExceeded:
            self.lower = 2 if induced_spider(self.g) else 1 if self.scan and self.scan.p4() else 0
        if self.solved is not None:
            self.trace.append({"rule": "solved_by_decision", "width": self.lower})

    def _guard(self, red_change):
        """Finish a guarded rule that changed the red stump count by
        ``red_change``; it may solve ``g``, and it certifies nothing."""
        self.red_stumps += red_change
        self.at_least_two = True
        if self.red_stumps < 2 and self.witness is None:
            with suppress(BudgetExceeded):
                self._decide((1,))
        return self

    def lift(self, child: Trigraph) -> Lift:
        return Lift(self.g, child, tuple(self.prefix), self.at_least_two)

    def outcome(self) -> RuleOutcome:
        if self.solved is not None:
            return RuleOutcome(solved=self.solved)
        cur = self.work._frozen()
        return RuleOutcome(instance=cur, lift=self.lift(cur))

    def _cut(self, tree):
        """Cut ``tree``, a black tree of three or more vertices among the
        scan's trees, to a stump: emit its fold's pairs into the prefix and
        apply their end state, which holds as a scan's tree dangles."""
        v = tree.bridge[1]
        pairs = Emitter(self.work.next_label)
        _fold(self.scan.kids, v, pairs)
        self.prefix += pairs
        self.work._collapse(tree.vertices - {v}, v, len(pairs))
        return self

    def reduce_star(self, tree):
        """Cut the star ``tree`` to a black stump: its leaves are twins."""
        return self._cut(tree)

    def reduce_tree(self, tree):
        """Cut the deeper ``tree`` to a red stump of its core vertex: the
        root is left beside that vertex, of degree >= 2 in the 2-core, and
        the fresh vertex alone, so the guard counts one more red stump."""
        return self._cut(tree)._guard(1)

    def merge_stumps(self, u, stumps: StumpSet):
        """Merge one excess stump of ``u``, whose stumps are ``stumps``, and
        leave its new stumps in ``self.stumps``, derived from the stumps the
        merge consumed and the labels it emitted: a red keeper absorbing a
        victim stays red on its new labels, two black stumps become one red
        stump, and twin halves fold into one half.  Only where ``u`` drops
        below degree 3, so that it may become a stump vertex itself, are its
        stumps read off the trigraph."""
        g = self.work
        red, black, half = stumps
        if (count := len(red) + len(black) + len(half)) < 2:
            raise PreconditionViolated(f"{u} owns {count} stump(s)")
        pairs = Emitter(g.next_label)
        twins = not red and len(half) >= 2
        if red:
            rv, rw = red[0].vertices
            victim = min(red[1:2] + black[:1] + half[:1], key=lambda s: s.vertices)
            if victim.kind is StumpKind.HALF:
                made = Stump(StumpKind.RED, (pairs.emit(victim.vertices[0], rv), rw))
            else:
                v0, w0 = victim.vertices
                w = pairs.emit(w0, rw)
                made = Stump(StumpKind.RED, (pairs.emit(v0, rv), w))
            after = StumpSet(
                red[1 + (victim.kind is StumpKind.RED):] + (made,),
                black[victim.kind is StumpKind.BLACK:],
                half[victim.kind is StumpKind.HALF:],
            )
        elif twins:
            last = fold(pairs.emit, [s.vertices[0] for s in half])
            after = StumpSet((), black, (Stump(StumpKind.HALF, (last,)),))
        elif len(black) >= 2:
            (v1, w1), (v2, w2) = black[0].vertices, black[1].vertices
            w = pairs.emit(w1, w2)
            made = Stump(StumpKind.RED, (pairs.emit(v1, v2), w))
            after = StumpSet((made,), black[2:], half)
        else:
            raise PreconditionViolated(f"{u} owns only the allowed black-and-half pair")
        self._play(pairs)
        if g.degree(u) < 3:
            after = StumpSet.of(stumps_at(g, u))
        self.stumps = after
        if twins:
            return self
        return self._guard(len(after.red) - len(red))


def _public_cut(g: Trigraph, tree, search: _Search):
    """The runner of a public tree rule and the scan's copy of ``tree``,
    matched by bridge and vertices among the trees of a scan of its root's
    component, on a runner made before ``trees`` reroots the scan, since the
    2-core is read off the BFS rooting; the copy's black flag is the
    scan's.  Any other vertex set is refused."""
    v = tree.bridge[1]
    g._require_live(v)
    scan = next(s for s in spanning_forest(g) if v in s.parent)
    run = _Reduction(g, search, scan)
    for own in scan.trees(run.core):
        if (own.bridge, own.vertices) == (tree.bridge, tree.vertices):
            return run, own
    raise PreconditionViolated("tree vertices are not a dangling black tree")


def reduce_star(g: Trigraph, tree) -> RuleOutcome:
    """Replace a dangling black star (>= 2 leaves) by a black stump on its
    attachment vertex.  Lift: contract the leaves (pairwise twins) first, then
    follow the reduced instance's sequence."""
    run, own = _public_cut(g, tree, _Search())
    if len(own.vertices) < 3:
        raise PreconditionViolated("star must have at least two leaves beyond its center")
    if not (own.all_black and _is_star_at_root(g, own)):
        raise PreconditionViolated("star leaves must be black pendants of its center")
    return run.reduce_star(own).outcome()


def reduce_tree(g: Trigraph, tree, config: SolverConfig = DEFAULT_CONFIG) -> RuleOutcome:
    """Cut a dangling black tree with depth >= 2 down to a red stump.

    ``tree``, as for :func:`reduce_star`, must be one of the trees that
    :func:`~twinwidth.structure.find_dangling_trees` returns; any other is
    refused before anything is applied.
    If the candidate trigraph turns out to have twin-width below 2, the rule
    instead solves the input: contract the tree onto its root, then follow the
    candidate's width-1 sequence.
    """
    run, own = _public_cut(g, tree, _Search(config))
    if not own.all_black:
        raise PreconditionViolated("dangling tree must be black")
    if _is_star_at_root(g, own):
        raise PreconditionViolated("tree has no vertex at distance 2 from its root")
    return run.reduce_tree(own).outcome()


def merge_stumps(g: Trigraph, u, config: SolverConfig = DEFAULT_CONFIG) -> RuleOutcome:
    """Merge one excess stump on ``u``: beside a red stump any other stump is
    absorbed into it; half stumps merge pairwise as twins; two black stumps
    become one red stump.  A black-and-half pair is a legal terminal state."""
    run = _Reduction(g, _Search(config))
    return run.merge_stumps(u, StumpSet.of(stumps_at(g, u))).outcome()


def _stump_remnant(stumps, emit):
    """Collapse one owner's non-empty, legal stumps to a single remnant
    vertex through ``emit`` and return it: a half stump is its own remnant,
    a black or red stump contracts its two vertices, and a black-and-half
    pair first folds the half into the black stump."""
    red, black, half = StumpSet.of(stumps)
    if not (red or black):
        return half[0].vertices[0]
    v, w = (red or black)[0].vertices
    if half:
        v = emit(half[0].vertices[0], v)
    return emit(v, w)


# -- tidying pseudo-paths ----------------------------------------------------------


def _tidy_one_path(run: _Reduction, path: PseudoPath):
    """Turn one original pseudo-path into a stump-free red path on the
    runner's working trigraph.

    Returns (new_path_vertices, moved_to_core).
    Interior stumps are contracted onto their path vertex from the leftmost
    stumped vertex outward; the two vertices next to the endpoints instead
    push their last stump remnant onto their inner neighbor, which keeps the
    endpoint edges black.
    """
    verts = path.vertices
    n = len(verts)
    pairs = Emitter(run.work.next_label)
    desc = {v: v for v in verts}
    for idx in range(2, n - 2):
        stumps = path.stumps.get(verts[idx], ())
        if stumps:
            x = _stump_remnant(stumps, pairs.emit)
            desc[verts[idx]] = pairs.emit(desc[verts[idx]], x)
    for idx, inner in ((1, 2), (n - 2, n - 3)):
        stumps = path.stumps.get(verts[idx], ())
        if stumps:
            x = _stump_remnant(stumps, pairs.emit)
            desc[verts[inner]] = pairs.emit(x, desc[verts[inner]])
    work = run._play(pairs).work
    edges = [(desc[verts[i]], desc[verts[i + 1]]) for i in range(1, n - 2)]
    work._redden([e for e in edges if work.color(*e) is EdgeColor.BLACK])
    new_path = tuple(desc[verts[i]] for i in range(3, n - 3))
    moved = {verts[0], verts[n - 1]}
    moved.update(desc[verts[i]] for i in (1, 2, n - 3, n - 2))
    for endpoint in (verts[0], verts[n - 1]):
        for s in path.stumps.get(endpoint, ()):
            moved.update(s.vertices)
    return new_path, moved


def _tidy(run: _Reduction, hp: HPGraph) -> HPGraph:
    """The body of :func:`tidy`: tidy ``hp``, whose trigraph is the runner's
    working trigraph and whose paths are all original, in place."""
    trace = run.trace
    core = set(hp.core)
    new_paths = []
    for path in hp.paths:
        site = list(path.vertices)
        if len(site) <= 6:
            core.update(path.all_vertices())
            trace.append({"rule": "absorb_path", "site": site})
            continue
        new_path, moved = _tidy_one_path(run, path)
        core.update(moved)
        new_paths.append(PseudoPath(new_path, {}, TIDY))
        trace.append({"rule": "tidy_path", "site": site, "kept": list(new_path)})
    return HPGraph(run.work, frozenset(core), new_paths)


def tidy(hp: HPGraph, trace=None):
    """Clean every original pseudo-path: paths of up to 6 vertices are
    absorbed into the core with their stumps (at most 24 vertices each);
    longer ones become red dangling paths whose 3+3 boundary vertices and
    endpoint stumps move into the core.  Returns the tidy decomposition and
    one lift, whose prefix is every path's pairs in turn.  A path of any
    other flavor, an already tidy one included, is refused, as is a
    decomposition that ``validate_hp`` rejects, before any pair is played."""
    for path in hp.paths:
        if path.flavor != ORIGINAL:
            raise PreconditionViolated(f"unknown path flavor {path.flavor}")
    try:
        validate_hp(hp)
    except AssertionError as exc:
        raise PreconditionViolated(f"invalid decomposition: {exc}") from None
    run = _Reduction(hp.g, _Search(), trace=trace)
    out = _tidy(run, hp)
    out.g = run.work._frozen()
    return out, run.lift(out.g)


# -- the pruning pipeline ------------------------------------------------------------


def _component_paths(g: Trigraph, core, hubs):
    """Split core-minus-hubs into ordered degree-2 runs between hub vertices.

    Each run starts at the end whose smallest hub neighbour (its own label
    if it has none) is smaller; runs are listed by their first vertex."""
    inner = core - hubs
    nbrs = {v: [u for u in g.neighbors(v) if u in inner] for v in inner}

    def connector(v):
        return min((u for u in g.neighbors(v) if u in hubs), default=v)

    paths = []
    seen = set()
    for end in sorted(inner):
        if end in seen or len(nbrs[end]) > 1:
            continue
        run, prev = [end], None
        while nxt := [u for u in nbrs[run[-1]] if u != prev]:
            _check(len(nxt) == 1, "core leftover is not a path")
            prev = run[-1]
            run.append(nxt[0])
        seen.update(run)
        if (connector(run[-1]), run[-1]) < (connector(end), end):
            run.reverse()
        paths.append(tuple(run))
    _check(len(seen) == len(inner), "core leftover is not a path")
    return sorted(paths)


def _prune(run: _Reduction) -> HPGraph | None:
    """The body of :func:`prune` on an unsolved runner that has played nothing
    and holds the input's scan.

    Returns the decomposition, whose trigraph is the runner's working
    trigraph, or None with ``run.solved`` set.  The trees and their folds
    come from the scan, and each of its maps is dropped once it has been
    read for the last time: the parent map once the trees are found, the
    child lists once they are cut.
    """
    note = run.trace.append
    g = run.work
    scan = run.scan
    fes = run.fes
    k = len(fes)
    if k == 0:
        # the scan's root is the smallest label
        root = scan.order[0]
        note({"rule": "tree_input", "root": root})
        run.solved = _tree_sequence(run.g, scan.kids, root)
        scan.parent = scan.kids = None
        return None

    def apply(rule, site, *args):
        rule(run, *args)
        solved = run.solved is not None
        note({"rule": rule.__name__ + ("_solved" if solved else ""), "site": site})
        return solved

    core = run.core
    found = scan.trees(core)
    scan.parent = None
    # stars first, then deeper trees; a tree of at most 2 vertices is a stump
    cuts = [(_is_star_at_root(g, c), c) for c in found if len(c.vertices) > 2]
    for star, chunk in sorted(cuts, key=lambda cut: not cut[0]):
        rule = _Reduction.reduce_star if star else _Reduction.reduce_tree
        if apply(rule, chunk.bridge[0], chunk):
            break
    scan.kids = None
    if run.solved is not None:
        return None

    # Every owner is a tree's core vertex and keeps degree >= 3, and a merge
    # on u contracts only u's stump vertices, so no other owner's stumps
    # change: one query per owner serves until its own merges, each of which
    # reports the stumps it leaves.
    owners = sorted({chunk.bridge[0] for chunk in found})
    stumps_map = {u: s for u in owners if (s := stumps_at(g, u))}
    for u, stumps in list(stumps_map.items()):
        owned = StumpSet.of(stumps)
        while not owned.legal():
            if apply(_Reduction.merge_stumps, u, u, owned):
                return None
            owned = run.stumps
        stumps_map[u] = owned.ordered()

    # assemble the decomposition; a feedback edge's endpoints are hubs, so
    # the core degree that makes the other hubs need not leave its edge out
    hubs = {v for e in fes for v in e}
    _check(hubs <= core, "hubs outside the core")
    hubs.update(v for v in core if len(g.neighbors(v) & core) > 2)
    _check(len(hubs) <= 4 * k, "hub bound violated")
    h_vertices = set(hubs)
    for u in hubs:
        for s in stumps_map.get(u, ()):
            h_vertices.update(s.vertices)
    _check(len(h_vertices) <= 16 * k, "core size bound violated")

    runs = _component_paths(g, core, hubs)
    _check(len(runs) <= 4 * k, "path count bound violated")
    paths = [
        PseudoPath(
            verts,
            {v: stumps_map[v] for v in verts if v in stumps_map},
            ORIGINAL,
        )
        for verts in runs
    ]
    hp = HPGraph(g, frozenset(h_vertices), paths)
    validate_hp(hp)
    note({"rule": "decomposed", "core": len(h_vertices), "paths": len(paths)})
    return hp


def _connected_scan(g: Trigraph, message):
    """The one scan of a public entry point: the scan of ``g``'s one
    component, or None if ``g`` is empty.  Raises :class:`Disconnected` with
    ``message`` unless ``g`` is connected, a red edge joining components as a
    black one does."""
    forest = spanning_forest(g)
    if len(forest) > 1:
        raise Disconnected(message)
    return forest[0] if forest else None


def prune(g: Trigraph, config: SolverConfig = DEFAULT_CONFIG, trace=None) -> RuleOutcome:
    """Exhaustively cut dangling trees down to stumps and assemble the
    core/path decomposition.

    Returns either a solved width<=2 sequence of ``g`` (always for acyclic
    inputs, and whenever a width<=1 decision succeeds along the way) or the
    decomposition plus one lift for all its rules.  With ``k`` feedback
    edges the core has at most ``16k`` vertices and there are at most ``4k``
    pseudo-paths.  The up-front width-0/1 decision runs first, within the
    vertex budget.
    """
    scan = _connected_scan(g, "pruning expects a connected graph")
    if g.has_red():
        raise PreconditionViolated("pruning expects a plain (all-black) graph")
    run = _Reduction(g, _Search(config), scan, trace)
    run.decide()
    if run.solved is None and (hp := _prune(run)) is not None:
        hp.g = run.work._frozen()
        return RuleOutcome(instance=hp, lift=run.lift(hp.g))
    return RuleOutcome(solved=run.solved)


# -- feedback edge number one ---------------------------------------------------------


def _fen1(run: _Reduction) -> ContractionSequence:
    """The body of :func:`fen1_sequence` on an unsolved runner that has
    played nothing: prune and tidy it, then walk the cycle.  Its rules are not
    traced; ``solve`` reports the whole construction as one event."""
    run.trace = []
    hp = _prune(run)
    if hp is None:
        return run.solved
    cyc_g = _tidy(run, hp).g
    # the input's one feedback edge ab lies on the cycle, and no rule
    # contracts its ends, the hubs: walk the cycle from b away from a, past
    # each vertex's stumps
    a, b = run.fes[0]
    stumps = {}
    prev, v = a, b
    while v not in stumps:
        owned = stumps[v] = stumps_at(cyc_g, v)
        (nxt,) = cyc_g.neighbors(v) - {prev}.union(*(s.vertices for s in owned))
        prev, v = v, nxt
    pairs = Emitter(cyc_g.next_label)
    pendant = {v: _stump_remnant(stumps[v], pairs.emit) for v in sorted(stumps) if stumps[v]}
    # start at the smallest label, towards its smaller neighbour
    order = list(stumps)
    i = order.index(min(order))
    order = order[i:] + order[:i]
    if order[-1] < order[1]:
        order[1:] = order[:0:-1]
    walker = order[0]
    if order[0] in pendant:
        walker = pairs.emit(pendant[order[0]], order[0])
    for v in order[1:]:
        if v in pendant:
            walker = pairs.emit(pendant[v], walker)
        walker = pairs.emit(walker, v)
    return run.sequence(pairs)


def fen1_sequence(g: Trigraph, config: SolverConfig = DEFAULT_CONFIG) -> ContractionSequence:
    """Full width<=2 sequence for a connected graph with at most one feedback
    edge: prune and tidy down to a single cycle with stumps, merge each
    vertex's stumps into one pendant, then fold pendants and cycle with a
    walker that sweeps around once."""
    scan = _connected_scan(g, "expected a connected graph")
    # a trigraph's black feedback edges are counted before its red edges
    # are the fault
    red = g.has_red()
    k = len(feedback_edge_set(g)) if red else len(scan.fes) if scan else 0
    if k > 1:
        raise PreconditionViolated(f"feedback edge number {k} > 1")
    if red:
        raise PreconditionViolated("pruning expects a plain (all-black) graph")
    run = _Reduction(g, _Search(config), scan)
    run.decide()
    return _fen1(run) if run.solved is None else run.solved
