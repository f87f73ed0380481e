"""Structural analysis: feedback edges, bridges, dangling trees and paths,
stump recognition, and the core/path decomposition bookkeeping.

A stump is the 1- or 2-vertex remnant left behind when a dangling tree is cut
down: a half stump is a pendant vertex behind a black edge, a black (red)
stump is a pendant path of two vertices whose outer edge is black (red).  The
core/path decomposition splits a reduced trigraph into a small core and a set
of dangling pseudo-paths, i.e. degree-2 chains whose vertices may carry
stumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import NamedTuple

from .errors import Disconnected, PreconditionViolated
from .trigraph import EdgeColor, Trigraph, is_connected


def feedback_edge_set(g: Trigraph, ignore_red=False) -> tuple[tuple[int, int], ...]:
    """Minimum feedback edge set, as a sorted tuple of ``(u, v)`` pairs with
    ``u < v``: all non-tree edges of :func:`spanning_forest`'s BFS forest.

    Works on the black relation; red edges must be absent unless
    ``ignore_red`` is set.
    """
    return tuple(sorted(chain.from_iterable(fes for _, fes in spanning_forest(g, ignore_red))))


def spanning_forest(g: Trigraph, ignore_red=False):
    """The components of ``g``'s black relation and their feedback edges, from
    one BFS: a list of ``(component, fes)``, in discovery order (on a plain
    graph, the order of :func:`~twinwidth.trigraph.connected_components`).
    Each BFS tree is rooted at its component's smallest label and visits
    neighbours in label order; ``component`` is its vertices in that order,
    and ``fes`` its non-tree edges, a sorted tuple of ``(u, v)`` with
    ``u < v``.

    Red edges must be absent unless ``ignore_red`` is set.  The search
    records each non-tree edge at its smaller end: an edge to a vertex
    already reached is a tree edge only when that vertex is the scanned
    one's parent, since a vertex reached from the scanned one was not
    reached before.
    """
    black, red = g.adjacency()
    if not ignore_red and any(red.values()):
        raise PreconditionViolated("input has red edges; pass ignore_red=True")
    parent = {}
    forest = []
    for root in black:
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        fes = []
        for v in queue:
            up = parent[v]
            for u in sorted(black[v]):
                if u not in parent:
                    parent[u] = v
                    queue.append(u)
                elif u > v and u != up:
                    fes.append((v, u))
        fes.sort()
        forest.append((queue, tuple(fes)))
    return forest


def find_bridges(g: Trigraph) -> tuple[tuple[int, int], ...]:
    """All bridges (both edge colors count), by iterative low-link."""
    if not is_connected(g):
        raise Disconnected("bridge computation expects a connected graph")
    preorder = {}
    low = {}
    bridges = []
    counter = 0
    for root in g.vertices:
        if root in preorder:
            continue
        stack = [(root, None, iter(sorted(g.neighbors(root))))]
        preorder[root] = low[root] = counter
        counter += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for u in it:
                if u not in preorder:
                    preorder[u] = low[u] = counter
                    counter += 1
                    stack.append((u, v, iter(sorted(g.neighbors(u)))))
                    advanced = True
                    break
                elif u != parent:
                    low[v] = min(low[v], preorder[u])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] == preorder[v]:
                        bridges.append((min(p, v), max(p, v)))
    return tuple(sorted(bridges))


def two_core(g: Trigraph) -> frozenset[int]:
    """Vertices surviving repeated removal of degree <= 1 vertices."""
    black, red = g.adjacency()
    deg = {v: len(black[v]) + len(red[v]) for v in black}
    removed = set()
    stack = [v for v, d in deg.items() if d <= 1]
    while stack:
        v = stack.pop()
        if v in removed:
            continue
        removed.add(v)
        for nbrs in (black[v], red[v]):
            for u in nbrs:
                if u not in removed:
                    deg[u] -= 1
                    if deg[u] <= 1:
                        stack.append(u)
    return frozenset(v for v in black if v not in removed)


def induced_cycle(g: Trigraph, core, fes):
    """An induced cycle of at least five vertices that closes a feedback
    edge, as its vertices in order, or None if no edge of ``fes`` closes one.

    For a feedback edge ``ab``, a shortest ``a``-``b`` path in the 2-core
    ``core`` minus ``ab`` closes an induced cycle, since a chord would give a
    shorter path; a simple ``a``-``b`` path never enters a dangling tree, so
    the distance is the whole graph's.  Its length is dist(a, b) + 1, and an
    induced cycle of five or more vertices certifies twin-width >= 2, since
    twin-width is monotone under induced subgraphs.  Each search stops where
    it reaches ``b``, so one that finds no cycle ends within distance 3 of
    ``a``: O(k * (|core| + core edges)) in all."""
    for a, b in fes:
        parent = {a: None}
        layer = [a]
        depth = 0
        while layer and b not in parent:
            depth += 1
            nxt = []
            for v in layer:
                for u in g.neighbors(v):
                    if u in core and u not in parent and (v != a or u != b):
                        parent[u] = v
                        nxt.append(u)
            layer = nxt
        if depth >= 4 and b in parent:
            path = [b]
            while path[-1] != a:
                path.append(parent[path[-1]])
            return path[::-1]
    return None


def induced_spider(g: Trigraph):
    """An induced S(2,2,2), legs ``c-a-b`` on a centre ``c``, as ``(c, a1, b1,
    a2, b2, a3, b3)``, or None; it has no width-1 sequence.  Each centre takes
    the first legs that touch neither it nor an earlier leg, trying two
    neighbours of each ``a`` as ``b``, so on a tree a spider is found iff there
    is one.  No neighbourhood is sorted, and each is read once: O(n + m)."""
    for c in g.vertices:
        if g.degree(c) < 3:
            continue
        near = g.neighbors(c)
        legs = []
        for a in near:
            for b in islice(chain(g.black_neighbors(a), g.red_neighbors(a)), 2):
                if b != c and b not in near and b not in legs and all(
                    g.color(x, y) is None for x in (a, b) for y in legs
                ):
                    legs += (a, b)
                    break
            if len(legs) == 6:
                return (c, *legs)
    return None


def induced_p4(g: Trigraph):
    """An induced path on four vertices, in order, or None; it has no width-0
    sequence.  One breadth-first search from the smallest vertex: the first
    three edges of a shortest path to a vertex at distance 3 or more form an
    induced P4, since a chord would shorten the path.  Sound but incomplete:
    it misses every P4 when that vertex's eccentricity is at most 2, as in
    every graph of diameter 2.  O(n + m)."""
    if not g.n:
        return None
    a = min(g.vertices)
    parent = {a: None}
    queue = [a]
    for v in queue:
        for u in g.neighbors(v):
            if u not in parent:
                parent[u] = v
                queue.append(u)
    path = [queue[-1]]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1][:4] if len(path) > 3 else None


@dataclass(frozen=True)
class DanglingTree:
    bridge: tuple[int, int]  # (core vertex, tree root)
    vertices: frozenset[int]
    all_black: bool


def find_dangling_trees(g: Trigraph) -> tuple[DanglingTree, ...]:
    """Maximal trees hanging off the 2-core, each with its attachment bridge.

    Every peeled component attaches to the core by exactly one edge.  Empty
    when the graph is acyclic (a tree has no proper "rest" to dangle from).
    """
    if not is_connected(g):
        raise Disconnected("dangling-tree detection expects a connected graph")
    return _dangling_trees(g, two_core(g))


def _dangling_trees(g: Trigraph, core) -> tuple[DanglingTree, ...]:
    """The body of :func:`find_dangling_trees` on a connected ``g`` whose
    2-core is ``core``."""
    if not core:
        return ()
    black, red = g.adjacency()
    seen = set()
    trees = []
    for start in black:
        if start in core or start in seen:
            continue
        comp = []
        attach = []
        all_black = True
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            # every edge at a tree vertex lies in the tree or is its bridge
            all_black = all_black and not red[v]
            for nbrs in (black[v], red[v]):
                for u in nbrs:
                    if u in core:
                        attach.append((u, v))
                    elif u not in seen:
                        seen.add(u)
                        stack.append(u)
        assert len(attach) == 1, "peeled component with multiple core edges"
        trees.append(DanglingTree(attach[0], frozenset(comp), all_black))
    trees.sort(key=lambda t: (t.bridge[0], min(t.vertices)))
    return tuple(trees)


class StumpKind(Enum):
    HALF = "half"
    BLACK = "black"
    RED = "red"


@dataclass(frozen=True)
class Stump:
    kind: StumpKind
    owner: int
    vertices: tuple[int, ...]  # (pendant,) or (inner, outer)


class StumpSet(NamedTuple):
    """One owner's stumps split by kind, each kind sorted by vertex tuple.

    A stump merge reads only the kinds' first stumps, and its new stump's
    fresh labels sort it last, so it derives the owner's next set in a fixed
    number of steps, with no scan of the owner's neighbourhood; only the
    tuple slices copy the stumps it leaves.
    """

    red: tuple[Stump, ...]
    black: tuple[Stump, ...]
    half: tuple[Stump, ...]

    @classmethod
    def of(cls, stumps):
        """The set of the stumps ``stumps``, sorted by vertex tuple."""
        return cls(*(
            tuple(s for s in stumps if s.kind is kind)
            for kind in (StumpKind.RED, StumpKind.BLACK, StumpKind.HALF)
        ))

    def legal(self) -> bool:
        """A lone red stump, or at most one black and one half stump."""
        if self.red:
            return len(self.red) == 1 and not self.black and not self.half
        return len(self.black) <= 1 and len(self.half) <= 1

    def ordered(self) -> tuple[Stump, ...]:
        """All the stumps, sorted by vertex tuple, as :func:`stumps_at`."""
        return tuple(sorted(self.red + self.black + self.half, key=lambda s: s.vertices))


def _stump_owner(g: Trigraph, v):
    """The owner of the two-vertex stump whose inner vertex is ``v``, or None.

    ``v`` has degree 2, one neighbour (the outer vertex) is a pendant, and the
    other (the owner) is a black neighbour that is not a pendant itself.
    """
    black, red = g.adjacency()
    bv, rv = black[v], red[v]
    if len(bv) + len(rv) != 2:
        return None
    a, b = (*bv, *rv)
    for owner, outer in ((a, b), (b, a)):
        if (
            owner in bv
            and len(black[outer]) + len(red[outer]) == 1
            and len(black[owner]) + len(red[owner]) > 1
        ):
            return owner
    return None


def stumps_at(g: Trigraph, u) -> tuple[Stump, ...]:
    """The stumps owned by ``u``, sorted by vertex tuple; a vertex that is not
    live owns none.  Reads only ``u``'s neighbours and theirs.

    A black neighbour ``v`` of degree 2 whose other neighbour ``w`` is a
    pendant makes the two-vertex stump ``(v, w)``, black or red by the color
    of ``vw``.  A black pendant ``v`` is a half stump, unless ``u`` is itself
    the inner vertex of a neighbour's two-vertex stump.
    """
    if u not in g:
        return ()
    black, red = g.adjacency()
    inner = _stump_owner(g, u) is not None
    found = []
    for v in black[u]:
        bv, rv = black[v], red[v]
        degree = len(bv) + len(rv)
        if degree == 1:
            if not inner:
                found.append(Stump(StumpKind.HALF, u, (v,)))
        elif degree == 2 and _stump_owner(g, v) == u:
            (w,) = (bv | rv) - {u}
            kind = StumpKind.RED if w in rv else StumpKind.BLACK
            found.append(Stump(kind, u, (v, w)))
    return tuple(sorted(found, key=lambda s: s.vertices))


def classify_stumps(g: Trigraph) -> dict[int, tuple[Stump, ...]]:
    """Every owner's :func:`stumps_at`, by ascending owner label.

    Stump vertex sets never overlap.  An owner of degree 1 owns no two-vertex
    stump, so on a 3-vertex path the centre owns its black ends as half
    stumps, whatever the labels.
    """
    return {u: s for u in sorted(g.vertices) if (s := stumps_at(g, u))}


def red_stump_count(g: Trigraph) -> int:
    """Number of red stumps, found from the red edges alone: a red edge whose
    one end is the inner vertex of a two-vertex stump."""
    return sum(
        _stump_owner(g, a) is not None or _stump_owner(g, b) is not None
        for a, b in g.red_edges()
    )


def find_dangling_paths(g: Trigraph) -> tuple[tuple[int, ...], ...]:
    """Maximal runs of degree-2 vertices between vertices of other degree.

    Each run is reported once, oriented away from its smaller-labeled anchor.
    Components that are pure cycles (everything degree 2) yield nothing.
    """
    used = set()
    paths = []
    anchors = [v for v in g.vertices if g.degree(v) != 2]
    for a in anchors:
        for b in sorted(g.neighbors(a)):
            if g.degree(b) != 2 or b in used:
                continue
            run = [b]
            used.add(b)
            prev, cur = a, b
            while True:
                nxt = [x for x in g.neighbors(cur) if x != prev]
                if len(nxt) != 1:
                    break
                nxt = nxt[0]
                if g.degree(nxt) != 2 or nxt in used:
                    break
                run.append(nxt)
                used.add(nxt)
                prev, cur = cur, nxt
            paths.append(tuple(run))
    return tuple(paths)


# -- core/path decomposition -------------------------------------------------------

ORIGINAL = "original"
TIDY = "tidy"


@dataclass
class PseudoPath:
    vertices: tuple[int, ...]
    stumps: dict[int, tuple[Stump, ...]] = field(default_factory=dict)
    flavor: str = ORIGINAL

    def all_vertices(self) -> set[int]:
        out = set(self.vertices)
        for stumps in self.stumps.values():
            for s in stumps:
                out.update(s.vertices)
        return out

    def __len__(self):
        return len(self.vertices)


@dataclass
class HPGraph:
    """A trigraph split into a small core and dangling pseudo-paths.

    ``core`` holds the core vertices including the stump vertices attached to
    them; every other vertex belongs to exactly one pseudo-path (or to a stump
    annotated on one).
    """

    g: Trigraph
    core: frozenset[int]
    paths: list[PseudoPath]


def validate_hp(hp: HPGraph) -> None:
    """Re-derive the decomposition invariants from scratch; raises on failure."""
    g = hp.g
    covered = set(hp.core)
    for path in hp.paths:
        pv = path.all_vertices()
        assert covered.isdisjoint(pv), "path overlaps core or another path"
        covered.update(pv)
    assert covered == set(g.vertices), "core and paths do not partition V"

    for path in hp.paths:
        verts = path.vertices
        for v in verts:
            declared = path.stumps.get(v, ())
            assert stumps_at(g, v) == tuple(declared), (
                f"stump annotation mismatch at {v}"
            )
        if path.flavor == ORIGINAL:
            for v in verts:
                assert StumpSet.of(path.stumps.get(v, ())).legal(), (
                    f"illegal stump set at {v}"
                )
            for a, b in zip(verts, verts[1:]):
                assert g.color(a, b) is EdgeColor.BLACK, "original path edge not black"
            for end in (verts[0], verts[-1]):
                for u in g.neighbors(end):
                    if u in hp.core:
                        assert g.color(end, u) is EdgeColor.BLACK, (
                            "original connector edge not black"
                        )
        elif path.flavor == TIDY:
            assert not path.stumps or all(not v for v in path.stumps.values()), (
                "tidy path carries stumps"
            )
            for a, b in zip(verts, verts[1:]):
                assert g.color(a, b) is EdgeColor.RED, "tidy path edge not red"
            for end in (verts[0], verts[-1]):
                connectors = [u for u in g.neighbors(end) if u in hp.core]
                for u in connectors:
                    assert g.black_degree(u) == 0, "tidy connector has black edges"
                    nbrs_outside = [
                        x for x in g.neighbors(u) if x not in hp.core
                    ]
                    assert nbrs_outside == [end] or set(nbrs_outside) == {end}, (
                        "tidy connector touches more than one path vertex"
                    )
                    in_core = [x for x in g.neighbors(u) if x in hp.core]
                    assert len(in_core) == 1, "tidy connector needs one core neighbor"
                    assert g.black_degree(in_core[0]) > 0, (
                        "tidy connector's core neighbor has no black edge"
                    )
        else:
            raise AssertionError(f"unknown path flavor {path.flavor}")
