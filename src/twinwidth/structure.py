"""Structural analysis: the one forest scan, feedback edges, bridges,
dangling trees and paths, stump recognition, and the core/path decomposition
bookkeeping.

One label-ordered BFS over both colours (:func:`spanning_forest`) is the
package's only component search: it gives each component its vertices and
feedback edges and keeps every vertex's parent and children in label order
(:class:`ComponentScan`).  Two sweeps over that tree yield the 2-core, the
least subtree that spans every feedback edge's ends, and the dangling trees,
the non-core vertices grouped under the core vertex they hang from; the
reduction rules fold each tree along the same child lists, and the bridges
and the up-front check's induced P4 are read off the same tree.

A stump is the 1- or 2-vertex remnant left behind when a dangling tree is cut
down: a half stump is a pendant vertex behind a black edge, a black (red)
stump is a pendant path of two vertices whose outer edge is black (red).  The
core/path decomposition splits a reduced trigraph into a small core and a set
of dangling pseudo-paths, i.e. degree-2 chains whose vertices may carry
stumps.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import NamedTuple

from .trigraph import EdgeColor, Trigraph


def feedback_edge_set(g: Trigraph) -> tuple[tuple[int, int], ...]:
    """Minimum feedback edge set of the black relation, as a sorted tuple of
    ``(u, v)`` pairs with ``u < v``: all non-tree edges of the black
    :func:`spanning_forest`.  Red edges are not read."""
    return tuple(sorted(chain.from_iterable(c.fes for c in spanning_forest(g, black_only=True))))


@dataclass(frozen=True)
class DanglingTree:
    bridge: tuple[int, int]  # (core vertex, tree root)
    vertices: frozenset[int]
    all_black: bool


@dataclass(eq=False, slots=True)
class ComponentScan:
    """One component's tree of :func:`spanning_forest`'s BFS forest.

    ``order`` is the component's vertices in BFS order, ``fes`` its non-tree
    edges, a sorted tuple of ``(u, v)`` with ``u < v``, ``parent`` maps each
    vertex to its tree parent (None at the root) and ``kids`` maps each vertex
    with children to them, in label order.  ``red`` is the red map when the
    scan walked red edges, else None.  The 2-core and the dangling trees are
    derived from the tree, and every dangling tree is folded along ``kids``;
    only the methods, the folds and :func:`find_bridges` read ``parent`` and
    ``kids``, so a holder done with them may drop them.
    """

    order: list
    fes: tuple
    parent: dict
    kids: dict
    red: dict | None

    def core(self) -> frozenset[int]:
        """The component's 2-core: the least subtree of the BFS tree that
        spans every feedback edge's ends, empty if there are none.

        Outside it every vertex lies in a subtree that no non-tree edge
        touches, which repeated removal of leaves deletes; inside it every
        leaf ends a non-tree edge, so no vertex has degree below 2.

        One sweep up the BFS order counts the ends below each vertex and
        stops at the deepest vertex that has them all; every vertex counted
        on the way, that one included, is in the core.  The set is built in
        label order, the order of the vertices."""
        below = dict.fromkeys(chain.from_iterable(self.fes), 1)
        if not below:
            return frozenset()
        ends = len(below)
        parent = self.parent
        for v in reversed(self.order):
            count = below.get(v)
            if count == ends:
                break
            if count:
                p = parent[v]
                below[p] = below.get(p, 0) + count
        return frozenset(sorted(below))

    def p4(self):
        """An induced path on four vertices, in order, or None; it has no
        width-0 sequence.  The first three edges of the BFS path from the root
        to the last vertex form one, since a chord would shorten the path.
        Sound but incomplete: it misses every P4 when the root's eccentricity
        is at most 2, as in a C5.  Reads ``parent``, so it runs before
        ``_prune`` drops the map."""
        parent = self.parent
        path = [self.order[-1]]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path[::-1][:4] if len(path) > 3 else None

    def reroot(self, x):
        """Make ``x`` the root of the BFS tree: each vertex on the path from
        ``x`` up to the old root takes its parent as a child, in label order,
        and gives up the child on the path.  Costs only the path."""
        kids, parent = self.kids, self.parent
        below = None
        while x is not None:
            up = parent[x]
            row = [c for c in kids.get(x, ()) if c != below]
            if up is not None:
                insort(row, up)
            kids[x] = row
            parent[x] = below
            below, x = x, up

    def trees(self, core) -> tuple[DanglingTree, ...]:
        """The dangling trees off the component's 2-core ``core``, sorted by
        core vertex and smallest tree vertex; none if the core is empty.

        A tree is a non-core child of a core vertex with everything below it.
        The tree that holds the BFS root hangs from the topmost core vertex,
        so the BFS tree is first rerooted there, which turns only the path
        between the two; after that ``kids`` lists every tree vertex's
        children in the tree rooted at its bridge vertex."""
        if not core:
            return ()
        kids, parent, red = self.kids, self.parent, self.red
        if self.order[0] not in core:
            top = next(iter(core))
            while parent[top] in core:
                top = parent[top]
            self.reroot(top)
        found = []
        for u in core:
            for v in kids.get(u, ()):
                if v not in core:
                    tree = [v]
                    for x in tree:
                        tree.extend(kids.get(x, ()))
                    # every edge at a tree vertex lies in the tree or is its bridge
                    all_black = red is None or not any(red[x] for x in tree)
                    found.append(DanglingTree((u, v), frozenset(tree), all_black))
        found.sort(key=lambda t: (t.bridge[0], min(t.vertices)))
        return tuple(found)


def spanning_forest(g: Trigraph, black_only=False) -> list[ComponentScan]:
    """The components of ``g``, edges of both colours joining them, from one
    BFS: a list of :class:`ComponentScan`, in discovery order, the order of
    ``g``'s vertices.  Each BFS tree is rooted at its component's smallest
    label and lists each vertex's children in label order.

    With ``black_only`` the search walks the black edges alone, and the
    components are those of the black relation.  A plain graph's red map is
    only checked for edges.  The search records each non-tree edge at its
    smaller end: an edge to a vertex already reached is a tree edge only when
    that vertex is the scanned one's parent, since a vertex reached from the
    scanned one was not reached before.
    """
    black, red = g.adjacency()
    adj, walked = black, None
    if not black_only and any(red.values()):
        adj = {v: black[v] | red[v] for v in black}
        walked = red
    forest = []
    seen = set()
    for root in adj:
        if root in seen:
            continue
        parent = {root: None}
        kids = {}
        order = [root]
        fes = []
        for v in order:
            up = parent[v]
            row = []
            for u in adj[v]:
                if u not in parent:
                    parent[u] = v
                    row.append(u)
                elif u > v and u != up:
                    fes.append((v, u))
            if row:
                row.sort()
                kids[v] = row
                order += row
        fes.sort()
        forest.append(ComponentScan(order, tuple(fes), parent, kids, walked))
        if len(order) == len(adj):
            break
        seen.update(order)
    return forest


def find_bridges(g: Trigraph) -> tuple[tuple[int, int], ...]:
    """All bridges (both edge colors count), read off one scan of both
    colours.  Numbered in a depth-first preorder along ``kids``, each
    subtree holds an interval of numbers, and the tree edge into ``v`` is a
    bridge iff no non-tree edge at ``v``'s subtree reaches a number outside
    ``v``'s interval (Tarjan 1974)."""
    bridges = []
    for scan in spanning_forest(g):
        kids, parent = scan.kids, scan.parent
        pre, stack = [], [scan.order[0]]
        while stack:
            v = stack.pop()
            pre.append(v)
            stack += kids.get(v, ())
        num = {v: i for i, v in enumerate(pre)}
        lo, hi = dict(num), dict(num)
        for a, b in scan.fes:
            lo[a], hi[a] = min(lo[a], num[b]), max(hi[a], num[b])
            lo[b], hi[b] = min(lo[b], num[a]), max(hi[b], num[a])
        size = dict.fromkeys(pre, 1)
        for v in reversed(pre[1:]):
            p = parent[v]
            if lo[v] == num[v] and hi[v] < num[v] + size[v]:
                bridges.append((min(p, v), max(p, v)))
            size[p] += size[v]
            lo[p], hi[p] = min(lo[p], lo[v]), max(hi[p], hi[v])
    return tuple(sorted(bridges))


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


def find_dangling_trees(g: Trigraph) -> tuple[DanglingTree, ...]:
    """Maximal trees hanging off the 2-core, each with its attachment bridge,
    from one scan of both colours (:meth:`ComponentScan.trees`), sorted by
    core vertex and smallest tree vertex.

    Every tree attaches to its component's core by exactly one edge.  An
    acyclic component has none (a tree has no proper "rest" to dangle from).
    """
    found = [t for c in spanning_forest(g) for t in c.trees(c.core())]
    found.sort(key=lambda t: (t.bridge[0], min(t.vertices)))
    return tuple(found)


class StumpKind(Enum):
    HALF = "half"
    BLACK = "black"
    RED = "red"


@dataclass(frozen=True)
class Stump:
    kind: StumpKind
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
                found.append(Stump(StumpKind.HALF, (v,)))
        elif degree == 2 and _stump_owner(g, v) == u:
            (w,) = (bv | rv) - {u}
            kind = StumpKind.RED if w in rv else StumpKind.BLACK
            found.append(Stump(kind, (v, w)))
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
                (nxt,) = g.neighbors(cur) - {prev}
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


def _check(ok, message):
    """Raise :class:`AssertionError` with ``message`` unless ``ok``; unlike
    ``assert``, it also runs under ``python -O``."""
    if not ok:
        raise AssertionError(message)


def validate_hp(hp: HPGraph) -> None:
    """Re-derive the decomposition invariants from scratch; raises on failure."""
    g = hp.g
    covered = set(hp.core)
    for path in hp.paths:
        pv = path.all_vertices()
        _check(covered.isdisjoint(pv), "path overlaps core or another path")
        covered.update(pv)
    _check(covered == set(g.vertices), "core and paths do not partition V")

    for path in hp.paths:
        verts = path.vertices
        for v in verts:
            declared = path.stumps.get(v, ())
            _check(stumps_at(g, v) == tuple(declared), f"stump annotation mismatch at {v}")
        if path.flavor == ORIGINAL:
            for v in verts:
                _check(StumpSet.of(path.stumps.get(v, ())).legal(), f"illegal stump set at {v}")
            for a, b in zip(verts, verts[1:]):
                _check(g.color(a, b) is EdgeColor.BLACK, "original path edge not black")
            for end in (verts[0], verts[-1]):
                for u in g.neighbors(end) & hp.core:
                    _check(g.color(end, u) is EdgeColor.BLACK, "original connector edge not black")
        elif path.flavor == TIDY:
            _check(not any(path.stumps.values()), "tidy path carries stumps")
            for a, b in zip(verts, verts[1:]):
                _check(g.color(a, b) is EdgeColor.RED, "tidy path edge not red")
            for end in (verts[0], verts[-1]):
                for u in g.neighbors(end) & hp.core:
                    _check(g.black_degree(u) == 0, "tidy connector has black edges")
                    outside = [x for x in g.neighbors(u) if x not in hp.core]
                    _check(outside == [end], "tidy connector touches more than one path vertex")
                    in_core = [x for x in g.neighbors(u) if x in hp.core]
                    _check(len(in_core) == 1, "tidy connector needs one core neighbor")
                    _check(
                        g.black_degree(in_core[0]) > 0,
                        "tidy connector's core neighbor has no black edge",
                    )
        else:
            raise AssertionError(f"unknown path flavor {path.flavor}")
