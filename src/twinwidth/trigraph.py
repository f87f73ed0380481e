"""Immutable trigraphs: vertices joined by black or red edges, plus contraction.

A trigraph is a graph whose edge set is split into two disjoint symmetric
relations, black and red.  Contracting two vertices ``u`` and ``v`` replaces
them by a fresh vertex ``w``; a third vertex ``x`` ends up black-adjacent to
``w`` exactly when it was black-adjacent to both ``u`` and ``v``, and
red-adjacent when it was adjacent to either but the pair was not black-black.
Vertex labels of retired vertices are never reused: every trigraph carries a
monotone counter and the contraction result always gets a fresh label.

All public operations are pure and return new values, whose neighbour sets
are frozensets.  ``replay`` and the reduction runner instead edit a private
working copy made by ``Trigraph._thawed``, which shares the value's
frozensets until it writes: ``Trigraph._play``, ``Trigraph._collapse`` and
``Trigraph._redden`` swap a vertex's frozenset for a private set the first
time they change it, so a copy costs only the vertices it touches.
``_play`` is the one body of the contraction rule.  The runner's tree cuts
do not play their pairs: ``_collapse`` applies the state they end in, and a
sequence's verifier is the one full replay of them.  ``_frozen`` turns a
working copy back into a new value, freezing only its private sets.  Scans
that visit every vertex, such as the one BFS forest scan of ``structure``
that yields the components, the feedback edges, the 2-core and the dangling
trees, read the maps through the read-only :meth:`Trigraph.adjacency`; no
other module touches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat

from .errors import (
    BadEndpoint,
    BadVertexSet,
    DeadVertex,
    DeadVertexAtStep,
    DuplicateEdge,
    SameVertex,
    SelfLoop,
)


# one empty set for every vertex with no neighbours of a colour: a plain
# graph would otherwise hold one empty red set per vertex
_EMPTY = frozenset()


def _freeze(s):
    # a frozenset is its own frozenset: only a private set is copied
    return frozenset(s) if s else _EMPTY


class EdgeColor(Enum):
    BLACK = "black"
    RED = "red"


@dataclass(slots=True)
class Trigraph:
    """A trigraph value.  Use :func:`new_trigraph` to build one.

    Equal iff its maps and counter are, unhashable, slotted.  The
    constructor is private: callers go through new_trigraph / contract /
    replay / induce / split."""

    # vertex -> neighbour frozenset (a set in a working copy), one map per
    # colour, in ascending insertion order so iteration is deterministic
    _black: dict
    _red: dict
    _next_label: int

    # -- construction ---------------------------------------------------------

    @classmethod
    def _build(cls, n, edges):
        """The one trigraph builder: vertices ``0..n-1`` and the items
        ``((u, v), red)`` of ``edges``, each checked as it comes, so that a
        parser can feed its lines straight in.  Only a vertex with a red edge
        gets a red set."""
        black = {v: set() for v in range(n)}
        red = {}
        for (u, v), is_red in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise BadEndpoint(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoop(f"self-loop at {u}")
            bu = black[u]
            if v in bu or (u in red and v in red[u]):
                key = (min(u, v), max(u, v))
                raise DuplicateEdge(f"edge {key} listed twice or in both colors")
            if is_red:
                red.setdefault(u, set()).add(v)
                red.setdefault(v, set()).add(u)
            else:
                bu.add(v)
                black[v].add(u)
        # each set is dropped as soon as it is frozen, so the two copies of
        # the adjacency never coexist whole
        frozen_red = dict.fromkeys(range(n), _EMPTY)
        for v in list(red):
            frozen_red[v] = frozenset(red.pop(v))
        return cls({v: _freeze(black.pop(v)) for v in range(n)}, frozen_red, n)

    # -- basic queries ----------------------------------------------------------

    @property
    def n(self):
        return len(self._black)

    @property
    def next_label(self):
        return self._next_label

    @property
    def vertices(self):
        return tuple(self._black)

    def __contains__(self, v):
        return v in self._black

    def black_neighbors(self, u):
        self._require_live(u)
        return self._black[u]

    def red_neighbors(self, u):
        self._require_live(u)
        return self._red[u]

    def neighbors(self, u):
        self._require_live(u)
        return self._black[u] | self._red[u]

    def adjacency(self):
        """The neighbour maps ``(black, red)``, each vertex -> its neighbours
        of that colour, in vertex order, for scans that visit every vertex:
        they skip the liveness check and the union that :meth:`neighbors`
        makes.  Read-only: the maps and sets are this trigraph's own, so a
        caller must not edit them, and a working copy's change as it plays."""
        return self._black, self._red

    def color(self, u, v):
        """Color of the edge ``uv``, or None if the pair is a non-edge."""
        self._require_live(u)
        self._require_live(v)
        if v in self._black[u]:
            return EdgeColor.BLACK
        if v in self._red[u]:
            return EdgeColor.RED
        return None

    def degree(self, u):
        self._require_live(u)
        return len(self._black[u]) + len(self._red[u])

    def black_degree(self, u):
        self._require_live(u)
        return len(self._black[u])

    def red_degree(self, u):
        self._require_live(u)
        return len(self._red[u])

    def max_red_degree(self):
        return max(map(len, self._red.values()), default=0)

    def black_edge_count(self):
        return sum(len(s) for s in self._black.values()) // 2

    def red_edge_count(self):
        return sum(len(s) for s in self._red.values()) // 2

    def edge_count(self):
        return self.black_edge_count() + self.red_edge_count()

    def has_red(self):
        return any(self._red.values())

    def black_edges(self):
        """Sorted (u, v) pairs with u < v."""
        return _edges(self._black)

    def red_edges(self):
        return _edges(self._red)

    def _require_live(self, u):
        if u not in self._black:
            raise DeadVertex(f"vertex {u} is not live")

    # -- operations ---------------------------------------------------------------

    def contract(self, u, v):
        """Merge ``u`` and ``v`` into a fresh vertex; returns the new trigraph.

        The fresh vertex's label is ``self.next_label``.
        """
        if u == v:
            raise SameVertex(f"cannot contract {u} with itself")
        self._require_live(u)
        self._require_live(v)
        return self.replay(((u, v),))[0]

    def replay(self, pairs):
        """Play the contractions ``pairs`` in order; returns ``(final, width)``.

        Step ``i`` merges its pair into the fresh vertex ``next_label + i``,
        which takes the last place in the vertex order; every other vertex
        keeps its place.  ``width`` is the largest red degree seen, ``self``
        included.  A step naming a dead or repeated vertex raises
        :class:`DeadVertexAtStep`.
        """
        work = self._thawed()
        width = work._play(pairs)
        return work._frozen(), max(self.max_red_degree(), width)

    def _thawed(self):
        """A working copy of this value, which :meth:`_play`,
        :meth:`_collapse` and :meth:`_redden` may edit: it shares this
        value's frozensets, and a write to a vertex first swaps its frozenset
        for a private set.  The receiver must be a value, whose sets are all
        frozen; a working copy is first made one with :meth:`_frozen`."""
        return Trigraph(dict(self._black), dict(self._red), self._next_label)

    def _frozen(self):
        """A new trigraph value equal to this one, which is left as it was:
        the frozensets are shared, and only private sets are frozen."""
        return Trigraph(
            {v: _freeze(s) for v, s in self._black.items()},
            {v: _freeze(s) for v, s in self._red.items()},
            self._next_label,
        )

    def _play(self, pairs):
        """The one body that applies the contraction rule: play ``pairs`` on
        this working copy, as :meth:`replay` describes, and return the largest
        red degree the steps create.  Each step costs only its degrees: a
        black neighbour of the fresh vertex was black to both ends, so only
        its black set changes, and only a red neighbour's red degree grows.
        The merged pair's own sets are only read, and a neighbour's set is
        made private the first time a step writes to it."""
        black = self._black
        red = self._red
        width = 0
        w = self._next_label
        for i, (u, v) in enumerate(pairs):
            if u not in black or v not in black or u == v:
                raise DeadVertexAtStep(i, v if u in black else u)
            bu = black.pop(u)
            bv = black.pop(v)
            black_w = bu & bv
            red_w = set().union(bu, bv, red.pop(u), red.pop(v))
            red_w -= black_w
            red_w.discard(u)
            red_w.discard(v)
            for x in black_w:
                bx = black[x]
                if type(bx) is frozenset:
                    bx = black[x] = set(bx)
                bx.discard(u)
                bx.discard(v)
                bx.add(w)
            for x in red_w:
                bx = black[x]
                if type(bx) is frozenset:
                    bx = black[x] = set(bx)
                rx = red[x]
                if type(rx) is frozenset:
                    rx = red[x] = set(rx)
                bx.discard(u)
                bx.discard(v)
                rx.discard(u)
                rx.discard(v)
                rx.add(w)
                if len(rx) > width:
                    width = len(rx)
            black[w] = black_w
            red[w] = red_w
            if len(red_w) > width:
                width = len(red_w)
            w += 1
        self._next_label = w
        return width

    def _collapse(self, gone, root, steps):
        """Apply the known end state of ``steps`` contractions that merge the
        vertex set ``gone``, which hangs from ``root`` alone, into one vertex,
        without playing them: on this working copy, ``gone`` gives way to the
        fresh vertex ``next_label + steps - 1``, adjacent to ``root`` alone,
        black iff each vertex of ``gone`` is black to it (a star's leaves),
        and the counter moves past it, as :meth:`_play` would leave them.
        Only the neighbours of ``gone`` and of the fresh vertex are written.
        The caller vouches for the end state; a verifier replays the steps."""
        edge = self._black if gone <= self._black[root] else self._red
        for adj in (self._black, self._red):
            for x in gone:
                for y in adj.pop(x):
                    if y not in gone:
                        _private(adj, y).discard(x)
        w = self._next_label + steps - 1
        self._black[w] = self._red[w] = _EMPTY
        edge[w] = frozenset((root,))
        _private(edge, root).add(w)
        self._next_label = w + 1

    def _redden(self, edges):
        """Turn the black edges ``edges`` red on this working copy."""
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                _private(self._black, a).remove(b)
                _private(self._red, a).add(b)

    def induce(self, subset):
        """Induced subtrigraph on ``subset``, preserving labels and the counter."""
        return self.split([subset])[0]

    def split(self, parts):
        """Induced subtrigraphs on the disjoint vertex sets ``parts``, made in
        one pass over the vertices; each equals ``induce(part)``, vertex order
        included."""
        keeps = [frozenset(part) for part in parts]
        where = {v: i for i, keep in enumerate(keeps) for v in keep}
        if len(where) < sum(map(len, keeps)):
            raise BadVertexSet("parts overlap")
        if not where.keys() <= self._black.keys():
            raise BadVertexSet(f"{sorted(where.keys() - self._black.keys())} not live")
        maps = [({}, {}) for _ in keeps]
        for v in self._black:
            i = where.get(v)
            if i is not None:
                black, red = maps[i]
                black[v] = self._black[v] & keeps[i] or _EMPTY
                red[v] = self._red[v] & keeps[i] or _EMPTY
        return [Trigraph(black, red, self._next_label) for black, red in maps]

    def _counted_from(self, next_label):
        """This value with its label counter at ``next_label``, which is at
        least the current counter; the neighbour maps are shared."""
        return Trigraph(self._black, self._red, next_label)

    def __repr__(self):
        return (
            f"Trigraph(n={self.n}, black={self.black_edge_count()}, "
            f"red={self.red_edge_count()})"
        )


def _edges(adj):
    """The sorted pairs ``(u, v)``, ``u < v``, of one neighbour map; a vertex
    with no neighbours of that colour costs no sort."""
    return [(u, v) for u, nbrs in adj.items() if nbrs for v in sorted(nbrs) if u < v]


def _private(adj, v):
    """``v``'s neighbour set in the working map ``adj``, made private first
    if it is still a shared frozenset."""
    s = adj[v]
    if type(s) is frozenset:
        s = adj[v] = set(s)
    return s


def new_trigraph(n, black_edges=(), red_edges=()) -> Trigraph:
    """Create a trigraph with vertices ``0..n-1`` and the given edges.

    A plain graph is a trigraph with no red edges.
    """
    return Trigraph._build(
        n, chain(zip(black_edges, repeat(False)), zip(red_edges, repeat(True)))
    )
