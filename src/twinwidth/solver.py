"""Exact twin-width by width-capped search.

``decide_width_at_most`` answers "is there a contraction sequence of width at
most d" with a certificate, and ``optimal_sequence`` wraps it in iterative
deepening starting from the trivial lower bound (the input's own max red
degree).  ``kernel.solve`` runs every decision on one private ``_Search``,
which holds the budgets and the caps refuted so far.  A node with twins has
one child, its twins contracted: the child is an induced subtrigraph of the
node, so it has a finish iff the node does.  Any other node branches on all
live vertex pairs, preferring pairs that minimize the immediate max red
degree.  Refuted states are kept by partition key, in a set that is cleared
when it reaches a fixed entry cap, so a partition is explored twice only
after a clear; a state that two partitions reach is explored once for each.

A decision packs the trigraph once, into per-vertex bitmasks, and runs every
cap from that one root, each as one loop over an explicit stack that no
recursion limit bounds, expanding every node it builds by one call; vertex
labels ride along, so the search returns its steps as label pairs in the
caller's labels.  Each pair's resulting max red degree is computed from the
bitmasks alone, and a state reached by contractions is named by one integer,
its partition key, the partition of the root's vertices into merged parts,
which a child gets from its parent in one addition.  So a child is built
only when the search tries it, and one refuted by its key is turned away
before its bitmasks are built.  One function, ``_decide_rec``, expands a
node in one pass: it builds the node's near list, the pairs whose merged
vertex would have at most ``d`` red neighbours, and twin-tests and scores
those pairs into the node's ordered children.  The root, which has no parent,
computes every pair; any other node builds its list from its parent's,
recomputing only the pairs around the contracted pair.  A recomputed row for
a vertex ``x`` with more than ``d`` neighbours tries only ``x``'s neighbours
and the vertices sharing a black neighbour with it: any other partner would
leave all of ``x``'s neighbours red.  Scoring a pair reads the largest red
degree outside it from the state's red-degree buckets, which a contraction
updates only for the vertices whose red degree it changes, so no node sorts
its vertices.

Greedy, the fallback of a node or time miss, is the search's first descent at
cap n, walked over the same expansion under a cap that rises from the input's
max red degree only where a node has no child, so each of its nodes scores
only its near list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import count

from .errors import BudgetExceeded
from .sequence import ContractionSequence, verify
from .trigraph import Trigraph

# The most entries a width decision's refuted set holds; a refutation that
# would pass it clears the set first.  Entries, partition keys, took 74-133
# bytes each at 22 vertices (tracemalloc, sets of 1,400-34,000 entries), so
# the set stays under about 35 MB.  Clearing is sound: the search only
# prunes less.
_REFUTED_CAP = 250_000


@dataclass(frozen=True)
class SolverConfig:
    """Budget knobs.  ``max_vertices`` is a hard refusal; ``max_nodes`` caps
    each width decision and ``time_limit`` (seconds) a whole solve; None is
    no limit.  A count is an int (not a bool) of at least 0, and the seconds
    an int or float of at least 0, not NaN; anything else is a ValueError.
    A node or time miss makes ``optimal_sequence`` fall back to an unproven
    greedy sequence."""

    max_vertices: int | None = 20
    max_nodes: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        for name in ("max_vertices", "max_nodes"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 0):
                raise ValueError(f"{name} must be None or an int of at least 0, got {value!r}")
        limit = self.time_limit
        if limit is not None and (type(limit) not in (int, float) or not limit >= 0):
            # not limit >= 0 holds for NaN too
            raise ValueError(f"time_limit must be None or a number of at least 0, got {limit!r}")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class SolveResult:
    """A sequence of width ``width``, of minimum width iff ``optimal``."""

    width: int
    sequence: ContractionSequence
    optimal: bool


# -- packed representation ------------------------------------------------------


class _Packed:
    """A search state: per-slot bitmasks, with the partition key of its parts.

    A state reached from a root by contractions depends only on the
    partition of the root's slots into merged parts, each part living in its
    smallest slot.  ``key`` is ``sum(owner(v) << w * v)`` over the root's
    slots ``v``, ``owner(v)`` the slot of ``v``'s part and ``w`` wide enough
    for every slot number, so equal keys from one root mean equal raw
    states.  ``spread[s]`` is ``sum(1 << w * v)`` over the part in slot
    ``s``, 0 for a slot merged away.  A state built from its bitmasks alone
    is its own root, each slot a part.

    ``buckets`` holds the live slots by red degree, one ``n``-bit bucket per
    degree for ``n`` slots: slot ``x`` with ``r`` red neighbours is bit ``n *
    r + x``.  So the highest set bit names the state's max red degree, and a
    contraction moves only the slots whose red degree it changes.

    A root's ``black``, ``red``, ``ids`` and ``spread`` are tuples, so its
    ``(ids, black, red)`` can key :attr:`_Search.refuted`; a contracted
    state's are lists, made by :meth:`contract` without a copy into tuples."""

    __slots__ = ("black", "red", "alive", "ids", "key", "spread", "buckets")

    def __init__(self, black, red, alive, ids):
        self.black = black  # bitmasks, index = slot
        self.red = red
        self.alive = alive  # bitmask of live slots
        self.ids = ids  # slot -> current vertex label
        n = len(black)
        w = (n - 1).bit_length()
        self.spread = spread = tuple(1 << w * v for v in range(n))
        self.key = sum(v * s for v, s in enumerate(spread))
        buckets = 0
        for x in _bits(alive):
            buckets |= 1 << x << n * red[x].bit_count()
        self.buckets = buckets

    @classmethod
    def from_trigraph(cls, g: Trigraph):
        verts = sorted(g.vertices)
        slot = {v: i for i, v in enumerate(verts)}
        black = [0] * len(verts)
        red = [0] * len(verts)
        for v in verts:
            i = slot[v]
            for u in g.black_neighbors(v):
                black[i] |= 1 << slot[u]
            for u in g.red_neighbors(v):
                red[i] |= 1 << slot[u]
        return cls(tuple(black), tuple(red), (1 << len(verts)) - 1, tuple(verts))

    def n_alive(self):
        return self.alive.bit_count()

    def contract(self, i, j, new_id):
        """Merge slots i and j; the merged vertex lands in slot min(i, j) and
        is labeled ``new_id``.  The child is filled in slot by slot, not
        through ``__init__``, which would recompute its key and buckets."""
        k, dead = (i, j) if i < j else (j, i)
        old = self.red
        bi = self.black[i] & ~(1 << j)
        bj = self.black[j] & ~(1 << i)
        ri = old[i]
        rj = old[j]
        pair = (1 << i) | (1 << j)
        nb = bi & bj
        nr = (bi | bj | ri | rj) & ~(nb | pair)
        kbit = 1 << k
        black = list(self.black)
        red = list(old)
        touched = nb
        while touched:
            low = touched & -touched
            x = low.bit_length() - 1
            black[x] = (black[x] & ~pair) | kbit
            touched ^= low
        touched = nr
        while touched:
            low = touched & -touched
            x = low.bit_length() - 1
            black[x] &= ~pair
            red[x] = (red[x] & ~pair) | kbit
            touched ^= low
        black[k] = nb
        red[k] = nr
        black[dead] = 0
        red[dead] = 0
        ids = list(self.ids)
        ids[k] = new_id
        spread = list(self.spread)
        moved = spread[dead]
        spread[k] += moved
        spread[dead] = 0
        key = self.key + (k - dead) * moved
        # i and j leave their buckets and the merged vertex enters its own; a
        # red neighbour of it gains a red edge if it was red to neither i nor
        # j, and loses one if it was red to both; no other red degree changes
        n = len(old)
        buckets = self.buckets ^ (1 << i << n * ri.bit_count() | 1 << j << n * rj.bit_count())
        buckets |= 1 << k << n * nr.bit_count()
        for step, xs in ((n, nr & ~(ri | rj)), (-n, nr & ri & rj)):
            while xs:
                low = xs & -xs
                was = n * old[low.bit_length() - 1].bit_count()
                buckets ^= low << was | low << was + step
                xs ^= low
        child = object.__new__(_Packed)
        child.black = black
        child.red = red
        child.alive = self.alive & ~(1 << dead)
        child.ids = ids
        child.key = key
        child.spread = spread
        child.buckets = buckets
        return child


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- canonical form ---------------------------------------------------------------


def _refine(cells, black, red):
    """Stable color refinement of an ordered partition; isomorphism-invariant.

    ``black`` and ``red`` list each vertex's neighbours.  A vertex of a cell
    with more than one vertex is keyed by its black neighbours' cell numbers,
    then its red neighbours', each sorted low to high; singleton cells cannot
    split and are skipped.  The partition starts from (black degree, red
    degree) classes and only ever splits, so within a cell both lists have
    one length, and the groups are ordered by their keys high to low, exactly
    as the vectors of neighbour counts per cell and color compared
    lexicographically."""
    cid = [0] * len(black)
    while True:
        for ci, cell in enumerate(cells):
            for v in cell:
                cid[v] = ci
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups = {}
            for v in cell:
                key = sorted([cid[x] for x in black[v]])
                key += sorted([cid[x] for x in red[v]])
                groups.setdefault(tuple(key), []).append(v)
            out += [groups[k] for k in sorted(groups, reverse=True)]
        if len(out) == len(cells):
            return cells
        cells = out


def _canon_packed(state: _Packed) -> bytes:
    """Exact canonical encoding of the live subtrigraph up to color-preserving
    isomorphism: refinement from the (black degree, red degree) classes, plus
    backtracking over the first splittable cell, kept on an explicit stack.

    Works on the slots directly: a dead slot has no bits anywhere, and the
    encoding depends only on the order of the live slots."""
    m = state.n_alive()
    if m == 0:
        return b""
    black = state.black
    red = state.red
    bn = [_bits(b) for b in black]
    rn = [_bits(r) for r in red]
    by_deg = {}
    for v in _bits(state.alive):
        by_deg.setdefault((len(bn[v]), len(rn[v])), []).append(v)

    best = None
    size = m * (m - 1) // 2
    where = [0] * len(black)
    stack = [[by_deg[k] for k in sorted(by_deg)]]
    while stack:
        cells = _refine(stack.pop(), bn, rn)
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            # a discrete partition: the upper triangle row by row, the color
            # (0 none, 1 black, 2 red) of positions i < j at row i's offset
            # + j - i - 1
            for i, cell in enumerate(cells):
                where[cell[0]] = i
            buf = bytearray(size)
            off = -1
            for i, cell in enumerate(cells):
                v = cell[0]
                base = off - i
                for u in bn[v]:
                    j = where[u]
                    if j > i:
                        buf[base + j] = 1
                for u in rn[v]:
                    j = where[u]
                    if j > i:
                        buf[base + j] = 2
                off += m - 1 - i
            if best is None or buf < best:
                best = bytes(buf)
            continue
        cell = cells[target]
        # if swapping u and v (fixing everything else) is an automorphism,
        # their branches yield the same minimum; keep one representative
        reps = []
        for v in cell:
            dup = False
            for u in reps:
                mask = ~((1 << u) | (1 << v))
                if (
                    black[u] & mask == black[v] & mask
                    and red[u] & mask == red[v] & mask
                ):
                    dup = True
                    break
            if dup:
                continue
            reps.append(v)
            rest = [x for x in cell if x != v]
            stack.append(cells[:target] + [[v], rest] + cells[target + 1 :])
    # one byte for m < 255, else an escape byte and m in four bytes, so the
    # prefix alone tells every m apart
    head = bytes([m]) if m < 255 else b"\xff" + m.to_bytes(4, "big")
    return head + best


# -- search -----------------------------------------------------------------------


def _decide_rec(state: _Packed, d: int, origin=None):
    """Expand one node: ``(near, children)``.

    ``near`` is the node's near list: ``(i, j, nr)`` for the pairs of live
    slots ``i < j`` whose merged vertex would have at most ``d`` red
    neighbours, ``nr = (N(i) | N(j)) - (Nb(i) & Nb(j)) - {i, j}``.  A node
    with no parent, ``origin`` None, computes every pair afresh.  Otherwise
    ``origin = (near, parent, a, b)``, where ``state`` is ``parent`` with
    slots ``a`` and ``b`` merged into ``k = min(a, b)`` and ``near`` is the
    parent's near list at the same ``d``.  With ``A = N(a) - {b}`` and ``B =
    N(b) - {a}``, a pair outside ``A | B | {a, b}`` keeps its red set, and a
    pair with one end in ``A ^ B`` and the other outside keeps its size, the
    dead slot's bit replaced by ``k``'s.  Only the pairs touching ``k`` or
    ``A & B`` and the pairs inside ``A ^ B`` are computed afresh, by rows.
    The row of a slot ``x`` whose pairs are all fresh (every live slot at
    the root, ``k`` and ``A & B`` below it) pairs ``x`` with each live slot
    whose row has not been done, but when ``|N(x)| > d`` only with those in
    ``N(x)`` or sharing a black neighbour with ``x``: any other partner
    would leave all of ``N(x)`` red.  The row of a slot of ``A ^ B`` pairs it
    with the later slots of ``A ^ B``.

    ``children`` are the pairs whose contraction keeps the max red degree
    within ``d``, as sorted ``(max red, la, lb, i, j)`` tuples, ordered by
    the child's max red degree, then by the pair's labels ``la < lb``; ``i``,
    ``j`` are slots.  If ``near`` holds twins, slots ``i < j`` with the same
    black and the same red neighbours outside ``{i, j}``, only the first
    twin child is kept, which has a finish iff the node does.  No child is
    built, and each pair is twin-tested and scored in one pass, once a twin
    is found only twins: each vertex in a pair's ``nr`` ends with red degree
    ``|red(x) - {i, j}| + 1``, and every other live vertex keeps its own, the
    largest of which is read from the state's red-degree buckets, from its
    own max red degree down.

    Every node of the search and of greedy, the root's included, is expanded
    through this module global, so rebinding the name sees each one:
    ``twbench/tracing.py`` counts ``solver.nodes`` by this name, which is why
    the search keeps it."""
    black = state.black
    red = state.red
    alive = state.alive
    near = []
    if origin is None:
        fresh, sym = alive, 0
    else:
        inherited, parent, a, b = origin
        k, dead = (a, b) if a < b else (b, a)
        pb = parent.black
        pr = parent.red
        na = (pb[a] | pr[a]) & ~(1 << b)
        nb = (pb[b] | pr[b]) & ~(1 << a)
        dead_bit = 1 << dead
        fresh = na & nb | 1 << k
        drop = fresh | dead_bit
        sym = na ^ nb
        swap = dead_bit | 1 << k
        for e in inherited:
            i, j, nr = e
            pair = 1 << i | 1 << j
            if pair & drop or pair & sym == pair:
                continue
            if nr & dead_bit:
                e = (i, j, nr ^ swap)
            near.append(e)
    rest = alive
    while fresh or sym:
        if fresh:
            low = fresh & -fresh
            fresh ^= low
            rest ^= low
            x = low.bit_length() - 1
            ys = rest
            bx = black[x]
            nx = bx | red[x]
            if nx.bit_count() > d:
                reach = nx
                zs = bx
                while zs:
                    low = zs & -zs
                    reach |= black[low.bit_length() - 1]
                    zs ^= low
                ys &= reach
        else:
            low = sym & -sym
            sym ^= low
            x = low.bit_length() - 1
            ys = sym
            bx = black[x]
            nx = bx | red[x]
        bit_x = 1 << x
        while ys:
            low = ys & -ys
            y = low.bit_length() - 1
            ys ^= low
            by = black[y]
            nr = (nx | by | red[y]) & ~(bx & by | bit_x | low)
            if nr.bit_count() <= d:
                near.append((x, y, nr) if x < y else (y, x, nr))
    if not near:
        return near, []

    ids = state.ids
    buckets = state.buckets
    n = len(red)
    top = (buckets.bit_length() - 1) // n
    twin = False
    children = []
    for i, j, nr in near:
        pair = 1 << i | 1 << j
        if not (black[i] ^ black[j] | red[i] ^ red[j]) & ~pair:
            if not twin:
                twin = True
                children = []
        elif twin:
            continue
        mr = nr.bit_count()
        touched = nr
        while touched:
            low = touched & -touched
            rx = (red[low.bit_length() - 1] & ~pair).bit_count() + 1
            if rx > mr:
                if rx > d:
                    break
                mr = rx
            touched ^= low
        else:
            if top > mr:
                keep = alive & ~(nr | pair)
                for r in range(top, mr, -1):
                    if buckets >> n * r & keep:
                        mr = r
                        break
                if mr > d:
                    continue
            la, lb = ids[i], ids[j]
            if la > lb:
                la, lb = lb, la
            children.append((mr, la, lb, i, j))
    children.sort()
    return near, children[:1] if twin else children


def _search_cap(g: Trigraph, root: _Packed, d: int, budget):
    """One width decision on ``g``, packed as ``root``: a sequence of width
    <= ``d``, or None iff none.

    One loop walks the tree.  ``stack`` holds the current node's ancestors,
    each as a frame of its state, near list, iterator of children left, and
    the labels ``la < lb`` of the child it descended into, so the frames'
    label pairs are the current node's path; a node's key and spread are
    read from its state.  A built child becomes the current node; a node
    whose children run out is refuted, and its parent resumes.  A success
    ends the search, so every state met again was refuted.

    ``refuted`` holds the partition key (see :class:`_Packed`) of each
    refuted state.  Each child tried ticks ``budget`` and is looked up by
    its key, from the node's key and spread; only on a miss is it built,
    in one step.  The root ticks itself.  A refutation that would pass
    ``_REFUTED_CAP`` entries clears the set first."""
    if g.max_red_degree() > d:
        return None
    if root.n_alive() <= 1:
        return ContractionSequence.build(g, [])
    budget.tick()
    refuted, stack = set(), []
    next_id = g.next_label
    state = root
    last = root.n_alive() == 2  # every child has one live slot: a finish
    near, children = _decide_rec(root, d)
    children = iter(children)
    while True:
        for _, la, lb, i, j in children:
            if last:
                return ContractionSequence.build(g, [(f[3], f[4]) for f in stack] + [(la, lb)])
            budget.tick()
            # i < j: j's part moves to i
            if state.key + (i - j) * state.spread[j] in refuted:
                continue
            child = state.contract(i, j, next_id + len(stack))
            stack.append((state, near, children, la, lb))
            near, children = _decide_rec(child, d, (near, state, i, j))
            state, last = child, child.alive.bit_count() == 2
            children = iter(children)
            break
        else:
            if len(refuted) >= _REFUTED_CAP:
                refuted.clear()
            refuted.add(state.key)
            if not stack:
                return None
            state, near, children, _, _ = stack.pop()
            last = False  # it built a child, so it has three live slots or more


class _Search:
    """The exact search of one solve: one deadline, fixed when it is made, a
    node count reset for each width decision, and ``refuted``, the highest
    cap its own searches refuted at each packed root, keyed by its ``(ids,
    black, red)``, so a later decision on the same trigraph skips them."""

    __slots__ = ("config", "deadline", "nodes_left", "refuted")

    def __init__(self, config: SolverConfig = DEFAULT_CONFIG):
        self.config = config
        limit = config.time_limit
        self.deadline = None if limit is None else time.monotonic() + limit
        self.nodes_left = None
        self.refuted = {}

    def tick(self):
        if self.nodes_left is not None:
            self.nodes_left -= 1
            if self.nodes_left < 0:
                cap = self.config.max_nodes
                raise BudgetExceeded(cap + 1, cap, kind="nodes")
        if self.deadline is not None and (now := time.monotonic()) > self.deadline:
            # the seconds elapsed in whole ms, or the first ms above the limit
            # when the overrun rounds away
            limit = self.config.time_limit
            elapsed = round(now - self.deadline + limit, 3)
            if elapsed <= limit:
                elapsed = round(elapsed + 0.001, 3)
            raise BudgetExceeded(elapsed, limit, kind="time")

    def first(self, g: Trigraph, caps):
        """``(d, sequence)`` for the first of the ascending ``caps`` that
        admits a sequence, or None.  A cap at or below one refuted on ``g`` is
        refuted, and skipped; a budget miss raises :class:`BudgetExceeded`."""
        limit = self.config.max_vertices
        if limit is not None and g.n > limit:
            raise BudgetExceeded(g.n, limit, kind="vertices")
        root = _Packed.from_trigraph(g)
        key = root.ids, root.black, root.red
        for d in caps:
            if d <= self.refuted.get(key, -1):
                continue
            self.nodes_left = self.config.max_nodes
            seq = _search_cap(g, root, d, self)
            if seq is not None:
                return d, seq
            self.refuted[key] = d
        return None

    def optimal(self, g: Trigraph) -> SolveResult:
        """Minimum-width sequence by iterative deepening from ``g``'s max red
        degree: every cap below the first that admits a sequence is refuted.
        A node or time miss falls back to the greedy sequence, unproven."""
        try:
            d, seq = self.first(g, count(g.max_red_degree()))
        except BudgetExceeded as exc:
            if exc.kind == "vertices":
                raise
            seq = greedy_sequence(g)
            return SolveResult(verify(g, seq), seq, False)
        return SolveResult(d, seq, True)


def decide_width_at_most(g: Trigraph, d: int, config: SolverConfig = DEFAULT_CONFIG):
    """Return a full sequence of width <= d, or None iff none exists; raises
    :class:`BudgetExceeded` instead of guessing when a budget is hit."""
    found = _Search(config).first(g, (d,))
    return None if found is None else found[1]


def greedy_sequence(g: Trigraph) -> ContractionSequence:
    """First-descent sequence: always contract the pair minimizing the
    immediate max red degree, ties by labels, among the twin pairs if there
    are any.  Deterministic, carries no optimality proof; used as the
    budget-exhausted fallback.  It reads no clock.

    It is the search's first descent at cap ``g.n``, taken as a descent
    under a rising cap ``d``, from ``g``'s max red degree: each node takes
    the first of its children at cap ``d``, its near list inherited from its
    parent, and a node with none raises ``d`` by one and is expanded again
    from scratch.  A pair whose child has max red degree at most ``d`` has
    at most ``d`` red neighbours after the merge, so it is in the cap-``d``
    near list; the first child at the lowest cap that has one is the first
    at cap ``g.n``.  Every twin pair's child is within the node's own max
    red degree, so twins come first at every cap."""
    state = _Packed.from_trigraph(g)
    d = g.max_red_degree()
    next_id = g.next_label
    pairs = []
    origin = None
    while state.n_alive() > 1:
        near, children = _decide_rec(state, d, origin)
        while not children:
            d += 1
            near, children = _decide_rec(state, d)
        _, la, lb, i, j = children[0]
        pairs.append((la, lb))
        origin = (near, state, i, j)
        state = state.contract(i, j, next_id + len(pairs) - 1)
    return ContractionSequence.build(g, pairs)


def optimal_sequence(g: Trigraph, config: SolverConfig = DEFAULT_CONFIG) -> SolveResult:
    """Minimum-width sequence by iterative deepening; see :meth:`_Search.optimal`."""
    return _Search(config).optimal(g)
