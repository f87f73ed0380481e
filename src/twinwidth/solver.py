"""Exact twin-width by memoized width-capped search.

``decide_width_at_most`` answers "is there a contraction sequence of width at
most d" with a certificate, and ``optimal_sequence`` wraps it in iterative
deepening starting from the trivial lower bound (the input's own max red
degree).  ``kernel.solve`` runs every decision on one private ``_Search``,
which holds the budgets and the caps refuted so far.  The search branches on
all live vertex pairs, preferring pairs that minimize the immediate max red
degree, and never explores a state isomorphic to one it has refuted.
Refuted states are kept raw, and in a failure memo bucketed by an
isomorphism invariant, the sorted (black degree, red degree) pairs of the
live vertices; the exact canonical form is computed only for a state whose
bucket already holds a refuted state, at most once per state.

Internally the trigraph is packed into per-vertex bitmasks; vertex identity
is tracked on the side so certificates come back in the caller's labels.
Each pair's resulting max red degree is computed from the bitmasks alone, so
no child is built before the search descends into it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import count

from .errors import BudgetExceeded
from .sequence import ContractionSequence, verify
from .trigraph import Trigraph

CanonicalKey = bytes


@dataclass(frozen=True)
class SolverConfig:
    """Budget knobs.  ``max_vertices`` is a hard refusal; ``max_nodes`` caps
    each width decision and ``time_limit`` (seconds) a whole solve.  Either
    miss makes ``optimal_sequence`` fall back to an unproven greedy sequence."""

    max_vertices: int = 20
    max_nodes: int | None = None
    time_limit: float | None = None


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class SolveResult:
    width: int
    sequence: ContractionSequence
    optimal: bool
    status: str  # "optimal" or "not_proven"


# -- packed representation ------------------------------------------------------


class _Packed:
    __slots__ = ("black", "red", "alive", "ids")

    def __init__(self, black, red, alive, ids):
        self.black = black  # tuple of bitmasks, index = slot
        self.red = red
        self.alive = alive  # bitmask of live slots
        self.ids = ids  # tuple: slot -> current vertex label

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
        """Merge slots i and j; the merged vertex lands in slot min(i, j)."""
        k, dead = (i, j) if i < j else (j, i)
        bi = self.black[i] & ~(1 << j)
        bj = self.black[j] & ~(1 << i)
        ri = self.red[i] & ~(1 << j)
        rj = self.red[j] & ~(1 << i)
        nb = bi & bj
        nr = (bi | bj | ri | rj) & ~nb
        pair = (1 << i) | (1 << j)
        kbit = 1 << k
        black = list(self.black)
        red = list(self.red)
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
        return _Packed(tuple(black), tuple(red), self.alive & ~(1 << dead), tuple(ids))

    def alive_slots(self):
        return _bits(self.alive)


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
    then its red neighbours', each negated and sorted high to low; singleton
    cells cannot split and are skipped.  The partition starts from (black
    degree, red degree) classes and only ever splits, so within a cell both
    lists have one length, and the keys sort exactly as the vectors of
    neighbour counts per cell and color compared lexicographically."""
    cid = [0] * len(black)
    while True:
        ncells = len(cells)
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
                key = sorted([-cid[x] for x in black[v]], reverse=True)
                key += sorted([-cid[x] for x in red[v]], reverse=True)
                groups.setdefault(tuple(key), []).append(v)
            out += [groups[k] for k in sorted(groups)]
        if len(out) == ncells:
            return cells
        cells = out


def _canon_packed(state: _Packed) -> bytes:
    """Exact canonical encoding of the live subtrigraph up to color-preserving
    isomorphism: refinement plus backtracking over the first splittable cell.

    Works on the slots directly: a dead slot has no bits anywhere, and the
    encoding depends only on the order of the live slots."""
    slots = state.alive_slots()
    m = len(slots)
    if m == 0:
        return b""
    black = state.black
    red = state.red
    bn = [_bits(b) for b in black]
    rn = [_bits(r) for r in red]
    # seed the partition with the (black degree, red degree) invariant
    by_deg = {}
    for v in slots:
        by_deg.setdefault((len(bn[v]), len(rn[v])), []).append(v)
    start = [by_deg[k] for k in sorted(by_deg)]

    best = None
    size = m * (m - 1) // 2
    where = [0] * len(black)

    def encode(perm):
        # the upper triangle row by row: the color (0 none, 1 black, 2 red) of
        # positions i < j sits at row i's offset + j - i - 1
        for i, v in enumerate(perm):
            where[v] = i
        buf = bytearray(size)
        off = -1
        for i, v in enumerate(perm):
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
        return bytes(buf)

    def rec(cells):
        nonlocal best
        cells = _refine(cells, bn, rn)
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            enc = encode([c[0] for c in cells])
            if best is None or enc < best:
                best = enc
            return
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
            rec(cells[:target] + [[v], rest] + cells[target + 1 :])

    rec(start)
    # one byte for m < 255, else an escape byte and m in four bytes, so the
    # prefix alone tells every m apart
    head = bytes([m]) if m < 255 else b"\xff" + m.to_bytes(4, "big")
    return head + best


def canonical_key(g: Trigraph) -> CanonicalKey:
    """Isomorphism-invariant key: equal keys iff the trigraphs are isomorphic
    as trigraphs (edge colors respected)."""
    return _canon_packed(_Packed.from_trigraph(g))


# -- search -----------------------------------------------------------------------


def _ordered_children(state: _Packed, d: int):
    """Pairs whose contraction keeps the max red degree within ``d``, as
    sorted ``(max red, la, lb, i, j)`` tuples: ordered by the child's max red
    degree, then by the pair's labels ``la < lb``; ``i``, ``j`` are slots.

    No child is built here; the caller contracts only the pair it searches.
    The merged vertex's red set is ``nr = (N(u) | N(v)) - (Nb(u) & Nb(v))``,
    each vertex in ``nr`` ends with red degree ``|red(x) - {u, v}| + 1``, and
    every other live vertex keeps its own, the largest of which is read from
    the node's red degrees sorted high to low."""
    slots = state.alive_slots()
    black = state.black
    red = state.red
    ids = state.ids
    by_red = sorted([(red[x].bit_count(), x) for x in slots], reverse=True)
    rows = [(x, 1 << x, black[x], black[x] | red[x]) for x in slots]
    out = []
    for ai, (i, bit_i, bi, ni) in enumerate(rows):
        for j, bit_j, bj, nj in rows[ai + 1 :]:
            pair = bit_i | bit_j
            nr = (ni | nj) & ~(bi & bj | pair)
            mr = nr.bit_count()
            if mr > d:
                continue
            ok = True
            touched = nr
            while touched:
                low = touched & -touched
                rx = (red[low.bit_length() - 1] & ~pair).bit_count() + 1
                if rx > d:
                    ok = False
                    break
                if rx > mr:
                    mr = rx
                touched ^= low
            if not ok:
                continue
            skip = nr | pair
            for rx, x in by_red:
                if not skip >> x & 1:
                    if rx > mr:
                        mr = rx
                    break
            if mr <= d:
                la, lb = ids[i], ids[j]
                if la > lb:
                    la, lb = lb, la
                out.append((mr, la, lb, i, j))
    out.sort()
    return out


def _invariant(state: _Packed, d: int):
    """The sorted (black degree, red degree) pairs of the live slots, each
    packed as ``black * (d + 1) + red``: equal for isomorphic states.

    A search state's red degrees are at most ``d``, so the packing is exact
    there; it is a function of the pairs in any case, which is all the memo
    needs.  Stored as bytes while every code fits in one."""
    black = state.black
    red = state.red
    step = d + 1
    codes = sorted([black[x].bit_count() * step + red[x].bit_count() for x in _bits(state.alive)])
    return bytes(codes) if codes[-1] < 256 else tuple(codes)


def _decide_rec(state: _Packed, d: int, next_id: int, memo: dict, budget: _Search, refuted: set):
    """Search for a width-``d`` finish of ``state``; slot steps or None.

    A success ends the search, so every state met again was refuted: raw
    states ``(alive, black, red)`` found refuted go in ``refuted``.  The
    failure memo maps :func:`_invariant` to the refuted states with that
    invariant: first one raw state, and once a second state looks it up, the
    set of their canonical forms.  So a canonical form is computed only when
    a lookup lands in a non-empty bucket, and at most once per state.  A
    state's descendants have fewer live slots, hence other invariants, so its
    bucket cannot change while its subtree is searched."""
    if state.n_alive() <= 1:
        return []
    budget.tick()
    raw = (state.alive, state.black, state.red)
    if raw in refuted:
        return None
    inv = _invariant(state, d)
    seen = memo.get(inv)
    if seen is not None:
        if type(seen) is tuple:
            alive, black, red = seen
            seen = memo[inv] = {_canon_packed(_Packed(black, red, alive, ()))}
        key = _canon_packed(state)
        if key in seen:
            refuted.add(raw)
            return None
    for _, _, _, i, j in _ordered_children(state, d):
        sub = _decide_rec(state.contract(i, j, next_id), d, next_id + 1, memo, budget, refuted)
        if sub is not None:
            return [(i, j, state.ids)] + sub
    refuted.add(raw)
    if seen is None:
        memo[inv] = raw
    else:
        seen.add(key)
    return None


def _slots_to_pairs(slot_steps):
    return [(min(ids[i], ids[j]), max(ids[i], ids[j])) for i, j, ids in slot_steps]


def _decide(g: Trigraph, d: int, search: _Search):
    """One width decision: a sequence of width <= ``d``, or None iff none."""
    if g.max_red_degree() > d:
        return None
    slot_steps = _decide_rec(_Packed.from_trigraph(g), d, g.next_label, {}, search, set())
    if slot_steps is None:
        return None
    return ContractionSequence.build(g, _slots_to_pairs(slot_steps))


class _Search:
    """The exact search of one solve: one deadline, fixed when it is made, a
    node count reset for each width decision, and ``refuted``, the highest
    cap refuted at each packed root ``(ids, black, red)``."""

    __slots__ = ("config", "deadline", "nodes_left", "refuted")

    def __init__(self, config: SolverConfig = DEFAULT_CONFIG):
        self.config = config
        self.deadline = time.monotonic() + config.time_limit if config.time_limit else None
        self.nodes_left = None
        self.refuted = {}

    def tick(self):
        if self.nodes_left is not None:
            self.nodes_left -= 1
            if self.nodes_left < 0:
                raise BudgetExceeded(0, 0, kind="nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(0, 0, kind="time")

    def first(self, g: Trigraph, caps):
        """``(d, sequence)`` for the first of the ascending ``caps`` that
        admits a sequence, or None.  A cap at or below one refuted on ``g`` is
        refuted, and skipped; a budget miss raises :class:`BudgetExceeded`."""
        if g.n > self.config.max_vertices:
            raise BudgetExceeded(g.n, self.config.max_vertices, kind="vertices")
        packed = _Packed.from_trigraph(g)
        root = (packed.ids, packed.black, packed.red)
        for d in caps:
            if d <= self.refuted.get(root, -1):
                continue
            self.nodes_left = self.config.max_nodes
            seq = _decide(g, d, self)
            if seq is not None:
                return d, seq
            self.refuted[root] = d
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
            return SolveResult(verify(g, seq), seq, False, "not_proven")
        return SolveResult(d, seq, True, "optimal")


def decide_width_at_most(g: Trigraph, d: int, config: SolverConfig = DEFAULT_CONFIG):
    """Return a full sequence of width <= d, or None iff none exists; raises
    :class:`BudgetExceeded` instead of guessing when a budget is hit."""
    found = _Search(config).first(g, (d,))
    return None if found is None else found[1]


def greedy_sequence(g: Trigraph) -> ContractionSequence:
    """First-descent sequence: always contract the pair minimizing the
    immediate max red degree, ties by labels.  Deterministic, carries no
    optimality proof; used as the budget-exhausted fallback.  It is the
    search at cap ``g.n``, where the first child always has a finish."""
    slot_steps = _decide_rec(_Packed.from_trigraph(g), g.n, g.next_label, {}, _Search(), set())
    return ContractionSequence.build(g, _slots_to_pairs(slot_steps))


def optimal_sequence(g: Trigraph, config: SolverConfig = DEFAULT_CONFIG) -> SolveResult:
    """Minimum-width sequence by iterative deepening; see :meth:`_Search.optimal`."""
    return _Search(config).optimal(g)
