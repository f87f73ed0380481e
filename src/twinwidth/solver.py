"""Exact twin-width by memoized width-capped search.

``decide_width_at_most`` answers "is there a contraction sequence of width at
most d" with a certificate, and ``optimal_sequence`` wraps it in iterative
deepening starting from the trivial lower bound (the input's own max red
degree).  The search branches on all live vertex pairs, preferring pairs that
minimize the immediate max red degree, and memoizes failed subproblems by an
exact canonical form of the trigraph, so isomorphic residual instances are
never explored twice.

Internally the trigraph is packed into per-vertex bitmasks; vertex identity
is tracked on the side so certificates come back in the caller's labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BudgetExceeded
from .sequence import ContractionSequence, verify
from .trigraph import Trigraph

CanonicalKey = bytes


@dataclass(frozen=True)
class SolverConfig:
    """Budget knobs.  ``max_vertices`` is a hard refusal; node and time limits
    make ``optimal_sequence`` fall back to an unproven greedy certificate.
    ``threads`` is accepted for compatibility and ignored: the search always
    runs in the calling thread."""

    max_vertices: int = 20
    max_nodes: int | None = None
    time_limit: float | None = None
    threads: int = 1


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

    def max_red(self):
        best = 0
        alive = self.alive
        for i, r in enumerate(self.red):
            if alive >> i & 1:
                c = r.bit_count()
                if c > best:
                    best = c
        return best

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
        out = []
        a = self.alive
        while a:
            low = a & -a
            out.append(low.bit_length() - 1)
            a ^= low
        return out


# -- canonical form ---------------------------------------------------------------


def _refine(cells, black, red, nverts):
    """Stable color refinement of an ordered partition; isomorphism-invariant.

    Vertex signatures count neighbors per cell and per edge color, which
    carries the same information as sorted neighbor-cell multisets."""
    while True:
        ncells = len(cells)
        cid = [0] * nverts
        for ci, cell in enumerate(cells):
            for v in cell:
                cid[v] = ci
        groups = {}
        for ci, cell in enumerate(cells):
            for v in cell:
                bcnt = [0] * ncells
                m = black[v]
                while m:
                    low = m & -m
                    bcnt[cid[low.bit_length() - 1]] += 1
                    m ^= low
                rcnt = [0] * ncells
                m = red[v]
                while m:
                    low = m & -m
                    rcnt[cid[low.bit_length() - 1]] += 1
                    m ^= low
                groups.setdefault((ci, tuple(bcnt), tuple(rcnt)), []).append(v)
        if len(groups) == ncells:
            return cells
        cells = [sorted(groups[s]) for s in sorted(groups)]


def _canon_packed(state: _Packed) -> bytes:
    """Exact canonical encoding of the live subtrigraph up to color-preserving
    isomorphism: refinement plus backtracking over the first splittable cell."""
    slots = state.alive_slots()
    m = len(slots)
    pos = {s: i for i, s in enumerate(slots)}
    # compress masks to live slots 0..m-1
    black = []
    red = []
    for s in slots:
        b = 0
        mask = state.black[s] & state.alive
        while mask:
            low = mask & -mask
            b |= 1 << pos[low.bit_length() - 1]
            mask ^= low
        r = 0
        mask = state.red[s] & state.alive
        while mask:
            low = mask & -mask
            r |= 1 << pos[low.bit_length() - 1]
            mask ^= low
        black.append(b)
        red.append(r)
    # seed the partition with the (black degree, red degree) invariant
    by_deg = {}
    for v in range(m):
        by_deg.setdefault((black[v].bit_count(), red[v].bit_count()), []).append(v)
    start = [sorted(by_deg[k]) for k in sorted(by_deg)]

    best = None

    def encode(perm):
        where = {v: i for i, v in enumerate(perm)}
        buf = bytearray()
        for i in range(m):
            v = perm[i]
            for j in range(i + 1, m):
                u = perm[j]
                if black[v] >> u & 1:
                    buf.append(1)
                elif red[v] >> u & 1:
                    buf.append(2)
                else:
                    buf.append(0)
        return bytes(buf)

    def rec(cells):
        nonlocal best
        cells = _refine(cells, black, red, m)
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

    if m == 0:
        return b""
    rec(start)
    return bytes([m]) + best


def canonical_key(g: Trigraph) -> CanonicalKey:
    """Isomorphism-invariant key: equal keys iff the trigraphs are isomorphic
    as trigraphs (edge colors respected)."""
    return _canon_packed(_Packed.from_trigraph(g))


# -- search -----------------------------------------------------------------------


class _Budget:
    __slots__ = ("nodes_left", "deadline")

    def __init__(self, config: SolverConfig):
        self.nodes_left = config.max_nodes
        self.deadline = (
            time.monotonic() + config.time_limit if config.time_limit else None
        )

    def tick(self):
        if self.nodes_left is not None:
            self.nodes_left -= 1
            if self.nodes_left < 0:
                raise BudgetExceeded(0, 0, kind="nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(0, 0, kind="time")


def _ordered_children(state: _Packed, d: int, next_id: int):
    """Children within the cap, ordered by (immediate max red degree, labels).

    Pairs are vetted with bit arithmetic before any child is materialized:
    the merged vertex's red set is ``(N(u) | N(v)) - (Nb(u) & Nb(v))`` and
    only vertices in it change red degree (by one up, minus dropped edges)."""
    slots = state.alive_slots()
    black = state.black
    red = state.red
    ids = state.ids
    out = []
    for ai in range(len(slots)):
        i = slots[ai]
        bit_i = 1 << i
        for bi in range(ai + 1, len(slots)):
            j = slots[bi]
            bit_j = 1 << j
            pair = bit_i | bit_j
            bu = black[i] & ~bit_j
            bv = black[j] & ~bit_i
            nb = bu & bv
            nr = (bu | bv | (red[i] & ~bit_j) | (red[j] & ~bit_i)) & ~nb
            local = nr.bit_count()
            if local > d:
                continue
            ok = True
            touched = nr
            while touched:
                low = touched & -touched
                x = low.bit_length() - 1
                rx = (red[x] & ~pair).bit_count() + 1
                if rx > d:
                    ok = False
                    break
                if rx > local:
                    local = rx
                touched ^= low
            if not ok:
                continue
            child = state.contract(i, j, next_id)
            mr = child.max_red()
            if mr <= d:
                la, lb = ids[i], ids[j]
                if la > lb:
                    la, lb = lb, la
                out.append((mr, la, lb, i, j, child))
    out.sort(key=lambda t: t[:3])
    return out


def _decide_rec(state: _Packed, d: int, next_id: int, memo: set, budget: _Budget, cache: dict):
    if state.n_alive() == 1:
        return []
    budget.tick()
    raw = (state.alive, state.black, state.red)
    key = cache.get(raw)
    if key is None:
        key = _canon_packed(state)
        cache[raw] = key
    if key in memo:
        return None
    for _, _, _, i, j, child in _ordered_children(state, d, next_id):
        sub = _decide_rec(child, d, next_id + 1, memo, budget, cache)
        if sub is not None:
            return [(i, j, state.ids)] + sub
    memo.add(key)
    return None


def _slots_to_pairs(slot_steps):
    return [(min(ids[i], ids[j]), max(ids[i], ids[j])) for i, j, ids in slot_steps]


def _decide(g: Trigraph, d: int, config: SolverConfig):
    if g.n > config.max_vertices:
        raise BudgetExceeded(g.n, config.max_vertices, kind="vertices")
    if g.max_red_degree() > d:
        return None
    state = _Packed.from_trigraph(g)
    slot_steps = _decide_rec(state, d, g.next_label, set(), _Budget(config), {})
    if slot_steps is None:
        return None
    return ContractionSequence.build(g, _slots_to_pairs(slot_steps))


def decide_width_at_most(g: Trigraph, d: int, config: SolverConfig = DEFAULT_CONFIG):
    """Return a full sequence of width <= d, or None iff none exists.

    Raises :class:`BudgetExceeded` instead of guessing when a budget is hit.
    """
    if d < 0:
        return None
    if g.n == 0:
        return ContractionSequence.build(g, [])
    return _decide(g, d, config)


def greedy_sequence(g: Trigraph) -> ContractionSequence:
    """First-descent sequence: always contract the pair minimizing the
    immediate max red degree, ties by labels.  Deterministic, carries no
    optimality proof; used as the budget-exhausted fallback."""
    state = _Packed.from_trigraph(g)
    pairs = []
    next_id = g.next_label
    while state.n_alive() > 1:
        children = _ordered_children(state, state.n_alive(), next_id)
        _, la, lb, i, j, child = children[0]
        pairs.append((la, lb))
        state = child
        next_id += 1
    return ContractionSequence.build(g, pairs)


def optimal_sequence(g: Trigraph, config: SolverConfig = DEFAULT_CONFIG) -> SolveResult:
    """Minimum-width sequence by iterative deepening from the trivial bound.

    The first cap that admits a sequence is the twin-width, since the previous
    cap was proven impossible (or equals the input's own max red degree).
    """
    if g.n == 0:
        raise BudgetExceeded(0, 1, kind="vertices")
    if g.n > config.max_vertices:
        raise BudgetExceeded(g.n, config.max_vertices, kind="vertices")
    if g.n == 1:
        return SolveResult(0, ContractionSequence.build(g, []), True, "optimal")
    d = g.max_red_degree()
    try:
        while True:
            seq = _decide(g, d, config)
            if seq is not None:
                return SolveResult(d, seq, True, "optimal")
            d += 1
    except BudgetExceeded as exc:
        if exc.kind == "vertices":
            raise
        seq = greedy_sequence(g)
        return SolveResult(verify(g, seq), seq, False, "not_proven")
