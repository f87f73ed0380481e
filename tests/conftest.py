"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's optimized code paths:
``contract_oracle`` rebuilds a contraction from scratch by classifying every
third vertex by its color pair, ``replay_oracle`` chains it one pair at a
time, ``validate`` checks a trigraph's invariants, ``bags`` maps each vertex
of a sequence's play to the original vertices merged into it, ``feedback_edge_set_oracle``, ``connected_components_oracle``,
``two_core_oracle`` and ``find_dangling_trees_oracle`` scan through the
public per-vertex queries and filter the black edges by a tree-edge set,
``classify_stumps_oracle`` classifies the
stumps of the whole trigraph in two claiming passes,
``canon_packed_oracle`` compresses the live slots and refines by per-cell
neighbour counts (``iso_key`` is its isomorphism key of a trigraph),
``near_oracle`` computes every pair's red set with no filter,
``ordered_children_oracle`` builds every pair's child,
``shorten_oracle`` scans every consecutive pair of a path for the lowest
before each merge, ``absorb_and_shorten_oracle`` is the general kernel's
absorb loop, which recomputes the floor from the core each round, ``fold_oracle`` folds a black tree by a depth-first walk
that sorts every neighbourhood and keeps a reached set,
``twin_pairs_oracle`` finds twins by comparing a contraction with the two
deletions, ``node_children_oracle`` keeps a twin node's first twin child
alone, ``decide_rec_oracle`` searches with twin-first branching and a
set of refuted partitions of the root's slots, and
``naive_optimal_width`` tries every contraction sequence with no pruning,
once per partition into bags.
``load_script`` loads a script of the repository by its path.
"""

import functools
import importlib.util
import itertools
from pathlib import Path

import pytest

from twinwidth.errors import DeadVertexAtStep
from twinwidth.sequence import Emitter
from twinwidth.trigraph import EdgeColor, Trigraph, new_trigraph
from twinwidth.solver import _Packed, _bits
from twinwidth.structure import (
    DanglingTree,
    Stump,
    StumpKind,
    feedback_edge_set,
    induced_cycle,
    spanning_forest,
)


# -- fixed instances -----------------------------------------------------------


def make_fig2():
    """Six-vertex graph contracted at width 2 by the worked example:
    vertices A..F = 0..5, black edges AB, AC, BC, BD, CE, CF, DE, EF."""
    return new_trigraph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (4, 5)])


FIG2_PAIRS = [(4, 5), (0, 1), (2, 3), (8, 6), (7, 9)]  # (E,F),(A,B),(C,D),(CD,EF),(AB,CDEF)


def make_fig3():
    """54-vertex graph with feedback edge number 2: two triangles joined by a
    17-vertex path, with eleven dangling trees of assorted shapes.

    Layout: 0..5 core (A, B, C, D, E, F), 6..22 the path, 23..53 tree
    vertices.  Pruning cuts the trees down to: black stump + half at 0,
    red stump at 3, black stump + half at 6, red stumps at 10, 16, 22, and a
    half stump at 18.
    """
    edges = [(0, 1), (2, 3), (0, 4), (3, 5), (1, 4), (2, 5)]
    edges += [(4, 6)] + [(i, i + 1) for i in range(6, 22)] + [(22, 5)]
    edges += [(0, 23)] + [(23, x) for x in (24, 25, 26, 27, 28)]
    edges += [(0, 29)]
    edges += [(3, 30), (30, 31), (31, 32), (31, 33), (32, 34), (34, 35), (30, 36)]
    edges += [(6, 37), (37, 38), (37, 39), (6, 40)]
    edges += [(10, 41), (10, 42), (42, 43), (43, 44), (44, 45)]
    edges += [(16, 46), (46, 47), (16, 48), (48, 49)]
    edges += [(18, 50)]
    edges += [(22, 51), (51, 52), (52, 53)]
    return new_trigraph(54, edges)


def petersen():
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return new_trigraph(10, edges)


def witness(g: Trigraph):
    """The up-front check's linear witness on the plain graph ``g``: an
    induced cycle of five or more vertices closing a feedback edge, or None.
    The 2-core is the union of the scanned components' cores."""
    core = frozenset().union(*(scan.core() for scan in spanning_forest(g)))
    return induced_cycle(g, core, feedback_edge_set(g))


def make_fig3_middle():
    """The trigraph left after all of fig3's dangling trees are cut down."""
    black = [(0, 1), (2, 3), (0, 4), (3, 5), (1, 4), (2, 5)]
    black += [(4, 6)] + [(i, i + 1) for i in range(6, 22)] + [(22, 5)]
    black += [(0, 23), (23, 24), (0, 25)]  # black stump + half at 0
    black += [(3, 26)]  # red stump root at 3
    black += [(6, 28), (28, 29), (6, 30)]  # black stump + half at 6
    black += [(10, 31), (16, 33), (18, 35), (22, 36)]
    red = [(26, 27), (31, 32), (33, 34), (36, 37)]
    return new_trigraph(38, black, red)


def make_fig3_tidy():
    """The trigraph after additionally tidying the long pseudo-path: interior
    stumps are gone and the edges u2..u16 of the path are red."""
    black = [(0, 1), (2, 3), (0, 4), (3, 5), (1, 4), (2, 5)]
    black += [(4, 6), (6, 7), (21, 22), (22, 5)]
    black += [(0, 23), (23, 24), (0, 25)]
    black += [(3, 26)]
    black += [(6, 28), (28, 29), (6, 30)]
    black += [(22, 36)]
    red = [(i, i + 1) for i in range(7, 21)]  # u2..u16 of the 17-path
    red += [(26, 27), (36, 37)]
    verts = sorted(
        set(range(0, 6))
        | set(range(6, 23))
        | {23, 24, 25, 26, 27, 28, 29, 30, 36, 37}
    )
    return new_trigraph(max(verts) + 1, black, red).induce(verts)


@pytest.fixture
def fig2():
    return make_fig2()


@pytest.fixture
def fig3():
    return make_fig3()


def count_scans(monkeypatch):
    """The list each component scan appends ``("forest", n)`` to: the BFS
    forest, the package's one component search, which also yields feedback
    edges, 2-cores and dangling trees."""
    from twinwidth import kernel as kernel_module
    from twinwidth import reduce as reduce_module
    from twinwidth import structure as structure_module

    calls = []
    real_forest = structure_module.spanning_forest

    def forest(g, *args, **kwargs):
        calls.append(("forest", g.n))
        return real_forest(g, *args, **kwargs)

    for module in (structure_module, kernel_module, reduce_module):
        monkeypatch.setattr(module, "spanning_forest", forest)
    return calls


def observe_rules(monkeypatch, hook):
    """Call ``hook(run, rule, args)`` before each call of a tree or stump rule
    on a runner, ``rule`` being the unwrapped method, so that a test can
    snapshot the runner and replay the rule alone on a fresh one."""
    from twinwidth.reduce import _Reduction

    def observed(rule):
        @functools.wraps(rule)
        def call(run, *args):
            hook(run, rule, args)
            return rule(run, *args)

        return call

    for name in ("reduce_star", "reduce_tree", "merge_stumps"):
        monkeypatch.setattr(_Reduction, name, observed(getattr(_Reduction, name)))


@functools.cache
def load_script(relative):
    """The module in the file ``relative`` to the repository root, run once
    per session."""
    path = Path(__file__).resolve().parent.parent / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- independent oracles ----------------------------------------------------------


def contract_oracle(g: Trigraph, u, v) -> Trigraph:
    """From-scratch contraction: classify each third vertex by its
    (color to u, color to v) pair."""
    verts = [x for x in g.vertices if x not in (u, v)]
    w = g.next_label
    extra_black, extra_red = [], []
    for x in verts:
        cu, cv = g.color(x, u), g.color(x, v)
        if cu is EdgeColor.BLACK and cv is EdgeColor.BLACK:
            extra_black.append((x, w))
        elif cu is not None or cv is not None:
            extra_red.append((x, w))
    keep = set(verts)
    blacks = [e for e in g.black_edges() if e[0] in keep and e[1] in keep]
    reds = [e for e in g.red_edges() if e[0] in keep and e[1] in keep]
    return new_trigraph(w + 1, blacks + extra_black, reds + extra_red).induce(verts + [w])


def replay_oracle(g: Trigraph, pairs):
    """``(final, width)`` of playing ``pairs`` on ``g`` by one
    :func:`contract_oracle` call per pair, the width read off every
    intermediate trigraph; a step naming a dead or repeated vertex raises
    :class:`DeadVertexAtStep` with its index and the first dead one, or the
    repeated one."""
    width = g.max_red_degree()
    for i, (u, v) in enumerate(pairs):
        if u not in g or v not in g or u == v:
            raise DeadVertexAtStep(i, v if u in g else u)
        g = contract_oracle(g, u, v)
        width = max(width, g.max_red_degree())
    return g, width


def validate(g: Trigraph) -> bool:
    """Check a trigraph's invariants: one vertex set in both colour maps, no
    self-loop, no pair in both colours, symmetric edges and every label
    below the counter; raises AssertionError on a violation."""
    black, red = g.adjacency()
    assert set(black) == set(red)
    for u in black:
        assert u not in black[u] and u not in red[u], "self-loop"
        assert black[u].isdisjoint(red[u]), "color overlap"
        for v in black[u]:
            assert v in black and u in black[v], "asymmetric black"
        for v in red[u]:
            assert v in red and u in red[v], "asymmetric red"
        assert u < g.next_label, "label above counter"
    return True


def same_state(a: Trigraph, b: Trigraph) -> bool:
    """Equal trigraph values whose vertex maps list the vertices in the same
    order."""
    return a == b and [list(m) for m in a.adjacency()] == [list(m) for m in b.adjacency()]


def bags(g: Trigraph, seq) -> dict:
    """Every vertex that ever existed while ``seq`` plays on ``g`` mapped to
    its bag of original vertices: originals map to singletons, and step
    ``i``'s fresh vertex ``g.next_label + i`` to the union of its pair's
    bags, so ``u`` is ``v`` or was merged into it iff ``bags[u] <= bags[v]``.
    A step naming a dead or repeated vertex raises :class:`DeadVertexAtStep`."""
    assert seq.base == g
    forest = {v: frozenset((v,)) for v in g.vertices}
    alive = set(g.vertices)
    for i, (a, b) in enumerate(seq.pairs(), g.next_label):
        if a not in alive or b not in alive or a == b:
            raise DeadVertexAtStep(i - g.next_label, b if a in alive else a)
        forest[i] = forest[a] | forest[b]
        alive -= {a, b}
        alive.add(i)
    return forest


def feedback_edge_set_oracle(g: Trigraph):
    """The black edges that a label-ordered BFS forest of the black relation
    does not use, found by collecting the tree edges and filtering
    ``black_edges()``."""
    visited = set()
    tree = set()
    for root in g.vertices:
        if root in visited:
            continue
        visited.add(root)
        queue = [root]
        while queue:
            nxt = []
            for v in queue:
                for u in sorted(g.black_neighbors(v)):
                    if u not in visited:
                        visited.add(u)
                        tree.add((min(u, v), max(u, v)))
                        nxt.append(u)
            queue = nxt
    return tuple(sorted(e for e in g.black_edges() if e not in tree))


def connected_components_oracle(g: Trigraph):
    """Components by depth-first search over ``neighbors()``, in discovery
    order, each sorted."""
    seen = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def two_core_oracle(g: Trigraph) -> frozenset:
    """Peel degree <= 1 vertices, reading ``degree()`` and ``neighbors()``."""
    deg = {v: g.degree(v) for v in g.vertices}
    removed = set()
    stack = [v for v in g.vertices if deg[v] <= 1]
    while stack:
        v = stack.pop()
        if v in removed:
            continue
        removed.add(v)
        for u in g.neighbors(v):
            if u not in removed:
                deg[u] -= 1
                if deg[u] <= 1:
                    stack.append(u)
    return frozenset(v for v in g.vertices if v not in removed)


def _component_count(vertices, edges):
    """The number of components of the graph ``vertices`` and ``edges``, by
    union-find."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    count = len(root)
    for u, v in edges:
        a, b = find(u), find(v)
        if a != b:
            root[a] = b
            count -= 1
    return count


def find_bridges_oracle(g: Trigraph):
    """The edges, both colours, whose removal raises the component count,
    as a sorted tuple of ``(u, v)`` with ``u < v``."""
    edges = sorted(g.black_edges() + g.red_edges())
    whole = _component_count(g.vertices, edges)
    return tuple(
        e for e in edges
        if _component_count(g.vertices, [f for f in edges if f != e]) > whole
    )


def find_dangling_trees_oracle(g: Trigraph):
    """The components outside :func:`two_core_oracle`, each with its one edge
    into the core, sorted by core vertex and smallest tree vertex; a
    component of ``g`` without a core has none."""
    core = two_core_oracle(g)
    if not core:
        return ()
    outside = [v for v in g.vertices if v not in core]
    seen = set()
    trees = []
    for start in outside:
        if start in seen:
            continue
        comp = []
        attach = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.neighbors(v):
                if u in core:
                    attach.append((u, v))
                elif u not in seen:
                    seen.add(u)
                    stack.append(u)
        if not attach:
            continue  # a whole acyclic component of g
        assert len(attach) == 1, "peeled component with multiple core edges"
        black = not any(g.red_neighbors(a) for a in comp)
        trees.append(DanglingTree(attach[0], frozenset(comp), black))
    trees.sort(key=lambda t: (t.bridge[0], min(t.vertices)))
    return tuple(trees)


def classify_stumps_oracle(g: Trigraph) -> dict:
    """Whole-graph stump classification with a claimed set: two-vertex stumps
    are claimed first (owners in vertex order, then inner vertex), then half
    stumps over the unclaimed pendants.  Agrees with the owner-local rule
    except on components of exactly three vertices, where the claim order
    decides the owner."""
    claimed = set()
    found = {}
    for u in g.vertices:
        for v in sorted(g.black_neighbors(u)):
            if v in claimed or g.degree(v) != 2:
                continue
            others = [w for w in g.neighbors(v) if w != u]
            if len(others) != 1:
                continue
            w = others[0]
            if w == u or g.degree(w) != 1 or w in claimed:
                continue
            kind = StumpKind.RED if g.color(v, w) is EdgeColor.RED else StumpKind.BLACK
            claimed.update((v, w))
            found.setdefault(u, []).append(Stump(kind, (v, w)))
    for u in g.vertices:
        for v in sorted(g.black_neighbors(u)):
            if v in claimed or g.degree(v) != 1:
                continue
            claimed.add(v)
            found.setdefault(u, []).append(Stump(StumpKind.HALF, (v,)))
    return {
        u: tuple(sorted(stumps, key=lambda s: s.vertices))
        for u, stumps in sorted(found.items())
    }


def fold_oracle(g: Trigraph, root, allowed=None):
    """The pairs that contract everything below ``root`` in the black tree it
    reaches, within ``allowed`` if given, into one vertex, and that vertex
    (None if the root is a leaf): a depth-first walk that sorts each vertex's
    black neighbours, skips those in its reached set, and merges a subtree's
    remnant into its parent's as the subtree returns."""
    pairs = Emitter(g.next_label)
    reached = {root}
    frames = [[root, iter(sorted(g.black_neighbors(root))), None]]
    while True:
        for u in frames[-1][1]:
            if u not in reached and (allowed is None or u in allowed):
                reached.add(u)
                frames.append([u, iter(sorted(g.black_neighbors(u))), None])
                break
        else:
            v, _, acc = frames.pop()
            if not frames:
                return acc, list(pairs)
            remnant = v if acc is None else pairs.emit(acc, v)
            parent = frames[-1]
            parent[2] = remnant if parent[2] is None else pairs.emit(parent[2], remnant)


def shorten_oracle(ids, target, first) -> list:
    """The pairs that contract the path ``ids`` down to ``target`` vertices,
    each merging the consecutive pair with the lowest sorted labels into the
    fresh label ``first + i`` at its place; a scan of the whole path per
    merge."""
    ids = list(ids)
    pairs = []
    while len(ids) > target:
        best = min(range(len(ids) - 1), key=lambda i: sorted((ids[i], ids[i + 1])))
        pairs.append((ids[best], ids[best + 1]))
        ids[best : best + 2] = [first + len(pairs) - 1]
    return pairs


def absorb_and_shorten_oracle(tidy: Trigraph, hp, k, lower, policy, trace):
    """The general kernel of the tidy decomposition ``hp`` of the trigraph
    ``tidy`` by the absorb loop: round by round, the paths shorter than the
    floor of the grown core are absorbed, a theory floor first compared with
    the paths by size, until no path is short; the rest are shortened to the
    last floor by ``shorten_oracle``.  Returns the pairs and the meta, whose
    sizes come from ``replay_oracle``, and appends one event per round to
    ``trace``; ``k`` and ``lower`` are the input's feedback edge number and
    lower bound."""
    from twinwidth.kernel import Theory, _theory_floor, path_floor

    theory = isinstance(policy, Theory)
    core = set(hp.core)
    paths = list(hp.paths)
    core_sizes = [len(core)]
    floor = 1
    while paths:
        t = max(1, len(core))
        if theory and 2 * t * t >= max(map(len, paths)).bit_length():
            short, paths = paths, []
        else:
            floor = path_floor(t) if theory else policy.floor
            short = [p for p in paths if len(p) < floor]
            if not short:
                break
            paths = [p for p in paths if len(p) >= floor]
        for p in short:
            core.update(p.all_vertices())
        core_sizes.append(len(core))
        trace.append({"rule": "absorb_short_paths", "count": len(short)})
    pairs = []
    for path in paths:
        pairs += shorten_oracle(path.vertices, floor, tidy.next_label + len(pairs))
    kernel, _ = replay_oracle(tidy, pairs)
    if theory:
        floors = [_theory_floor(max(1, t)) for t in core_sizes]
    else:
        floors = [str(policy.floor)] * len(core_sizes)
    meta = {
        "k": k,
        "core_trajectory": core_sizes,
        "path_lengths": [min(len(p), floor) for p in paths],
        "kernel_size": kernel.n,
        "certified": lower >= 2,
        "shortened": kernel.n < tidy.n,
        "floors": floors,
    }
    return pairs, meta


def _refine_oracle(cells, black, red, nverts):
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


def canon_packed_oracle(state) -> bytes:
    """Exact canonical encoding of the live subtrigraph up to color-preserving
    isomorphism: refinement plus backtracking over the first splittable cell."""
    slots = _bits(state.alive)
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
        cells = _refine_oracle(cells, black, red, m)
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
    # one byte for m < 255, else an escape byte and m in four bytes
    head = bytes([m]) if m < 255 else b"\xff" + m.to_bytes(4, "big")
    return head + best


def iso_key(g: Trigraph) -> bytes:
    """``canon_packed_oracle`` of ``g``'s packed state: equal keys iff the
    trigraphs are isomorphic as trigraphs, edge colours respected."""
    return canon_packed_oracle(_Packed.from_trigraph(g))


def near_oracle(state, d):
    """Every pair of live slots ``i < j`` whose merged vertex would have at
    most ``d`` red neighbours, as sorted ``(i, j, nr)``, ``nr = (N(i) |
    N(j)) - (Nb(i) & Nb(j)) - {i, j}``: each pair is computed, none skipped."""
    slots = _bits(state.alive)
    out = []
    for a, i in enumerate(slots):
        for j in slots[a + 1 :]:
            bi, bj = state.black[i], state.black[j]
            nr = (bi | bj | state.red[i] | state.red[j]) & ~(bi & bj) & ~(1 << i | 1 << j)
            if nr.bit_count() <= d:
                out.append((i, j, nr))
    return out


def ordered_children_oracle(state, d):
    """Every pair's child built with ``contract``; the pairs whose child has
    max red degree at most ``d`` over its live slots, as sorted
    ``(max red, la, lb, i, j)`` tuples."""
    slots = _bits(state.alive)
    out = []
    for a, i in enumerate(slots):
        for j in slots[a + 1 :]:
            child = state.contract(i, j, -1)
            mr = max(child.red[x].bit_count() for x in _bits(child.alive))
            if mr <= d:
                la, lb = sorted((state.ids[i], state.ids[j]))
                out.append((mr, la, lb, i, j))
    return sorted(out)


def deleted_raw(state, gone, stay):
    """The raw state ``(alive, black, red)`` of ``state`` minus slot
    ``gone``, with slot ``stay``'s vertex moved to slot min(gone, stay)."""
    k = min(gone, stay)

    def move(mask):
        mask &= ~(1 << gone)
        if mask >> stay & 1:
            mask = mask & ~(1 << stay) | 1 << k
        return mask

    n = len(state.black)
    black, red = [0] * n, [0] * n
    for x in _bits(state.alive):
        if x != gone:
            y = k if x == stay else x
            black[y] = move(state.black[x])
            red[y] = move(state.red[x])
    return move(state.alive), tuple(black), tuple(red)


def node_children_oracle(state, d):
    """The children a search node visits: if the node has twin pairs
    (``twin_pairs_oracle``), the first twin pair of
    ``ordered_children_oracle`` alone, or none if no twin pair's child is
    within ``d``; else every child."""
    children = ordered_children_oracle(state, d)
    twins = twin_pairs_oracle(state)
    if twins:
        return [c for c in children if c[3:] in twins][:1]
    return children


def twin_pairs_oracle(state):
    """The pairs of live slots ``i < j`` that are twins: contracting them
    gives the state minus ``j``, and also the state minus ``i`` with ``j``
    in slot ``i``."""
    slots = _bits(state.alive)
    out = []
    for a, i in enumerate(slots):
        for j in slots[a + 1 :]:
            child = state.contract(i, j, -1)
            got = (child.alive, child.black, child.red)
            if got == deleted_raw(state, j, i) == deleted_raw(state, i, j):
                out.append((i, j))
    return out


def decide_rec_oracle(state, d, next_id, refuted, budget, parts=None):
    """The width-``d`` search with twin-first branching over
    ``node_children_oracle``: a state with twin pairs has one child, the
    first of them in child order.  ``parts`` maps each slot of the search's
    root to the smallest slot of its merged part, the root's own slots if
    None, and ``refuted`` holds the ``parts`` of the states refuted so far.
    Same branching order and budget ticks as the solver's search, so it
    returns the same label pairs after the same number of ticks."""
    if state.n_alive() == 1:
        return []
    if parts is None:
        parts = tuple(range(len(state.black)))
    budget.tick()
    if parts in refuted:
        return None
    children = node_children_oracle(state, d)
    for _, la, lb, i, j in children:
        child = state.contract(i, j, next_id)
        merged = tuple(i if p == j else p for p in parts)
        sub = decide_rec_oracle(child, d, next_id + 1, refuted, budget, merged)
        if sub is not None:
            return [(la, lb)] + sub
    refuted.add(parts)
    return None


def naive_optimal_width(g: Trigraph) -> int:
    """Exhaustive minimum width over all contraction sequences, with no
    pruning and independent of the solver.  A trigraph reached by
    contractions depends only on the partition of ``g``'s vertices into
    bags, so each partition's best finish is computed once."""
    best = {}

    def finish(cur, bags):
        # the least max red degree over the trigraphs after ``cur`` on a way
        # down to one vertex
        key = frozenset(bags.values())
        if key in best:
            return best[key]
        verts = sorted(cur.vertices)
        out = 0 if len(verts) == 1 else None
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                u, v = verts[i], verts[j]
                child_bags = dict(bags)
                child_bags[cur.next_label] = child_bags.pop(u) | child_bags.pop(v)
                child = cur.contract(u, v)
                r = max(child.max_red_degree(), finish(child, child_bags))
                if out is None or r < out:
                    out = r
        best[key] = out
        return out

    return max(g.max_red_degree(), finish(g, {v: frozenset([v]) for v in g.vertices}))


def all_labeled_graphs(n):
    """Every graph on n labeled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield new_trigraph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def connected_graphs_up_to_iso(max_n):
    """One representative per isomorphism class of connected graphs."""
    reps = []
    for n in range(1, max_n + 1):
        seen = set()
        for g in all_labeled_graphs(n):
            if len(connected_components_oracle(g)) > 1:
                continue
            key = iso_key(g)
            if key not in seen:
                seen.add(key)
                reps.append(g)
    return reps


def all_trigraphs(n):
    """Every trigraph on n labeled vertices (3 colors per pair)."""
    pairs = list(itertools.combinations(range(n), 2))
    for colors in itertools.product((0, 1, 2), repeat=len(pairs)):
        blacks = [pairs[i] for i in range(len(pairs)) if colors[i] == 1]
        reds = [pairs[i] for i in range(len(pairs)) if colors[i] == 2]
        yield new_trigraph(n, blacks, reds)
