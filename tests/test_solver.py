import gc
import itertools
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as stst

from twinwidth import solver as solver_module
from twinwidth.corpus import random_connected_graph
from twinwidth.errors import BudgetExceeded
from twinwidth.kernel import Practical, general_kernel, solve
from twinwidth.sequence import ContractionSequence, verify
from twinwidth.solver import (
    SolveResult,
    SolverConfig,
    _Search,
    _bits,
    _canon_packed,
    _decide_rec,
    _Packed,
    _search_cap,
    decide_width_at_most,
    greedy_sequence,
    optimal_sequence,
)
from twinwidth.trigraph import new_trigraph

from conftest import (
    canon_packed_oracle,
    connected_graphs_up_to_iso,
    decide_rec_oracle,
    near_oracle,
    node_children_oracle,
    twin_pairs_oracle,
    make_fig2,
    make_fig3,
    make_fig3_middle,
    make_fig3_tidy,
    naive_optimal_width,
    ordered_children_oracle,
    petersen,
)


@stst.composite
def packed_states(draw, max_n=16):
    """A random trigraph on 1..16 vertices (each pair black with probability
    0.3, red with 0.1), packed and then contracted at random pairs, so the
    state carries red edges and dead slots as search states do."""
    n = draw(stst.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    colors = draw(stst.lists(stst.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    g = new_trigraph(
        n,
        [p for p, c in zip(pairs, colors) if c < 3],
        [p for p, c in zip(pairs, colors) if c == 3],
    )
    state = _Packed.from_trigraph(g)
    return contract_at_random(draw, state, g.next_label, n - 1)


@stst.composite
def search_states(draw):
    """A connected graph on 8..12 vertices with 0..4 edges beyond a spanning
    tree, packed and contracted at up to three random pairs: sparse enough
    that searches below its width meet isomorphic states."""
    n = draw(stst.integers(min_value=8, max_value=12))
    k = draw(stst.integers(min_value=0, max_value=4))
    g = random_connected_graph(n, k, random.Random(draw(stst.integers(0, 2**32))))
    return contract_at_random(draw, _Packed.from_trigraph(g), g.next_label, 3)


@stst.composite
def connected_graphs(draw):
    """A random connected graph on 1..20 vertices with 0..8 edges beyond a
    spanning tree."""
    n = draw(stst.integers(min_value=1, max_value=20))
    k = draw(stst.integers(min_value=0, max_value=min(8, (n - 1) * (n - 2) // 2)))
    return random_connected_graph(n, k, random.Random(draw(stst.integers(0, 2**32))))


@stst.composite
def small_trigraphs(draw, max_n=8):
    """A random trigraph on 1..8 vertices, each pair black with probability
    0.4 and red with 0.1."""
    n = draw(stst.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    colors = draw(stst.lists(stst.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    return new_trigraph(
        n,
        [p for p, c in zip(pairs, colors) if c < 4],
        [p for p, c in zip(pairs, colors) if c == 4],
    )


def contract_at_random(draw, state, next_id, most):
    """``state`` contracted at 0..``most`` random pairs of live slots, the
    merged vertices labeled from ``next_id`` on."""
    for _ in range(draw(stst.integers(min_value=0, max_value=most))):
        slots = _bits(state.alive)
        i = draw(stst.sampled_from(slots))
        j = draw(stst.sampled_from([s for s in slots if s != i]))
        state = state.contract(i, j, next_id)
        next_id += 1
    return state


class CountingBudget:
    """A budget that counts its ticks and, given a ``cap``, raises
    :class:`BudgetExceeded` at the tick past it."""

    def __init__(self, cap=None):
        self.ticks = 0
        self.cap = cap

    def tick(self):
        self.ticks += 1
        if self.cap is not None and self.ticks > self.cap:
            raise BudgetExceeded(self.ticks, self.cap, kind="nodes")


class Clock:
    """A stand-in for ``time.monotonic``: 0.0 for the first ``early``
    readings, 100.0 after."""

    def __init__(self, early):
        self.early = early
        self.readings = 0

    def __call__(self):
        self.readings += 1
        return 0.0 if self.readings <= self.early else 100.0


def relabeled(state, perm):
    """``state`` with slot ``x`` moved to slot ``perm[x]``."""

    def move(mask):
        return sum(1 << perm[x] for x in _bits(mask))

    n = len(state.black)
    black, red, ids = [0] * n, [0] * n, [None] * n
    for x in range(n):
        black[perm[x]] = move(state.black[x])
        red[perm[x]] = move(state.red[x])
        ids[perm[x]] = state.ids[x]
    return _Packed(tuple(black), tuple(red), move(state.alive), tuple(ids))


def checked_inherit(mp):
    """Make every node expansion check its lists against the oracles: a
    root's near list must equal :func:`near_oracle`, a list inherited from a
    parent must hold its pairs, and either node's children must be
    :func:`node_children_oracle`'s.  Returns the list of inherited lists
    checked, as (live slots, cap)."""
    checked = []
    real = solver_module._decide_rec

    def checking(state, d, origin=None):
        near, children = real(state, d, origin)
        want = near_oracle(state, d)
        if origin is None:
            assert near == want
        else:
            assert sorted(near) == want
            checked.append((state.n_alive(), d))
        assert children == node_children_oracle(state, d)
        return near, children

    mp.setattr(solver_module, "_decide_rec", checking)
    return checked


def unpacked(state):
    """The trigraph of ``state``'s live slots, labeled by ``state.ids``, with
    its counter one past the largest label: the trigraph whose sequence a
    search from ``state`` builds."""
    live = _bits(state.alive)
    ids = state.ids

    def edges(masks):
        return [(ids[x], ids[y]) for x in live for y in _bits(masks[x]) if x < y]

    g = new_trigraph(max(ids) + 1, edges(state.black), edges(state.red))
    return g.induce([ids[x] for x in live])


def search(state, d, budget):
    """The label pairs of the solver's width-``d`` search from ``state``, or
    None."""
    seq = _search_cap(unpacked(state), state, d, budget)
    return None if seq is None else seq.pairs()


def search_and_oracle(state, d):
    """(label pairs, ticks) of the solver's search and of
    ``decide_rec_oracle`` from ``state`` at width ``d``."""
    ours, theirs = CountingBudget(), CountingBudget()
    got = search(state, d, ours)
    want = decide_rec_oracle(state, d, max(state.ids) + 1, set(), theirs)
    return (got, ours.ticks), (want, theirs.ticks)


def greedy_search_oracle(g):
    """Greedy as the search's first descent at cap ``g.n``, where the first
    child always has a finish, on a fresh search that reads no clock."""
    return _search_cap(g, _Packed.from_trigraph(g), g.n, _Search())


def greedy_oracle_pairs(g):
    """Greedy first descent over ``ordered_children_oracle``: the first twin
    pair (``twin_pairs_oracle``) if the state has one, else the first
    child."""
    state = _Packed.from_trigraph(g)
    next_id = g.next_label
    pairs = []
    while state.n_alive() > 1:
        children = ordered_children_oracle(state, state.n_alive())
        twins = twin_pairs_oracle(state)
        _, la, lb, i, j = next(c for c in children if not twins or (c[3], c[4]) in twins)
        pairs.append((la, lb))
        state = state.contract(i, j, next_id)
        next_id += 1
    return pairs


class TestOptimal:
    def test_k5_width_zero(self):
        k5 = new_trigraph(5, list(itertools.combinations(range(5), 2)))
        res = optimal_sequence(k5)
        assert res.width == 0 and res.optimal
        assert verify(k5, res.sequence) == 0

    def test_p4_width_one(self):
        p4 = new_trigraph(4, [(0, 1), (1, 2), (2, 3)])
        assert naive_optimal_width(p4) == 1
        assert optimal_sequence(p4).width == 1

    def test_c5_width_two(self):
        c5 = new_trigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert naive_optimal_width(c5) == 2
        res = optimal_sequence(c5)
        assert res.width == 2
        assert verify(c5, res.sequence) == 2

    def test_single_vertex(self):
        res = optimal_sequence(new_trigraph(1))
        assert res.width == 0 and len(res.sequence) == 0

    def test_empty(self):
        g = new_trigraph(0)
        res = optimal_sequence(g)
        assert res == SolveResult(0, ContractionSequence.build(g, []), True)

    def test_soundness_random(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randrange(2, 8)
            pairs = list(itertools.combinations(range(n), 2))
            blacks = [p for p in pairs if rng.random() < 0.4]
            g = new_trigraph(n, blacks)
            res = optimal_sequence(g)
            assert verify(g, res.sequence) == res.width


class TestDecide:
    def test_red_pair(self):
        g = new_trigraph(2, [], [(0, 1)])
        assert decide_width_at_most(g, 1) is not None

    def test_red_red_path_needs_two(self):
        g = new_trigraph(3, [], [(0, 1), (1, 2)])
        assert decide_width_at_most(g, 1) is None
        assert decide_width_at_most(g, 2) is not None

    def test_tree_width_two(self):
        t = new_trigraph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)])
        seq = decide_width_at_most(t, 2)
        assert seq is not None and verify(t, seq) <= 2

    def test_consistency_with_optimal(self):
        for g in connected_graphs_up_to_iso(6):
            w = optimal_sequence(g).width
            for d in range(0, 4):
                got = decide_width_at_most(g, d)
                if d >= w:
                    assert got is not None and verify(g, got) <= d
                else:
                    assert got is None

    def test_negative_cap(self):
        assert decide_width_at_most(make_fig2(), -1) is None


def decisions_match_naive(g):
    """Every cap from 0 to n - 1 is decided as exhaustive search decides it,
    and every sequence found is within its cap."""
    w = naive_optimal_width(g)
    for d in range(g.n):
        got = decide_width_at_most(g, d)
        if d < w:
            assert got is None
        else:
            assert got is not None and verify(g, got) <= d


class TestTwinFirst:
    """Contracting twins first loses no finish, at any cap."""

    def test_connected_graphs_to_six(self):
        graphs = connected_graphs_up_to_iso(6)
        assert len(graphs) == 143
        for g in graphs:
            decisions_match_naive(g)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(small_trigraphs())
    def test_random_trigraphs_to_eight(self, g):
        decisions_match_naive(g)


def canon(g):
    return _canon_packed(_Packed.from_trigraph(g))


class TestCanonicalKey:
    """The package's canonical form of a trigraph's packed state: equal forms
    iff the trigraphs are isomorphic, edge colours respected.  The packed
    states' relabeling test checks the oracle's form, which
    ``TestPackedOracles`` checks the package's against."""

    def test_relabeling_invariance(self):
        g = make_fig2()
        perm = [3, 5, 0, 2, 4, 1]
        edges = [(perm[u], perm[v]) for u, v in g.black_edges()]
        h = new_trigraph(6, edges)
        assert canon(g) == canon(h)

    def test_colors_distinguish(self):
        black_p3 = new_trigraph(3, [(0, 1), (1, 2)])
        red_p3 = new_trigraph(3, [], [(0, 1), (1, 2)])
        assert canon(black_p3) != canon(red_p3)

    def test_recolored_edge_distinguishes(self):
        g = make_fig2()
        h = new_trigraph(
            6,
            [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4)],
            [(4, 5)],
        )
        assert canon(g) != canon(h)

    def test_separates_nonisomorphic(self):
        p4 = new_trigraph(4, [(0, 1), (1, 2), (2, 3)])
        star = new_trigraph(4, [(0, 1), (0, 2), (0, 3)])
        assert canon(p4) != canon(star)

    def test_regular_graphs(self):
        c6 = new_trigraph(6, [(i, (i + 1) % 6) for i in range(6)])
        two_triangles = new_trigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert canon(c6) != canon(two_triangles)

    def test_256_vertices(self):
        path = new_trigraph(256, [(i, i + 1) for i in range(255)])
        perm = list(range(256))
        random.Random(3).shuffle(perm)
        relabeled = new_trigraph(256, [(perm[i], perm[i + 1]) for i in range(255)])
        star = new_trigraph(256, [(0, i) for i in range(1, 256)])
        assert canon(path) == canon(relabeled)
        assert canon(path) != canon(star)

    def test_vertex_count_prefix_separates_sizes(self):
        keys = [canon(new_trigraph(n)) for n in (0, 1, 2, 254, 255, 256)]
        assert len(set(keys)) == len(keys)

    @settings(max_examples=300, derandomize=True)
    @given(packed_states(), stst.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, state, rng):
        perm = list(range(len(state.black)))
        rng.shuffle(perm)
        assert canon_packed_oracle(relabeled(state, perm)) == canon_packed_oracle(state)


class TestPackedOracles:
    @settings(max_examples=300, derandomize=True)
    @given(packed_states())
    def test_canon_matches_oracle(self, state):
        assert _canon_packed(state) == canon_packed_oracle(state)

    def test_canon_leaves_no_reference_cycle(self):
        # the backtracking keeps its partitions on a stack, so a form leaves
        # nothing for the cycle collector
        state = _Packed.from_trigraph(petersen())
        gc.collect()
        gc.disable()
        try:
            _canon_packed(state)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=300, derandomize=True)
    @given(packed_states())
    def test_children_match_oracle(self, state):
        # a root's near list and children, at every cap
        for d in (0, 1, 2, 3, 4, state.n_alive()):
            near, children = _decide_rec(state, d)
            assert near == near_oracle(state, d)
            assert children == node_children_oracle(state, d)

    @settings(max_examples=300, derandomize=True)
    @given(packed_states())
    def test_buckets_hold_the_red_degrees(self, state):
        # a contracted state's buckets, kept up by each contraction: bucket r
        # holds the live slots with r red neighbours, and none is above the
        # state's max red degree
        n = len(state.black)
        live = _bits(state.alive)
        top = max(state.red[x].bit_count() for x in live)
        for r in range(top + 1):
            got = _bits(state.buckets >> n * r & (1 << n) - 1)
            assert got == [x for x in live if state.red[x].bit_count() == r]
        assert state.buckets >> n * (top + 1) == 0

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(packed_states())
    def test_near_lists_match_oracle(self, state):
        # the root's near list, the list each of its pairs' merges inherits,
        # and every list that a search of at most 30 nodes inherits hold
        # exactly the pairs within the cap, and each node's children are the
        # oracle's, the first two also when the state's red degree is above
        # the cap and no search starts.  The nodes are expanded through the
        # module global, which ``checked_inherit`` rebinds to check them
        with pytest.MonkeyPatch.context() as mp:
            checked = checked_inherit(mp)
            for d in (0, 1, 2, 3, 4, state.n_alive()):
                near, _ = solver_module._decide_rec(state, d)
                inherited = len(checked)
                for i, j, _ in near:
                    child = state.contract(i, j, -1)
                    solver_module._decide_rec(child, d, (near, state, i, j))
                assert len(checked) == inherited + len(near)
                try:
                    search(state, d, CountingBudget(30))
                except BudgetExceeded:
                    pass

    def test_greedy_pairs_unchanged(self):
        assert greedy_sequence(make_fig2()).pairs() == [(0, 1), (2, 3), (5, 7), (4, 6), (8, 9)]
        for g in (make_fig2(), make_fig3(), make_fig3_middle(), make_fig3_tidy()):
            assert greedy_sequence(g).pairs() == greedy_oracle_pairs(g)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(connected_graphs(), stst.randoms(use_true_random=False))
    def test_greedy_matches_oracle_on_random_graphs(self, g, rng):
        # each graph as drawn, and as a trigraph with about a third of its
        # edges red
        edges = g.black_edges()
        red = [e for e in edges if rng.random() < 1 / 3]
        reddened = new_trigraph(g.n, [e for e in edges if e not in red], red)
        for t in (g, reddened):
            assert greedy_sequence(t).pairs() == greedy_oracle_pairs(t)
            assert greedy_sequence(t).pairs() == greedy_search_oracle(t).pairs()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_greedy_matches_the_search_on_fen_kernels(self, k):
        # the general kernels of fen-k graphs on 400 vertices, 43-91
        # vertices each, where greedy's cap rises from the kernel's max red
        # degree, 1, to widths 2-4
        for s in range(3):
            kern = general_kernel(random_connected_graph(400, k, random.Random(s))).kernel
            assert greedy_sequence(kern).pairs() == greedy_search_oracle(kern).pairs()

    def test_greedy_expands_once_per_contraction_and_cap_raise(self, monkeypatch):
        # every contraction but the last expands its child, the root is
        # expanded first, and each raise of the cap, by one, expands its node
        # again from scratch; the cap ends at the sequence's width
        calls = []
        real = solver_module._decide_rec

        def counting(state, d, origin=None):
            calls.append((d, origin is None))
            return real(state, d, origin)

        monkeypatch.setattr(solver_module, "_decide_rec", counting)
        graphs = [
            make_fig2(),
            petersen(),
            red_edge_path(30),
            random_connected_graph(60, 30, random.Random(1)),
            general_kernel(random_connected_graph(400, 4, random.Random(1))).kernel,
        ]
        raised = 0
        for g in graphs:
            calls.clear()
            seq = greedy_sequence(g)
            caps = [d for d, _ in calls]
            raises = [d for d, fresh in calls if fresh][1:]
            assert len(calls) == len(seq) + len(raises)
            assert caps == sorted(caps) and caps[0] == g.max_red_degree()
            assert raises == list(range(g.max_red_degree() + 1, verify(g, seq) + 1))
            raised += len(raises)
        assert raised > 0
        for n in (0, 1):
            calls.clear()
            assert len(greedy_sequence(new_trigraph(n))) == 0 and calls == []


class TestSearchOracle:
    """The search takes the steps of an oracle that finds twins by
    contracting every pair, in the oracle's number of nodes."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(search_states())
    def test_matches_oracle(self, state):
        top = max(state.red[x].bit_count() for x in _bits(state.alive))
        for d in range(top, 4):
            got, want = search_and_oracle(state, d)
            assert got == want

    @pytest.mark.parametrize(
        "g, d",
        [
            (random_connected_graph(12, 1, random.Random(3)), 1),
            (random_connected_graph(16, 8, random.Random(2)), 2),
        ],
        ids=["random12", "random16"],
    )
    def test_refutations_match_oracle(self, g, d):
        got, want = search_and_oracle(_Packed.from_trigraph(g), d)
        assert got == want and got[0] is None

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(search_states())
    def test_twin_node_gets_one_child(self, state):
        # the node's loop builds the first twin pair's child and no other
        twins = twin_pairs_oracle(state)
        assume(twins and state.n_alive() > 2)
        top = max(state.red[x].bit_count() for x in _bits(state.alive))
        built = []
        real = solver_module._decide_rec

        def recording(child, d, origin=None):
            if origin is not None and origin[1] is state:
                built.append(origin[2:])
            return real(child, d, origin)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "_decide_rec", recording)
            for d in range(top, 4):
                built.clear()
                search(state, d, CountingBudget())
                assert built == [c[3:] for c in node_children_oracle(state, d)]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(search_states())
    def test_inherited_children_match_full(self, state):
        top = max(state.red[x].bit_count() for x in _bits(state.alive))
        with pytest.MonkeyPatch.context() as mp:
            checked_inherit(mp)
            for d in range(top, 4):
                search(state, d, CountingBudget())

    def test_inherited_children_deep(self):
        # the random16 refutation below: every node under the root inherits
        # its near list, all 380 built nodes, down to 8 live slots
        g = random_connected_graph(16, 8, random.Random(2))
        with pytest.MonkeyPatch.context() as mp:
            checked = checked_inherit(mp)
            assert decide_width_at_most(g, 2) is None
        assert len(checked) == 380
        assert {n for n, _ in checked} == set(range(8, 16))

    def test_nodes_enter_through_the_module_global(self, monkeypatch):
        # a node counter that rebinds solver._decide_rec sees every built
        # node: the root, expanded first, and the 380 others, each expanded
        # as the search descends into it
        g = random_connected_graph(16, 8, random.Random(2))
        roots = []
        real = solver_module._decide_rec

        def counting(state, d, origin=None):
            roots.append(origin is None)
            return real(state, d, origin)

        monkeypatch.setattr(solver_module, "_decide_rec", counting)
        assert decide_width_at_most(g, 2) is None
        assert len(roots) == 381 and roots.count(True) == 1



def red_edge_path(n):
    """The path ``0 - 1 - ... - n-1`` with the edge ``2 3`` red."""
    return new_trigraph(n, [(i, i + 1) for i in range(n - 1) if i != 2], [(2, 3)])


class TestDeepDecisions:
    """A decision's search goes as deep as its trigraph has vertices, with no
    frame of the interpreter's stack per contraction."""

    def test_1100_vertex_path(self):
        g = red_edge_path(1100)
        seq = decide_width_at_most(g, 1, SolverConfig(max_vertices=2000))
        assert len(seq) == 1099 and verify(g, seq) == 1

    def test_under_a_low_recursion_limit(self):
        g = red_edge_path(300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            seq = decide_width_at_most(g, 1, SolverConfig(max_vertices=300))
        finally:
            sys.setrecursionlimit(limit)
        assert verify(g, seq) == 1


def partition_key(root, owner):
    """The key and spread of the partition of ``root``'s slots in which
    slot ``v``'s part lives in slot ``owner[v]``, recomputed from scratch."""
    w = (len(root.black) - 1).bit_length()
    spread = [0] * len(root.black)
    for v, s in enumerate(owner):
        spread[s] += 1 << w * v
    return sum(s << w * v for v, s in enumerate(owner)), spread


class TestPartitionKey:
    """A state's partition key names the partition of its root's slots into
    merged parts, and the search turns a refuted child away by its key."""

    @settings(max_examples=150, derandomize=True)
    @given(search_states(), stst.data())
    def test_key_names_the_partition(self, state, data):
        root = _Packed(state.black, state.red, state.alive, state.ids)
        live = _bits(root.alive)
        groups = data.draw(stst.lists(stst.integers(0, 3), min_size=len(live), max_size=len(live)))
        ends = []
        for _ in range(2):
            # each group merged into its first member in a random order, the
            # groups' steps interleaved at random
            order = data.draw(stst.permutations(live))
            anchor = {}
            steps = []
            for v in order:
                group = groups[live.index(v)]
                if group in anchor:
                    steps.append((anchor[group], v))
                else:
                    anchor[group] = v
            steps = data.draw(stst.permutations(steps))
            owner = list(range(len(root.black)))
            cur = root
            for a, b in steps:
                i, j = owner[a], owner[b]
                cur = cur.contract(i, j, -1)
                k, dead = min(i, j), max(i, j)
                owner = [k if s == dead else s for s in owner]
                assert (cur.key, cur.spread) == partition_key(root, owner)
            ends.append(cur)
        first, second = ends
        assert first.key == second.key
        assert (first.alive, first.black, first.red) == (second.alive, second.black, second.red)

    def test_refuted_children_are_not_built(self, monkeypatch):
        # the random16 width-2 refutation of TestSearchShape ticks 1,235
        # nodes; a child whose partition key is refuted is not built
        calls = []
        real = _Packed.contract

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(_Packed, "contract", counting)
        g = random_connected_graph(16, 8, random.Random(2))
        budget = CountingBudget()
        assert _search_cap(g, _Packed.from_trigraph(g), 2, budget) is None
        assert budget.ticks == 1235
        assert len(calls) <= 380


class TestSearchShape:
    """The smallest node cap under which the width-2 decision finishes pins
    the search order, the twin nodes and the node count."""

    @pytest.mark.parametrize(
        "g, nodes",
        [
            (petersen(), 1),
            (random_connected_graph(16, 8, random.Random(2)), 1235),
            (random_connected_graph(20, 10, random.Random(2)), 2901),
        ],
        ids=["petersen", "random16", "random20"],
    )
    def test_smallest_node_cap(self, g, nodes):
        assert decide_width_at_most(g, 2, SolverConfig(max_nodes=nodes)) is None
        with pytest.raises(BudgetExceeded) as exc:
            decide_width_at_most(g, 2, SolverConfig(max_nodes=nodes - 1))
        assert exc.value.kind == "nodes"

    def test_canonical_forms_on_demand(self, monkeypatch):
        # a form is computed only when a caller asks for one: a width
        # decision and an optimal solve compute none
        calls = []
        real = solver_module._canon_packed

        def counting(state):
            calls.append(state.alive)
            return real(state)

        monkeypatch.setattr(solver_module, "_canon_packed", counting)
        g = random_connected_graph(16, 8, random.Random(2))
        assert decide_width_at_most(g, 2) is None
        assert optimal_sequence(g).width == 3
        assert calls == []


class TestBudgets:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_nodes", True),
            ("max_nodes", 2.5),
            ("max_nodes", -1),
            ("max_vertices", -3),
            ("max_vertices", False),
            ("time_limit", True),
            ("time_limit", float("nan")),
            ("time_limit", -0.5),
            ("time_limit", "2"),
        ],
    )
    def test_config_refuses_what_the_cli_refuses(self, field, value):
        # a budget is None or a count of at least 0 (not a bool), seconds
        # any int or float of at least 0 (not NaN); anything else would be
        # read as some other budget
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
        for ok in (None, 0, 50):
            assert getattr(SolverConfig(**{field: ok}), field) == ok
        assert SolverConfig(time_limit=2.5).time_limit == 2.5

    def test_no_vertex_limit(self):
        # None refuses no trigraph: this graph's 21-vertex bikernel, a vertex
        # miss under the default limit of 20, is decided
        g = random_connected_graph(26, 4, random.Random(1))
        with pytest.raises(BudgetExceeded):
            solve(g, Practical(12), SolverConfig(max_nodes=2000))
        seq, report = solve(g, Practical(12), SolverConfig(max_vertices=None, max_nodes=2000))
        assert (report["status"], report["width"], verify(g, seq)) == ("optimal", 2, 2)
        assert optimal_sequence(petersen(), SolverConfig(max_vertices=None)).width == 4

    def test_vertex_cap(self):
        g = new_trigraph(25, [(i, i + 1) for i in range(24)])
        with pytest.raises(BudgetExceeded) as exc:
            optimal_sequence(g)
        assert exc.value.kind == "vertices"
        with pytest.raises(BudgetExceeded):
            decide_width_at_most(g, 2)
        assert optimal_sequence(g, SolverConfig(max_vertices=30)).width <= 2

    def test_node_budget_falls_back_to_unproven(self):
        c6 = new_trigraph(6, [(i, (i + 1) % 6) for i in range(6)])
        res = optimal_sequence(c6, SolverConfig(max_nodes=1))
        assert not res.optimal
        assert verify(c6, res.sequence) == res.width

    def test_node_budget_at_256_vertices(self):
        g = random_connected_graph(256, 3, random.Random(1))
        with pytest.raises(BudgetExceeded) as exc:
            decide_width_at_most(g, 2, SolverConfig(max_vertices=300, max_nodes=5))
        assert exc.value.kind == "nodes"

    def test_greedy_is_deterministic(self):
        g = make_fig2()
        assert greedy_sequence(g).pairs() == greedy_sequence(g).pairs()

    def test_one_deadline_per_search(self, monkeypatch):
        # the deadline is read once, when the search is made.  Petersen's
        # caps 0 to 3 take one node each, so the clock passes the deadline at
        # cap 3's node, and the deepening stops at that reading; greedy reads
        # no clock
        clock = Clock(early=4)
        monkeypatch.setattr(solver_module.time, "monotonic", clock)
        res = optimal_sequence(petersen(), SolverConfig(time_limit=50))
        assert not res.optimal and res.width == 4
        assert clock.readings == 5

    def test_misses_name_their_amounts(self, monkeypatch):
        # a node miss names the node that crossed the cap, a time miss the
        # seconds elapsed since the search was made
        g = random_connected_graph(16, 8, random.Random(2))
        with pytest.raises(BudgetExceeded) as exc:
            decide_width_at_most(g, 2, SolverConfig(max_nodes=100))
        assert (exc.value.amount, exc.value.limit) == (101, 100)
        assert str(exc.value) == "nodes budget exceeded: 101 > 100"
        clock = Clock(early=1)
        monkeypatch.setattr(solver_module.time, "monotonic", clock)
        with pytest.raises(BudgetExceeded) as exc:
            decide_width_at_most(petersen(), 2, SolverConfig(time_limit=2.5))
        assert str(exc.value) == "time budget exceeded: 100.0 > 2.5"

    def test_time_miss_reports_an_amount_above_its_limit(self, monkeypatch):
        # an overrun that rounds away to the millisecond reports the first
        # millisecond above the limit, never the limit itself
        readings = iter([0.0, 2.000001])
        monkeypatch.setattr(solver_module.time, "monotonic", lambda: next(readings))
        with pytest.raises(BudgetExceeded) as exc:
            decide_width_at_most(petersen(), 2, SolverConfig(time_limit=2.0))
        assert str(exc.value) == "time budget exceeded: 2.001 > 2.0"
        assert exc.value.amount > exc.value.limit

    def test_one_deadline_per_solve(self, monkeypatch):
        # one search per solve: the clock passes the deadline at the first
        # component's first node, and every later component stops at its own
        # first reading instead of starting a deadline of its own.  Three C4s
        # have no induced-cycle witness, so each is searched
        squares = [(c + i, c + (i + 1) % 4) for c in (0, 4, 8) for i in range(4)]
        clock = Clock(early=1)
        monkeypatch.setattr(solver_module.time, "monotonic", clock)
        _, report = solve(new_trigraph(12, squares), Practical(12), SolverConfig(time_limit=50))
        assert report["status"] == "upper_bound" and report["width"] == 2
        assert clock.readings == 1 + 3
        # three C5s are each certified by their own induced cycle, without a
        # search: the clock is read once, when the search is made
        cycles = [(c + i, c + (i + 1) % 5) for c in (0, 5, 10) for i in range(5)]
        clock = Clock(early=1)
        monkeypatch.setattr(solver_module.time, "monotonic", clock)
        _, report = solve(new_trigraph(15, cycles), Practical(12), SolverConfig(time_limit=50))
        assert report["status"] == "optimal" and report["width"] == 2
        assert clock.readings == 1


class TestRefutedCaps:
    def test_deepening_starts_above_the_refuted_cap(self, monkeypatch):
        # Petersen refuted at cap 2 is refuted at 0 and 1 too, so its
        # deepening asks caps 3 and 4 only; a trigraph the search has not
        # refuted starts at its own max red degree
        caps = []
        real = solver_module._search_cap

        def recording(g, root, d, budget):
            caps.append(d)
            return real(g, root, d, budget)

        monkeypatch.setattr(solver_module, "_search_cap", recording)
        search = _Search(SolverConfig())
        assert search.first(petersen(), (2,)) is None
        assert search.optimal(petersen()).width == 4
        assert caps == [2, 3, 4]
        red_c5 = new_trigraph(5, [(0, 1), (1, 2), (2, 3)], [(3, 4), (4, 0)])
        assert red_c5.max_red_degree() == 2
        assert search.optimal(red_c5).width == 2
        assert caps == [2, 3, 4, 2]


class CappedSet(set):
    """A refuted set that fails a test when it grows past ``cap`` entries
    and counts how often it is cleared."""

    def __init__(self, cap):
        super().__init__()
        self.cap = cap
        self.clears = 0

    def add(self, entry):
        assert type(entry) is int
        super().add(entry)
        assert len(self) <= self.cap

    def clear(self):
        self.clears += 1
        super().clear()


class TestRefutedSetCap:
    def test_cleared_set_decides_the_same(self, monkeypatch):
        # with the cap at 2 entries the set is cleared again and again, and
        # every decision still matches exhaustive search.  The search makes
        # its refuted set by calling ``set``, which a module global of that
        # name shadows; each search past its root check must make exactly
        # one, and nothing else in the module any, so the sets counted are
        # the refuted sets
        monkeypatch.setattr(solver_module, "_REFUTED_CAP", 2)
        sets = []
        made = []
        real = solver_module._search_cap

        def capped():
            sets.append(CappedSet(2))
            return sets[-1]

        def counting(g, root, d, budget):
            before = len(sets)
            seq = real(g, root, d, budget)
            made.append(len(sets) - before)
            assert made[-1] == (g.max_red_degree() <= d and root.n_alive() > 1)
            return seq

        monkeypatch.setattr(solver_module, "set", capped, raising=False)
        monkeypatch.setattr(solver_module, "_search_cap", counting)
        for g in connected_graphs_up_to_iso(6):
            decisions_match_naive(g)
        assert sum(made) == len(sets) > 0
        assert sum(s.clears for s in sets) > 0


class TestDeterminism:
    def test_repeat_runs_identical(self):
        g = make_fig2()
        a = optimal_sequence(g)
        b = optimal_sequence(g)
        assert a.sequence.pairs() == b.sequence.pairs()
