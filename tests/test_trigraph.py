import itertools

import pytest
from hypothesis import given, settings, strategies as stst

from twinwidth.cli import emit_graph, parse_graph
from twinwidth.errors import (
    BadEndpoint,
    BadVertexSet,
    DeadVertex,
    DeadVertexAtStep,
    DuplicateEdge,
    IncompleteSequence,
    SameVertex,
    SelfLoop,
)
from twinwidth.structure import DanglingTree, spanning_forest
from twinwidth.trigraph import Trigraph, new_trigraph

from twinwidth.sequence import ContractionSequence, Emitter, verify

from conftest import (
    all_trigraphs,
    connected_components_oracle,
    contract_oracle,
    iso_key,
    make_fig2,
    replay_oracle,
    same_state,
    validate,
    FIG2_PAIRS,
)


def trigraphs(max_n=7):
    @stst.composite
    def build(draw):
        n = draw(stst.integers(min_value=2, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        colors = draw(
            stst.lists(
                stst.sampled_from((0, 0, 1, 1, 2)),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
        blacks = [pairs[i] for i in range(len(pairs)) if colors[i] == 1]
        reds = [pairs[i] for i in range(len(pairs)) if colors[i] == 2]
        return new_trigraph(n, blacks, reds)

    return build()


@stst.composite
def bridged_trees(draw, max_host=7, max_tree=10):
    """A random trigraph with a random black tree of at least three vertices
    hung from one of its vertices by one black bridge, the tree labelled
    after the host in a random order: ``(g, tree, kids)``, where ``kids``
    maps each tree vertex to its children in label order, as a scan lists
    them."""
    host = draw(trigraphs(max_n=max_host))
    n = host.n
    m = draw(stst.integers(min_value=3, max_value=max_tree))
    labels = draw(stst.permutations(range(n, n + m)))
    edges = [(labels[draw(stst.integers(0, i - 1))], labels[i]) for i in range(1, m)]
    u, root = draw(stst.integers(0, n - 1)), labels[0]
    g = new_trigraph(n + m, host.black_edges() + [(u, root)] + edges, host.red_edges())
    kids = {}
    for parent, child in sorted(edges, key=lambda e: e[1]):
        kids.setdefault(parent, []).append(child)
    return g, DanglingTree((u, root), frozenset(labels), True), kids


class TestConstruction:
    def test_single_vertex(self):
        g = new_trigraph(1)
        assert g.n == 1 and g.edge_count() == 0

    def test_fig2(self):
        g = make_fig2()
        assert g.n == 6
        assert g.black_edge_count() == 8
        assert not g.has_red()

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            new_trigraph(2, [(0, 1)], [(0, 1)])
        with pytest.raises(DuplicateEdge):
            new_trigraph(3, [(0, 1), (1, 0)])
        with pytest.raises(DuplicateEdge, match=r"edge \(1, 2\) listed twice"):
            new_trigraph(3, [(2, 1)], [(1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            new_trigraph(2, [(1, 1)])

    def test_bad_endpoint_rejected(self):
        with pytest.raises(BadEndpoint):
            new_trigraph(2, [(0, 2)])

    def test_empty_red_sets_shared(self):
        # a parsed plain graph holds one empty red set, not one per vertex,
        # and so do a value frozen from a working copy and an induced part
        path = parse_graph(emit_graph(new_trigraph(50, [(i, i + 1) for i in range(49)])))
        assert not path.has_red()
        assert len({id(path.red_neighbors(v)) for v in path.vertices}) == 1
        merged, _ = path.replay([(0, 1)])
        for g, empty in ((merged, 47), (merged.induce(range(2, 40)), 38)):
            reds = [g.red_neighbors(v) for v in g.vertices if not g.red_neighbors(v)]
            assert len(reds) == empty and len(set(map(id, reds))) == 1


class TestContract:
    def test_fig2_first_step(self):
        g = make_fig2()
        g1 = g.contract(4, 5)  # E, F
        assert g1.black_neighbors(6) == frozenset((2,))
        assert g1.red_neighbors(6) == frozenset((3,))
        assert g1.red_degree(3) == 1
        # all other edges unchanged
        assert g1.black_neighbors(0) == frozenset((1, 2))

    def test_fig2_red_degrees_build_up(self):
        g = make_fig2().contract(4, 5).contract(0, 1).contract(2, 3)
        assert g.red_degree(8) == 2  # the C,D descendant sees AB and EF red
        assert g.max_red_degree() == 2
        isolated = new_trigraph(1)
        assert isolated.red_degree(0) == 0

    def test_true_twins_in_k4(self):
        k4 = new_trigraph(4, list(itertools.combinations(range(4), 2)))
        g = k4.contract(0, 1)
        assert not g.has_red()
        assert g.n == 3 and g.black_edge_count() == 3

    def test_p3_endpoints(self):
        # the endpoints are twins (both see only the middle, black), so the
        # merged vertex keeps a black edge; frozen from contract_oracle
        p3 = new_trigraph(3, [(0, 1), (1, 2)])
        g = p3.contract(0, 2)
        assert g == contract_oracle(p3, 0, 2)
        assert g.black_neighbors(3) == frozenset((1,))
        assert g.red_degree(3) == 0

    def test_errors(self):
        g = make_fig2()
        with pytest.raises(SameVertex):
            g.contract(1, 1)
        with pytest.raises(DeadVertex):
            g.contract(0, 9)
        g2 = g.contract(0, 1)
        with pytest.raises(DeadVertex):
            g2.contract(0, 2)

    def test_fresh_labels_never_reused(self):
        g = make_fig2()
        for a, b in FIG2_PAIRS:
            w = g.next_label
            g = g.contract(a, b)
            assert w in g.vertices
        assert g.n == 1

    def test_exhaustive_small_oracle(self):
        # every trigraph on up to 4 vertices, every pair
        for n in (2, 3, 4):
            for g in all_trigraphs(n):
                for u in range(n):
                    for v in range(u + 1, n):
                        got = g.contract(u, v)
                        assert got == contract_oracle(g, u, v)
                        validate(got)

    @settings(max_examples=300, derandomize=True)
    @given(trigraphs(max_n=7), stst.data())
    def test_contract_matches_oracle(self, g, data):
        verts = sorted(g.vertices)
        u = data.draw(stst.sampled_from(verts))
        v = data.draw(stst.sampled_from([x for x in verts if x != u]))
        got = g.contract(u, v)
        assert got == contract_oracle(g, u, v)
        validate(got)

    @settings(max_examples=200, derandomize=True)
    @given(trigraphs(max_n=7), stst.data())
    def test_disjoint_contractions_commute(self, g, data):
        verts = sorted(g.vertices)
        if len(verts) < 4:
            return
        u, v, x, y = data.draw(
            stst.permutations(verts).map(lambda p: p[:4])
        )
        a = g.contract(u, v).contract(x, y)
        b = g.contract(x, y).contract(u, v)
        assert iso_key(a) == iso_key(b)

    @settings(max_examples=200, derandomize=True)
    @given(trigraphs(max_n=7), stst.data())
    def test_twin_contraction_stays_black(self, g, data):
        verts = sorted(g.vertices)
        u = data.draw(stst.sampled_from(verts))
        v = data.draw(stst.sampled_from([x for x in verts if x != u]))
        if g.red_degree(u) or g.red_degree(v):
            return
        if g.black_neighbors(u) - {v} != g.black_neighbors(v) - {u}:
            return
        got = g.contract(u, v)
        assert got.red_degree(g.next_label) == 0
        assert got.red_edge_count() <= g.red_edge_count()


class TestReplay:
    @settings(max_examples=400, derandomize=True)
    @given(trigraphs(max_n=7), stst.data())
    def test_replay_matches_chained_oracle(self, g, data):
        # a random full or partial sequence of live pairs, with one step of
        # any two labels spliced in about half the time, so that it may name
        # a merged-away vertex, a label not made yet, or one vertex twice:
        # replay ends as the one-pair-at-a-time oracle does, in the same
        # trigraph and width or at the same step and vertex, and verify
        # answers that width, refuses a sequence that is not full, or stops
        # at that step
        snapshot = new_trigraph(g.n, g.black_edges(), g.red_edges())
        steps = data.draw(stst.integers(min_value=0, max_value=g.n - 1))
        live = list(g.vertices)
        pairs = []
        for nxt in range(g.next_label, g.next_label + steps):
            u, v = data.draw(stst.permutations(live).map(lambda p: p[:2]))
            pairs.append((u, v))
            live = [x for x in live if x not in (u, v)] + [nxt]
        if data.draw(stst.booleans()):
            labels = stst.integers(min_value=0, max_value=g.next_label + steps)
            at = data.draw(stst.integers(min_value=0, max_value=steps))
            pairs.insert(at, data.draw(stst.tuples(labels, labels)))
        try:
            expected = replay_oracle(g, pairs)
        except DeadVertexAtStep as exc:
            expected = (exc.index, exc.vertex)
        seq = ContractionSequence.build(g, pairs)
        try:
            final, width = g.replay(pairs)
        except DeadVertexAtStep as exc:
            assert (exc.index, exc.vertex) == expected
            with pytest.raises(DeadVertexAtStep) as again:
                verify(g, seq)
            assert (again.value.index, again.value.vertex) == expected
        else:
            assert (final, width) == expected
            assert final.vertices == expected[0].vertices
            validate(final)
            if final.edge_count():
                with pytest.raises(IncompleteSequence):
                    verify(g, seq)
            else:
                assert verify(g, seq) == width
        assert g == snapshot

    def test_width_read_at_a_red_neighbour(self):
        # step 1 leaves 4 red to 5, step 2 makes it red to 6 too: width 2
        # comes from 4's red degree alone, never from a fresh vertex's
        g = new_trigraph(5, [(2, 4), (3, 4)])
        pairs = [(1, 3), (2, 0), (5, 6), (7, 4)]
        assert g.replay(pairs)[1] == replay_oracle(g, pairs)[1] == 2
        assert g.replay(pairs[:1])[1] == 1

    def test_fig2_full_sequence(self):
        g = make_fig2()
        final, width = g.replay(FIG2_PAIRS)
        assert final.vertices == (10,) and final.next_label == 11
        assert width == 2

    def test_empty_replay(self):
        g = new_trigraph(3, [(0, 1)], [(1, 2)])
        assert g.replay(()) == (g, 1)

    def test_dead_vertex_reports_step(self):
        g = make_fig2()
        # step 1 merges 0 away, so step 2 names a dead vertex
        with pytest.raises(DeadVertexAtStep) as exc:
            g.replay(FIG2_PAIRS[:2] + [(0, 2)])
        assert (exc.value.index, exc.value.vertex) == (2, 0)
        with pytest.raises(DeadVertexAtStep) as exc:
            g.replay([(4, 5), (3, 3)])
        assert (exc.value.index, exc.value.vertex) == (1, 3)


class TestInduceRecolor:
    def test_induce_identity(self):
        g = make_fig2()
        assert g.induce(g.vertices) == g

    def test_induce_triangle(self):
        g = make_fig2()
        t = g.induce({0, 1, 2})
        assert t.black_edges() == [(0, 1), (0, 2), (1, 2)]
        assert t.n == 3

    def test_induce_bad_subset(self):
        with pytest.raises(BadVertexSet):
            make_fig2().induce({0, 99})

    @settings(max_examples=200, derandomize=True)
    @given(stst.integers(min_value=1, max_value=12), stst.data())
    def test_split_equals_induce(self, n, data):
        # a sparse trigraph, so that it has several components, then a few
        # contractions, so that labels and vertex order are not 0..n-1
        pairs = list(itertools.combinations(range(n), 2))
        colors = data.draw(
            stst.lists(stst.sampled_from((0,) * 6 + (1, 2)), min_size=len(pairs), max_size=len(pairs))
        )
        g = new_trigraph(
            n,
            [pairs[i] for i in range(len(pairs)) if colors[i] == 1],
            [pairs[i] for i in range(len(pairs)) if colors[i] == 2],
        )
        for _ in range(data.draw(stst.integers(min_value=0, max_value=(n - 1) // 2))):
            u, v = data.draw(stst.permutations(sorted(g.vertices)).map(lambda p: p[:2]))
            g = g.contract(u, v)
        # every public constructor keeps labels ascending; shuffle the order
        order = data.draw(stst.permutations(g.vertices))
        g = Trigraph(
            {v: g.black_neighbors(v) for v in order},
            {v: g.red_neighbors(v) for v in order},
            g.next_label,
        )
        comps = connected_components_oracle(g)
        parts = g.split(comps)
        assert len(parts) == len(comps)
        for comp, part in zip(comps, parts):
            sub = g.induce(comp)
            assert part == sub
            assert part.vertices == sub.vertices
            # and both are the induced subtrigraph, built here from scratch
            keep = set(comp)
            assert part.vertices == tuple(v for v in g.vertices if v in keep)
            assert part.next_label == g.next_label
            for v in part.vertices:
                assert part.black_neighbors(v) == g.black_neighbors(v) & keep
                assert part.red_neighbors(v) == g.red_neighbors(v) & keep

    def test_split_bad_subset(self):
        with pytest.raises(BadVertexSet):
            make_fig2().split([{0, 1}, {99}])

    def test_split_overlapping_parts(self):
        # a shared vertex would be listed by a part that does not hold it
        g = new_trigraph(3, [(0, 1), (1, 2)])
        with pytest.raises(BadVertexSet):
            g.split([[0, 1], [1, 2]])
        with pytest.raises(BadVertexSet):
            g.split([[0], [0]])

    def test_max_red_degree_empty(self):
        assert new_trigraph(1).max_red_degree() == 0
        assert new_trigraph(0).max_red_degree() == 0


class TestCopyOnWrite:
    """A working copy shares its value's frozensets until it writes, and a
    write swaps in a private set: no write ever reaches the value, nor one
    working copy's write another's."""

    @staticmethod
    def held(g):
        black, red = g.adjacency()
        return {v: (black[v], red[v], set(black[v]), set(red[v])) for v in black}

    @staticmethod
    def unchanged(g, held):
        black, red = g.adjacency()
        return black.keys() == held.keys() and all(
            black[v] is b and red[v] is r and b == bs and r == rs
            for v, (b, r, bs, rs) in held.items()
        )

    @staticmethod
    def draw_pairs(data, g, live):
        live = list(live)
        steps = data.draw(stst.integers(min_value=0, max_value=len(live) - 1))
        pairs = []
        for nxt in range(g.next_label, g.next_label + steps):
            u, v = data.draw(stst.permutations(live).map(lambda p: p[:2]))
            pairs.append((u, v))
            live = [x for x in live if x not in (u, v)] + [nxt]
        return pairs

    @settings(max_examples=300, derandomize=True)
    @given(trigraphs(max_n=8), stst.data())
    def test_writes_never_reach_the_value(self, g, data):
        from twinwidth.reduce import _Reduction
        from twinwidth.solver import _Search

        value = self.held(g)
        g.replay(self.draw_pairs(data, g, g.vertices))
        assert self.unchanged(g, value)
        # the runner plays and reddens on its working copy, then freezes it;
        # a kernel replayed from the frozen value and the runner then each
        # write on their own
        run = _Reduction(g, _Search())
        run._play(self.draw_pairs(data, run.work, run.work.vertices))
        reddened = run.work.black_edges()[: data.draw(stst.integers(0, 2))]
        run.work._redden(reddened)
        assert self.unchanged(g, value)
        runner = self.held(run.work)
        tidy = run.work._frozen()
        frozen = self.held(tidy)
        kernel, _ = tidy.replay(self.draw_pairs(data, tidy, tidy.vertices))
        assert self.unchanged(run.work, runner)
        made = self.held(kernel)
        run._play(self.draw_pairs(data, run.work, run.work.vertices))
        run.work._redden(run.work.black_edges()[:1])
        assert self.unchanged(kernel, made)
        assert self.unchanged(tidy, frozen)
        assert self.unchanged(g, value)

    @settings(max_examples=200, derandomize=True)
    @given(bridged_trees())
    def test_tree_cuts_never_reach_the_value(self, drawn):
        # a tree cut, of a star or a deeper tree, applies its end state on
        # the runner's working copy, and the cut's pairs replayed from the
        # input, or a kernel replayed from the frozen cut, write to neither;
        # the runner folds along the scan of the bridge's component, rerooted
        # at its core vertex
        from twinwidth.reduce import _Reduction
        from twinwidth.solver import SolverConfig, _Search

        g, tree, _ = drawn
        value = self.held(g)
        u = tree.bridge[0]
        scan = next(s for s in spanning_forest(g) if u in s.parent)
        run = _Reduction(g, _Search(SolverConfig(max_vertices=0)), scan)
        scan.reroot(u)
        run._cut(tree)
        assert self.unchanged(g, value)
        runner = self.held(run.work)
        cut = run.work._frozen()
        played, _ = g.replay(run.prefix)
        cut.replay([(tree.bridge[1], cut.next_label - 1)])
        assert self.unchanged(run.work, runner)
        assert self.unchanged(g, value)
        assert same_state(cut, played)


class TestCollapse:
    """A tree's fold applied as its end state is the state its pairs play
    to: the tree below the root becomes the fold's last label, adjacent to
    the root alone, black for a star's twin leaves and red below a deeper
    tree."""

    @settings(max_examples=300, derandomize=True)
    @given(bridged_trees())
    def test_end_state_equals_the_played_state(self, drawn):
        from twinwidth.reduce import _fold

        g, tree, kids = drawn
        root = tree.bridge[1]
        pairs = Emitter(g.next_label)
        _fold(kids, root, pairs)
        played = g._thawed()
        played._play(pairs)
        cut = g._thawed()
        cut._collapse(tree.vertices - {root}, root, len(pairs))
        assert same_state(cut._frozen(), played._frozen())
        assert cut.next_label == played.next_label == g.next_label + len(pairs)
        assert validate(cut._frozen())
