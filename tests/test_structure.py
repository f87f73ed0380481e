import random

import pytest
from hypothesis import given, settings, strategies as stst

from twinwidth.corpus import (
    cycle_with_trees,
    random_connected_graph,
    random_tree,
    random_with_dangling_trees,
)
from twinwidth.structure import (
    Stump,
    StumpKind,
    StumpSet,
    classify_stumps,
    feedback_edge_set,
    find_bridges,
    find_dangling_paths,
    find_dangling_trees,
    induced_spider,
    red_stump_count,
    spanning_forest,
    stumps_at,
)
from twinwidth.solver import decide_width_at_most, optimal_sequence
from twinwidth.trigraph import Trigraph, new_trigraph

from conftest import (
    classify_stumps_oracle,
    connected_components_oracle,
    feedback_edge_set_oracle,
    find_bridges_oracle,
    find_dangling_trees_oracle,
    make_fig3,
    two_core_oracle,
    witness,
)


def cycle(n):
    return new_trigraph(n, [(i, (i + 1) % n) for i in range(n)])


@stst.composite
def sparse_trigraphs(draw, max_n=14):
    """A random forest, mostly one tree, plus up to three extra edges; each
    edge is red with probability 0.3."""
    n = draw(stst.integers(min_value=1, max_value=max_n))
    edges = set()
    for v in range(1, n):
        u = draw(stst.integers(min_value=0, max_value=v))
        if u < v:  # u == v starts a new component
            edges.add((u, v))
    if n >= 2:
        for _ in range(draw(stst.integers(min_value=0, max_value=3))):
            a, b = draw(stst.permutations(range(n)).map(lambda p: sorted(p[:2])))
            edges.add((a, b))
    red = {e for e in sorted(edges) if draw(stst.integers(0, 9)) < 3}
    return new_trigraph(n, sorted(edges - red), sorted(red))


class TestFeedbackEdges:
    def test_tree_empty(self):
        t = random_tree(12, random.Random(0))
        assert len(feedback_edge_set(t)) == 0

    def test_c5_single_edge(self):
        # the BFS from 0 reaches 2 and 3 last; their edge closes the cycle
        assert feedback_edge_set(cycle(5)) == ((2, 3),)

    def test_fig3_two_edges(self):
        assert len(feedback_edge_set(make_fig3())) == 2

    def test_size_formula_random(self):
        rng = random.Random(1)
        for _ in range(40):
            n = rng.randrange(3, 30)
            k = rng.randrange(0, 5)
            if n - 1 + k > n * (n - 1) // 2:
                continue
            g = random_connected_graph(n, k, rng)
            fes = feedback_edge_set(g)
            assert len(fes) == g.edge_count() - g.n + 1 == k
            # removal leaves an acyclic graph
            remaining = [e for e in g.black_edges() if e not in set(fes)]
            h = new_trigraph(g.n, remaining)
            assert len(feedback_edge_set(h)) == 0


def assert_induced_cycle(g, cyc):
    """``cyc`` lists the vertices of an induced cycle of ``g`` in order, at
    least five of them: consecutive ones adjacent, no chord."""
    assert len(cyc) >= 5 and len(set(cyc)) == len(cyc)
    assert all(g.color(a, b) is not None for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    assert g.induce(cyc).edge_count() == len(cyc)


def distance_without(g, a, b):
    """The distance from ``a`` to ``b`` in ``g`` minus the edge ``ab``."""
    dist = {a: 0}
    queue = [a]
    for v in queue:
        for u in sorted(g.neighbors(v)):
            if u not in dist and {u, v} != {a, b}:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist[b]


@stst.composite
def small_connected_graphs(draw):
    """A random connected graph on 5..12 vertices with 1..4 edges beyond a
    spanning tree."""
    n = draw(stst.integers(min_value=5, max_value=12))
    k = draw(stst.integers(min_value=1, max_value=4))
    return random_connected_graph(n, k, random.Random(draw(stst.integers(0, 2**32))))


class TestInducedCycle:
    @pytest.mark.parametrize("trees", [0, 6])
    @pytest.mark.parametrize("length", range(5, 13))
    def test_long_cycle_found_and_width_two(self, length, trees):
        g = cycle_with_trees(length, trees, random.Random(length))
        cyc = witness(g)
        assert cyc is not None and sorted(cyc) == list(range(length))
        assert_induced_cycle(g, cyc)
        assert optimal_sequence(g).width == 2

    @pytest.mark.parametrize("trees", [0, 6, 40])
    @pytest.mark.parametrize("length", [3, 4])
    def test_short_cycle_has_none(self, length, trees):
        assert witness(cycle_with_trees(length, trees, random.Random(length))) is None

    def test_tree_has_none(self):
        assert witness(random_tree(12, random.Random(0))) is None

    def test_long_cycle_behind_short_ones(self):
        # a C6 with a long chord splits into two C4s: no witness.  Without
        # the chord, and beside a triangle whose feedback edge (1, 2) comes
        # first, the C6 is found
        c6 = [(0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)]
        assert witness(new_trigraph(8, c6 + [(0, 5)])) is None
        g = new_trigraph(8, c6 + [(0, 1), (1, 2), (2, 0)])
        assert feedback_edge_set(g)[0] == (1, 2)
        assert sorted(witness(g)) == [0, 3, 4, 5, 6, 7]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(small_connected_graphs())
    def test_witness_refutes_width_one(self, g):
        # a witness exists iff some feedback edge ab leaves a and b at
        # distance >= 4 in the whole graph minus ab
        cyc = witness(g)
        far = [e for e in feedback_edge_set(g) if distance_without(g, *e) >= 4]
        assert (cyc is not None) == bool(far)
        if cyc is not None:
            assert len(cyc) == distance_without(g, *far[0]) + 1
            assert_induced_cycle(g, cyc)
            assert decide_width_at_most(g, 1) is None


def assert_induced_spider(g, spider):
    """``spider`` is ``(c, a1, b1, a2, b2, a3, b3)``: seven vertices of ``g``
    whose only edges are the legs ``c-ai-bi``."""
    c, *legs = spider
    assert len(set(spider)) == 7
    steps = [(c, a) for a in legs[::2]] + list(zip(legs[::2], legs[1::2]))
    assert all(g.color(x, y) is not None for x, y in steps)
    assert g.induce(spider).edge_count() == 6


class TestInducedSpider:
    def test_spider_alone(self):
        g = new_trigraph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert sorted(induced_spider(g)) == list(range(7))
        assert decide_width_at_most(g, 1) is None
        assert induced_spider(g.induce(range(6))) is None

    def test_found_on_trees_iff_no_width_one_sequence(self):
        rng = random.Random(5)
        found = 0
        for _ in range(1500):
            t = random_tree(rng.randrange(4, 13), rng)
            spider = induced_spider(t)
            assert (spider is None) == (decide_width_at_most(t, 1) is not None)
            if spider is not None:
                assert_induced_spider(t, spider)
                found += 1
        assert 100 < found < 1400

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(small_connected_graphs())
    def test_spider_refutes_width_one(self, g):
        spider = induced_spider(g)
        if spider is not None:
            assert_induced_spider(g, spider)
            assert decide_width_at_most(g, 1) is None

    def test_hub_read_once(self, monkeypatch):
        # d children of degree 3 on a hub labelled last: every child is a
        # candidate centre beside the hub, and the scan reads each
        # neighbourhood once, the hub's included, and sorts none
        d = 2000
        edges = [e for i in range(d) for e in ((3 * i, 3 * i + 1), (3 * i, 3 * i + 2))]
        g = new_trigraph(3 * d + 1, edges + [(3 * i, 3 * d) for i in range(d)])
        reads = []
        real = Trigraph.neighbors

        def counting(self, u):
            reads.append(u)
            return real(self, u)

        def no_sorting(*args, **kwargs):
            raise AssertionError("a neighbourhood was sorted")

        monkeypatch.setattr(Trigraph, "neighbors", counting)
        monkeypatch.setattr("builtins.sorted", no_sorting)
        assert induced_spider(g)[0] == 3 * d
        assert len(reads) == len(set(reads)) == d + 1


def p4(g):
    """The P4 certificate of ``g``'s first scanned component, the one of its
    smallest label, or None if ``g`` is empty."""
    forest = spanning_forest(g)
    return forest[0].p4() if forest else None


class TestInducedP4:
    def test_path_alone(self):
        g = new_trigraph(4, [(0, 1), (1, 2), (2, 3)])
        assert p4(g) == [0, 1, 2, 3]
        assert p4(g.induce(range(3))) is None
        assert p4(g.induce(())) is None

    def test_diameter_two_missed(self):
        # sound but incomplete: the C5 holds an induced P4, but every vertex
        # reaches every other within two edges
        assert p4(cycle(5)) is None
        assert decide_width_at_most(cycle(5), 0) is None

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(sparse_trigraphs())
    def test_p4_refutes_width_zero(self, g):
        path = p4(g)
        if path is not None:
            assert len(set(path)) == 4 and path[0] == min(g.vertices)
            assert all(g.color(x, y) is not None for x, y in zip(path, path[1:]))
            assert g.induce(path).edge_count() == 3
            assert decide_width_at_most(g, 0) is None

    def test_found_iff_the_smallest_vertex_reaches_distance_three(self):
        rng = random.Random(6)
        found = 0
        for _ in range(200):
            g = random_connected_graph(rng.randrange(2, 12), 0, rng)
            far = max(distances_from(g, min(g.vertices)).values())
            assert (p4(g) is not None) == (far >= 3)
            found += far >= 3
        assert 50 < found < 200


def distances_from(g, a):
    """Each vertex's distance from ``a`` in its component."""
    dist = {a: 0}
    queue = [a]
    for v in queue:
        for u in g.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


class TestBridges:
    def test_c5_no_bridges(self):
        assert find_bridges(cycle(5)) == ()

    def test_star_all_bridges(self):
        star = new_trigraph(5, [(0, i) for i in range(1, 5)])
        assert find_bridges(star) == ((0, 1), (0, 2), (0, 3), (0, 4))

    def test_fig3_bridges_include_tree_edges(self):
        g = make_fig3()
        bridges = set(find_bridges(g))
        assert (0, 23) in bridges and (3, 30) in bridges
        assert (0, 1) not in bridges  # on a cycle

    def test_disconnected_matches_oracle(self):
        # one scan finds every component's bridges: on random graphs of several
        # components, some edges red and some labels fresh, the bridges are
        # the edges whose removal splits a component
        assert find_bridges(new_trigraph(4, [(0, 1), (2, 3)])) == ((0, 1), (2, 3))
        rng = random.Random(24)
        checked = 0
        for _ in range(300):
            n = rng.randrange(2, 13)
            edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(n))}
            red = {e for e in edges if rng.random() < 0.3}
            g = new_trigraph(n, sorted(edges - red), sorted(red))
            if n > 2 and rng.random() < 0.5:
                g = g.contract(*rng.sample(sorted(g.vertices), 2))
            if len(connected_components_oracle(g)) > 1:
                assert find_bridges(g) == find_bridges_oracle(g)
                checked += 1
        assert checked > 200


class TestDanglingTrees:
    def test_c5_none(self):
        assert find_dangling_trees(cycle(5)) == ()

    def test_acyclic_none(self):
        star = new_trigraph(5, [(0, i) for i in range(1, 5)])
        assert find_dangling_trees(star) == ()

    def test_every_component(self):
        # a tree beside two graphs with a cycle and trees, in random order:
        # each cyclic component's trees are listed, as one sorted list, and
        # the tree component has none
        rng = random.Random(7)
        for _ in range(50):
            parts = [random_tree(rng.randrange(1, 6), rng)] + [
                random_with_dangling_trees(rng.randrange(3, 6), 1, rng.randrange(1, 6), rng)
                for _ in range(2)
            ]
            rng.shuffle(parts)
            edges, shift = [], 0
            for h in parts:
                edges += [(u + shift, v + shift) for u, v in h.black_edges()]
                shift += h.n
            g = new_trigraph(shift, edges)
            got = find_dangling_trees(g)
            assert got == find_dangling_trees_oracle(g)
            assert len(got) == sum(len(find_dangling_trees(h)) for h in parts)
            assert all(find_dangling_trees(h) for h in parts if h.edge_count() >= h.n)

    def test_fig3_blue_vertex_sets(self):
        g = make_fig3()
        trees = find_dangling_trees(g)
        assert len(trees) == 11
        assert sum(len(t.vertices) for t in trees) == 31
        assert all(t.all_black for t in trees)
        by_bridge = {t.bridge: t.vertices for t in trees}
        assert by_bridge[(0, 23)] == frozenset((23, 24, 25, 26, 27, 28))
        assert by_bridge[(3, 30)] == frozenset((30, 31, 32, 33, 34, 35, 36))
        assert by_bridge[(18, 50)] == frozenset((50,))

    def test_red_edge_inside_a_tree(self):
        # a C3 with the tree 3-4-5 hanging off 0, its inner edge red
        g = new_trigraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)], [(4, 5)])
        (tree,) = find_dangling_trees(g)
        assert tree.bridge == (0, 3) and tree.vertices == frozenset((3, 4, 5))
        assert not tree.all_black

    def test_red_bridge(self):
        # a C3 with the path 3-4 hanging red off 0 and the pendant 5 off 1
        g = new_trigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (1, 5)], [(0, 3)])
        trees = find_dangling_trees(g)
        assert [(t.bridge, t.all_black) for t in trees] == [((0, 3), False), ((1, 5), True)]

    def test_exactly_one_leaving_edge_and_removal(self):
        g = make_fig3()
        for tree in find_dangling_trees(g):
            leaving = [
                (a, b)
                for a in tree.vertices
                for b in g.neighbors(a)
                if b not in tree.vertices
            ]
            assert len(leaving) == 1
            rest = g.induce(set(g.vertices) - tree.vertices)
            assert tree.vertices.isdisjoint(
                set().union(*[t.vertices for t in find_dangling_trees(rest)], set())
            )


class TestStumps:
    def test_half_stump(self):
        g = new_trigraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        stumps = classify_stumps(g)
        assert [s.kind for s in stumps[0]] == [StumpKind.HALF]
        assert stumps[0][0].vertices == (3,)

    def test_red_stump(self):
        g = new_trigraph(5, [(0, 1), (1, 2), (2, 0), (0, 3)], [(3, 4)])
        stumps = classify_stumps(g)
        assert [s.kind for s in stumps[0]] == [StumpKind.RED]
        assert stumps[0][0].vertices == (3, 4)
        assert red_stump_count(g) == 1

    def test_black_stump_and_half(self):
        g = new_trigraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (0, 5)])
        kinds = sorted(s.kind.value for s in classify_stumps(g)[0])
        assert kinds == ["black", "half"]

    def test_triangle_has_none(self):
        assert classify_stumps(new_trigraph(3, [(0, 1), (1, 2), (2, 0)])) == {}

    def test_no_overlapping_vertices(self):
        g = new_trigraph(4, [(0, 1), (1, 2), (2, 3)])  # P4
        used = set()
        for stumps in classify_stumps(g).values():
            for s in stumps:
                assert used.isdisjoint(s.vertices)
                used.update(s.vertices)

    @pytest.mark.parametrize("centre", [0, 1, 2])
    def test_three_path_centre_owns_both_ends(self, centre):
        # an owner of degree 1 owns no two-vertex stump, so whatever the
        # labels the centre of P3 owns its two ends as half stumps
        a, b = [x for x in range(3) if x != centre]
        g = new_trigraph(3, [(centre, a), (centre, b)])
        stumps = classify_stumps(g)
        assert list(stumps) == [centre]
        assert [s.vertices for s in stumps[centre]] == [(a,), (b,)]
        assert all(s.kind is StumpKind.HALF for s in stumps[centre])
        # with the edge to b red, a (degree 1) still owns no red stump
        g = new_trigraph(3, [(centre, a)], [(centre, b)])
        assert classify_stumps(g) == {centre: (stumps[centre][0],)}
        assert red_stump_count(g) == 0

    def test_dead_vertex_owns_none(self):
        g = new_trigraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        assert stumps_at(g, 4) == ()

    @settings(max_examples=1000, derandomize=True)
    @given(sparse_trigraphs())
    def test_matches_claiming_oracle(self, g):
        stumps = classify_stumps(g)
        reds = sum(s.kind is StumpKind.RED for ss in stumps.values() for s in ss)
        assert red_stump_count(g) == reds
        if all(len(c) != 3 for c in connected_components_oracle(g)):
            oracle = classify_stumps_oracle(g)
            assert stumps == oracle
            assert red_stump_count(g) == sum(
                s.kind is StumpKind.RED for ss in oracle.values() for s in ss
            )


class TestDanglingPaths:
    def test_triangle_none(self):
        assert find_dangling_paths(new_trigraph(3, [(0, 1), (1, 2), (2, 0)])) == ()

    def test_run_between_anchors(self):
        g = make_fig3()
        paths = find_dangling_paths(g)
        # the 17-vertex chain is interrupted by its stump-bearing vertices
        assert (7, 8, 9) in paths

    def test_two_core(self):
        (scan,) = spanning_forest(make_fig3())
        assert scan.core() == frozenset(range(23))


@stst.composite
def scan_trigraphs(draw, max_n=12, connected=False):
    """A random forest (one tree if ``connected``) plus up to ``n`` extra
    edges, a drawn share of them red (none, 30% or all), then up to three
    random contractions, which add red edges and put fresh labels at the
    end of the vertex order."""
    n = draw(stst.integers(min_value=1, max_value=max_n))
    edges = set()
    for v in range(1, n):
        u = draw(stst.integers(min_value=0, max_value=v - 1 if connected else v))
        if u < v:  # u == v starts a new component
            edges.add((u, v))
    for _ in range(draw(stst.integers(min_value=0, max_value=n))):
        a, b = draw(stst.integers(0, n - 1)), draw(stst.integers(0, n - 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    share = draw(stst.sampled_from((0, 3, 10)))
    red = {e for e in sorted(edges) if draw(stst.integers(0, 9)) < share}
    g = new_trigraph(n, sorted(edges - red), sorted(red))
    for _ in range(draw(stst.integers(min_value=0, max_value=min(3, n - 1)))):
        u, v = draw(stst.permutations(sorted(g.vertices)).map(lambda p: p[:2]))
        g = g.contract(u, v)
    return g


class TestScansMatchOracles:
    """The scans read the adjacency maps; the oracles are the bodies that
    went through the per-vertex queries.  Outputs match exactly, order
    included."""

    @settings(max_examples=300, derandomize=True)
    @given(scan_trigraphs())
    def test_feedback_edge_set(self, g):
        got = feedback_edge_set(g)
        assert got == feedback_edge_set_oracle(g)
        assert list(got) == sorted(got)

    @settings(max_examples=300, derandomize=True)
    @given(scan_trigraphs())
    def test_connected_components(self, g):
        assert [sorted(s.order) for s in spanning_forest(g)] == connected_components_oracle(g)

    @settings(max_examples=300, derandomize=True)
    @given(scan_trigraphs())
    def test_two_core(self, g):
        # each component's core is its share of the peeled core, built in
        # label order, the order of the vertices
        oracle = two_core_oracle(g)
        for scan in spanning_forest(g):
            core = scan.core()
            assert core == oracle & frozenset(scan.order)
            assert list(core) == list(frozenset(v for v in g.vertices if v in core))

    @settings(max_examples=300, derandomize=True)
    @given(scan_trigraphs())
    def test_bridges(self, g):
        got = find_bridges(g)
        assert got == find_bridges_oracle(g)
        assert list(got) == sorted(got)

    @settings(max_examples=300, derandomize=True)
    @given(stst.one_of(scan_trigraphs(connected=True), scan_trigraphs()))
    def test_dangling_trees(self, g):
        got = find_dangling_trees(g)
        assert got == find_dangling_trees_oracle(g)
        assert [(t.bridge, sorted(t.vertices), t.all_black) for t in got] == [
            (t.bridge, sorted(t.vertices), t.all_black)
            for t in find_dangling_trees_oracle(g)
        ]

    def test_scans_skip_the_per_vertex_queries(self, monkeypatch):
        # the scans read the adjacency maps, never the checked queries
        g = cycle_with_trees(20, 200, random.Random(3))
        for name in ("neighbors", "degree", "black_neighbors", "red_neighbors"):
            def refuse(self, u, name=name):
                raise AssertionError(f"{name} called")

            monkeypatch.setattr(Trigraph, name, refuse)
        feedback_edge_set(g)
        spanning_forest(g)
        find_dangling_trees(g)
        classify_stumps(g)


class TestStumpSet:
    def test_split_by_kind_and_back(self):
        g = make_fig3()
        for u in g.vertices:
            stumps = stumps_at(g, u)
            owned = StumpSet.of(stumps)
            assert owned.ordered() == stumps
            assert [s.kind for s in owned.red] == [StumpKind.RED] * len(owned.red)
            assert [s.kind for s in owned.half] == [StumpKind.HALF] * len(owned.half)

    @pytest.mark.parametrize(
        "kinds, legal",
        [
            ((), True),
            (("red",), True),
            (("black",), True),
            (("half",), True),
            (("black", "half"), True),
            (("red", "half"), False),
            (("red", "red"), False),
            (("black", "black"), False),
            (("half", "half"), False),
        ],
    )
    def test_legal(self, kinds, legal):
        stumps = [
            Stump(StumpKind(kind), (i,) if kind == "half" else (2 * i, 2 * i + 1))
            for i, kind in enumerate(kinds, 1)
        ]
        assert StumpSet.of(stumps).legal() is legal
