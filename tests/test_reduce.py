import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as stst

from twinwidth.corpus import (
    cycle_with_trees,
    random_connected_graph,
    random_tree,
    random_with_dangling_trees,
)
from twinwidth.errors import Disconnected, PreconditionViolated
from twinwidth.kernel import general_kernel, tww2_bikernel
from twinwidth.reduce import (
    _Reduction,
    _fold,
    _prune,
    _tidy,
    fen1_sequence,
    merge_stumps,
    prune,
    reduce_star,
    reduce_tree,
    tidy,
    tree_sequence,
)
from twinwidth.sequence import Emitter, verify
from twinwidth.solver import SolverConfig, _Search, optimal_sequence
from twinwidth.structure import (
    DanglingTree,
    PseudoPath,
    Stump,
    StumpKind,
    StumpSet,
    classify_stumps,
    find_dangling_trees,
    red_stump_count,
    spanning_forest,
    stumps_at,
    validate_hp,
)
from twinwidth import reduce as reduce_module
from twinwidth.trigraph import Trigraph, new_trigraph

from conftest import (
    count_scans,
    find_dangling_trees_oracle,
    fold_oracle,
    iso_key,
    make_fig3,
    make_fig3_middle,
    make_fig3_tidy,
    observe_rules,
    same_state,
)

CFG = SolverConfig(max_vertices=25)


def chunk_at(g, root):
    for t in find_dangling_trees(g):
        if t.bridge[1] == root:
            return t
    raise AssertionError(f"no dangling tree rooted at {root}")


@pytest.fixture
def runners(monkeypatch):
    """Every runner made while the test runs, in order."""
    made = []
    real = _Reduction.__init__

    def init(run, *args, **kwargs):
        real(run, *args, **kwargs)
        made.append(run)

    monkeypatch.setattr(_Reduction, "__init__", init)
    return made


class TestTreeSequence:
    def test_star_rooted_at_center(self):
        star = new_trigraph(4, [(0, 1), (0, 2), (0, 3)])
        seq = tree_sequence(star, 0)
        assert verify(star, seq) <= 2
        assert all(0 not in pair for pair in seq.pairs()[:-1])
        assert 0 in seq.pairs()[-1]

    def test_p5_rooted_at_endpoint(self):
        p5 = new_trigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        seq = tree_sequence(p5, 0)
        assert verify(p5, seq) <= 2
        assert all(0 not in pair for pair in seq.pairs()[:-1])

    def test_single_vertex(self):
        t = new_trigraph(1)
        assert len(tree_sequence(t, 0)) == 0

    def test_rejects_non_trees(self):
        with pytest.raises(PreconditionViolated, match="not a connected acyclic black graph"):
            tree_sequence(new_trigraph(3, [(0, 1), (1, 2), (2, 0)]), 0)
        with pytest.raises(PreconditionViolated, match="expects a black trigraph"):
            tree_sequence(new_trigraph(3, [(0, 1)], [(1, 2)]), 0)

    def test_random_trees_width_two_root_last(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(1, 40)
            t = random_tree(n, rng)
            root = rng.randrange(n)
            seq = tree_sequence(t, root)
            assert verify(t, seq) <= 2
            assert all(root not in pair for pair in seq.pairs()[:-1])


class TestReduceStar:
    def make(self, leaves=3):
        # triangle core 0-1-2, bridge 0-3, star center 3 with leaves
        edges = [(0, 1), (1, 2), (2, 0), (0, 3)]
        edges += [(3, 4 + i) for i in range(leaves)]
        return new_trigraph(4 + leaves, edges)

    def test_star_becomes_black_stump(self):
        g = self.make(3)
        out = reduce_star(g, chunk_at(g, 3))
        assert not out.is_solved
        stumps = classify_stumps(out.instance)[0]
        assert [s.kind for s in stumps] == [StumpKind.BLACK]
        assert len(out.lift.prefix) == 2

    def test_single_edge_rejected(self):
        # star with 0 extra leaves beyond the bridge endpoint
        g = new_trigraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        with pytest.raises(PreconditionViolated, match="at least two leaves beyond its center"):
            reduce_star(g, chunk_at(g, 3))

    def test_deep_tree_rejected(self, runners):
        # a leaf of the center carries a pendant of its own
        g = new_trigraph(8, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (3, 5), (3, 6), (6, 7)])
        with pytest.raises(PreconditionViolated, match="black pendants of its center"):
            reduce_star(g, chunk_at(g, 3))
        (run,) = runners
        assert run.work == g and not run.prefix

    def test_roundtrip_preserves_tww(self):
        g = self.make(4)  # n = 8
        out = reduce_star(g, chunk_at(g, 3))
        before = optimal_sequence(g, CFG)
        after = optimal_sequence(out.instance, CFG)
        assert before.width == after.width
        lifted = out.lift.apply(after.sequence)
        assert verify(g, lifted) <= out.lift.bound(after.width)


class TestReduceTree:
    def make_deep(self):
        # triangle core, bridge 0-3, path 3-4-5 (vertex at distance 2)
        return new_trigraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5)])

    def test_path_becomes_red_stump(self):
        g = self.make_deep()
        out = reduce_tree(g, chunk_at(g, 3), CFG)
        if out.is_solved:
            # triangle + path can be 1-contractible; accept the solved branch
            assert verify(g, out.solved) <= 2
        else:
            stumps = classify_stumps(out.instance)[0]
            assert [s.kind for s in stumps] == [StumpKind.RED]

    def test_solved_branch_on_onewide_candidate(self):
        # core = single edge: after cutting, the candidate is tiny and
        # 1-contractible, so the rule must solve at width <= 2
        g = new_trigraph(5, [(0, 1), (0, 2), (2, 3), (3, 4)])
        # not a valid target: 0-1 is acyclic, whole graph is a tree; build a
        # C4 core instead with a deep tail that leaves a width-1 candidate
        g = new_trigraph(
            7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)]
        )
        out = reduce_tree(g, chunk_at(g, 4), CFG)
        if out.is_solved:
            w = verify(g, out.solved)
            assert w <= 2 and w == optimal_sequence(g, CFG).width
        else:
            assert red_stump_count(out.instance) == 1

    def test_two_red_stumps_skip_the_decision(self, monkeypatch):
        # two deep tails on a C5: the first cut's candidate carries one red
        # stump and its guard decides width 1; the second candidate carries
        # two, and its guard makes no decision
        calls = []
        real = _Search.first

        def counting(search, h, caps):
            calls.append((h.n, caps))
            return real(search, h, caps)

        monkeypatch.setattr(_Search, "first", counting)
        g = new_trigraph(
            11,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (0, 5), (5, 6), (6, 7), (2, 8), (8, 9), (9, 10)],
        )
        first = reduce_tree(g, chunk_at(g, 5), CFG)
        assert not first.is_solved
        assert calls == [(first.instance.n, (1,))]
        second = reduce_tree(first.instance, chunk_at(first.instance, 8), CFG)
        assert not second.is_solved
        assert calls == [(first.instance.n, (1,))]
        assert red_stump_count(second.instance) == 2

    def test_star_rejected(self):
        g = new_trigraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (3, 5)])
        with pytest.raises(PreconditionViolated):
            reduce_tree(g, chunk_at(g, 3), CFG)

    def test_red_tree_rejected(self, runners):
        # a dangling path whose last edge is red is refused before any pair
        # is played
        g = new_trigraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)], [(4, 5)])
        with pytest.raises(PreconditionViolated, match="dangling tree must be black"):
            reduce_tree(g, chunk_at(g, 3), CFG)
        (run,) = runners
        assert run.work == g and not run.prefix

    @pytest.mark.parametrize("n, edges, tree", [
        # the fold from 2 reaches {2, 3, 4}, but 3 and 4 have edges to 6 and 5
        (7, [(0, 1), (0, 2), (0, 6), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5), (5, 6)],
         DanglingTree((0, 2), frozenset({2, 3, 4}), True)),
        # 7 and 6 lie on the cycle 0-1-5-6-7, so 6 has an edge to 5
        (9, [(0, 1), (0, 7), (1, 2), (1, 5), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)],
         DanglingTree((0, 7), frozenset({6, 7, 8}), True)),
        # the tree hangs from 0, not from the core vertex 1 it is given
        (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 7)],
         DanglingTree((1, 5), frozenset({5, 6, 7}), True)),
    ])
    def test_non_dangling_vertices_rejected(self, runners, n, edges, tree):
        # a fold from the root could reach exactly the given vertices, but
        # they do not hang from the core vertex by the bridge alone, so they
        # are no tree of the scan: the public rule refuses them before its
        # runner applies anything
        g = new_trigraph(n, edges)
        with pytest.raises(PreconditionViolated, match="not a dangling black tree"):
            reduce_tree(g, tree, CFG)
        (run,) = runners
        assert run.work == g and not run.prefix

    def test_equivalence_random(self):
        rng = random.Random(21)
        done = 0
        while done < 25:
            g = random_with_dangling_trees(3, 1, rng.randrange(2, 6), rng)
            if g.n > 9:
                continue
            targets = [
                t for t in find_dangling_trees(g)
                if len(t.vertices) > 2 and not all(
                    g.neighbors(x) == frozenset((t.bridge[1],))
                    for x in t.vertices if x != t.bridge[1]
                )
            ]
            if not targets:
                continue
            out = reduce_tree(g, targets[0], CFG)
            w_g = optimal_sequence(g, CFG).width
            if out.is_solved:
                assert verify(g, out.solved) == w_g
            elif w_g >= 2:
                after = optimal_sequence(out.instance, CFG)
                assert after.width == w_g
                assert verify(g, out.lift.apply(after.sequence)) <= out.lift.bound(after.width)
            done += 1


C5 = [(i, (i + 1) % 5) for i in range(5)]


@stst.composite
def labelled_trees(draw, offset=0, max_n=30):
    """A random tree on 1..30 vertices labelled ``offset`` on in a random
    order, so that label order and tree shape are independent, and a random
    root: ``(edges, root)``."""
    n = draw(stst.integers(min_value=1, max_value=max_n))
    labels = draw(stst.permutations(range(offset, offset + n)))
    edges = [(labels[draw(stst.integers(0, i - 1))], labels[i]) for i in range(1, n)]
    return edges, labels[draw(stst.integers(0, n - 1))]


@stst.composite
def hung_trees(draw, max_n=30):
    """A C5 with random trees hung from its vertices, all labelled in a
    random order, so that the smallest label, the BFS root, lies in a
    dangling tree about as often as not."""
    n = draw(stst.integers(min_value=6, max_value=max_n))
    labels = draw(stst.permutations(range(n)))
    edges = [(labels[i], labels[(i + 1) % 5]) for i in range(5)]
    edges += [(labels[draw(stst.integers(0, i - 1))], labels[i]) for i in range(5, n)]
    return new_trigraph(n, edges)


class TestFold:
    """Every tree rule emits the pairs of ``fold_oracle``, the depth-first
    walk over sorted black neighbourhoods that the scan's child lists
    replace."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(hung_trees())
    def test_scan_folds_every_dangling_tree(self, g):
        # the trees of the scan, the root's rerooted included, fold along
        # the child lists to the oracle's pairs and remnant, as do the public
        # rules, which scan the trigraph themselves
        (scan,) = spanning_forest(g)
        trees = scan.trees(scan.core())
        assert trees == find_dangling_trees_oracle(g)
        for tree in trees:
            root = tree.bridge[1]
            pairs = Emitter(g.next_label)
            acc = _fold(scan.kids, root, pairs)
            assert (acc, pairs) == fold_oracle(g, root, tree.vertices)
            # the fold reaches exactly the tree: each input label below the
            # root is consumed by a pair once, or is the remnant
            reached = [root, acc] + [x for pair in pairs for x in pair]
            assert sorted(x for x in reached if x is not None and x < g.next_label) == sorted(
                tree.vertices
            )
            if len(tree.vertices) < 3:
                continue
            if all(x == root or g.degree(x) == 1 for x in tree.vertices):
                out = reduce_star(g, tree)
            else:
                out = reduce_tree(g, tree, SolverConfig(max_vertices=0))
            assert list(out.lift.prefix) == pairs

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(labelled_trees())
    def test_tree_sequence(self, tree):
        # the scan's root is vertex 0, and the drawn root is mostly another:
        # the path between them is rerooted, and the fold ends on the
        # oracle's remnant, which the last pair contracts into the root
        edges, root = tree
        t = new_trigraph(len(edges) + 1, edges)
        acc, pairs = fold_oracle(t, root)
        if acc is not None:
            pairs.append((root, acc))
        assert tree_sequence(t, root).pairs() == pairs

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(stst.integers(2, 29).flatmap(lambda leaves: stst.permutations(range(5, leaves + 6))))
    def test_reduce_star(self, labels):
        # a star on a C5, its center and leaves labelled in a random order
        center = labels[0]
        g = new_trigraph(len(labels) + 5, C5 + [(0, center)] + [(center, x) for x in labels[1:]])
        star = chunk_at(g, center)
        _, pairs = fold_oracle(g, center, star.vertices)
        assert list(reduce_star(g, star).lift.prefix) == pairs

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(labelled_trees(offset=5))
    def test_reduce_tree(self, tree):
        # a tree hung from a C5; a zero vertex budget skips the guard's
        # decision, so the rule never solves
        edges, root = tree
        g = new_trigraph(len(edges) + 6, C5 + [(0, root)] + edges)
        chunk = chunk_at(g, root)
        if all(root in e for e in edges):
            with pytest.raises(PreconditionViolated):
                reduce_tree(g, chunk)
            return
        out = reduce_tree(g, chunk, SolverConfig(max_vertices=0))
        _, pairs = fold_oracle(g, root, chunk.vertices)
        assert list(out.lift.prefix) == pairs

    def test_reduce_tree_rejects_unreached_vertices(self, runners):
        # a vertex set with a core vertex, or without an inner tree vertex,
        # is not what the root reaches; the runner is left as it was
        g = new_trigraph(9, C5 + [(0, 5), (5, 6), (6, 7), (7, 8)])
        tree = chunk_at(g, 5)
        for vertices in (tree.vertices | {2}, tree.vertices - {6}):
            runners.clear()
            with pytest.raises(PreconditionViolated, match="not a dangling black tree"):
                reduce_tree(g, DanglingTree(tree.bridge, vertices, True), CFG)
            (run,) = runners
            assert run.work == g and not run.prefix


class TestPublicTreeRules:
    """The public tree rules cut exactly the trees that
    ``find_dangling_trees`` returns: any other vertex set is refused before
    anything is applied."""

    @pytest.mark.parametrize("rule, edges, tree", [
        # a pendant path below the tree vertex 5 of the path 5-6-7-8 on a C5
        (reduce_tree, C5 + [(0, 5), (5, 6), (6, 7), (7, 8)],
         DanglingTree((5, 6), frozenset({6, 7, 8}), True)),
        # a pendant star below the tree vertex 5
        (reduce_star, C5 + [(0, 5), (5, 6), (6, 7), (6, 8)],
         DanglingTree((5, 6), frozenset({6, 7, 8}), True)),
        # a path and a star hung from a vertex of the acyclic host 0-1-2-3
        (reduce_tree, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6)],
         DanglingTree((1, 4), frozenset({4, 5, 6}), True)),
        (reduce_star, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (4, 6)],
         DanglingTree((1, 4), frozenset({4, 5, 6}), True)),
    ])
    def test_refuses_what_no_scan_finds(self, runners, rule, edges, tree):
        # each vertex set hangs from the rest by one black edge, but is no
        # tree off a 2-core
        g = new_trigraph(max(map(max, edges)) + 1, edges)
        assert tree not in find_dangling_trees(g)
        with pytest.raises(PreconditionViolated, match="not a dangling black tree"):
            rule(g, tree)
        (run,) = runners
        assert run.work == g and not run.prefix

    @pytest.mark.parametrize("seed", range(6))
    def test_cuts_every_dangling_tree(self, seed):
        # a host with dangling trees beside a cycle with trees: every tree of
        # three or more vertices is cut, in either component, and the lift's
        # prefix is the fold oracle's pairs
        rng = random.Random(seed)
        host = random_with_dangling_trees(
            rng.randrange(4, 8), rng.randrange(1, 4), rng.randrange(10, 40), rng
        )
        other = cycle_with_trees(5, 20, rng)
        shift = host.next_label
        g = new_trigraph(
            shift + other.next_label,
            host.black_edges() + [(u + shift, v + shift) for u, v in other.black_edges()],
        )
        cut = set()
        for tree in find_dangling_trees(g):
            if len(tree.vertices) < 3:
                continue
            root = tree.bridge[1]
            if all(x == root or g.degree(x) == 1 for x in tree.vertices):
                out = reduce_star(g, tree)
            else:
                out = reduce_tree(g, tree, SolverConfig(max_vertices=0))
            _, pairs = fold_oracle(g, root, tree.vertices)
            assert list(out.lift.prefix) == pairs
            cut.add(root >= shift)
        assert cut == {False, True}


def stumpy(owner_stumps):
    """Triangle 0-1-2 with stump patterns attached to vertex 0.

    ``owner_stumps`` is a list of 'half' | 'black' | 'red'."""
    edges = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4)]  # red stump base at 1
    reds = [(3, 4)]
    nxt = 5
    for kind in owner_stumps:
        if kind == "half":
            edges.append((0, nxt))
            nxt += 1
        else:
            edges.append((0, nxt))
            if kind == "black":
                edges.append((nxt, nxt + 1))
            else:
                reds.append((nxt, nxt + 1))
            nxt += 2
    black = [e for e in edges if e not in reds]
    return new_trigraph(nxt, black, reds)


class TestMergeStumps:
    def test_red_plus_half_drops_half(self):
        g = stumpy(["red", "half"])
        out = merge_stumps(g, 0, CFG)
        assert not out.is_solved
        kinds = [s.kind for s in classify_stumps(out.instance)[0]]
        assert kinds == [StumpKind.RED]
        assert len(out.lift.prefix) == 1  # half contracted into the inner vertex

    def test_two_blacks_become_red(self):
        g = stumpy(["black", "black"])
        out = merge_stumps(g, 0, CFG)
        assert not out.is_solved
        kinds = [s.kind for s in classify_stumps(out.instance)[0]]
        assert kinds == [StumpKind.RED]
        # outer pair first, then inner pair
        assert len(out.lift.prefix) == 2

    def test_three_halves_merge_to_one(self):
        g = stumpy(["half", "half", "half"])
        out = merge_stumps(g, 0, CFG)
        kinds = [s.kind for s in classify_stumps(out.instance)[0]]
        assert kinds == [StumpKind.HALF]
        # twin halves merge without a red edge: only the base's red stump stays
        assert out.instance.red_edges() == g.red_edges()
        assert verify(g, out.lift.apply(optimal_sequence(out.instance, CFG).sequence)) <= max(
            optimal_sequence(out.instance, CFG).width, 2
        )

    def test_black_half_pair_is_terminal(self):
        g = stumpy(["black", "half"])
        with pytest.raises(PreconditionViolated, match="0 owns only the allowed black-and-half pair"):
            merge_stumps(g, 0, CFG)

    def test_single_stump_rejected(self):
        g = stumpy(["half"])
        with pytest.raises(PreconditionViolated, match=r"0 owns 1 stump\(s\)"):
            merge_stumps(g, 0, CFG)
        with pytest.raises(PreconditionViolated, match=r"owns 0 stump\(s\)"):
            merge_stumps(g, g.next_label, CFG)  # not a live vertex

    def test_equivalence_all_cases(self):
        for pattern in (["red", "half"], ["red", "black"], ["red", "red"],
                        ["black", "black"], ["half", "half", "half"]):
            g = stumpy(pattern)
            out = merge_stumps(g, 0, CFG)
            w_g = optimal_sequence(g, CFG).width
            if out.is_solved:
                assert verify(g, out.solved) == w_g
                continue
            after = optimal_sequence(out.instance, CFG)
            assert after.width == w_g, pattern
            lifted = out.lift.apply(after.sequence)
            assert verify(g, lifted) <= out.lift.bound(after.width)


class TestPrune:
    def test_tree_input_solved(self):
        t = random_tree(30, random.Random(2))
        out = prune(t, CFG)
        assert out.is_solved
        assert verify(t, out.solved) <= 2

    def test_fig3_decomposition(self):
        g = make_fig3()
        out = prune(g, CFG)
        assert not out.is_solved
        hp = out.instance
        assert iso_key(hp.g) == iso_key(make_fig3_middle())
        k = 2
        assert len(hp.core) <= 16 * k
        assert len(hp.paths) <= 4 * k
        long_path = max(hp.paths, key=len)
        assert len(long_path) == 17
        kinds = {
            long_path.vertices.index(v): sorted(s.kind.value for s in ss)
            for v, ss in long_path.stumps.items()
        }
        assert kinds == {
            0: ["black", "half"],
            4: ["red"],
            10: ["red"],
            12: ["half"],
            16: ["red"],
        }
        validate_hp(hp)

    def test_size_checks_survive_optimisation(self):
        # the paper's bounds are checked with structure._check, which python
        # -O keeps: a core leftover that branches is refused there too
        script = (
            "from twinwidth.reduce import _component_paths\n"
            "from twinwidth.trigraph import new_trigraph\n"
            "star = new_trigraph(4, [(0, 1), (0, 2), (0, 3)])\n"
            "try:\n"
            "    _component_paths(star, frozenset(range(4)), set())\n"
            "except AssertionError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(reduce_module.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "False core leftover is not a path\n"

    def test_postconditions_random(self):
        rng = random.Random(77)
        for _ in range(40):
            core_n = rng.randrange(3, 6)
            k = rng.choice([1, 1, 2]) if core_n >= 4 else 1
            g = random_with_dangling_trees(core_n, k, rng.randrange(0, 6), rng)
            k = g.edge_count() - g.n + 1
            out = prune(g, CFG)
            if out.is_solved:
                assert verify(g, out.solved) <= 2
                continue
            hp = out.instance
            validate_hp(hp)
            assert len(hp.core) <= 16 * k
            assert len(hp.paths) <= 4 * k
            # no dangling black tree other than stumps remains
            for t in find_dangling_trees(hp.g):
                assert len(t.vertices) <= 2
            # no vertex owns two stumps except the black+half pair
            for u, stumps in classify_stumps(hp.g).items():
                kinds = sorted(s.kind.value for s in stumps)
                assert len(stumps) == 1 or kinds == ["black", "half"]

    def test_equivalence_oracle_random(self):
        rng = random.Random(15)
        done = 0
        while done < 30:
            core_n = rng.choice([3, 4, 4])
            k = 1 if core_n == 3 else rng.choice([1, 2])
            g = random_with_dangling_trees(core_n, k, rng.randrange(1, 6), rng)
            if g.n > 9:
                continue
            done += 1
            w_g = optimal_sequence(g, CFG).width
            out = prune(g, CFG)
            if out.is_solved:
                assert verify(g, out.solved) == w_g
                continue
            hp = out.instance
            w_hp = optimal_sequence(hp.g, CFG).width
            if w_g >= 2:
                assert w_hp == w_g
            lifted = out.lift.apply(optimal_sequence(hp.g, CFG).sequence)
            assert verify(g, lifted) <= out.lift.bound(w_hp)

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            prune(new_trigraph(4, [(0, 1), (2, 3)]), CFG)

    @pytest.mark.parametrize(
        "red, error",
        [([(1, 2)], PreconditionViolated), ([(2, 4)], Disconnected)],
    )
    def test_red_edges_that_join_components(self, red, error):
        # the black relation has two components; a red edge that joins them
        # makes the input connected, so the red edges are the fault, and one
        # that does not leaves it disconnected, which wins; the kernels check
        # their input the same way
        g = new_trigraph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)], red)
        for entry in (prune, tww2_bikernel, general_kernel):
            with pytest.raises(error):
                entry(g, config=CFG)

    def test_one_scan(self, monkeypatch):
        # connectivity, feedback edges, 2-core and dangling trees all come
        # from one forest scan
        calls = count_scans(monkeypatch)
        prune(random_connected_graph(60, 2, random.Random(3)), CFG)
        assert calls == [("forest", 60)]

    def test_stumps_classified_a_constant_number_of_times(self, monkeypatch):
        # the merge loop asks each tree owner for its own stumps instead of
        # classifying the whole trigraph, once or again after every merge
        from twinwidth import reduce as reduce_module, structure

        calls = []
        real = structure.classify_stumps

        def counting(g):
            calls.append(g.n)
            return real(g)

        for module in (reduce_module, structure):
            monkeypatch.setattr(module, "classify_stumps", counting, raising=False)
        # nor does it recount red stumps or recompute the width of the whole
        # trigraph after every rule
        scans = {"red_stump_count": 0, "max_red_degree": 0}

        def counted(name, real):
            def wrapper(*args):
                scans[name] += 1
                return real(*args)

            return wrapper

        red_count = counted("red_stump_count", structure.red_stump_count)
        for module in (reduce_module, structure):
            monkeypatch.setattr(module, "red_stump_count", red_count)
        monkeypatch.setattr(
            Trigraph, "max_red_degree", counted("max_red_degree", Trigraph.max_red_degree)
        )
        g = cycle_with_trees(50, 450, random.Random(4))
        trace = []
        out = prune(g, CFG, trace)
        assert not out.is_solved
        assert sum(e["rule"] == "merge_stumps" for e in trace) > 10
        assert calls == []
        assert scans["red_stump_count"] <= 1
        assert scans["max_red_degree"] <= 1

    def test_running_red_stump_count(self, monkeypatch):
        # with no width-1 decision, prune keeps its red-stump count only at
        # each rule's owner; before every rule and at the end it equals a
        # recount over the whole trigraph
        rng = random.Random(31)
        reached_two = 0
        counts = []
        observe_rules(
            monkeypatch,
            lambda run, rule, args: counts.append((run.red_stumps, red_stump_count(run.work))),
        )
        for _ in range(60):
            core_n = rng.randrange(4, 8)
            g = random_with_dangling_trees(
                core_n, rng.randrange(1, 4), rng.randrange(10, 61), rng
            )
            (scan,) = spanning_forest(g)
            run = _Reduction(g, _Search(SolverConfig(max_vertices=0)), scan)
            run.decide()
            counts.clear()
            assert _prune(run) is not None
            counts.append((run.red_stumps, red_stump_count(run.work)))
            assert all(kept == recount for kept, recount in counts)
            reached_two += max(recount for _, recount in counts) >= 2
        assert 0 < reached_two < 60


class TestEndState:
    """The runner applies its tree cuts' end states instead of playing their
    pairs: after prune, its working copy is the input with the prefix
    played, vertex order included, and after tidy the same up to the path
    edges that tidy reddens."""

    @pytest.mark.parametrize("seed", range(8))
    def test_working_copy_is_the_played_prefix(self, seed):
        rng = random.Random(seed)
        for g in (
            cycle_with_trees(rng.randrange(5, 12), rng.randrange(20, 200), rng),
            random_with_dangling_trees(
                rng.randrange(4, 8), rng.randrange(1, 4), rng.randrange(10, 80), rng
            ),
        ):
            (scan,) = spanning_forest(g)
            run = _Reduction(g, _Search(SolverConfig(max_vertices=0)), scan)
            run.decide()
            hp = _prune(run)
            assert hp is not None
            played = run.g.replay(run.prefix)[0]
            assert same_state(played, run.work._frozen())
            _tidy(run, hp)
            # tidy also reddens path edges, which its lift allows: the
            # played state with those edges reddened is the working copy
            work = run.work._frozen()
            played = run.g.replay(run.prefix)[0]._thawed()
            played._redden(sorted(set(played.black_edges()) - set(work.black_edges())))
            assert same_state(played._frozen(), work)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        stst.integers(4, 8), stst.integers(1, 3), stst.integers(10, 60), stst.integers(0, 2**32)
    )
    def test_every_cut_leaves_a_stump_of_its_core_vertex(self, core_n, k, trees, seed):
        # after every cut in prune the root is the inner vertex of a stump of
        # its core vertex, black from a star and red from a deeper tree, whose
        # outer vertex is the fold's last label, and the runner's red-stump
        # count equals a recount
        g = random_with_dangling_trees(core_n, k, trees, random.Random(seed))
        cuts = []

        def checked(rule, kind):
            @functools.wraps(rule)
            def cut(run, tree):
                rule(run, tree)
                u, v = tree.bridge
                assert Stump(kind, (v, run.work.next_label - 1)) in stumps_at(run.work, u)
                assert red_stump_count(run.work) == run.red_stumps
                cuts.append(kind)
                return run

            return cut

        (scan,) = spanning_forest(g)
        run = _Reduction(g, _Search(SolverConfig(max_vertices=0)), scan)
        run.decide()
        with pytest.MonkeyPatch.context() as patch:
            for name, kind in (("reduce_star", StumpKind.BLACK), ("reduce_tree", StumpKind.RED)):
                patch.setattr(_Reduction, name, checked(getattr(_Reduction, name), kind))
            assert _prune(run) is not None
        found = [t for t in find_dangling_trees(g) if len(t.vertices) > 2]
        assert len(cuts) == len(found)


def c5_owner(kinds):
    """A C5 whose vertex 0 owns one dangling tree per entry of ``kinds``:
    'half' a pendant, 'black' a two-vertex path, 'deep' a three-vertex path,
    which prune cuts to a red stump."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    nxt = 5
    for kind in kinds:
        size = {"half": 1, "black": 2, "deep": 3}[kind]
        edges.append((0, nxt))
        edges += [(nxt + i, nxt + i + 1) for i in range(size - 1)]
        nxt += size
    return new_trigraph(nxt, edges)


class TestDerivedStumps:
    """A merge derives its owner's next stumps from the stumps it consumed
    and the labels it emitted; after every merge they equal a fresh
    ``stumps_at`` on the working trigraph."""

    @pytest.fixture
    def checked(self, monkeypatch):
        merges = []
        real = _Reduction.merge_stumps

        def merge(run, u, stumps):
            assert stumps == StumpSet.of(stumps_at(run.work, u))
            real(run, u, stumps)
            if run.solved is None:
                assert run.stumps.ordered() == stumps_at(run.work, u)
                assert run.stumps == StumpSet.of(run.stumps.ordered())
            merges.append(u)
            return run

        monkeypatch.setattr(_Reduction, "merge_stumps", merge)
        return merges

    @pytest.mark.parametrize("pattern", [
        ["black"] * 40,
        ["half"] * 9 + ["black"] * 3,
        ["deep", "black", "half", "deep", "half", "black"] * 6,
        ["deep"] * 12 + ["half"] * 12,
        ["black", "half"] * 15,
    ])
    def test_long_chains_at_one_owner(self, checked, pattern):
        g = c5_owner(pattern)
        out = prune(g, CFG)
        assert not out.is_solved and len(checked) >= 4
        assert set(checked) == {0}
        owned = StumpSet.of(stumps_at(out.instance.g, 0))
        assert owned.legal() and owned.ordered()

    def test_random_owners(self, checked):
        rng = random.Random(12)
        for _ in range(40):
            g = random_with_dangling_trees(
                rng.randrange(4, 8), rng.randrange(1, 4), rng.randrange(10, 61), rng
            )
            prune(g, SolverConfig(max_vertices=0))
        assert len(checked) > 100

    @pytest.mark.parametrize("pattern", [
        ["red", "half"], ["red", "black"], ["red", "red"], ["black", "black"],
        ["half", "half", "half"], ["red", "red", "half", "black"],
        ["half", "half", "black"], ["black", "black", "black", "half"],
    ])
    def test_public_rule(self, checked, pattern):
        merge_stumps(stumpy(pattern), 0, CFG)
        assert checked == [0]

    def test_low_degree_owner_reads_the_trigraph(self):
        # 0 owns a red and a black stump and has no other edge: after the
        # merge it is a pendant, so the red stump left is nobody's
        g = new_trigraph(5, [(0, 1), (1, 2), (0, 3)], [(3, 4)])
        run = _Reduction(g, _Search(SolverConfig(max_vertices=0)))
        run.merge_stumps(0, StumpSet.of(stumps_at(g, 0)))
        assert run.stumps == StumpSet((), (), ()) == StumpSet.of(stumps_at(run.work, 0))

    def test_one_stump_scan_per_owner(self, monkeypatch):
        # the owner's stumps are read once; every merge derives the next set
        calls = []
        real = reduce_module.stumps_at
        monkeypatch.setattr(
            reduce_module, "stumps_at", lambda g, u: calls.append(u) or real(g, u)
        )
        out = prune(c5_owner(["black"] * 300), CFG)
        assert not out.is_solved
        assert calls == [0]


class TestTidy:
    def test_fig3_tidy_golden(self):
        g = make_fig3()
        out = prune(g, CFG)
        hp2, lift = tidy(out.instance)
        assert iso_key(hp2.g) == iso_key(make_fig3_tidy())
        assert [len(p) for p in hp2.paths] == [11]
        assert all(p.flavor == "tidy" for p in hp2.paths)
        assert len(hp2.core) == len(hp2.g.vertices) - 11
        validate_hp(hp2)

    def test_short_path_absorbed(self):
        # C4 with one stumped path vertex: prune gives short paths only
        g = new_trigraph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (1, 5)])
        out = prune(g, CFG)
        if out.is_solved:
            return
        hp2, _ = tidy(out.instance)
        assert hp2.paths == [] or all(len(p) >= 1 for p in hp2.paths)
        assert hp2.g == out.instance.g  # absorption alone never edits the graph

    def test_core_growth_bound(self):
        g = make_fig3()
        out = prune(g, CFG)
        hp = out.instance
        hp2, _ = tidy(hp)
        assert len(hp2.core) <= len(hp.core) + 24 * len(hp.paths)
        assert len(hp2.paths) <= len(hp.paths)

    def test_unknown_path_flavor_rejected(self):
        # a path that is neither original nor tidy is refused before any
        # pair is played
        hp = prune(make_fig3(), CFG).instance
        hp.paths[0] = PseudoPath(hp.paths[0].vertices, hp.paths[0].stumps, "bent")
        with pytest.raises(PreconditionViolated, match="unknown path flavor bent"):
            tidy(hp)

    def test_tidy_paths_rejected(self):
        # tidy takes only original paths: a tidy decomposition is refused
        hp2, _ = tidy(prune(make_fig3(), CFG).instance)
        with pytest.raises(PreconditionViolated, match="path flavor tidy"):
            tidy(hp2)

    def test_invalid_decomposition_rejected(self, runners):
        # a path stripped of its stump annotations leaves its stumps in no
        # part of the decomposition: refused before a runner plays any pair
        g = cycle_with_trees(30, 40, random.Random(3))
        g = new_trigraph(g.next_label, g.black_edges() + [(0, 15)])
        hp = prune(g, CFG).instance
        runners.clear()
        i = next(i for i, path in enumerate(hp.paths) if path.stumps)
        hp.paths[i] = PseudoPath(hp.paths[i].vertices, {}, hp.paths[i].flavor)
        with pytest.raises(PreconditionViolated, match="core and paths do not partition V"):
            tidy(hp)
        assert not runners

    def test_equivalence_oracle_random(self):
        rng = random.Random(99)
        done = 0
        while done < 20:
            core_n = rng.choice([3, 4, 4])
            k = 1 if core_n == 3 else rng.choice([1, 2])
            g = random_with_dangling_trees(core_n, k, rng.randrange(1, 7), rng)
            if g.n > 10:
                continue
            out = prune(g, CFG)
            if out.is_solved:
                continue
            hp = out.instance
            done += 1
            w_before = optimal_sequence(hp.g, CFG).width
            hp2, lift = tidy(hp)
            validate_hp(hp2)
            after = optimal_sequence(hp2.g, CFG)
            if w_before >= 2:
                assert after.width == w_before
            lifted = lift.apply(after.sequence)
            assert verify(hp.g, lifted) <= lift.bound(after.width)


class TestFen1:
    def test_c5(self):
        c5 = new_trigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        seq = fen1_sequence(c5, CFG)
        assert verify(c5, seq) == 2  # C5 has twin-width exactly 2

    def test_cycle_with_tree(self):
        g = new_trigraph(
            9,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (2, 5), (5, 6), (6, 7), (6, 8)],
        )
        seq = fen1_sequence(g, CFG)
        assert verify(g, seq) <= 2

    def test_tree_via_prune(self):
        t = random_tree(25, random.Random(4))
        assert verify(t, fen1_sequence(t, CFG)) <= 2

    def test_fen_two_rejected(self):
        g = new_trigraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)])
        with pytest.raises(PreconditionViolated, match="feedback edge number 2 > 1"):
            fen1_sequence(g, CFG)

    @pytest.mark.parametrize(
        "black, red, error, message",
        [
            # black components joined by a red edge: the black feedback edge
            # number is counted over both, then the red edges are the fault
            ([(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)], [(1, 2)], PreconditionViolated,
             "expects a plain"),
            ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], [(2, 3)], PreconditionViolated,
             "feedback edge number 2 > 1"),
            # a red edge that joins nothing: disconnected wins
            ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)], [(3, 5)], Disconnected,
             "expected a connected graph"),
        ],
        ids=[
            "black0-red0-PreconditionViolated",
            "black1-red1-PreconditionViolated",
            "black2-red2-Disconnected",
        ],
    )
    def test_red_edges_that_join_components(self, black, red, error, message):
        with pytest.raises(error, match=message):
            fen1_sequence(new_trigraph(6, black, red), CFG)

    def test_one_scan(self, monkeypatch):
        calls = count_scans(monkeypatch)
        fen1_sequence(random_connected_graph(60, 1, random.Random(3)), CFG)
        assert calls == [("forest", 60)]

    def test_random_battery(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randrange(3, 60)
            g = random_connected_graph(n, 1, rng)
            assert verify(g, fen1_sequence(g, CFG)) <= 2
