import itertools
import random

import pytest
from hypothesis import given, settings, strategies as stst

from twinwidth.cli import emit_sequence, parse_sequence

from twinwidth.errors import (
    DeadVertexAtStep,
    IncompleteSequence,
    InstanceMismatch,
)
from twinwidth.sequence import ContractionSequence, Lift, compose, verify
from twinwidth.solver import optimal_sequence
from twinwidth.trigraph import new_trigraph

from conftest import (
    FIG2_PAIRS,
    bags,
    connected_graphs_up_to_iso,
    make_fig2,
    naive_optimal_width,
)


class TestVerify:
    def test_fig2_width_two(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, FIG2_PAIRS)
        assert verify(g, seq) == 2

    def test_single_vertex_empty_sequence(self):
        g = new_trigraph(1)
        assert verify(g, ContractionSequence.build(g, [])) == 0

    def test_k4_twin_sequence_width_zero(self):
        k4 = new_trigraph(4, list(itertools.combinations(range(4), 2)))
        seq = ContractionSequence.build(k4, [(0, 1), (2, 3), (4, 5)])
        assert verify(k4, seq) == 0

    def test_base_red_degree_counts(self):
        # a trigraph that already has a red-degree-2 vertex verifies >= 2
        g = new_trigraph(3, [], [(0, 1), (1, 2)])
        seq = ContractionSequence.build(g, [(0, 2), (1, 3)])
        assert verify(g, seq) == 2

    def test_uncontracted_component_is_not_full(self):
        # a P4 beside four isolated vertices: merging the isolated ones
        # leaves one vertex per component, but the P4 keeps its edges, and
        # contracting them would take width 1
        g = new_trigraph(8, [(0, 1), (1, 2), (2, 3)])
        seq = ContractionSequence.build(g, [(4, 5), (6, 7), (8, 9)])
        with pytest.raises(IncompleteSequence):
            verify(g, seq)

    def test_isolated_vertices_left_are_full(self):
        # with no edge left, contracting the rest makes no red edge: one step
        # on three isolated vertices is full, though two vertices remain
        g = new_trigraph(3)
        assert verify(g, ContractionSequence.build(g, [(0, 1)])) == 0

    def test_dead_vertex_step(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, [(0, 1), (0, 2)])
        with pytest.raises(DeadVertexAtStep) as exc:
            verify(g, seq)
        assert exc.value.index == 1

    def test_incomplete_full_sequence(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, [(0, 1)])
        with pytest.raises(IncompleteSequence):
            verify(g, seq)

    def test_instance_mismatch(self):
        g = make_fig2()
        other = new_trigraph(6, [(0, 1)])
        seq = ContractionSequence.build(other, [(0, 1)])
        with pytest.raises(InstanceMismatch):
            verify(g, seq)


def emit_sequence_oracle(g, seq):
    """Survivor-keeps-label text written pair by pair, step ``i`` making the
    label ``base.next_label + i``."""
    ext = {v: i + 1 for i, v in enumerate(sorted(g.vertices))}
    lines = []
    for i, (a, b) in enumerate(seq.pairs()):
        lines.append(f"{ext[a]} {ext[b]}")
        ext[seq.base.next_label + i] = ext[a]
    return "".join(line + "\n" for line in lines)


@stst.composite
def played_pairs(draw, max_n=8):
    """A random plain graph with a gap in its labels, and a random sequence of
    live pairs on it, full or partial."""
    n = draw(stst.integers(min_value=2, max_value=max_n))
    edges = [e for e in itertools.combinations(range(n + 1), 2) if draw(stst.booleans())]
    g = new_trigraph(n + 1, edges).induce(range(1, n + 1))
    live = list(g.vertices)
    pairs = []
    for nxt in range(g.next_label, g.next_label + draw(stst.integers(0, n - 1))):
        a, b = draw(stst.permutations(live).map(lambda p: p[:2]))
        pairs.append((a, b))
        live = [v for v in live if v not in (a, b)] + [nxt]
    return g, pairs


class TestPairStorage:
    @settings(max_examples=200, derandomize=True)
    @given(played_pairs())
    def test_steps_derived_from_pairs(self, case):
        g, pairs = case
        seq = ContractionSequence.build(g, pairs)
        assert len(seq) == len(pairs)
        assert seq.pairs() == pairs
        assert seq == ContractionSequence.build(g, [list(p) for p in pairs])
        if pairs:
            assert seq != ContractionSequence.build(g, pairs[:-1])
        text = emit_sequence(g, seq)
        assert text == emit_sequence_oracle(g, seq)
        assert parse_sequence(g, text) == seq

    def test_build_takes_any_iterable_once(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, iter(FIG2_PAIRS))
        assert seq.pairs() == FIG2_PAIRS and len(seq) == 5


class TestBags:
    def test_fig2_bags(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, FIG2_PAIRS)
        forest = bags(g, seq)
        assert forest[6] == frozenset((4, 5))  # EF
        for v in g.vertices:
            assert forest[v] == frozenset((v,))
        last = g.next_label + len(seq) - 1
        assert forest[last] == frozenset(range(6))
        assert forest[6] <= forest[last]

    def test_partition_invariant_along_replay(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(2, 9)
            g = new_trigraph(
                n, [(rng.randrange(i), i) for i in range(1, n)]
            )
            res = optimal_sequence(g)
            forest = bags(g, res.sequence)
            alive = set(g.vertices)
            for i, (a, b) in enumerate(res.sequence.pairs()):
                alive -= {a, b}
                alive.add(g.next_label + i)
                union = set()
                for v in alive:
                    assert union.isdisjoint(forest[v])
                    union |= forest[v]
                assert union == set(g.vertices)


class TestLifts:
    def test_identity_lift(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, FIG2_PAIRS)
        lift = Lift(g, g, ())
        assert lift.apply(seq).pairs() == seq.pairs()
        assert lift.bound(3) == 3

    def test_compose_with_identity(self):
        g = make_fig2()
        g1 = g.contract(4, 5)
        step = Lift(parent=g, child=g1, prefix=((4, 5),), at_least_two=True)
        total = compose(step, Lift(g, g, ()))
        seq1 = optimal_sequence(g1).sequence
        lifted = total.apply(seq1)
        assert lifted.pairs()[0] == (4, 5)
        assert verify(g, lifted) <= total.bound(verify(g1, seq1))

    def test_long_chain_bound(self):
        # a bound is a flag, so a long chain of lifts evaluates in one step
        # instead of nesting one call per lift
        g = new_trigraph(3, [(0, 1), (1, 2)])
        total = Lift(g, g, ())
        for _ in range(1200):
            total = compose(Lift(g, g, ()), total)
        assert total.bound(3) == 3
        total = compose(Lift(parent=g, child=g, prefix=(), at_least_two=True), total)
        for _ in range(1200):
            total = compose(Lift(g, g, ()), total)
        assert total.bound(1) == 2
        assert total.bound(3) == 3

    def test_compose_mismatch(self):
        g = make_fig2()
        h = new_trigraph(3, [(0, 1)])
        with pytest.raises(InstanceMismatch):
            compose(Lift(g, g, ()), Lift(h, h, ()))

    def test_counter_mismatch(self):
        # the child must have the parent's fresh-label counter after the
        # prefix: one pair advances it by one
        g = make_fig2()
        with pytest.raises(InstanceMismatch, match="child counter 6 != parent counter after prefix 7"):
            Lift(g, g, ((4, 5),))

    def test_apply_rejects_wrong_base(self):
        g = make_fig2()
        lift = Lift(g, g, ())
        other = new_trigraph(6, [(0, 1)])
        seq = ContractionSequence.build(other, [(0, 1)])
        with pytest.raises(InstanceMismatch):
            lift.apply(seq)


def test_verifier_agrees_with_naive_minimum_small():
    # over all connected graphs on <= 5 vertices, the solver's minimum equals
    # the naive enumeration of all step choices
    for g in connected_graphs_up_to_iso(5):
        assert optimal_sequence(g).width == naive_optimal_width(g)
