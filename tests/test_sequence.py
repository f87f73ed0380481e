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
from twinwidth.sequence import (
    ContractionSequence,
    ContractionStep,
    Lift,
    bags,
    compose,
    identity_lift,
    restrict,
    verify,
)
from twinwidth.solver import optimal_sequence
from twinwidth.trigraph import new_trigraph

from conftest import FIG2_PAIRS, connected_graphs_up_to_iso, make_fig2, naive_optimal_width


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
        assert verify(g, seq, require_full=False) == 0

    def test_isolated_vertices_left_are_full(self):
        # with no edge left, contracting the rest makes no red edge: one step
        # on three isolated vertices is full, though two vertices remain
        g = new_trigraph(3)
        assert verify(g, ContractionSequence.build(g, [(0, 1)])) == 0

    def test_dead_vertex_step(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, [(0, 1), (0, 2)])
        with pytest.raises(DeadVertexAtStep) as exc:
            verify(g, seq, require_full=False)
        assert exc.value.index == 1

    def test_incomplete_full_sequence(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, [(0, 1)])
        with pytest.raises(IncompleteSequence):
            verify(g, seq, require_full=True)
        assert verify(g, seq, require_full=False) == 1

    def test_instance_mismatch(self):
        g = make_fig2()
        other = new_trigraph(6, [(0, 1)])
        seq = ContractionSequence.build(other, [(0, 1)])
        with pytest.raises(InstanceMismatch):
            verify(g, seq)


def emit_sequence_oracle(g, seq):
    """Survivor-keeps-label text written from the derived steps."""
    ext = {v: i + 1 for i, v in enumerate(sorted(g.vertices))}
    lines = []
    for step in seq.steps:
        lines.append(f"{ext[step.a]} {ext[step.b]}")
        ext[step.result] = ext[step.a]
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
        assert seq.steps == tuple(
            ContractionStep(a, b, g.next_label + i) for i, (a, b) in enumerate(pairs)
        )
        assert len(seq) == len(pairs)
        assert seq.pairs() == pairs
        assert seq == ContractionSequence.build(g, [list(p) for p in pairs])
        if pairs:
            assert seq != ContractionSequence.build(g, pairs[:-1])
        text = emit_sequence(g, seq)
        assert text == emit_sequence_oracle(g, seq)
        assert parse_sequence(g, text) == seq
        assert verify(g, seq, require_full=False) == g.replay(pairs)[1]

    def test_build_takes_any_iterable_once(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, iter(FIG2_PAIRS))
        assert seq.pairs() == FIG2_PAIRS and len(seq) == 5
        assert seq.steps[-1] == ContractionStep(7, 9, 10)


class TestBags:
    def test_fig2_bags(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, FIG2_PAIRS)
        forest = bags(g, seq)
        assert forest[6] == frozenset((4, 5))  # EF
        for v in g.vertices:
            assert forest[v] == frozenset((v,))
        assert forest[seq.steps[-1].result] == frozenset(range(6))
        assert forest[6] <= forest[seq.steps[-1].result]

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
            for step in res.sequence.steps:
                alive -= {step.a, step.b}
                alive.add(step.result)
                union = set()
                for v in alive:
                    assert union.isdisjoint(forest[v])
                    union |= forest[v]
                assert union == set(g.vertices)


class TestRestrict:
    def test_restrict_to_everything(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, FIG2_PAIRS)
        r = restrict(g, seq, g.vertices)
        assert r.pairs() == seq.pairs()

    def test_restrict_fig2_to_abcd(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, FIG2_PAIRS)
        sub = {0, 1, 2, 3}
        r = restrict(g, seq, sub)
        assert len(r) == 3
        assert r.pairs() == [(0, 1), (2, 3), (6, 7)]  # (A,B), (C,D), (AB,CD)
        assert verify(g.induce(sub), r) <= verify(g, seq)

    def test_restrict_to_singleton(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, FIG2_PAIRS)
        r = restrict(g, seq, {3})
        assert len(r) == 0
        assert verify(g.induce({3}), r) == 0

    def test_restriction_width_monotone_random(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randrange(2, 9)
            pairs = list(itertools.combinations(range(n), 2))
            blacks, reds = [], []
            for p in pairs:
                roll = rng.random()
                if roll < 0.35:
                    blacks.append(p)
                elif roll < 0.5:
                    reds.append(p)
            g = new_trigraph(n, blacks, reds)
            # a random full sequence
            cur, live = g, sorted(g.vertices)
            steps = []
            while len(live) > 1:
                a, b = rng.sample(live, 2)
                steps.append((a, b))
                w = cur.next_label
                cur = cur.contract(a, b)
                live = sorted(cur.vertices)
            seq = ContractionSequence.build(g, steps)
            sub = [v for v in g.vertices if rng.random() < 0.6]
            if not sub:
                continue
            r = restrict(g, seq, sub)
            assert len(r) == len(sub) - 1
            assert verify(g.induce(sub), r) <= verify(g, seq)


class TestLifts:
    def test_identity_lift(self):
        g = make_fig2()
        seq = ContractionSequence.build(g, FIG2_PAIRS)
        lift = identity_lift(g)
        assert lift.apply(seq).pairs() == seq.pairs()
        assert lift.bound(3) == 3

    def test_compose_with_identity(self):
        g = make_fig2()
        g1 = g.contract(4, 5)
        step = Lift(parent=g, child=g1, prefix=((4, 5),), at_least_two=True)
        total = compose(step, identity_lift(g))
        seq1 = optimal_sequence(g1).sequence
        lifted = total.apply(seq1)
        assert lifted.pairs()[0] == (4, 5)
        assert verify(g, lifted) <= total.bound(verify(g1, seq1))

    def test_long_chain_bound(self):
        # a bound is a flag, so a long chain of lifts evaluates in one step
        # instead of nesting one call per lift
        g = new_trigraph(3, [(0, 1), (1, 2)])
        total = identity_lift(g)
        for _ in range(1200):
            total = compose(identity_lift(g), total)
        assert total.bound(3) == 3
        total = compose(Lift(parent=g, child=g, prefix=(), at_least_two=True), total)
        for _ in range(1200):
            total = compose(identity_lift(g), total)
        assert total.bound(1) == 2
        assert total.bound(3) == 3

    def test_compose_mismatch(self):
        g = make_fig2()
        h = new_trigraph(3, [(0, 1)])
        with pytest.raises(InstanceMismatch):
            compose(identity_lift(g), identity_lift(h))

    def test_apply_rejects_wrong_base(self):
        g = make_fig2()
        lift = identity_lift(g)
        other = new_trigraph(6, [(0, 1)])
        seq = ContractionSequence.build(other, [(0, 1)])
        with pytest.raises(InstanceMismatch):
            lift.apply(seq)


def test_verifier_agrees_with_naive_minimum_small():
    # over all connected graphs on <= 5 vertices, the solver's minimum equals
    # the naive enumeration of all step choices
    for g in connected_graphs_up_to_iso(5):
        assert optimal_sequence(g).width == naive_optimal_width(g)
