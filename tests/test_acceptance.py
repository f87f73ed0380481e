"""Acceptance suite: one test per exit criterion, each printing a summary
line.  Tolerances are exact equalities or hard bounds; runtime limits are the
stated budgets and hold with wide margins on commodity hardware."""

import random
import time

from twinwidth.cli import emit_graph, run
from twinwidth.corpus import (
    cycle_with_trees,
    random_connected_graph,
    random_tree,
    random_with_dangling_trees,
)
from twinwidth.kernel import Practical, solve, tower_bound, tww2_bikernel
from twinwidth.reduce import (
    fen1_sequence,
    merge_stumps,
    prune,
    reduce_star,
    reduce_tree,
    tidy,
    tree_sequence,
)
from twinwidth.sequence import ContractionSequence, verify
from twinwidth.solver import SolverConfig, optimal_sequence
from twinwidth.structure import find_dangling_trees
from conftest import (
    FIG2_PAIRS,
    connected_graphs_up_to_iso,
    load_script,
    make_fig2,
    naive_optimal_width,
    observe_rules,
)

CFG = SolverConfig(max_vertices=25)


def test_criterion_1_fig2_golden():
    g = make_fig2()
    seq = ContractionSequence.build(g, FIG2_PAIRS)
    t0 = time.perf_counter()
    width = verify(g, seq)
    elapsed = time.perf_counter() - t0
    assert width == 2
    assert elapsed < 0.001, f"verify took {elapsed * 1000:.3f} ms"
    print(f"PASS criterion 1: worked example verifies at width 2 in "
          f"{elapsed * 1e6:.0f} us")


def test_criterion_2_exhaustive_oracle_agreement():
    t0 = time.perf_counter()
    reps = connected_graphs_up_to_iso(6)
    assert len(reps) == 143  # 1+1+2+6+21+112 connected graphs up to iso
    mismatches = 0
    for g in reps:
        if optimal_sequence(g).width != naive_optimal_width(g):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 120, f"took {elapsed:.1f} s"
    print(f"PASS criterion 2: solver matches naive enumeration on all 143 "
          f"connected graphs with n <= 6 in {elapsed:.1f} s")


def test_criterion_3_tree_bound():
    rng = random.Random(20240001)
    t0 = time.perf_counter()
    for i in range(500):
        n = rng.randrange(1, 201)
        t = random_tree(n, rng)
        seq, report = solve(t)
        assert report["width"] <= 2, (i, report)
        root = rng.randrange(n)
        ts = tree_sequence(t, root)
        assert verify(t, ts) <= 2
        assert all(root not in pair for pair in ts.pairs()[:-1]), i
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"took {elapsed:.1f} s"
    print(f"PASS criterion 3: 500 random trees (n <= 200) solved at width "
          f"<= 2, root last, in {elapsed:.1f} s")


def test_criterion_4_fen1_bound():
    rng = random.Random(20240002)
    t0 = time.perf_counter()
    for i in range(300):
        n = rng.randrange(3, 201)
        g = random_connected_graph(n, 1, rng)
        seq = fen1_sequence(g)
        assert verify(g, seq) <= 2, i
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"took {elapsed:.1f} s"
    print(f"PASS criterion 4: 300 random feedback-edge-one graphs "
          f"(n <= 200) at width <= 2 in {elapsed:.1f} s")


def test_criterion_5_fen_plus_one_bound():
    rng = random.Random(20240003)
    violations = 0
    total = 0
    for ell in (1, 2, 3):
        for _ in range(150):
            n = rng.randrange(max(4, ell + 2), 10)
            if n - 1 + ell > n * (n - 1) // 2:
                continue
            g = random_connected_graph(n, ell, rng)
            total += 1
            if optimal_sequence(g).width > ell + 1:
                violations += 1
    assert violations == 0
    print(f"PASS criterion 5: twin-width <= fen+1 on {total} instances "
          f"(fen in 1..3, n <= 9), zero violations")


def test_criterion_6_rule_equivalence_suite(monkeypatch):
    rng = random.Random(20240004)
    t0 = time.perf_counter()
    instances = 0
    rule_events = 0
    lift_checks = 0
    violations = []

    # each rule call of prune's runner is recorded with the trigraph it
    # started from and its arguments, and replayed afterwards alone through
    # the public rule, which records its own call too: the replay loops over
    # a copy of the recorded calls
    calls = []
    public = {
        "reduce_star": reduce_star,
        "reduce_tree": lambda g, tree: reduce_tree(g, tree, CFG),
        "merge_stumps": lambda g, u, _: merge_stumps(g, u, CFG),
    }
    observe_rules(
        monkeypatch, lambda run, rule, args: calls.append((rule, run.work._frozen(), args))
    )

    def check_event(rule, before, outcome):
        nonlocal rule_events, lift_checks
        rule_events += 1
        unconditional = rule == "reduce_star"
        res_before = optimal_sequence(before, CFG)
        if outcome.is_solved:
            w = verify(before, outcome.solved)
            if w > 2 or w != res_before.width:
                violations.append((rule, "solved", w, res_before.width))
            return
        res_after = optimal_sequence(outcome.instance, CFG)
        both_high = res_before.width >= 2 and res_after.width >= 2
        if (unconditional or both_high) and res_before.width != res_after.width:
            violations.append((rule, "equiv", res_before.width, res_after.width))
        lifted = outcome.lift.apply(res_after.sequence)
        if verify(before, lifted) > outcome.lift.bound(res_after.width):
            violations.append((rule, "lift"))
        lift_checks += 1

    while instances < 1000:
        if instances % 2 == 0:
            # cycle cores keep the twin-width at 2, so the cutting rules and
            # their due-diligence branches actually fire
            cyc = rng.choice([4, 5, 5, 6])
            g = cycle_with_trees(cyc, rng.randrange(1, 10 - cyc), rng)
        else:
            core_n = rng.choice([3, 4, 4, 5])
            k = 1 if core_n == 3 else rng.choice([1, 1, 2])
            g = random_with_dangling_trees(
                core_n, k, rng.randrange(1, 10 - core_n), rng
            )
        if g.n > 9 or not find_dangling_trees(g):
            continue
        instances += 1
        calls.clear()
        out = prune(g, CFG)
        for rule, before, args in list(calls):
            outcome = public[rule.__name__](before, *args)
            check_event(rule.__name__, before, outcome)
        if out.is_solved:
            w = verify(g, out.solved)
            if w > 2:
                violations.append(("prune", "solved", w))
            continue
        hp = out.instance
        res_hp = optimal_sequence(hp.g, CFG)
        lifted = out.lift.apply(res_hp.sequence)
        if verify(g, lifted) > out.lift.bound(res_hp.width):
            violations.append(("prune", "lift"))
        lift_checks += 1
        # the cleanup rule, applied to the pruned decomposition
        w_before = res_hp.width
        hp2, lift = tidy(hp)
        res_tidy = optimal_sequence(hp2.g, CFG)
        rule_events += 1
        if w_before >= 2 and res_tidy.width != w_before:
            violations.append(("tidy", "equiv", w_before, res_tidy.width))
        if verify(hp.g, lift.apply(res_tidy.sequence)) > lift.bound(res_tidy.width):
            violations.append(("tidy", "lift"))
        lift_checks += 1
    elapsed = time.perf_counter() - t0
    assert not violations, violations[:5]
    assert elapsed < 600, f"took {elapsed:.1f} s"
    print(f"PASS criterion 6: {instances} instances, {rule_events} rule "
          f"applications and {lift_checks} lift replays, zero violations, "
          f"in {elapsed:.1f} s")


def test_criterion_7_bikernel_equivalence():
    rng = random.Random(20240005)
    instances = 0
    reduced = 0
    while instances < 300:
        core_n = rng.choice([4, 4, 5, 6])
        k = rng.choice([1, 2])
        g = random_with_dangling_trees(core_n, k, rng.randrange(0, 11 - core_n), rng)
        if g.n > 10:
            continue
        instances += 1
        tww = optimal_sequence(g, CFG).width
        out = tww2_bikernel(g, CFG)
        if out.is_solved:
            assert verify(g, out.solved) == tww
            continue
        reduced += 1
        assert out.kernel.n <= 116 * out.meta["k"], out.meta
        ktww = optimal_sequence(out.kernel, CFG).width
        assert (tww == 2) == (ktww == 2), (tww, ktww)
    print(f"PASS criterion 7: width-2 equivalence and 116k size bound on "
          f"{instances} instances ({reduced} kernelized)")


def test_criterion_8_near_optimal_pipeline():
    assert tower_bound(1, 1) == 243
    assert tower_bound(2, 1) == 2916
    rng = random.Random(20240006)
    instances = 0
    while instances < 300:
        n = rng.randrange(2, 10)
        k = rng.randrange(0, 5)
        if n - 1 + k > n * (n - 1) // 2:
            k = 0
        g = random_connected_graph(n, k, rng)
        instances += 1
        tww = optimal_sequence(g).width
        seq, report = solve(g, Practical(12))
        assert report["width"] <= tww + 1, (n, k, tww, report["width"])
        if k >= 1:
            assert report["width"] <= k + 1, (n, k, report["width"])
        assert verify(g, seq) == report["width"]
    print(f"PASS criterion 8: end-to-end width <= tww+1 (and <= fen+1) on "
          f"{instances} instances under the practical floor; growth-bound "
          f"spot values exact")


def test_criterion_9_determinism(tmp_path, capsys):
    corpus = []
    for i, g in enumerate(load_script("tools/digest.py").criterion9_corpus()):
        path = tmp_path / f"g{i}.gr"
        path.write_text(emit_graph(g))
        corpus.append(path)

    def run_all(threads):
        blobs = []
        for path in corpus:
            report = tmp_path / "report.json"
            code = run(
                ["solve", str(path), "--threads", threads,
                 "--report", str(report)]
            )
            assert code == 0
            blobs.append(capsys.readouterr().out)
            blobs.append(report.read_text())
        return "".join(blobs)

    runs = [run_all("1"), run_all("4"), run_all("1")]
    assert runs[0] == runs[1] == runs[2]
    print("PASS criterion 9: byte-identical output across 3 runs and "
          "1 vs 4 worker threads on the 50-instance corpus")
