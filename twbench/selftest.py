"""Fast self-test of the benchmark on tiny inputs.

Shows that the answer checker rejects corrupted, truncated and misreported
answers, and that a run prints every end-to-end and per-layer metric.  Run it
from the root of a checkout:

    python3 twbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

from replay import CheckFailed, check_answer, replay
from run import E2E_UNITS, HERE, ROOT, tail_percentile
from workloads import Instance

C5 = "p tww 5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"
C5_SEQ = "1 3\n1 2\n1 4\n1 5\n"  # width 2
STAR = "p tww 5 4\n1 2\n1 3\n1 4\n1 5\n"
STAR_SEQ = "1 2\n1 3\n1 4\n1 5\n"  # width 3 at the first step

# the per-layer metrics the traced run must print
LAYER_METRICS = [
    "trigraph.contract.calls", "trigraph.contract.self_s", "trigraph.contract.vertices_copied",
    "structure.classify_stumps.calls", "structure.classify_stumps.self_s",
    "structure.feedback_edge_set.calls", "structure.feedback_edge_set.self_s",
    "structure.find_dangling_trees.self_s",
    "reduce.prune.calls", "reduce.prune.self_s", "reduce.prune.size_ratio",
    "reduce.reduce_tree.calls", "reduce.reduce_tree.self_s",
    "reduce.merge_stumps.calls", "reduce.merge_stumps.self_s",
    "reduce.tidy.self_s", "reduce.fen1_sequence.self_s",
    "kernel.pipeline_passes", "kernel.tww2_bikernel.calls", "kernel.tww2_bikernel.self_s",
    "kernel.general_kernel.calls", "kernel.general_kernel.self_s",
    "kernel.bikernel_size", "kernel.general_size",
    "solver.decide.calls", "solver.decide.refuted", "solver.decide.self_s",
    "solver.optimal_sequence.calls", "solver.optimal_sequence.self_s",
    "solver.nodes", "solver.canon_forms", "solver.canon_per_node", "solver.budget_misses",
    "sequence.verify.calls", "sequence.verify.self_s",
    "sequence.compose.calls", "sequence.compose.self_s", "sequence.lift_apply.self_s",
    "cli.parse_graph.self_s", "cli.emit_sequence.self_s",
    "trace.overhead_s",
]


def rejects(inst, seq, width, golden=None):
    try:
        check_answer(inst, seq, width, golden)
    except CheckFailed:
        return True
    return False


def test_checker():
    c5 = Instance("c5", "cycle", {}, 5, 1, C5, exact_width=2)
    assert replay(C5, C5_SEQ) == (2, 1)
    assert check_answer(c5, C5_SEQ, 2, golden_width=2) == 2
    assert rejects(c5, "1 3\n1 3\n1 4\n1 5\n", 2), "step on a dead vertex"
    assert rejects(c5, "1 3\n1 x\n", 2), "malformed step"
    assert rejects(c5, C5_SEQ.replace("1 5\n", ""), 2), "truncated sequence"
    assert rejects(c5, C5_SEQ, 1), "misreported width"
    assert rejects(c5, C5_SEQ, 2, golden=1), "wider than the golden width"
    star = Instance("star", "tree", {}, 5, 0, STAR)
    assert replay(STAR, STAR_SEQ) == (3, 1)
    assert rejects(star, STAR_SEQ, 3), "width above 2 at feedback edge number <= 1"
    assert rejects(replace(c5, text=STAR, k=2), STAR_SEQ, 3), "not the known width"


def test_tail_percentile():
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 90
    assert tail_percentile(50) == 80
    assert tail_percentile(12) == 50


def run_smoke(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted, sorted(set(result["metrics"]) ^ wanted)
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    return printed


def test_metrics_printed():
    missing = set(E2E_UNITS) - run_smoke(0)
    assert not missing, f"end-to-end metrics not printed: {sorted(missing)}"
    missing = set(LAYER_METRICS) - run_smoke(1)
    assert not missing, f"per-layer metrics not printed: {sorted(missing)}"


def main():
    for test in (test_checker, test_tail_percentile, test_metrics_printed):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
