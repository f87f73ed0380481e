"""End-to-end and per-module benchmark of the twinwidth pipeline.

Usage, from the root of a checkout:

    python3 twbench/run.py --workload fen1-deep-trees --seed 1 --seconds 36 --trace 0

Each operation runs a graph the way ``twinwidth solve`` does: parse PACE text,
``kernel.solve`` with the default policy (practical:12) and a fixed
``SolverConfig``, emit the sequence text.  The workload runs as a closed loop,
one client and one instance at a time, in its own fresh single-threaded
process (``child.py``), which makes a fixed number of passes over the
workload's instance list, or fewer if ``--seconds`` run out.  Every emitted
sequence is replayed by the benchmark's own checker (``replay.py``).  A fixed
reference task timed before each operation (``reference.py``) gives
``wall_ref``, the pass time in units that a shared host's slow phases barely
move; ``wall_s`` in seconds is printed beside it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and prints the per-module metrics (``tracing.py``) plus the
tracing overhead.  Human-readable lines come first, each metric with its unit
and sample count; the last line of stdout is one JSON object with the metrics
that ``BENCHMARK.json`` declares.  A run report (seed, instance list, why the
workload was chosen, outcome counts, every metric) is written to
``.twbench_out/`` in the checkout, and a traced run also writes the spans of
its first traced pass there.

Exit status is 2, with no result, when the checkout has no program source.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".twbench_out"

SETUP_REPEATS = 9  # set-up samples per untraced run: 8 set-up-only processes, half
# before and half after the measured run so that they span it, + the run
HARD_LIMIT_S = 170  # the whole run, children included, ends within this

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_ref": "ref",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "vertices_per_s": "1/s",
    "answered_ratio": "ratio",
    "optimal_ratio": "ratio",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "canon_per_node")):
        return "ratio"
    if name.endswith("_size"):
        return "vertices"
    return "count"


# -- children -------------------------------------------------------------------


def spawn(args, deadline, extra):
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- statistics -----------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n, q=90, beyond=10):
    """q, or the highest whole percentile with at least ``beyond`` of n
    samples above its rank when n is too small for q."""
    while q > 50 and n - math.ceil(q / 100 * n) < beyond:
        q -= 1
    return q


def outcome_counts(ops, failed_ops):
    counts = {"answered": 0, "unanswered": {}, "failed": 0}
    for idx, op in enumerate(ops):
        if idx in failed_ops:
            counts["failed"] += 1
        elif op[3] == "answered":
            counts["answered"] += 1
        else:
            key = f"{op[6]} at {op[7]}"
            counts["unanswered"][key] = counts["unanswered"].get(key, 0) + 1
    return counts


def best_times(res, traced):
    """Each instance's best operation time over the passes of one kind.

    Shared cloud hosts slow every process by up to 1.6x for seconds at a time
    (seen on a 2-core x86 VM); an instance measured once per pass is usually
    caught outside such a burst at least once, so its best time is steadier
    than a mean or a median over passes.  The pass count is fixed
    (``workloads.PASSES``), so the best is over as many samples on every commit."""
    kinds = {p for p, rec in enumerate(res["passes"]) if rec["traced"] == traced}
    best = {}
    for op in res["ops"]:
        if op[0] in kinds:
            best[op[1]] = min(op[2], best.get(op[1], math.inf))
    return best, len(kinds)


def end_to_end(res, setups, failed_ops):
    """Metrics from the untraced passes: value and sample count per name.

    ``wall_s`` is the sum of the instances' best times (``best_times``) and
    ``vertices_per_s`` divides the answered instances' vertices by the sum of
    their best times, each with the number of passes or instances as n.
    ``wall_ref`` is the median over the passes of a pass's operation time
    divided by the mean time of one reference replay in that pass
    (``reference.py``): the pass's cost in reference units, which a slow
    phase of the host stretches far less than it stretches seconds.  The
    latency percentiles are taken over every untraced operation's own time,
    pooled over the passes, with the number of operations as n."""
    best, passes = best_times(res, traced=False)
    in_ref = [rec["wall_s"] / rec["ref_s"] for rec in res["passes"] if not rec["traced"]]
    ops = [(i, op) for i, op in enumerate(res["ops"]) if not res["passes"][op[0]]["traced"]]
    sizes = [inst["n"] for inst in res["instances"]]
    latencies = [op[2] for _, op in ops]
    good = [op for i, op in ops if op[3] == "answered" and i not in failed_ops]
    answered = {op[1] for op in good}
    q = tail_percentile(len(latencies))
    m = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (sum(best.values()), passes),
        "wall_ref": (statistics.median(in_ref), len(in_ref)),
        "op_s.p50": (percentile(latencies, 50), len(latencies)),
        "op_s.p90": (percentile(latencies, q), len(latencies)),
        "vertices_per_s": (
            sum(sizes[i] for i in answered) / sum(best[i] for i in answered)
            if answered else 0.0,
            len(answered),
        ),
        "answered_ratio": (len(good) / len(ops), len(ops)),
        "optimal_ratio": (sum(op[4] == "optimal" for op in good) / len(ops), len(ops)),
        "failed_ratio": (sum(i in failed_ops for i, _ in ops) / len(ops), len(ops)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
    }
    return m, q


def per_layer(res):
    """Per-layer numbers of the fastest traced pass, so that shares of its
    ``trace.wall_s`` add up.  ``trace.overhead_s`` is the median traced pass
    minus the median untraced pass, both in reference units and turned into
    seconds at the run's mean reference time, so that a slow phase of the
    host during one kind of pass does not read as tracing cost."""
    traced = [rec for rec in res["passes"] if rec["traced"]]
    fastest = min(traced, key=lambda rec: rec["wall_s"])
    m = {name: (value, 1) for name, value in fastest["layers"].items()}
    m["trace.wall_s"] = (fastest["wall_s"], 1)
    in_ref = {kind: statistics.median(rec["wall_s"] / rec["ref_s"] for rec in res["passes"]
                                      if rec["traced"] == kind) for kind in (True, False)}
    ref_s = statistics.mean(rec["ref_s"] for rec in res["passes"])
    m["trace.overhead_s"] = ((in_ref[True] - in_ref[False]) * ref_s, len(res["passes"]))
    return m


def stress_checks(workload, layers, res):
    """Whether the workload stresses the layers it was chosen for."""
    v = {name: val for name, (val, _) in layers.items()}
    wall = v["trace.wall_s"]
    solver_self = v["solver.decide.self_s"] + v["solver.optimal_sequence.self_s"]
    if workload == "fen1-deep-trees":
        share = (v["trigraph.contract.self_s"] + v["structure.classify_stumps.self_s"]) / wall
        return [
            (f"contract + classify_stumps self time is {share:.0%} of wall_s (> 50%)", share > 0.5),
            (f"solver self time is {solver_self / wall:.1%} of wall_s (< 5%)", solver_self / wall < 0.05),
        ]
    if workload == "exact-endgame":
        return [(f"solver self time is {solver_self / wall:.0%} of wall_s (> 50%)", solver_self / wall > 0.5)]
    if workload == "fenk-kernel":
        traced = {p for p, rec in enumerate(res["passes"]) if rec["traced"]}
        passes_by_op = {}
        for rec in res["passes"]:
            passes_by_op.update(rec.get("pipeline_passes_by_op", {}))
        misses = [i for i, op in enumerate(res["ops"]) if op[0] in traced and op[3] == "budget"]
        counts = sorted({passes_by_op.get(str(i), 0) for i in misses})
        return [(
            f"{len(misses)} budget-miss operations made {counts} pipeline passes (all 2)",
            bool(misses) and counts == [2],
        )]
    return []


# -- main -----------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    if not (ROOT / "src" / "twinwidth" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        extra_setups = 0 if args.trace else SETUP_REPEATS - 1
        for _ in range(extra_setups // 2):
            setups.append(spawn(args, deadline, ["--setup-only"])["setup_s"])
        extra = ["--spans", str(OUT / f"spans-{tag}.json")] if args.trace else []
        res = spawn(args, deadline, extra)
        setups.append(res["setup_s"])
        for _ in range(extra_setups - extra_setups // 2):
            setups.append(spawn(args, deadline, ["--setup-only"])["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1


    failed_instances = {int(i) for i in res["check_failures"]}
    failed_ops = {
        i for i, op in enumerate(res["ops"])
        if op[3] == "error" or (op[3] == "answered" and op[1] in failed_instances)
    }
    counts = outcome_counts(res["ops"], failed_ops)
    e2e, q = end_to_end(res, setups, failed_ops)
    layers = per_layer(res) if args.trace else {}
    checks = stress_checks(args.workload, layers, res) if args.trace else []

    print(f"workload {args.workload}  seed {args.seed}  {len(res['instances'])} instances  "
          f"{len(res['passes'])} passes in {res['measured_s']:.1f} s")
    print(f"  why: {WORKLOADS[args.workload]}")
    print(f"  outcomes: {json.dumps(counts, sort_keys=True)}")
    for i, msg in sorted(res["check_failures"].items()):
        print(f"  CHECK FAILED {res['instances'][int(i)]['name']}: {msg}")
    for op in res["ops"]:
        if op[3] == "error":
            print(f"  ERROR {res['instances'][op[1]]['name']}: {op[7]}")
    if args.trace:
        for name, (value, n) in sorted(layers.items()):
            print(f"  {name:<40} {value:>14.6g} {layer_unit(name):<8} (n={n})")
        for text, ok in checks:
            print(f"  stress: {text}: {'ok' if ok else 'NOT MET'}")
    else:
        print(f"  wall_s sums each instance's best time over {e2e['wall_s'][1]} untraced "
              f"passes; wall_ref is the median pass in reference-replay units; "
              f"op_s percentiles pool every untraced operation")
        for name, (value, n) in e2e.items():
            label = f"{name} (p{q})" if name == "op_s.p90" and q != 90 else name
            print(f"  {label:<22} {value:>14.6g} {E2E_UNITS[name]:<6} (n={n})")

    OUT.mkdir(exist_ok=True)
    report = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": res["instances"],
        "widths": res["widths"],
        "outcomes": counts,
        "check_failures": res["check_failures"],
        "end_to_end": {k: {"value": v, "samples": n, "unit": E2E_UNITS[k]} for k, (v, n) in e2e.items()},
        "op_s_tail_percentile": q,
        "per_layer": {k: {"value": v, "samples": n, "unit": layer_unit(k)} for k, (v, n) in layers.items()},
        "stress": [{"check": t, "ok": ok} for t, ok in checks],
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    pool = layers if args.trace else e2e
    units = layer_unit if args.trace else E2E_UNITS.get
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": pool[m["name"]][0], "unit": units(m["name"])} for m in wanted}
    print(json.dumps({
        "correct": not failed_ops,
        "attempted": len(res["ops"]),
        "failed": len(failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
