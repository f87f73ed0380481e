"""One workload process: set up, run timed passes, check every answer.

Started by ``run.py``; prints one JSON object on stdout.  With ``--setup-only``
it stops where the first timed operation would start and reports only the
set-up time.  Each operation is timed as one unit, as ``twinwidth solve``
runs it: ``cli.parse_graph`` on PACE text, ``kernel.solve`` with the fixed
policy and ``SolverConfig``, then ``cli.emit_sequence``.

A run makes the workload's ``workloads.PASSES`` passes over the instance
list (traced runs make that many of each kind), the same number on every
commit, so that a best time over the passes does not depend on how fast the
code is; it stops earlier only if ``--seconds`` run out, and reports how many
passes it made.  Before each operation it times ``workloads.REF_UNITS``
replays of the fixed reference task (``reference.py``); each pass records the
sum of its operation times and the mean time of one reference replay.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import twinwidth

    if Path(twinwidth.__file__).resolve().parent != src / "twinwidth":
        raise ImportError(f"twinwidth imported from {twinwidth.__file__}, not {src}")
    from twinwidth import cli, kernel, solver

    return cli, kernel, solver


def budget_stage(exc):
    """Where a BudgetExceeded came from: the innermost pipeline frame and the
    solver entry point it called, e.g. ``kernel._solve_connected>solver.optimal_sequence``."""
    frames = []
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        path = Path(code.co_filename)
        if path.parent.name == "twinwidth":
            frames.append(f"{path.stem}.{code.co_name}")
        tb = tb.tb_next
    caller = [f for f in frames if not f.startswith("solver.")]
    entry = [f for f in frames if f.startswith("solver.")]
    return ">".join(([caller[-1]] if caller else []) + entry[:1]) or "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the first traced pass's spans")
    args = ap.parse_args(argv)

    cli, kernel, solver = import_program()
    from twinwidth.errors import BudgetExceeded

    import workloads
    from reference import reference_seconds
    from replay import CheckFailed, check_answer

    instances = workloads.build(args.workload, args.seed)
    policy = kernel.Practical(workloads.PRACTICAL_FLOOR)
    configs = [solver.SolverConfig(**inst.config) for inst in instances]
    golden = {}
    if args.seed == workloads.DEFAULT_SEED:
        with open(HERE / "golden.json", encoding="utf-8") as fh:
            golden = json.load(fh)[args.workload]
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    ref_units = workloads.REF_UNITS[args.workload]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer("twinwidth")

    ops = []  # [pass, instance, seconds, outcome, status, width, budget kind, stage]
    answers = {}  # instance -> (sequence text, reported width) of its first pass
    mismatched = set()  # instances whose answer changed between passes
    passes = []
    spans = None
    start = time.perf_counter()
    deadline = start + args.seconds
    p = 0
    while True:
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.reset(keep_spans=not any(x["traced"] for x in passes))
            tracer.install()
        # a fresh order per pass spreads each instance's samples over the run
        order = list(range(len(instances)))
        random.Random(f"order/{args.seed}/{p}").shuffle(order)
        t_pass = time.perf_counter()
        ops_s = ref_s = 0.0
        for i in order:
            inst = instances[i]
            ref_s += reference_seconds(ref_units)
            if traced:
                tracer.op = len(ops)
            t0 = time.perf_counter()
            try:
                g = cli.parse_graph(inst.text)
                seq, report = kernel.solve(g, policy, configs[i])
                text = cli.emit_sequence(g, seq)
            except BudgetExceeded as exc:
                dt = time.perf_counter() - t0
                ops_s += dt
                ops.append([p, i, dt, "budget", None, None, exc.kind, budget_stage(exc)])
                continue
            except Exception as exc:  # any other failure is counted, not fatal
                dt = time.perf_counter() - t0
                ops_s += dt
                ops.append([p, i, dt, "error", None, None, None, repr(exc)[:200]])
                continue
            dt = time.perf_counter() - t0
            ops_s += dt
            ops.append([p, i, dt, "answered", report["status"], report["width"], None, None])
            if answers.setdefault(i, (text, report["width"])) != (text, report["width"]):
                mismatched.add(i)
        wall = time.perf_counter() - t_pass
        record = {
            "traced": traced,
            "wall_s": ops_s,
            "ref_s": ref_s / (ref_units * len(instances)),
        }
        if traced:
            tracer.uninstall()
            record["layers"] = tracer.layer_values()
            record["pipeline_passes_by_op"] = {
                str(op): n for op, n in tracer.op_passes.items()
            }
            if tracer.spans is not None:
                spans = tracer.spans
        passes.append(record)
        p += 1
        if p >= workloads.PASSES[args.workload] * (2 if tracer else 1):
            break
        # out of time: stop once another pass as long as this one would end
        # past the deadline
        if time.perf_counter() + wall >= deadline and (tracer is None or p >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spans is not None and args.spans:
        write_spans(args.spans, spans)

    checks = {}
    for i, inst in enumerate(instances):
        if i in mismatched:
            checks[i] = "output differs between passes"
            continue
        if i not in answers:
            continue
        text, width = answers[i]
        try:
            check_answer(inst, text, width, golden.get(inst.name))
        except CheckFailed as exc:
            checks[i] = str(exc)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "measured_s": time.perf_counter() - start,
        "instances": [inst.describe() for inst in instances],
        "widths": {inst.name: answers[i][1] for i, inst in enumerate(instances) if i in answers},
        "passes": passes,
        "ops": ops,
        "check_failures": {str(i): msg for i, msg in checks.items()},
    }))
    return 0


def write_spans(path, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["op", "name", "parent", "start", "end"], "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
