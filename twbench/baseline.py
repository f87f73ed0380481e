"""Run every workload on ten seeds, twice, and record the numbers in baseline.json.

Two sets of untraced runs, each over seeds 1-10 and every workload declared
in ``BENCHMARK.json``, give each end-to-end metric's median, quartiles and
spread (interquartile distance over median) per set, checked against the
bound ``BENCHMARK.json`` fixes, and how far the second set's median moved
from the first's.  One traced run at the default seed gives the per-layer
numbers.  Later changes compare against the file this writes.  From the root
of a checkout:

    python3 twbench/baseline.py --label <commit>
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, OUT, ROOT
from workloads import DEFAULT_SEED, WORKLOADS

SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload, seed, seconds, trace):
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=200,
    )
    path = OUT / f"run-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def judge(metric, s, bounds):
    if metric not in bounds or s["spread"] is None:
        return ""
    if metric == "setup_s":
        return "spread not judged"
    bound = bounds[metric]
    return "ok" if s["spread"] < bound / 3 else (
        "within bound" if s["spread"] <= bound else "ABOVE BOUND")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit id")
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in declared["end_to_end"]}
    names = [w["name"] for w in declared["workloads"]]
    out = {"label": args.label, "run_seconds": seconds, "seeds": SEEDS, "sets": SETS,
           "workloads": {w: {"why": WORKLOADS[w]} for w in names}}

    # set by set, as two separate proofs of the same code would run
    runs = {w: [] for w in names}
    for _ in range(SETS):
        for workload in names:
            runs[workload].append([run_once(workload, seed, seconds, 0) for seed in SEEDS])

    for workload in names:
        rec = out["workloads"][workload]
        rec["sets"] = []
        for set_runs in runs[workload]:
            e2e = {}
            for metric, info in set_runs[0]["end_to_end"].items():
                e2e[metric] = summarize([r["end_to_end"][metric]["value"] for r in set_runs])
                e2e[metric]["unit"] = info["unit"]
                e2e[metric]["samples"] = [r["end_to_end"][metric]["samples"] for r in set_runs]
                if metric in bounds:
                    e2e[metric]["bound"] = bounds[metric]
            rec["sets"].append({
                "end_to_end": e2e,
                "outcomes": {str(r["seed"]): r["outcomes"] for r in set_runs},
            })
        first, second = (s["end_to_end"] for s in rec["sets"][:2])
        rec["median_change"] = {}
        for metric, s in first.items():
            a, b = s["median"], second[metric]["median"]
            change = (b - a) / a if a else None
            rec["median_change"][metric] = change
            flag = ""
            if metric in bounds and change is not None:
                worse = change if lower[metric] else -change
                flag = "median ok" if worse <= bounds[metric] else "MEDIAN WORSE THAN BOUND"
            spreads = " ".join(
                "n/a  " if x["end_to_end"][metric]["spread"] is None
                else f"{x['end_to_end'][metric]['spread']:.3f}" for x in rec["sets"])
            judged = "/".join(filter(None, (judge(metric, x["end_to_end"][metric], bounds)
                                            for x in rec["sets"])))
            moved = "n/a" if change is None else f"{change:+.3f}"
            print(f"{workload:16} {metric:16} median {a:<12.6g} spread {spreads:12} {judged:26} "
                  f"second median {moved:7} {flag}", flush=True)

        traced = run_once(workload, DEFAULT_SEED, seconds, 1)
        rec["per_layer"] = {k: v["value"] for k, v in traced["per_layer"].items()}
        rec["per_layer_seed"] = DEFAULT_SEED
        rec["stress"] = traced["stress"]
        for check in traced["stress"]:
            print(f"{workload:16} stress: {check['check']}: {'ok' if check['ok'] else 'NOT MET'}",
                  flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
