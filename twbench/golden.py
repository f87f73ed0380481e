"""Write golden.json: the width the program gives each default-seed instance.

The benchmark's checker fails any later answer that is wider than the width
recorded here.  Regenerate only on purpose, from the root of a checkout:

    python3 twbench/golden.py
"""

from __future__ import annotations

import json
import sys

from child import HERE, import_program

import workloads


def main():
    cli, kernel, solver = import_program()
    from twinwidth.errors import BudgetExceeded

    policy = kernel.Practical(workloads.PRACTICAL_FLOOR)
    golden = {}
    for name in workloads.WORKLOADS:
        widths = golden[name] = {}
        for inst in workloads.build(name, workloads.DEFAULT_SEED):
            g = cli.parse_graph(inst.text)
            try:
                _, report = kernel.solve(g, policy, solver.SolverConfig(**inst.config))
            except BudgetExceeded:
                continue
            widths[inst.name] = report["width"]
        print(f"{name}: {len(widths)} answered instances", file=sys.stderr)
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
