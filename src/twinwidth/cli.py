"""Command-line front end with bit-exact graph and certificate formats.

Graph files follow the PACE text layout: optional ``c`` comment lines, a
header ``p tww <n> <m>``, then exactly m edge lines ``<u> <v>`` with 1-based
indices; a third token ``r`` marks a red edge (an extension, never emitted
for plain graphs).  Sequence files hold one ``<u> <v>`` line per contraction,
meaning "contract v into u; u stays the live label of the merged vertex".

Exit codes: 0 success, 1 usage or file-format problems, 2 verification
failure or a ``solve --cap W`` width above W, 3 budget exceeded.  Machine-readable output goes to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BadStepLine,
    BudgetExceeded,
    GraphSyntaxError,
    HeaderMismatch,
    IndexOutOfRange,
    TwinWidthError,
)
from .kernel import Practical, Theory, general_kernel, solve, tww2_bikernel
from .sequence import ContractionSequence, Emitter, verify
from .solver import SolverConfig
from .structure import (
    classify_stumps,
    feedback_edge_set,
    find_bridges,
    find_dangling_paths,
    find_dangling_trees,
)
from .trigraph import Trigraph


# -- graph files -----------------------------------------------------------------


def _whole(token):
    """Whether ``token`` is a whole number in ASCII digits; ``int`` alone
    also reads signs, underscores and other scripts' digits."""
    return token.isascii() and token.isdecimal()


def parse_graph(text: str) -> Trigraph:
    """Read a PACE graph in one pass: the edge lines go straight into the
    trigraph builder, which checks each edge as it comes, so the first
    faulty line, in file order, is the one reported."""
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] != "p":
            raise GraphSyntaxError("edge line before header", line=lineno)
        if len(parts) != 4 or parts[1] != "tww" or not all(map(_whole, parts[2:])):
            raise HeaderMismatch(f"bad header {raw.strip()!r}", line=lineno)
        n, m = int(parts[2]), int(parts[3])
        break
    else:
        raise HeaderMismatch("missing 'p tww <n> <m>' header")

    def edges():
        count = 0
        for lineno, raw in lines:
            parts = raw.split()
            if not parts or parts[0].startswith("c"):
                continue
            if parts[0] == "p":
                raise HeaderMismatch("second header line", line=lineno)
            bad = len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "r")
            if bad or not (_whole(parts[0]) and _whole(parts[1])):
                raise GraphSyntaxError(f"bad edge line {raw.strip()!r}", line=lineno)
            u, v = int(parts[0]), int(parts[1])
            if not (1 <= u <= n and 1 <= v <= n):
                raise IndexOutOfRange(f"endpoint outside 1..{n}", line=lineno)
            count += 1
            yield (u - 1, v - 1), len(parts) == 3
        if count != m:
            raise HeaderMismatch(f"header declares {m} edges, found {count}")

    return Trigraph._build(n, edges())


def emit_graph(g: Trigraph) -> str:
    index = {v: i + 1 for i, v in enumerate(sorted(g.vertices))}
    lines = [f"p tww {g.n} {g.edge_count()}"]
    pairs = []
    for u, v in g.black_edges():
        pairs.append((index[u], index[v], ""))
    for u, v in g.red_edges():
        pairs.append((index[u], index[v], " r"))
    for a, b, mark in sorted(pairs):
        lines.append(f"{a} {b}{mark}")
    return "\n".join(lines) + "\n"


# -- sequence files ----------------------------------------------------------------


def parse_sequence(g: Trigraph, text: str) -> ContractionSequence:
    """Read survivor-keeps-label steps against ``g`` (1-based labels)."""
    live = {i + 1: v for i, v in enumerate(sorted(g.vertices))}
    pairs = Emitter(g.next_label)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if len(parts) != 2 or not all(map(_whole, parts)):
            raise BadStepLine(f"bad step line {line!r}", line=lineno)
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise GraphSyntaxError(f"step {u} {v} contracts a label with itself", line=lineno)
        if u not in live or v not in live:
            raise GraphSyntaxError(f"step {u} {v} references a dead label", line=lineno)
        live[u] = pairs.emit(live[u], live[v])
        del live[v]
    return ContractionSequence.build(g, pairs)


def emit_sequence(g: Trigraph, seq: ContractionSequence) -> str:
    """Write steps in survivor-keeps-label form: the merged vertex inherits
    the first listed endpoint's external label."""
    ext = {v: i + 1 for i, v in enumerate(sorted(g.vertices))}
    lines = []
    for result, (a, b) in enumerate(seq.pairs(), seq.base.next_label):
        lines.append(f"{ext[a]} {ext[b]}")
        ext[result] = ext[a]
    return "\n".join(lines) + ("\n" if lines else "")


# -- subcommands ------------------------------------------------------------------


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphSyntaxError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _config(args) -> SolverConfig:
    return SolverConfig(max_vertices=args.budget, max_nodes=args.nodes, time_limit=args.time)


def _count(text):
    """A count flag: a whole number >= 0; anything else is a usage error."""
    if not _whole(text):
        raise argparse.ArgumentTypeError(f"bad count {text!r}")
    return int(text)


def _seconds(text):
    """``--time``: a number of seconds >= 0; anything else is a usage error."""
    try:
        value = float(text)
        if value >= 0:  # false for NaN too
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad time {text!r}")


def _policy(text):
    """``--policy``: ``theory``, ``practical`` or ``practical:<L>`` with a
    floor L >= 1 in ASCII digits; anything else is a usage error."""
    if text == "theory":
        return Theory()
    if text == "practical":
        return Practical()
    floor = text.removeprefix("practical:")
    if floor != text and _whole(floor):
        try:
            return Practical(int(floor))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"bad policy {text!r}")


def _cmd_solve(args) -> int:
    g = parse_graph(_read(args.graph))
    seq, report = solve(g, args.policy, _config(args))
    width = report["width"]
    if args.cap is not None and width > args.cap:
        print(f"width {width} exceeds cap {args.cap}", file=sys.stderr)
        return 2
    text = emit_sequence(g, seq)
    if args.report:  # written first, so that a failed write leaves stdout empty
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    sys.stdout.write(text)
    print(f"width {width}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    text = _read(args.sequence)  # an unreadable file is an error, not a failed check
    try:
        seq = parse_sequence(g, text)
        width = verify(g, seq)
    except BadStepLine:
        raise  # a file-format problem, not a failed check
    except TwinWidthError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    print(f"width {width}")
    return 0


def _cmd_kernelize(args) -> int:
    g = parse_graph(_read(args.graph))
    trace = []
    if args.target == "tww2":
        outcome = tww2_bikernel(g, _config(args), trace)
    else:
        outcome = general_kernel(g, args.policy, _config(args), trace)
    if outcome.is_solved:
        width = verify(g, outcome.solved)
        text = f"c solved width={width}\np tww 1 0\n"
        payload = {
            "solved": True,
            "width": width,
            "sequence": emit_sequence(g, outcome.solved).splitlines(),
            "rules": trace,
        }
    else:
        text = emit_graph(outcome.kernel)
        payload = {"solved": False, "meta": outcome.meta, "rules": trace}
    if args.trace:  # written first, so that a failed write leaves stdout empty
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    sys.stdout.write(text)
    return 0


def _cmd_fes(args) -> int:
    g = parse_graph(_read(args.graph))
    index = {v: i + 1 for i, v in enumerate(sorted(g.vertices))}
    fes = feedback_edge_set(g)
    out = {
        "feedback_edge_number": len(fes),
        "edges": [[index[u], index[v]] for u, v in fes],
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_info(args) -> int:
    g = parse_graph(_read(args.graph))
    index = {v: i + 1 for i, v in enumerate(sorted(g.vertices))}
    fes = feedback_edge_set(g)
    trees = find_dangling_trees(g)
    stumps = classify_stumps(g)
    out = {
        "n": g.n,
        "black_edges": g.black_edge_count(),
        "red_edges": g.red_edge_count(),
        "feedback_edge_number": len(fes),
        "bridges": [[index[u], index[v]] for u, v in find_bridges(g)],
        "dangling_trees": [
            {
                "bridge": [index[t.bridge[0]], index[t.bridge[1]]],
                "size": len(t.vertices),
                "black": t.all_black,
            }
            for t in trees
        ],
        "dangling_paths": [len(p) for p in find_dangling_paths(g)],
        "stumps": {
            str(index[u]): [s.kind.value for s in ss] for u, ss in stumps.items()
        },
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="twinwidth")
    sub = top.add_subparsers(dest="command", required=True)

    # the pipeline's options, shared by solve and kernelize
    pipeline = argparse.ArgumentParser(add_help=False)
    pipeline.add_argument("--policy", type=_policy, default="practical:12")
    pipeline.add_argument("--threads", type=_count, default=1,
                          help="accepted for compatibility; ignored")
    pipeline.add_argument("--budget", type=_count, default=20,
                          help="max vertex count of every exact width decision")
    pipeline.add_argument("--nodes", type=_count, default=None,
                          help="max search nodes per width decision")
    pipeline.add_argument("--time", type=_seconds, default=None,
                          help="max seconds of exact search for the whole solve")

    solve_p = sub.add_parser("solve", parents=[pipeline],
                             help="compute a contraction sequence")
    solve_p.add_argument("graph")
    solve_p.add_argument("--cap", type=_count, default=None)
    solve_p.add_argument("--report", default=None)
    solve_p.set_defaults(func=_cmd_solve)

    verify_p = sub.add_parser("verify", help="check a sequence and print its width")
    verify_p.add_argument("graph")
    verify_p.add_argument("sequence")
    verify_p.set_defaults(func=_cmd_verify)

    kern_p = sub.add_parser("kernelize", parents=[pipeline],
                            help="write the reduced instance")
    kern_p.add_argument("graph")
    kern_p.add_argument("--target", choices=("tww2", "general"), default="tww2")
    kern_p.add_argument("--trace", default=None)
    kern_p.set_defaults(func=_cmd_kernelize)

    fes_p = sub.add_parser("fes", help="minimum feedback edge set")
    fes_p.add_argument("graph")
    fes_p.set_defaults(func=_cmd_fes)

    info_p = sub.add_parser("info", help="structural summary")
    info_p.add_argument("graph")
    info_p.set_defaults(func=_cmd_info)
    return top


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (TwinWidthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
