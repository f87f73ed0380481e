"""Print one SHA-256 digest per solved instance, to check that a change leaves
every answer byte-identical.

Run it from the repository root before and after a change and diff the two
outputs::

    python3 tools/digest.py > before.txt
    python3 tools/digest.py > after.txt
    diff before.txt after.txt

Each line is ``<set> <instance> <sha256>``.  An answered instance hashes the
emitted sequence text followed by ``json.dumps(report, indent=2,
sort_keys=True)``; an instance that runs out of budget hashes the
``BudgetExceeded`` kind and message.  The instances are the 50-graph corpus
of acceptance criterion 9, solved with ``twinwidth solve``'s defaults; every
instance of the fen1-deep-trees, fenk-kernel and exact-endgame benchmark
workloads at seeds 1 and 2, solved as the benchmark solves them; the 49
disjoint unions of consecutive criterion-9 graphs (set
``criterion-9-unions``), solved with ``twinwidth solve``'s defaults, so that
the status of a disconnected input is checked too, and in the same set two
stumped thetas side by side (``stumped_thetas``), solved at floor 12 and a
30-vertex budget, so that a union's report names fresh labels; stump-heavy owners
(set ``stump-owners``): a C5 whose vertex 0 owns up to 200 dangling trees, so
that prune merges one owner's stumps in a long chain, also solved with the
defaults; and trigraph inputs (set ``trigraph-inputs``): each criterion-9
graph with its smallest edge red, and each of those beside the next plain
criterion-9 graph, solved with the defaults, so that the path a red edge
takes is diffed too.  Two sets solve nothing.  In ``parse-errors`` each
line hashes the error class, message and line number that
``cli.parse_graph`` raises on one of a fixed list of malformed PACE texts,
so that a parser change is diffed the same way.  In ``structure-info`` each
line hashes ``twinwidth info``'s output, or the class and message of the
error it raises, on a criterion-9 graph or one of the 49 unions, so that
the structural queries are diffed on connected and disconnected inputs
alike.  In ``kernels`` each line hashes ``twinwidth kernelize``'s exit code,
stdout and ``--trace`` JSON on a cycle with dangling trees and one chord
(``cycle_with_trees(c, t)`` at seeds 1 and 2 plus the edge ``0 c//2``, for
(c, t) = (60, 100), (200, 400) and (400, 1600)), at ``--target tww2`` and
at ``--target general`` with floors 12 and 4.  Their 2-cores keep four long
paths, 7 to 93 vertices, so the bikernel collapses paths and the general
kernel absorbs or shortens them, which no other set's instance does.  In
``certificates`` each line hashes the answer with the defaults, or its
miss, on a graph past the default 20-vertex budget, so that the up-front
check's width-0/1 search is skipped and its lower bound comes from one
certificate in turn: an induced cycle of five or more vertices (cycles with
trees), an induced S(2,2,2) (a C4 with trees), an induced P4 read off the
scan (a C4 with a caterpillar) and none (a star, and K(2,20), which misses
on vertices).  In ``theory`` each line hashes the answer, or its miss, of
an exact-endgame seed-1 instance solved with the ``theory`` floor policy and
its workload config, and ``twinwidth kernelize --target general --policy
theory`` on ``cycle_with_trees(30, 40)`` and on the three cycles of
``kernels``, each plus its chord at seeds 1 and 2, so that the theory floors
a report prints, each the closed form ``3*(3**a*b)**c+9`` of its core size,
are diffed.
In ``golden`` each line hashes the answer, or its miss, with the defaults
on one of nine small instances that between them fire every reduction rule,
both kernels, the exact endgame and a vertex miss; in ``stages`` each line
hashes, as sorted JSON, what one public stage returns on one of those
instances with its defaults (``<instance>/<stage>``): ``prune`` (its
decomposition, lift and rule trace), ``tidy`` of that decomposition when
prune leaves one, ``fen1_sequence`` (or its refusal), ``tww2_bikernel`` and
``general_kernel`` (kernel, meta, lift and trace), so that a stage's change
is diffed even where the answer stays.
Uses only the standard library and the ``src/`` and ``twbench/`` trees next
to this script.

``--check FILE`` compares the lines with a digest saved in ``FILE`` instead
of printing them: it prints only the lines that differ (``differs <set>
<instance>: <saved> -> <now>``), are missing (``missing <saved line>``) or
are extra (``extra <line>``), and exits 1 if there are any::

    python3 tools/digest.py > before.txt
    python3 tools/digest.py --check before.txt

``tools/digest.txt`` holds the digest of the committed tree, and
``tests/test_digest.py`` runs that check in ``pytest``.  A change that moves
answers on purpose regenerates the file (``python3 tools/digest.py >
tools/digest.txt``), so its diff lists the moved lines.

For a change that may alter answers on purpose, ``--summary`` prints
``<set> <instance> <width> <status> <miss kind>`` instead of the hash:
``<width> <status> -`` for an answer and ``- - <kind>`` for a budget miss,
so a diff shows which widths and statuses moved and which misses remain;
a ``parse-errors`` line reads ``<error class> <line or None>``, a
``structure-info`` line ``<bridges> <dangling trees> -`` or ``- - <error
class>``, a ``kernels`` line ``<kernel vertices> <path lengths> -``
(the lengths comma-separated, ``none`` if no path is left), ``solved
<width> -`` or ``- - exit <code>``, and a ``stages`` line ``<vertices> <rule
events> -`` for the graph a stage returns, ``solved <pairs> -`` for a stage
that solves its input, or ``- - PreconditionViolated``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "twbench")]

from twinwidth import cli, corpus, kernel, reduce, solver  # noqa: E402
from twinwidth.errors import BudgetExceeded, PreconditionViolated, TwinWidthError  # noqa: E402
from twinwidth.trigraph import new_trigraph  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("fen1-deep-trees", "fenk-kernel", "exact-endgame")
SEEDS = (1, 2)


def criterion9_corpus():
    """The 50 graphs of acceptance criterion 9, which
    ``tests/test_acceptance.py::test_criterion_9_determinism`` solves too."""
    rng = random.Random(20240007)
    out = []
    for _ in range(50):
        n = rng.randrange(3, 10)
        k = rng.randrange(0, 3)
        if n - 1 + k > n * (n - 1) // 2:
            k = 0
        out.append(corpus.random_connected_graph(n, k, rng))
    return out


# the dangling trees of a stump-heavy owner, cycled through: a pendant (a half
# stump), a two-vertex path (a black stump) and a three-vertex path, which
# prune cuts to a red stump
STUMP_MIXES = {"black": (2,), "half": (1,), "mixed": (3, 2, 1)}
STUMP_COUNTS = (25, 50, 100, 200)


def stump_owner(d, sizes):
    """A C5 whose vertex 0 owns ``d`` dangling paths, of the lengths ``sizes``
    in turn."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    nxt = 5
    for i in range(d):
        size = sizes[i % len(sizes)]
        edges.append((0, nxt))
        edges += [(v, v + 1) for v in range(nxt, nxt + size - 1)]
        nxt += size
    return new_trigraph(nxt, edges)


def disjoint_union(g, h):
    """The trigraphs ``g`` and ``h`` side by side, ``h`` shifted past ``g``'s
    labels."""
    shift = g.next_label

    def shifted(edges):
        return [(u + shift, v + shift) for u, v in edges]

    return new_trigraph(
        shift + h.next_label,
        g.black_edges() + shifted(h.black_edges()),
        g.red_edges() + shifted(h.red_edges()),
    )


def stumped_thetas():
    """Two thetas side by side, each two hubs joined by three 20-vertex
    paths, with a 2-vertex stump on the 9th-11th vertices of one path: both
    copies' ``tidy_path`` events name fresh labels."""
    edges = []
    n = 0
    for _ in range(2):
        a, b = n, n + 1
        n += 2
        for k in range(3):
            path = list(range(n, n + 20))
            n += 20
            edges += [(a, path[0]), (path[-1], b)] + list(zip(path, path[1:]))
            if k == 0:
                for p in path[8:11]:
                    edges += [(p, n), (n, n + 1)]
                    n += 2
    return new_trigraph(n, edges)


def with_red_edge(g):
    """The plain graph ``g`` with its smallest edge turned red."""
    first, *rest = g.black_edges()
    return new_trigraph(g.next_label, rest, [first])


# malformed PACE texts, each faulty in a way parse_graph checks; some hold
# two faults, so that the line shows which one is reported first
MALFORMED = {
    "empty": "",
    "no-header": "c only a comment\n",
    "edge-before-header": "1 2\np tww 2 1\n",
    "bad-header": "p tw 2 1\n1 2\n",
    "header-count-sign": "p tww 2 -1\n",
    "second-header": "p tww 2 1\np tww 2 1\n1 2\n",
    "bad-token": "p tww 3 1\n1 x\n",
    "three-tokens": "p tww 3 1\n1 2 b\n",
    "one-token": "p tww 3 1\n1\n",
    "endpoint-zero": "p tww 3 1\n0 2\n",
    "endpoint-above-n": "p tww 3 1\n1 4\n",
    "self-loop": "p tww 3 1\n2 2\n",
    "red-self-loop": "p tww 3 2\n1 2\n3 3 r\n",
    "duplicate": "p tww 3 2\n1 2\n2 1\n",
    "black-red-duplicate": "p tww 3 2\n1 2\n2 1 r\n",
    "red-black-duplicate": "p tww 3 2\n1 2 r\n1 2\n",
    "count-low": "p tww 3 3\n1 2\n2 3\n",
    "count-high": "p tww 3 1\n1 2\n2 3\n",
    "duplicate-then-bad-line": "p tww 3 3\n1 2\n2 1\n2 x\n",
    "duplicate-and-count": "p tww 3 3\n1 2\n1 2\n",
    "self-loop-then-range": "p tww 3 2\n1 1\n1 5\n",
    "red-loop-then-black-duplicate": "p tww 3 3\n2 2 r\n1 2\n2 1\n",
    # int() alone would read these as numbers
    "header-arabic-indic-digit": "p tww \u0663 0\n",
    "edge-underscore": "p tww 12 1\n1_0 2\n",
    "edge-plus-sign": "p tww 3 1\n+1 2\n",
    "edge-arabic-indic-digit": "p tww 3 1\n\u0663 2\n",
}


def parse_error(text):
    """``<error class>\n<message>\n<line>`` for the error ``parse_graph``
    raises on ``text`` (the line is None where the error names none), or
    ``parsed`` if it raises none."""
    try:
        cli.parse_graph(text)
    except TwinWidthError as exc:
        return f"{type(exc).__name__}\n{exc}\n{getattr(exc, 'line', None)}"
    return "parsed"


def info_output(path):
    """``twinwidth info``'s output on the graph file ``path``, or
    ``<error class>\n<message>`` for the error it raises."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            cli._cmd_info(argparse.Namespace(graph=path))
    except TwinWidthError as exc:
        return f"{type(exc).__name__}\n{exc}"
    return out.getvalue()


def info_summary(output):
    """``<bridges> <dangling trees> -`` for an answer, ``- - <class>`` for
    an error."""
    if not output.startswith("{"):
        return "- - " + output.partition("\n")[0]
    info = json.loads(output)
    return f"{len(info['bridges'])} {len(info['dangling_trees'])} -"


# per set, cycles with dangling trees and one chord, ``(c, t)`` as in
# ``corpus.cycle_with_trees(c, t)``, and the kernelize runs made on each; a
# theory floor prints as its closed form, so ``theory`` takes the cores of
# ``kernels``, of up to 420 vertices, too
KERNEL_SETS = (
    (
        "kernels",
        ((60, 100), (200, 400), (400, 1600)),
        (("tww2", "practical:12"), ("general", "practical:12"), ("general", "practical:4")),
    ),
    ("theory", ((30, 40), (60, 100), (200, 400), (400, 1600)), (("general", "theory"),)),
)


def chorded_cycle(c, t, seed):
    """``cycle_with_trees(c, t)`` seeded with ``seed``, plus the chord ``0
    c//2``: the cycle's two halves become four paths between hubs."""
    g = corpus.cycle_with_trees(c, t, random.Random(seed))
    return new_trigraph(g.next_label, g.black_edges() + [(0, c // 2)])


def kernelize_output(path, target, policy, trace):
    """``twinwidth kernelize``'s exit code, stdout and the JSON it writes to
    the file ``trace`` (empty if it writes none), on the graph file
    ``path``."""
    out = io.StringIO()
    trace.unlink(missing_ok=True)
    argv = ["kernelize", path, "--target", target, "--policy", policy, "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue(), trace.read_text(encoding="utf-8") if trace.exists() else ""


def kernel_summary(code, written):
    """``<kernel vertices> <path lengths> -``, ``solved <width> -`` or ``- -
    exit <code>``, from the exit code and the ``--trace`` JSON."""
    if code != 0:
        return f"- - exit {code}"
    payload = json.loads(written)
    if payload["solved"]:
        return f"solved {payload['width']} -"
    meta = payload["meta"]
    lengths = ",".join(map(str, meta["path_lengths"])) or "none"
    return f"{meta['kernel_size']} {lengths} -"


def digest(g, outcome):
    """SHA-256 of an answer's sequence text and report, or of a miss."""
    if isinstance(outcome, BudgetExceeded):
        blob = f"{outcome.kind}\n{outcome}"
    else:
        seq, report = outcome
        blob = cli.emit_sequence(g, seq) + json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def summary(g, outcome):
    """``<width> <status> -`` for an answer, ``- - <kind>`` for a miss."""
    if isinstance(outcome, BudgetExceeded):
        return f"- - {outcome.kind}"
    _, report = outcome
    return f"{report['width']} {report['status']} -"


# small instances that between them fire every reduction rule (star and tree
# cuts, every stump merge, both solved-by-decision exits, tidying), the
# feedback-edge-one construction, both kernels, the exact endgame and a
# vertex-budget miss
GOLDEN = {
    # feedback edge number one: tree cuts, red and half stump merges, tidy
    "cwt-12-80": lambda: corpus.cycle_with_trees(12, 80, random.Random(1)),
    "cwt-40-300": lambda: corpus.cycle_with_trees(40, 300, random.Random(2)),
    # fen 1 above the vertex budget of the width-1 decision, certified by an
    # induced cycle
    "rcg-300-1": lambda: corpus.random_connected_graph(300, 1, random.Random(5)),
    # stars, trees and merges into the bikernel's width-2 decision
    "rwdt-5-2-30": lambda: corpus.random_with_dangling_trees(5, 2, 30, random.Random(5)),
    # a merge whose candidate has a width-1 sequence solves the input
    "rwdt-5-2-30-merge-solved": lambda: corpus.random_with_dangling_trees(
        5, 2, 30, random.Random(23)
    ),
    # within the vertex budget: a tree cut whose candidate has width 1
    "rwdt-4-2-12-tree-solved": lambda: corpus.random_with_dangling_trees(
        4, 2, 12, random.Random(6)
    ),
    # the general kernel and the exact endgame
    "rwdt-20-4-60": lambda: corpus.random_with_dangling_trees(20, 4, 60, random.Random(4)),
    # a kernel over the vertex budget
    "rwdt-10-4-150": lambda: corpus.random_with_dangling_trees(10, 4, 150, random.Random(4)),
    # exact-sized: decided outright
    "rcg-12-5": lambda: corpus.random_connected_graph(12, 5, random.Random(6)),
}


def _graph(g):
    return [list(g.vertices), g.next_label, g.black_edges(), g.red_edges()]


def _lift(lift, parent, child):
    return [list(lift.prefix), lift.at_least_two, lift.parent == parent and lift.child == child]


def _stumps(stumps):
    return [[s.kind.value, list(s.vertices)] for s in stumps]


def _hp(hp):
    paths = [
        [p.flavor, list(p.vertices), [[v, _stumps(ss)] for v, ss in sorted(p.stumps.items())]]
        for p in hp.paths
    ]
    return [_graph(hp.g), sorted(hp.core), paths]


def _kernel(g, outcome):
    if outcome.is_solved:
        return ["solved", outcome.solved.pairs(), outcome.meta]
    return [_graph(outcome.kernel), outcome.meta, _lift(outcome.lift, g, outcome.kernel)]


def stage_blobs(g):
    """One JSON-ready value per public stage run on ``g`` with its defaults."""
    out = {}
    trace = []
    pruned = reduce.prune(g, trace=trace)
    if pruned.is_solved:
        out["prune"] = ["solved", pruned.solved.pairs(), trace]
    else:
        hp = pruned.instance
        out["prune"] = [_hp(hp), _lift(pruned.lift, g, hp.g), trace]
        trace = []
        tidied, lift = reduce.tidy(hp, trace)
        out["tidy"] = [_hp(tidied), _lift(lift, hp.g, tidied.g), trace]
    try:
        out["fen1_sequence"] = reduce.fen1_sequence(g).pairs()
    except PreconditionViolated as exc:
        out["fen1_sequence"] = str(exc)
    trace = []
    out["tww2_bikernel"] = [_kernel(g, kernel.tww2_bikernel(g, trace=trace)), trace]
    trace = []
    out["general_kernel"] = [_kernel(g, kernel.general_kernel(g, trace=trace)), trace]
    return out


def stage_summary(stage, blob):
    """``solved <pairs> -`` for a stage that solved its input, ``<vertices>
    <rule events> -`` for one that returned a graph, ``- -
    PreconditionViolated`` for a refused ``fen1_sequence``."""
    if stage == "fen1_sequence":
        return "- - PreconditionViolated" if isinstance(blob, str) else f"solved {len(blob)} -"
    result, trace = blob if stage.endswith("kernel") else (blob, blob[2])
    if result[0] == "solved":
        return f"solved {len(result[1])} -"
    graph = result[0] if stage.endswith("kernel") else result[0][0]
    return f"{len(graph[0])} {len(trace)} -"


def c4_caterpillar(spine):
    """A C4 ``0-1-2-3`` with the path ``3-4-...-spine`` hung from 3, each
    path vertex past 3 carrying one leg: no induced cycle of five or more
    vertices and no induced S(2,2,2), but an induced P4 off the scan."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)] + [(i, i + 1) for i in range(3, spine)]
    edges += [(i, i + spine - 3) for i in range(4, spine + 1)]
    return new_trigraph(2 * spine - 2, edges)


def certificate_graphs():
    """``(instance, graph)`` for each instance of the ``certificates`` set:
    past the default 20-vertex budget, where the up-front check bounds the
    input by the certificate that names the instance."""
    for c, t in ((5, 60), (9, 200)):
        yield f"cycle/c{c}+{t}", corpus.cycle_with_trees(c, t, random.Random(c))
    for t in (60, 200):
        yield f"spider/c4+{t}", corpus.cycle_with_trees(4, t, random.Random(4))
    for spine in (30, 100):
        yield f"p4/c4-caterpillar{spine}", c4_caterpillar(spine)
    yield "none/star30", new_trigraph(31, [(0, i) for i in range(1, 31)])
    yield "none/k2,20", new_trigraph(22, [(a, b) for a in (0, 1) for b in range(2, 22)])


def instances():
    """``(set, instance, graph text, policy, config)`` for every instance."""
    defaults = kernel.DEFAULT_POLICY, solver.SolverConfig()
    graphs = criterion9_corpus()
    for i, g in enumerate(graphs):
        yield "criterion-9", f"g{i}", cli.emit_graph(g), *defaults
    policy = kernel.Practical(workloads.PRACTICAL_FLOOR)
    for workload in WORKLOADS:
        for seed in SEEDS:
            for inst in workloads.build(workload, seed):
                config = solver.SolverConfig(**inst.config)
                yield f"{workload}/{seed}", inst.name, inst.text, policy, config
    for i, (g, h) in enumerate(zip(graphs, graphs[1:])):
        text = cli.emit_graph(disjoint_union(g, h))
        yield "criterion-9-unions", f"g{i}+g{i + 1}", text, *defaults
    config = solver.SolverConfig(max_vertices=30)
    text = cli.emit_graph(stumped_thetas())
    yield "criterion-9-unions", "theta+theta", text, kernel.Practical(12), config
    for mix, sizes in STUMP_MIXES.items():
        for d in STUMP_COUNTS:
            text = cli.emit_graph(stump_owner(d, sizes))
            yield "stump-owners", f"c5+{d}x{mix}", text, *defaults
    reddened = [with_red_edge(g) for g in graphs]
    for i, g in enumerate(reddened):
        yield "trigraph-inputs", f"g{i}", cli.emit_graph(g), *defaults
    for i, (g, h) in enumerate(zip(reddened, graphs[1:])):
        text = cli.emit_graph(disjoint_union(g, h))
        yield "trigraph-inputs", f"g{i}+g{i + 1}", text, *defaults
    for name, g in certificate_graphs():
        yield "certificates", name, cli.emit_graph(g), *defaults
    for inst in workloads.build("exact-endgame", 1):
        config = solver.SolverConfig(**inst.config)
        yield "theory", f"exact-endgame/1/{inst.name}", inst.text, kernel.Theory(), config
    for name, build in GOLDEN.items():
        yield "golden", name, cli.emit_graph(build()), *defaults


def info_graphs():
    """``(instance, graph)`` for each criterion-9 graph and each union of
    two consecutive ones."""
    graphs = criterion9_corpus()
    for i, g in enumerate(graphs):
        yield f"g{i}", g
    for i, (g, h) in enumerate(zip(graphs, graphs[1:])):
        yield f"g{i}+g{i + 1}", disjoint_union(g, h)


def lines(line):
    """The digest's lines, each instance's outcome shown by ``line``."""
    for set_name, name, text, policy, config in instances():
        g = cli.parse_graph(text)
        try:
            outcome = kernel.solve(g, policy, config)
        except BudgetExceeded as exc:
            outcome = exc
        yield f"{set_name} {name} {line(g, outcome)}"
    for name, text in MALFORMED.items():
        error = parse_error(text)
        if line is summary:
            shown = " ".join(error.split("\n")[::2])
        else:
            shown = hashlib.sha256(error.encode()).hexdigest()
        yield f"parse-errors {name} {shown}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.gr"
        for name, g in info_graphs():
            path.write_text(cli.emit_graph(g), encoding="utf-8")
            output = info_output(str(path))
            if line is summary:
                shown = info_summary(output)
            else:
                shown = hashlib.sha256(output.encode()).hexdigest()
            yield f"structure-info {name} {shown}"
        trace = Path(tmp) / "trace.json"
        for set_name, graphs, runs in KERNEL_SETS:
            for c, t in graphs:
                for seed in SEEDS:
                    path.write_text(cli.emit_graph(chorded_cycle(c, t, seed)), encoding="utf-8")
                    for target, policy in runs:
                        code, out, written = kernelize_output(str(path), target, policy, trace)
                        if line is summary:
                            shown = kernel_summary(code, written)
                        else:
                            blob = f"{code}\n{out}{written}"
                            shown = hashlib.sha256(blob.encode()).hexdigest()
                        yield f"{set_name} c{c}+{t}/{seed}/{target}:{policy} {shown}"
    for name, build in GOLDEN.items():
        for stage, blob in stage_blobs(build()).items():
            if line is summary:
                shown = stage_summary(stage, blob)
            else:
                shown = hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
            yield f"stages {name}/{stage} {shown}"


def check(saved_lines, got):
    """Print each line of ``got`` that differs from, is missing from or is
    extra to ``saved_lines``, matched by ``<set> <instance>``; returns how
    many were printed."""

    def keyed(rows):
        return {" ".join(row.split(" ", 2)[:2]): row for row in rows}

    saved = keyed(saved_lines)
    now = keyed(got)
    faults = 0
    for key, row in now.items():
        old = saved.pop(key, None)
        if old is None:
            print("extra", row)
        elif old != row:
            print(f"differs {key}: {old[len(key) + 1:]} -> {row[len(key) + 1:]}")
        else:
            continue
        faults += 1
    for row in saved.values():
        print("missing", row)
    return faults + len(saved)


def main(argv=None):
    parser = argparse.ArgumentParser(description="One line per solved instance.")
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print width, status and miss kind instead of a hash",
    )
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="print only the lines that differ from the saved digest FILE; exit 1 if any",
    )
    args = parser.parse_args(argv)
    got = lines(summary if args.summary else digest)
    if args.check is None:
        for row in got:
            print(row)
        return 0
    saved = Path(args.check).read_text(encoding="utf-8").splitlines()
    return 1 if check(saved, got) else 0


if __name__ == "__main__":
    sys.exit(main())
