"""Per-module spans for the traced run, recorded from outside the program.

``Tracer.install`` rebinds each public function named in ``TARGETS`` at every
``twinwidth`` module that holds it by name (``prune`` lives in ``reduce`` and
is imported by ``kernel``; ``classify_stumps`` is imported by ``reduce`` and
``cli``, ...), and wraps ``Trigraph.contract`` and ``Lift.apply`` on their
classes.  Each binding site gets its own wrapper, so a call can be attributed
to the module it was made from.  ``uninstall`` restores the originals.

A span is (op, name, parent span, start, end).  Self time is a span's length
minus the time its child spans cover; it is accumulated per span name for
every traced pass, while the spans themselves are kept only for the first
traced pass and written out when the run ends.  The solver's search nodes and
canonical forms are counted, not timed, by rebinding ``solver._decide_rec``
and ``solver._canon_packed``.
"""

from __future__ import annotations

import sys
from time import perf_counter

from twinwidth.errors import BudgetExceeded

# span name -> (module, attribute); classes are given as "Class.method"
TARGETS = {
    "cli.parse_graph": ("cli", "parse_graph"),
    "cli.emit_sequence": ("cli", "emit_sequence"),
    "kernel.solve": ("kernel", "solve"),
    "kernel.tww2_bikernel": ("kernel", "tww2_bikernel"),
    "kernel.general_kernel": ("kernel", "general_kernel"),
    "reduce.prune": ("reduce", "prune"),
    "reduce.reduce_tree": ("reduce", "reduce_tree"),
    "reduce.merge_stumps": ("reduce", "merge_stumps"),
    "reduce.tidy": ("reduce", "tidy"),
    "reduce.fen1_sequence": ("reduce", "fen1_sequence"),
    "structure.classify_stumps": ("structure", "classify_stumps"),
    "structure.feedback_edge_set": ("structure", "feedback_edge_set"),
    "structure.find_dangling_trees": ("structure", "find_dangling_trees"),
    "trigraph.contract": ("trigraph", "Trigraph.contract"),
    "sequence.verify": ("sequence", "verify"),
    "sequence.compose": ("sequence", "compose"),
    "sequence.lift_apply": ("sequence", "Lift.apply"),
    "solver.decide": ("solver", "decide_width_at_most"),
    "solver.optimal_sequence": ("solver", "optimal_sequence"),
}
COUNTED = {"solver.nodes": "_decide_rec", "solver.canon_forms": "_canon_packed"}

COUNTERS = (
    "trigraph.contract.vertices_copied",
    "reduce.prune.vertices_in",
    "reduce.prune.vertices_out",
    "kernel.pipeline_passes",
    "kernel.bikernel_vertices",
    "kernel.bikernel_count",
    "kernel.general_vertices",
    "kernel.general_count",
    "solver.decide.refuted",
    "solver.budget_misses",
    "solver.nodes",
    "solver.canon_forms",
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.saved = []  # (owner, attribute, original)
        self.op = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.reset(keep_spans=False)

    # -- recording ---------------------------------------------------------------

    def reset(self, keep_spans):
        self.stack = []  # open frames: [start, child time, span id]
        self.stats = {name: [0, 0.0, 0.0] for name in TARGETS}  # calls, total, self
        for key in self.counts:  # cleared in place: counting wrappers hold the dict
            self.counts[key] = 0
        self.spans = [] if keep_spans else None
        self.op_passes = {}  # op -> prune calls made from kernel

    def _enter(self):
        span = None
        if self.spans is not None:
            span = len(self.spans)
            self.spans.append(None)
        frame = [perf_counter(), 0.0, span]
        self.stack.append(frame)
        return frame

    def _exit(self, name, frame):
        end = perf_counter()
        self.stack.pop()
        dur = end - frame[0]
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dur
        else:
            parent = None
        if frame[2] is not None:
            self.spans[frame[2]] = (
                self.op, name, parent[2] if parent else None, frame[0], end
            )

    def _wrap(self, name, fn, site):
        tracer = self
        hook = _HOOKS.get(name)
        from_kernel = name == "reduce.prune" and site == "kernel"

        def traced(*args, **kwargs):
            if from_kernel:
                tracer.counts["kernel.pipeline_passes"] += 1
                tracer.op_passes[tracer.op] = tracer.op_passes.get(tracer.op, 0) + 1
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(name, frame)
                if hook is not None:
                    hook(tracer.counts, args, None, exc)
                raise
            tracer._exit(name, frame)
            if hook is not None:
                hook(tracer.counts, args, result, None)
            return result

        return traced

    def _count(self, counter, fn):
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        return counted

    # -- binding -----------------------------------------------------------------

    def install(self):
        mods = {
            name[len(self.package) + 1:]: mod
            for name, mod in sys.modules.items()
            if name.startswith(self.package + ".")
        }
        mods[""] = sys.modules[self.package]
        for name, (home, attr) in TARGETS.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[home], cls_name)
                self._rebind(cls, meth, self._wrap(name, getattr(cls, meth), home))
                continue
            original = getattr(mods[home], attr)
            for site, mod in mods.items():
                if getattr(mod, attr, None) is original:
                    self._rebind(mod, attr, self._wrap(name, original, site))
        solver = mods["solver"]
        for counter, attr in COUNTED.items():
            self._rebind(solver, attr, self._count(counter, getattr(solver, attr)))
        return self

    def _rebind(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []

    # -- results -----------------------------------------------------------------

    def layer_values(self):
        """Per-layer numbers of the passes recorded since the last reset."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total
        c = self.counts
        out["trigraph.contract.vertices_copied"] = c["trigraph.contract.vertices_copied"]
        out["reduce.prune.size_ratio"] = _ratio(
            c["reduce.prune.vertices_out"], c["reduce.prune.vertices_in"]
        )
        out["kernel.pipeline_passes"] = c["kernel.pipeline_passes"]
        out["kernel.bikernel_size"] = _ratio(c["kernel.bikernel_vertices"], c["kernel.bikernel_count"])
        out["kernel.general_size"] = _ratio(c["kernel.general_vertices"], c["kernel.general_count"])
        out["solver.decide.refuted"] = c["solver.decide.refuted"]
        out["solver.budget_misses"] = c["solver.budget_misses"]
        out["solver.nodes"] = c["solver.nodes"]
        out["solver.canon_forms"] = c["solver.canon_forms"]
        out["solver.canon_per_node"] = _ratio(c["solver.canon_forms"], c["solver.nodes"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0


# -- counters read from arguments and results ------------------------------------


def _contract(counts, args, result, exc):
    counts["trigraph.contract.vertices_copied"] += args[0].n


def _prune(counts, args, result, exc):
    if result is not None and not result.is_solved:
        counts["reduce.prune.vertices_in"] += args[0].n
        counts["reduce.prune.vertices_out"] += result.instance.g.n


def _kernel(prefix):
    def hook(counts, args, result, exc):
        if result is not None and not result.is_solved:
            counts[f"kernel.{prefix}_vertices"] += result.kernel.n
            counts[f"kernel.{prefix}_count"] += 1

    return hook


def _decide(counts, args, result, exc):
    if exc is not None:
        counts["solver.budget_misses"] += isinstance(exc, BudgetExceeded)
    elif result is None:
        counts["solver.decide.refuted"] += 1


def _optimal(counts, args, result, exc):
    if exc is not None:
        counts["solver.budget_misses"] += isinstance(exc, BudgetExceeded)
    elif not result.optimal:
        counts["solver.budget_misses"] += 1


_HOOKS = {
    "trigraph.contract": _contract,
    "reduce.prune": _prune,
    "kernel.tww2_bikernel": _kernel("bikernel"),
    "kernel.general_kernel": _kernel("general"),
    "solver.decide": _decide,
    "solver.optimal_sequence": _optimal,
}
