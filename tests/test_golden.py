"""Golden answers: a byte change in any emitted sequence or report fails here.

Each instance is solved with ``solve``'s defaults and hashed as
``tools/digest.py`` hashes it: the sequence text followed by the sorted JSON
report, or the budget miss's kind and message.  Between them the instances
fire every reduction rule (star and tree cuts, every stump merge, both
solved-by-decision exits, tidying), the feedback-edge-one construction, both
kernels, the exact endgame and a vertex-budget miss.  A change that means to
alter answers updates these hashes and says why; ``tools/digest.py`` checks
the much larger corpus.

The same instances also pin the public stages one by one: ``prune`` (its
decomposition, lift prefix and flag, and rule trace), ``tidy`` of that
decomposition, ``fen1_sequence``, and both kernels (kernel, meta and lift
prefix).
"""

import hashlib
import json
import random

import pytest

from twinwidth import cli, corpus, kernel, reduce
from twinwidth.errors import BudgetExceeded, PreconditionViolated

INSTANCES = {
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

GOLDEN = {
    "cwt-12-80": "c4efce9070fe010e4c78e76bbd73902f475fdc8ec7e24f844d1f9d8ec3445cb3",
    "cwt-40-300": "d218174bfc0b1b27b7e41ce1ea15811cbc44e36c19cd7d25eb5b9ee0beec9ba8",
    "rcg-12-5": "f06f4c53910edc58b3a08afdef886da876cb188f0d23e9356143d288dde77089",
    "rcg-300-1": "291a7fdff23297f5a2d9f4fb1989bc5983ba91977e91d3267d82fc6289cccbab",
    "rwdt-10-4-150": "a7f684d1e52106dd71513bf68e30882a45fff7c018aef37d921f778b39f6cf1e",
    "rwdt-20-4-60": "a33633da8e7ce34515157aa56f0bd98411e1277bc7eba90e98f608b78fe4c2b6",
    "rwdt-4-2-12-tree-solved": "82dd1b7510072e54b6c484e9e88f49be7e4b83594810330a722f99dc626cc50d",
    "rwdt-5-2-30": "6b29f9108c98d433ae56ce23ae16221cefa5ab983c0e46578e9c9306409e6222",
    "rwdt-5-2-30-merge-solved": "e8cb71f510a308911d73aabf3917641705bb6f1edcfdb286436999670b50e07f",
}


def answer_digest(g):
    try:
        seq, report = kernel.solve(g)
    except BudgetExceeded as exc:
        blob = f"{exc.kind}\n{exc}"
    else:
        blob = cli.emit_sequence(g, seq) + json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_answer(name):
    assert answer_digest(INSTANCES[name]()) == GOLDEN[name]


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


def stage_digests(g):
    return {
        stage: hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
        for stage, blob in stage_blobs(g).items()
    }


STAGE_GOLDEN = {
    "cwt-12-80": {
        "fen1_sequence": "704655b3633c32c75fe19c7e231430862c9775a9b904ce4ac13b16d38c59502d",
        "general_kernel": "10388f3b660a4f3e8e58b62679de9d93fb452dcf7ba7077dbb44df56aafcf29b",
        "prune": "c0a9cd8404ccb30dd45aeccfdf2f72359a695574bdf01dff3919b212279950f4",
        "tidy": "16ca83736192a8b4fae145cce941d5dcc2a097401f6e48e02383a03cd1ab1ca5",
        "tww2_bikernel": "85d4bb4fe14e6e070bb0a86378482e30c858026845505c854bfe71c48d80ca74",
    },
    "cwt-40-300": {
        "fen1_sequence": "42ef788adcb99bf5354ab7166b9fb0d63b283a9ec28f66deaf857666d07c9faf",
        "general_kernel": "ab37c0848fe89333b26aba9a72311cfa88bb03e97bcf186e8fbdd242cacfc099",
        "prune": "3449604169550e5091c271895072a9da422de7cd80e980f242c42d14ed56dfb3",
        "tidy": "80479ec1e9f9469aacde72a93e2a4b100eb7a589fb568dd3a79be25b417e9796",
        "tww2_bikernel": "019a8c3e881c5ef856f2d55e31ded4b9d3b6a79c32cb17abec3b96760168b828",
    },
    "rcg-12-5": {
        "fen1_sequence": "d77e4e4c216e2cfc1996310fb81356837a4237379a46096a4e22b94d3f708daa",
        "general_kernel": "ffde5f72f6ebe4d7979ce6d687820666376c227cabd5512af60fa1680ced2286",
        "prune": "c616b28e67bab3c9869755bb953b3d303cc4dc5fcc60e35958a83e3dcd1d8263",
        "tidy": "2333bb62c6fdb8fbcb9aae43911c3df63edc28f668c813e6666b6b1d1de00988",
        "tww2_bikernel": "c709f4225fea5e7e0606e510ce971dcb2c96107586aec4d900e879a03999f7f1",
    },
    "rcg-300-1": {
        "fen1_sequence": "b41a477a54f2780a37bb10a5ab76fa9394e38b70003497f0cd8260d6e8f183a0",
        "general_kernel": "84aeb1e5ddce8395cef9019b0c88694f360a0d46a5c9cbaa0343b71a4e4f3932",
        "prune": "cd5fac26b144634d86de0fbc900353f76a59ec12123098d7e67c5ed8b8a808ba",
        "tidy": "26f0edbdb69dfed4296dd34ce1cbd2bbee4f474e8d11d04fc45edbe9ffa088b1",
        "tww2_bikernel": "65c6ee0089b03933e311c26555b6b7c38ec37dca374493afdbaf5f5d588a68a0",
    },
    "rwdt-10-4-150": {
        "fen1_sequence": "b6388895dd49360da1aa21645134795c664dc632377babd9492e5f0356300df0",
        "general_kernel": "3f8e8246d75a4e5fbef038d193ccdd286e5a233e45a99328e136b0e477d514c5",
        "prune": "340c0e7a666a752c16219448610f0049eca21bd108318e6d2d838bc828660157",
        "tidy": "e2199a36c8dbf1465a2b303463124c0fe6ae580a6a1802f591bc2557e7e4f44e",
        "tww2_bikernel": "17037ed758e8ee39e1c748b68f132604a8a34bb1d61b7c6774d1b39a2a7b9359",
    },
    "rwdt-20-4-60": {
        "fen1_sequence": "b6388895dd49360da1aa21645134795c664dc632377babd9492e5f0356300df0",
        "general_kernel": "653a2a167b9bbd1b6ebddcf58c58e40b34afb459017da6c958b7411213552a4e",
        "prune": "f950e6d20285856fea576eaabd7aab5a09f9a512a22bc80dc67fe88f602a7545",
        "tidy": "74942eda36fac488d527b7caba5654d80d9fdd17e83d786840a050b3f86ab341",
        "tww2_bikernel": "a418f3ef0d835c30e897fbf142bd507fe60cd5cfbca7103cba7823f812dee4ea",
    },
    "rwdt-4-2-12-tree-solved": {
        "fen1_sequence": "c3343c97584f61ba3a996eeab9c9bd3add9611b51c6810a1db5e3c3c65a67c76",
        "general_kernel": "588a5991d8db74a6be23a1868b796330c5e8739b61435480856dfe1fa076e72c",
        "prune": "f628420bdcd555af128162705153d33ef8f740b4ac9db200156001b44d2c555c",
        "tww2_bikernel": "588a5991d8db74a6be23a1868b796330c5e8739b61435480856dfe1fa076e72c",
    },
    "rwdt-5-2-30": {
        "fen1_sequence": "c3343c97584f61ba3a996eeab9c9bd3add9611b51c6810a1db5e3c3c65a67c76",
        "general_kernel": "8f279952a79862c4227c3595de39b3061dd1abe08d5405f07e57beb604c087c6",
        "prune": "df9ea08c81753639278468a002f2bbccfcdecaabd347ab64ba64e299e15e67cd",
        "tidy": "d5265b8489b38b85fbe5577526bed0ea037776e074fe2fb4ade17c38b9f581d0",
        "tww2_bikernel": "537aebbd13de4e2036f62561dac744b1ac09996a89d6a654619040e03432a071",
    },
    "rwdt-5-2-30-merge-solved": {
        "fen1_sequence": "c3343c97584f61ba3a996eeab9c9bd3add9611b51c6810a1db5e3c3c65a67c76",
        "general_kernel": "f2bf1bdd51064488af03abfbb023720920b765765d96046fc98aa745c7eed21a",
        "prune": "58d282688029d43cc521b3bb0b4b7f209cc5db96ced028d8f31f8e5a799508d0",
        "tww2_bikernel": "f2bf1bdd51064488af03abfbb023720920b765765d96046fc98aa745c7eed21a",
    },
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_stages(name):
    assert stage_digests(INSTANCES[name]()) == STAGE_GOLDEN[name]
