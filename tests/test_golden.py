"""Golden answers: a byte change in any emitted sequence or report fails here.

Each instance is solved with ``solve``'s defaults and hashed as
``tools/digest.py`` hashes it: the sequence text followed by the sorted JSON
report, or the budget miss's kind and message.  Between them the instances
fire every reduction rule (star and tree cuts, every stump merge, both
solved-by-decision exits, tidying), the feedback-edge-one construction, both
kernels, the exact endgame and a vertex-budget miss.  A change that means to
alter answers updates these hashes and says why; ``tools/digest.py`` checks
the much larger corpus.
"""

import hashlib
import json
import random

import pytest

from twinwidth import cli, corpus, kernel
from twinwidth.errors import BudgetExceeded

INSTANCES = {
    # feedback edge number one: tree cuts, red and half stump merges, tidy
    "cwt-12-80": lambda: corpus.cycle_with_trees(12, 80, random.Random(1)),
    "cwt-40-300": lambda: corpus.cycle_with_trees(40, 300, random.Random(2)),
    # fen 1 above the vertex budget of the width-1 decision
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
    "cwt-12-80": "e7798fcaf1f6566f072be666fdcb447b651579d735414e0b9d69948005056864",
    "cwt-40-300": "50d434f3a7aa503c0939c46a2f8f86e7aaec13064eb42f489a4ef20b58e8d151",
    "rcg-12-5": "179fe75e1d4b60330db5d3a121e8b80845f54e60a07dc17fa5f2022dc9cd0b08",
    "rcg-300-1": "f736a8fc21044df457dc951af689c72aef84d1d6717459c2a789c33c227bb84e",
    "rwdt-10-4-150": "a7f684d1e52106dd71513bf68e30882a45fff7c018aef37d921f778b39f6cf1e",
    "rwdt-20-4-60": "3da70d58db1c7a7ff96974e72310edd6d8e4136d077f30b978d939a772121e31",
    "rwdt-4-2-12-tree-solved": "55aaa9faff32cb663b11e1ae935b3b58ae240dbc7d3e3525fb6db2ef40c4e840",
    "rwdt-5-2-30": "46738e472a4dc15e25f2f83f9a81fd14b7529940c4f6a1c6a108ba6aaa9cd309",
    "rwdt-5-2-30-merge-solved": "1b051b7cf73dd8401a6977ee8a82d8da86d37aee6c4b018cda21ac60ac30635a",
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
