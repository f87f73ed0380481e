"""Independent answer checker: replays sequence text on PACE graph text.

Shares no code with ``twinwidth``: the graph and sequence formats are parsed
here and the contractions are played on plain adjacency sets, so a bug in the
library's own verifier cannot hide a wrong answer.
"""

from __future__ import annotations


class CheckFailed(Exception):
    pass


def parse_pace(text):
    """Return (n, black_edges) of a plain PACE graph with 1-based labels."""
    n = None
    edges = []
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            n = int(parts[2])
            continue
        if len(parts) != 2:
            raise CheckFailed(f"unexpected edge line {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise CheckFailed("graph text has no header")
    return n, edges


def components(n, edges):
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for u, v in edges:
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            count -= 1
    return count


def feedback_edge_number(n, edges):
    return len(edges) - n + components(n, edges)


def replay(graph_text, seq_text):
    """Play ``seq_text`` (lines ``u v``: contract v into u, u keeps its label)
    on ``graph_text`` and return (width, live vertices at the end).

    Raises CheckFailed on a malformed line or a step naming a dead vertex."""
    n, edges = parse_pace(graph_text)
    black = {v: set() for v in range(1, n + 1)}
    red = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        black[u].add(v)
        black[v].add(u)
    width = 0
    for lineno, raw in enumerate(seq_text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2 or not (parts[0].isdigit() and parts[1].isdigit()):
            raise CheckFailed(f"line {lineno}: bad step {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v or u not in black or v not in black:
            raise CheckFailed(f"line {lineno}: step {u} {v} names a dead vertex")
        bu, bv = black.pop(u), black.pop(v)
        ru, rv = red.pop(u), red.pop(v)
        for s in (bu, bv, ru, rv):
            s.discard(u)
            s.discard(v)
        for x in bu | bv | ru | rv:
            for s in (black[x], red[x]):
                s.discard(u)
                s.discard(v)
        nb = bu & bv
        nr = (bu | bv | ru | rv) - nb
        black[u] = nb
        red[u] = nr
        for x in nb:
            black[x].add(u)
        for x in nr:
            red[x].add(u)
            width = max(width, len(red[x]))
        width = max(width, len(nr))
    return width, len(black)


def check_answer(inst, seq_text, reported_width, golden_width=None):
    """Raise CheckFailed unless the emitted sequence is full, its replayed
    width equals the reported one, and it meets the instance's known bounds."""
    width, live = replay(inst.text, seq_text)
    comps = components(inst.n, parse_pace(inst.text)[1])
    if live != comps:
        raise CheckFailed(f"{inst.name}: {live} vertices left, want {comps}")
    if width != reported_width:
        raise CheckFailed(f"{inst.name}: replayed width {width}, reported {reported_width}")
    if inst.k <= 1 and width > 2:
        raise CheckFailed(f"{inst.name}: width {width} > 2 with feedback edge number {inst.k}")
    if inst.exact_width is not None and width != inst.exact_width:
        raise CheckFailed(f"{inst.name}: width {width}, twin-width is {inst.exact_width}")
    if golden_width is not None and width > golden_width:
        raise CheckFailed(f"{inst.name}: width {width} above the recorded {golden_width}")
    return width
