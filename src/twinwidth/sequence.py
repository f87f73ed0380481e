"""Contraction sequences, the width verifier, and lifts.

A contraction sequence is its base trigraph and the (a, b) pairs to merge,
in order, as one tuple.  Its width is the maximum red degree seen in any
intermediate trigraph, the base included.  Whether it is full, i.e. leaves
no edge, is not stored with it: :func:`verify` asks that of the final
trigraph.  Fresh labels are deterministic: step ``i`` produces vertex
``base.next_label + i``, so sequences can be spliced without replaying any
graph, and a step's result is derived from its index, never stored.

A :class:`Lift` turns a full sequence of a reduced instance back into a full
sequence of the instance it was derived from.  Every lift is of prefix form:
the reduced instance is reachable from the parent by playing ``prefix``,
after which the reduced instance's own steps apply verbatim (the reduced
instance may have some of those edges recolored red, which never invalidates
a step).  Its bound keeps the width, or raises it to ``max(w, 2)`` when
``at_least_two`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import IncompleteSequence, InstanceMismatch
from .trigraph import Trigraph


class ContractionSequence:
    """An ordered list of contractions against a specific base trigraph.

    The sequence keeps only its ``(a, b)`` pairs, as one tuple: step ``i``
    makes the label ``base.next_label + i``, so :meth:`pairs`,
    :func:`verify` and the text writer read the pairs alone.
    """

    __slots__ = ("base", "_pairs")

    def __init__(self, base: Trigraph, pairs: tuple[tuple[int, int], ...]):
        self.base = base
        self._pairs = pairs

    @classmethod
    def build(cls, base: Trigraph, pairs: Iterable[tuple[int, int]]):
        return cls(base, tuple([(a, b) for a, b in pairs]))

    def __len__(self):
        return len(self._pairs)

    def pairs(self):
        return list(self._pairs)

    def __eq__(self, other):
        if not isinstance(other, ContractionSequence):
            return NotImplemented
        return self.base == other.base and self._pairs == other._pairs

    __hash__ = None

    def __repr__(self):
        return f"ContractionSequence({len(self._pairs)} steps)"


def verify(g: Trigraph, seq: ContractionSequence) -> int:
    """Replay ``seq`` on ``g`` and return its exact width.

    The width is the maximum red degree over all vertices of all intermediate
    trigraphs, including ``g`` itself.  The sequence must be full: its final
    trigraph must have no edge, so that every vertex left is isolated and
    contracting them makes no red edge.
    """
    if seq.base != g:
        raise InstanceMismatch("sequence was built against a different trigraph")
    final, width = g.replay(seq._pairs)
    if final.edge_count():
        raise IncompleteSequence(
            f"{final.n} vertices remain after a supposedly full sequence"
        )
    return width


class Emitter(list):
    """Contraction pairs against a trigraph whose next fresh label is
    ``first``; ``emit(a, b)`` appends a pair and returns the label it makes."""

    def __init__(self, first: int):
        super().__init__()
        self.first = first

    def emit(self, a, b) -> int:
        self.append((a, b))
        return self.first + len(self) - 1


# -- lifts ---------------------------------------------------------------------


@dataclass(frozen=True)
class Lift:
    """Maps full sequences of ``child`` to full sequences of ``parent``.

    ``apply`` plays ``prefix`` on the parent and then the child sequence's
    steps verbatim; this is valid because ``child`` has the same vertices and
    fresh-label counter as the parent after the prefix (its edges may differ
    only by recoloring).  ``bound(w)`` is ``max(w, 2)`` if ``at_least_two``,
    else ``w``; it is validated dynamically wherever lifts are tested.
    """

    parent: Trigraph
    child: Trigraph
    prefix: tuple[tuple[int, int], ...]
    at_least_two: bool = False

    def __post_init__(self):
        expect = self.parent.next_label + len(self.prefix)
        if self.child.next_label != expect:
            raise InstanceMismatch(
                f"child counter {self.child.next_label} != parent counter after "
                f"prefix {expect}"
            )

    def bound(self, w: int) -> int:
        return max(w, 2) if self.at_least_two else w

    def apply(self, seq: ContractionSequence) -> ContractionSequence:
        if seq.base != self.child:
            raise InstanceMismatch("lift input was built against a different instance")
        return ContractionSequence.build(self.parent, (*self.prefix, *seq._pairs))


def compose(inner: Lift, outer: Lift) -> Lift:
    """Chain two lifts: ``inner`` maps kernel to intermediate, ``outer`` maps
    intermediate to parent; ``inner.parent`` must equal ``outer.child``."""
    if inner.parent != outer.child:
        raise InstanceMismatch("lifts do not chain: inner.parent != outer.child")
    return Lift(
        parent=outer.parent,
        child=inner.child,
        prefix=outer.prefix + inner.prefix,
        at_least_two=outer.at_least_two or inner.at_least_two,
    )
