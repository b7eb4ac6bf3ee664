"""Bijection between compositions of n into odd parts and compositions of
n+1 into parts greater than one.

Forward direction, given an all-odd composition a of n with ell parts:

1. conjugate a; the result a' has n - ell + 1 parts, an odd count because
   n and ell share parity, and every even-indexed part of a' is 1;
2. sum adjacent pairs of a' (parts 1+2, 3+4, ...), carrying the lone final
   part through unchanged, giving b;
3. add 1 to the last part of b, giving a composition c of n+1 whose parts
   all exceed 1.

Every step is invertible, and the inverse is exposed alongside a trace
type that records the intermediate compositions for inspection.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Composition, DomainError, conjugate


class BijectionTrace(NamedTuple):
    """The four stages of the forward map: input, conjugate, pair sums, result."""

    a: Composition
    a_conj: Composition
    b: Composition
    c: Composition


def _require_all_odd(a: Composition) -> None:
    for i, p in enumerate(a.parts):
        if p % 2 == 0:
            raise DomainError(f"part {p} at position {i} is even")


def trace_forward(a: Composition) -> BijectionTrace:
    """Apply the forward map, returning every intermediate composition."""
    _require_all_odd(a)
    a_conj = conjugate(a)
    pieces = a_conj.parts
    # all parts of a odd forces an odd number of conjugate parts
    assert len(pieces) % 2 == 1
    pairs = (len(pieces) - 1) // 2
    summed = [pieces[2 * i] + pieces[2 * i + 1] for i in range(pairs)]
    summed.append(pieces[-1])
    b = Composition(summed)
    c = Composition([*summed[:-1], summed[-1] + 1])
    return BijectionTrace(a, a_conj, b, c)


def odd_to_gt1(a: Composition) -> Composition:
    """Map an all-odd composition of n to an all->=2 composition of n+1."""
    return trace_forward(a).c


def gt1_to_odd(c: Composition) -> Composition:
    """Inverse map: all parts of c must exceed 1.

    Undo the final increment, split every part except the last into
    (part-1, 1), carry the reduced last part through unsplit, and
    conjugate.  The reduced last part is never split, even when it is
    still 2 or more: it is the lone unpaired final part of the conjugate.
    """
    for i, p in enumerate(c.parts):
        if p < 2:
            raise DomainError(f"part {p} at position {i} is below 2")
    reduced = list(c.parts)
    reduced[-1] -= 1
    pieces: list[int] = []
    for p in reduced[:-1]:
        pieces.extend((p - 1, 1))
    pieces.append(reduced[-1])
    return conjugate(Composition(pieces))
