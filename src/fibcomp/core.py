"""Composition and partition value types and the bit-sequence codec.

A composition of n is an ordered tuple of positive parts summing to n.
Drawing n units in a row and marking a node in each of a chosen subset of
the n-1 interior gaps cuts the row into consecutive runs; reading run
lengths left to right recovers a composition.  Recording the gaps as a
binary string (bit i is 1 exactly when a node sits between unit i+1 and
unit i+2) gives a bijection between compositions of n and bit strings of
length n-1.  Complementing the bits is an involution on compositions,
called conjugation here.

Bit strings are exposed as BitSeq values and rendered as '0'/'1' text with
no separators.  Compositions render canonically as "a1+a2+..." with no
whitespace.
"""

from __future__ import annotations

import re


class DomainError(ValueError):
    """Raised when an input lies outside an operation's documented domain."""


def check_size(value, floor: int, what: str) -> None:
    """Refuse a size that is not a plain int (a bool is not one) or is below floor."""
    if type(value) is not int or value < floor:
        raise DomainError(f"{what} >= {floor}, got {value!r}")


# fibcomp.reference raises ImaginaryResidueError and analytic raises
# NonCertifiedError; they live here so that callers can catch them without
# importing either module, and reference's mpmath with it.
class ImaginaryResidueError(ArithmeticError):
    """The imaginary part of an exponential sum failed to cancel."""


class NonCertifiedError(ArithmeticError):
    """Rounding could not be certified within the escalation budget."""

    def __init__(self, name: str, report):
        super().__init__(
            f"{name} series for n={report.n} not certified at k_terms={report.k_terms_used}, "
            f"precision_bits={report.precision_bits}"
        )
        self.report = report


class Frozen:
    """Base of the package's checked value types.  A subclass's __init__
    checks its arguments and sets each field once, with object.__setattr__;
    after that the fields are read only.  Two values are equal, and hash
    alike, when they have the same exact class and equal fields, and a
    value shows as Type(field=value, ...), fields in the order set."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((self.__class__, *self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Parts(Frozen):
    """Tuple of positive int parts, rendered as "a1+a2+..." text."""

    def __init__(self, parts: tuple[int, ...]):
        for i, p in enumerate(parts):
            if type(p) is not int or p < 1:  # bool is no part
                raise DomainError(f"part {p!r} at position {i} is not a positive integer")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "+".join(map(str, self.parts))


class Composition(_Parts):
    """Ordered tuple of positive integer parts."""

    def __init__(self, parts: tuple[int, ...]):
        if not parts:
            raise DomainError("composition must have at least one part")
        super().__init__(parts)

    @property
    def ell(self) -> int:
        return len(self.parts)


class BitSeq(Frozen):
    """Binary string encoding a composition; length n-1 for a composition of n."""

    def __init__(self, bits: tuple[int, ...]):
        for b in bits:
            if type(b) is not int or b not in (0, 1):  # True and 1.0 are no bits
                raise DomainError(f"bit value {b!r} is not 0 or 1")
        object.__setattr__(self, "bits", bits)

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


class Partition(_Parts):
    """Weakly decreasing tuple of positive parts; the empty partition sums to 0."""

    def __init__(self, parts: tuple[int, ...]):
        super().__init__(parts)
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise DomainError("partition parts must be weakly decreasing")


def make_composition(parts) -> Composition:
    """Validate a sequence of integers and return it as a Composition."""
    return Composition(tuple(parts))


# compiled on first use and kept by re's own cache
_COMPOSITION_RE = r"[1-9][0-9]*(\+[1-9][0-9]*)*\Z"


def parse_composition(text: str) -> Composition:
    """Parse canonical "a1+a2+..." text; whitespace and leading zeros rejected."""
    if not re.match(_COMPOSITION_RE, text):
        raise DomainError(f"not a composition in a1+a2+... form: {text!r}")
    return Composition(tuple(int(p) for p in text.split("+")))


def format_composition(c: Composition) -> str:
    return str(c)


def to_bitseq(c: Composition) -> BitSeq:
    """Encode a composition as its gap bit string.

    Bit i (0-indexed, left to right) is 1 iff a node separates unit i+1
    and unit i+2, so each part of size p contributes p-1 zeros followed
    by a 1, except the last part which contributes only the zeros.
    """
    bits: list[int] = []
    for p in c.parts[:-1]:
        bits.extend([0] * (p - 1))
        bits.append(1)
    bits.extend([0] * (c.parts[-1] - 1))
    return BitSeq(tuple(bits))


def from_bitseq(b: BitSeq) -> Composition:
    """Decode a bit string of length L into the composition of L+1 it encodes."""
    parts: list[int] = []
    run = 1
    for bit in b.bits:
        if bit:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return Composition(tuple(parts))


def conjugate(c: Composition) -> Composition:
    """Complement the bit string: an involution sending ell parts to n-ell+1 parts."""
    encoded = to_bitseq(c)
    return from_bitseq(BitSeq(tuple(1 - b for b in encoded.bits)))


# Glyphs chosen to render the unit row unambiguously in terminals:
# U+2212 minus sign for a unit, U+00B7 middle dot for a node.
_UNIT = "−"
_NODE = "·"


def render_graph(c: Composition) -> str:
    """Render n unit glyphs with a node glyph at each marked gap."""
    out = [_UNIT]
    for bit in to_bitseq(c).bits:
        if bit:
            out.append(_NODE)
        out.append(_UNIT)
    return "".join(out)
