"""Box sets in R^n with an infinite tail of canonical intervals, their
product measure, and the shrinking interval family j_k.

A box set is a finite-dimensional box (the base) times an implicit infinite
product of tail intervals: either copies of J = [-1/2, 1/2] (each of
measure one, so the product measure of the box equals the Lebesgue volume
of its base) or the shrinking intervals j_k of length 1/ln(k+1).
Elementary products carry per-index factors and are measured by the
normalized factor measures of :func:`vjn_measure`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import TailFamilyMismatch, UnresolvedTail
from .gauge import Interval

CANONICAL_J = Interval(-0.5, 0.5)


class TailFamily(Enum):
    """The tail intervals of a box set, which also scale the integral of a
    tame function: its order-n integral times :meth:`tail_product`."""

    CANONICAL_J = "canonical-j"
    SCALED_J = "scaled-j"

    def tail_product(self, order: int) -> float:
        """Product of the first ``order`` tail factors, computed in log space.

        Canonical-J factors are all one; scaled-J factor i is 1/log(i + 1).

        The scaled factors cross one (the first exceeds it, later ones decay)
        and their product vanishes super-exponentially, so the plain product
        would underflow long before the log-sum does.
        """
        if self is TailFamily.CANONICAL_J:
            return 1.0
        log_sum = -math.fsum(math.log(math.log(i + 1)) for i in range(1, order + 1))
        return math.exp(log_sum)


def j_interval(k: int) -> Interval:
    """The k-th shrinking interval, symmetric with half-width 1/(2 ln(k+1))."""
    if k < 1:
        raise ValueError("index must be >= 1")
    half = 0.5 * (1.0 / math.log(k + 1))
    return Interval(-half, half)


def tail_interval(family: TailFamily, k: int) -> Interval:
    return CANONICAL_J if family is TailFamily.CANONICAL_J else j_interval(k)


@dataclass(frozen=True)
class MeasureValue:
    """Non-negative measure value; +inf marks divergence."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if math.isnan(self.value) or self.value < 0.0:
            raise ValueError(f"measure must be non-negative, got {self.value}")

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class BoxSet:
    """Finite-dimensional box times an infinite tail of canonical intervals."""

    base: tuple
    tail_family: TailFamily = TailFamily.CANONICAL_J

    def __post_init__(self):
        base = tuple(self.base)
        object.__setattr__(self, "base", base)
        if not base:
            raise ValueError("box must have dimension >= 1")
        for iv in base:
            if not isinstance(iv, Interval):
                raise TypeError("box base must consist of Interval instances")

    @property
    def dim(self) -> int:
        return len(self.base)

    def promote(self, new_dim: int) -> "BoxSet":
        """Append full tail intervals to reach ``new_dim`` (measure-neutral)."""
        if new_dim < self.dim:
            raise ValueError("cannot demote a box")
        extra = tuple(
            tail_interval(self.tail_family, k) for k in range(self.dim + 1, new_dim + 1)
        )
        return BoxSet(self.base + extra, self.tail_family)

    def translate(self, shift: Sequence[float]) -> "BoxSet":
        if len(shift) != self.dim:
            raise ValueError("shift dimension mismatch")
        return BoxSet(
            tuple(iv.translate(dx) for iv, dx in zip(self.base, shift)),
            self.tail_family,
        )


def _check_family(a: BoxSet, b: BoxSet):
    if a.tail_family is not b.tail_family:
        raise TailFamilyMismatch(
            f"cannot combine {a.tail_family.value} with {b.tail_family.value}"
        )


def _promote_pair(a: BoxSet, b: BoxSet):
    _check_family(a, b)
    d = max(a.dim, b.dim)
    return a.promote(d), b.promote(d)


def box_intersect(a: BoxSet, b: BoxSet) -> BoxSet | None:
    """Coordinatewise intersection; None when some axis is disjoint."""
    a, b = _promote_pair(a, b)
    base = []
    for ia, ib in zip(a.base, b.base):
        s = ia.intersect(ib)
        if s is None:
            return None
        base.append(s)
    return BoxSet(tuple(base), a.tail_family)


def _base_minus(outer, inner):
    """Disjoint boxes covering outer \\ inner (inner must intersect outer)."""
    pieces = []
    current = list(outer)
    for d, (iv, cut) in enumerate(zip(outer, inner)):
        if iv.lo < cut.lo:
            pieces.append(tuple(current[:d]) + (Interval(iv.lo, cut.lo),) + tuple(current[d + 1 :]))
        if cut.hi < iv.hi:
            pieces.append(tuple(current[:d]) + (Interval(cut.hi, iv.hi),) + tuple(current[d + 1 :]))
        current[d] = cut
    return pieces


def box_union(a: BoxSet, b: BoxSet) -> list:
    """Disjoint box decomposition of the union (overlap only at boundaries)."""
    a, b = _promote_pair(a, b)
    inter = box_intersect(a, b)
    if inter is None:
        return [a, b]
    rest = _base_minus(b.base, inter.base)
    return [a] + [BoxSet(p, a.tail_family) for p in rest]


def mu_b(a: BoxSet) -> MeasureValue:
    """Product measure: Lebesgue volume of the base, tail factors all one.

    Only defined for the canonical-J tail; scaled tails are measured through
    :func:`vjn_measure` on elementary products.
    """
    if a.tail_family is not TailFamily.CANONICAL_J:
        raise TailFamilyMismatch(
            "mu_b needs a canonical-J tail; use vjn_measure for scaled tails"
        )
    v = 1.0
    for iv in a.base:
        v *= iv.width
    return MeasureValue(v)


@dataclass(frozen=True)
class ElementaryProduct:
    """Product set with finitely many explicit interval factors.

    ``factors`` maps strictly increasing indices k >= 1 to intervals; every
    index not listed defaults to j_k.  ``resolved_up_to`` marks how far the
    explicit factors are meaningful.
    """

    factors: tuple
    resolved_up_to: int

    def __post_init__(self):
        factors = tuple((int(k), iv) for k, iv in self.factors)
        object.__setattr__(self, "factors", factors)
        prev = 0
        for k, iv in factors:
            if k <= prev:
                raise ValueError("factor indices must be strictly increasing")
            if not isinstance(iv, Interval):
                raise TypeError("factors must be Interval instances")
            prev = k
        if self.resolved_up_to < 0:
            raise ValueError("resolved_up_to must be non-negative")


def vjn_measure(a: ElementaryProduct, n: int) -> MeasureValue:
    """Order-n product measure of an elementary product.

    Factors up to n contribute mu(a_k) / mu(j_k); factors beyond n
    contribute mu(a_k intersect j_k) / mu(j_k).  Defaulted factors equal
    j_k and contribute one, so the infinite product is finite.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    value = 1.0
    for k, iv in a.factors:
        jk = j_interval(k)
        if k <= n:
            factor = iv.width / jk.width
        else:
            s = iv.intersect(jk)
            factor = 0.0 if s is None else s.width / jk.width
        if k > a.resolved_up_to and factor != 1.0:
            raise UnresolvedTail(
                f"factor at index {k} lies beyond resolved_up_to="
                f"{a.resolved_up_to} and contributes {factor} != 1"
            )
        value *= factor
    return MeasureValue(value)
