"""Integration over the infinite-dimensional box spaces.

For a tame function the integral reduces exactly to a finite-dimensional
quadrature times a finite product of tail-measure factors, so no limit is
needed; general functions are handled as limits of tame approximants with
a Cauchy stopping rule on the partial integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .boxes import TailFamily
from .errors import NotCauchy
from .gauge import integrate_nd_result
from .tame import TameFunction


@dataclass(frozen=True)
class ConvergenceReport:
    value: float
    terms: tuple
    converged: bool
    criterion: str


def integrate_tame(f: TameFunction, family: TailFamily, tol: float = 1e-10) -> float:
    """Integral of a tame function: core quadrature times the tail factors
    of ``family`` (:meth:`TailFamily.tail_product`)."""
    result = integrate_nd_result(f.core, f.box, tol)
    return result.value * family.tail_product(f.order)


def integrate_limit(
    seq: Iterable[TameFunction],
    family: TailFamily,
    tol: float = 1e-6,
    max_n: int = 256,
    quad_tol: float = 1e-10,
) -> ConvergenceReport:
    """Limit of tame-function integrals with a Cauchy stopping rule.

    Terms must have non-decreasing order.  The limit is declared reached
    when the successive differences among the three most recent partial
    integrals all fall below ``tol``; the full partial-value trace is
    reported so callers can apply stricter criteria.  Raises
    :class:`NotCauchy` when ``max_n`` terms pass without settling, and
    :class:`ValueError`, before integrating any term, for ``max_n`` < 1 or
    a ``tol`` that is not positive, which no difference could fall below.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    criterion = (
        f"successive differences among the last 3 partial integrals < {tol:g}"
    )
    terms = []
    values = []
    last_order = 0
    for i, f in enumerate(seq, start=1):
        if f.order < last_order:
            raise ValueError("sequence terms must have non-decreasing order")
        last_order = f.order
        v = integrate_tame(f, family, quad_tol)
        values.append(v)
        terms.append((i, v))
        if len(values) >= 3:
            d1 = abs(values[-1] - values[-2])
            d2 = abs(values[-2] - values[-3])
            if d1 < tol and d2 < tol:
                return ConvergenceReport(v, tuple(terms), True, criterion)
        if i >= max_n:
            break
    if not terms:
        raise ValueError("empty sequence")
    tail = [round(values[i] - values[i - 1], 15) for i in range(max(1, len(values) - 4), len(values))]
    report = ConvergenceReport(values[-1], tuple(terms), False, criterion)
    raise NotCauchy(
        f"partial integrals did not settle after {len(values)} terms; "
        f"recent differences {tail}",
        report=report,
    )
