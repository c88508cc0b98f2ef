"""Tame functions of the infinite-dimensional box spaces.

A tame function of order n is a finite-dimensional core on the first n
coordinates tensored with the indicator that every remaining coordinate
lies in its tail interval.  Which tail family scales its integral is a
:class:`kspaces.boxes.TailFamily` given to the integration, not a part of
the function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .gauge import Interval


@dataclass(frozen=True)
class TameFunction:
    """Order-n core on a working box, tensored with the tail indicator."""

    order: int
    core: Callable
    box: tuple

    def __post_init__(self):
        box = tuple(self.box)
        object.__setattr__(self, "box", box)
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(box) != self.order:
            raise ValueError("working box must have one interval per coordinate")
        for iv in box:
            if not isinstance(iv, Interval):
                raise TypeError("box must consist of Interval instances")
