"""Process tags for the four one-dimensional Markov processes used everywhere.

BM      standard Brownian motion on R
BESQ    squared Bessel process of index nu > -1 on [0, infinity)
BES     Bessel process of index nu > -1 on [0, infinity)
RW      simple symmetric random walk on Z, discrete time
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_TAGS = ("BM", "BESQ", "BES", "RW")


@dataclass(frozen=True)
class ProcessKind:
    """Tagged process selector."""

    tag: str
    nu: float | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise DomainError(f"unknown process tag {self.tag!r}")
        if self.tag in ("BESQ", "BES"):
            if self.nu is None or not (math.isfinite(self.nu) and self.nu > -1.0):
                raise DomainError(f"{self.tag} requires a finite index nu > -1")
        elif self.nu is not None:
            raise DomainError(f"{self.tag} takes no index")

    def __str__(self):
        if self.nu is not None:
            return f"{self.tag}({self.nu})"
        return self.tag


def bm() -> ProcessKind:
    return ProcessKind("BM")


def besq(nu: float) -> ProcessKind:
    return ProcessKind("BESQ", float(nu))


def bes(nu: float) -> ProcessKind:
    return ProcessKind("BES", float(nu))


def rw() -> ProcessKind:
    return ProcessKind("RW")
