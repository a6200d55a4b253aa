"""Process tags for the four one-dimensional Markov processes used everywhere.

BM      standard Brownian motion on R
BESQ    squared Bessel process of index nu > -1 on [0, infinity)
BES     Bessel process of index nu > -1 on [0, infinity)
RW      simple symmetric random walk on Z, discrete time
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def check_times(process: ProcessKind | None, times) -> tuple:
    """The observation times as floats: a nonempty, finite, strictly
    increasing axis of times >= 0, integers for the walk.  Every route
    checks its times here; ``process`` is None for a kernel without one."""
    ts = tuple(float(t) for t in times)
    if not ts:
        raise DomainError("times must not be empty")
    if not all(math.isfinite(t) for t in ts):
        raise DomainError("times must be finite")
    if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise DomainError("times must be strictly increasing")
    if any(t < 0 for t in ts):
        raise DomainError("times must be nonnegative")
    if process is not None and process.tag == "RW" and any(not t.is_integer() for t in ts):
        raise DomainError("walk times must be integers")
    return ts


def check_starts(process: ProcessKind, u, representation: bool) -> np.ndarray:
    """Starting points as floats: BESQ and BES from >= 0, the walk from
    integers; every walk route but the free sampler also needs one parity,
    or walkers swap without meeting and the determinant identity fails."""
    u = np.asarray(u, dtype=float)
    if process.tag in ("BESQ", "BES") and (u < 0).any():
        raise DomainError(f"{process.tag} starts must be nonnegative")
    if process.tag == "RW":
        if any(not float(v).is_integer() for v in u):
            raise DomainError("walk starts must be integers")
        if representation and len({int(v) % 2 for v in u}) > 1:
            raise DomainError("walk starts must all have the same parity")
    return u
