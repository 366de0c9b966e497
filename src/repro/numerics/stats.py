"""Statistics helpers used by the experiment harness.

Every figure in the paper reports per-subset means with standard
deviations as error bars; :class:`RunningStats` (Welford's online
algorithm) accumulates those without storing all samples.
"""

from __future__ import annotations

import math
from typing import Iterable


class RunningStats:
    """Welford's online mean/variance accumulator.

    Numerically stable for long streams (50 000 validation images) —
    the naive sum-of-squares formula loses precision at that scale.
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def push(self, x: float) -> None:
        """Add one sample."""
        x = float(x)
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)
        self._min = min(self._min, x)
        self._max = max(self._max, x)

    def extend(self, xs: Iterable[float]) -> None:
        """Add many samples."""
        for x in xs:
            self.push(x)

    @property
    def n(self) -> int:
        """Number of samples pushed."""
        return self._n

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        if self._n == 0:
            raise ValueError("no samples")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self._n < 2:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        """Smallest sample."""
        if self._n == 0:
            raise ValueError("no samples")
        return self._min

    @property
    def max(self) -> float:
        """Largest sample."""
        if self._n == 0:
            raise ValueError("no samples")
        return self._max

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two accumulators (parallel Welford merge)."""
        out = RunningStats()
        n = self._n + other._n
        if n == 0:
            return out
        delta = other._mean - self._mean
        out._n = n
        out._mean = self._mean + delta * other._n / n
        out._m2 = (self._m2 + other._m2
                   + delta * delta * self._n * other._n / n)
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        return out

    def __repr__(self) -> str:
        if self._n == 0:
            return "<RunningStats empty>"
        return (f"<RunningStats n={self._n} mean={self._mean:.6g} "
                f"std={self.std:.6g}>")
