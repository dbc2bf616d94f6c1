"""Statistics helpers used by the evaluation.

The paper states its calibration results as "the average performance of
the STB ... was 20.6 worse with a maximum error of 10%" at a 90%
confidence level.  :func:`mean_confidence_interval` and
:func:`ratio_with_error` reproduce exactly that computation (Student-t
interval on the sample mean, error as a fraction of the mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import AnalysisError

__all__ = ["ConfidenceInterval", "mean_confidence_interval",
           "ratio_with_error"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with its symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def max_error(self) -> float:
        """Half-width as a fraction of the mean ("maximum error")."""
        if self.mean == 0:
            raise AnalysisError("max_error undefined for zero mean")
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def mean_confidence_interval(
    sample: Iterable[float],
    confidence: float = 0.90,
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``sample``."""
    from scipy import stats as sps  # ~70 MB and ~1 s: import on first use
    arr = np.asarray(list(sample) if not isinstance(sample, np.ndarray)
                     else sample, dtype=float)
    if arr.size < 2:
        raise AnalysisError("confidence interval needs >= 2 samples")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return ConfidenceInterval(mean=mean, half_width=t_crit * sem,
                              confidence=confidence, n=int(arr.size))


def ratio_with_error(
    numerators: Sequence[float],
    denominators: Sequence[float],
    confidence: float = 0.90,
) -> ConfidenceInterval:
    """CI of the mean of per-pair ratios ``numerators[i]/denominators[i]``.

    This is the paper's methodology for the 20.6× and 1.65× figures:
    average the per-test slowdown ratios and quote the t-interval.
    """
    num = np.asarray(numerators, dtype=float)
    den = np.asarray(denominators, dtype=float)
    if num.shape != den.shape:
        raise AnalysisError("ratio arrays must have identical shapes")
    if np.any(den == 0):
        raise AnalysisError("zero denominator in ratio computation")
    return mean_confidence_interval(num / den, confidence=confidence)

