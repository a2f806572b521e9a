"""Allocation of variation for 2^k·r designs — the paper's "PCA".

What the paper calls principal component analysis (Figures 16, 20, 25;
Tables 7, 8) is Jain's *allocation of variation*: in a 2^k·r factorial
design, the total variation of the response decomposes exactly into a
sum of squares per effect (main effects and interactions) plus
experimental error, and each effect's share quantifies its importance:

    q_e  = (1/2^k) Σ_i sign_e(i) · ȳ_i          (effect estimate)
    SS_e = 2^k · r · q_e²
    SSE  = Σ_i Σ_j (y_ij − ȳ_i)²
    SST  = Σ SS_e + SSE

:func:`allocate_variation` returns the fractions and, when r > 1,
confidence intervals on the effects.  Every sum is a ``math.fsum``, so
the result is correctly rounded and the same on every host (a BLAS
matrix-vector product sums in an order that depends on the CPU).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .factorial import FactorialDesign

__all__ = ["EffectShare", "VariationResult", "allocate_variation"]


@dataclass(frozen=True)
class EffectShare:
    """One effect's contribution to the response variation."""

    label: str
    effect: float  # q_e: half the change from low to high level
    sum_of_squares: float
    fraction: float  # share of total variation, in [0, 1]
    ci_low: Optional[float] = None  # CI on the effect (needs r > 1)
    ci_high: Optional[float] = None

    @property
    def significant(self) -> bool:
        """Whether the CI excludes zero (always True without a CI)."""
        if self.ci_low is None or self.ci_high is None:
            return True
        return not (self.ci_low <= 0.0 <= self.ci_high)


@dataclass
class VariationResult:
    """Full allocation-of-variation outcome."""

    mean: float
    total_variation: float
    shares: List[EffectShare] = field(default_factory=list)
    error_fraction: float = 0.0

    def fraction(self, label: str) -> float:
        for s in self.shares:
            if s.label == label:
                return s.fraction
        raise KeyError(label)

    def top(self, n: int = 3) -> List[EffectShare]:
        """The n largest contributors, descending."""
        return sorted(self.shares, key=lambda s: s.fraction, reverse=True)[:n]

    def as_percentages(self) -> Dict[str, float]:
        """Label → percentage map, plus ``"error"`` (the figures' 'Rest')."""
        out = {s.label: 100.0 * s.fraction for s in self.shares}
        out["error"] = 100.0 * self.error_fraction
        return out

    def format(self) -> str:
        """Render like the paper's stacked-bar annotations."""
        parts = [
            f"{s.label} {100 * s.fraction:.1f}%"
            for s in sorted(self.shares, key=lambda s: s.fraction, reverse=True)
            if s.fraction >= 0.005
        ]
        if self.error_fraction >= 0.005:
            parts.append(f"error {100 * self.error_fraction:.1f}%")
        return " | ".join(parts)


def allocate_variation(
    design: FactorialDesign,
    responses: Sequence[Sequence[float]],
    confidence: float = 0.90,
) -> VariationResult:
    """Allocate response variation across all 2^k − 1 effects.

    Parameters
    ----------
    design:
        The factorial design whose standard-order runs produced the data.
    responses:
        ``2^k`` rows of ``r`` repetitions each (r may be 1).
    confidence:
        Level for the effect CIs when r > 1.
    """
    rows = [_repetitions(row) for row in responses]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError(
            "responses contain NaN/inf — a design cell produced no "
            "observations (e.g. a batch never completed within the "
            "simulated duration); lengthen the run or adjust the levels"
        )
    n_runs = len(rows)
    if n_runs != design.n_runs:
        raise ValueError(
            f"expected {design.n_runs} runs in standard order, got {n_runs}"
        )
    r = len(rows[0])
    if r == 0 or any(len(row) != r for row in rows):
        raise ValueError("every run needs the same number (>= 1) of repetitions")

    run_means = [math.fsum(row) / r for row in rows]
    grand_mean = math.fsum(run_means) / n_runs
    labels, columns = design.effect_columns()

    # q_e for each effect; a ±1 sign times a mean is exact.
    effects = [
        math.fsum(s * m for s, m in zip(col, run_means)) / n_runs
        for col in columns
    ]
    ss_effects = [n_runs * r * (q * q) for q in effects]
    sse = math.fsum(
        (v - m) * (v - m) for row, m in zip(rows, run_means) for v in row
    )
    sst = math.fsum(ss_effects + [sse])

    # CI on effects: s_e = sqrt(SSE / (2^k (r-1))) / sqrt(2^k r).
    ci_half: Optional[float] = None
    if r > 1 and sse > 0:
        from ..special import stdtrit

        dof = n_runs * (r - 1)
        s2e = sse / dof
        se_effect = math.sqrt(s2e / (n_runs * r))
        ci_half = float(stdtrit(dof, 0.5 + confidence / 2.0)) * se_effect

    shares = []
    for label, q, ss in zip(labels, effects, ss_effects):
        lo = hi = None
        if ci_half is not None:
            lo, hi = q - ci_half, q + ci_half
        shares.append(
            EffectShare(
                label=label,
                effect=q,
                sum_of_squares=ss,
                fraction=ss / sst if sst > 0 else 0.0,
                ci_low=lo,
                ci_high=hi,
            )
        )
    return VariationResult(
        mean=grand_mean,
        total_variation=sst,
        shares=shares,
        error_fraction=sse / sst if sst > 0 else 0.0,
    )


def _repetitions(row) -> Tuple[float, ...]:
    """One run's repetitions as floats; a bare number is one repetition."""
    try:
        return tuple(float(v) for v in row)
    except TypeError:  # not iterable: a single response
        return (float(row),)
