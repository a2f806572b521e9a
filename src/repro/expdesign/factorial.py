"""2^k·r factorial experiment designs (Jain, chapters 17–18).

The paper evaluates each architecture with a 2^k·r factorial design:
k factors at two levels each, r repetitions per cell, followed by an
allocation-of-variation analysis (:mod:`repro.expdesign.effects`).

:class:`FactorialDesign` enumerates the 2^k runs in standard (Yates)
order and produces the sign table including all interaction columns,
as plain tuples of ±1: the analysis is pure Python (``math.fsum``), so
designing and analysing an experiment imports no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

__all__ = ["Factor", "FactorialDesign"]

#: A ±1 table: one tuple per row.
SignTable = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Factor:
    """A two-level experimental factor.

    ``label`` is the single-letter code used in the paper's figures
    (A = number of nodes, B = sampling period, ...).
    """

    name: str
    low: Any
    high: Any
    label: str = ""

    def level(self, sign: int) -> Any:
        """Value at the −1 (low) or +1 (high) level."""
        if sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        return self.low if sign == -1 else self.high


class FactorialDesign:
    """A full 2^k factorial over the given factors."""

    def __init__(self, factors: Sequence[Factor]):
        if not factors:
            raise ValueError("need at least one factor")
        labels = [f.label or f.name[0].upper() for f in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"factor labels must be unique, got {labels}")
        self.factors = list(factors)
        self.labels = labels
        # product varies the *last* element fastest; reverse for Yates.
        self._signs: SignTable = tuple(
            combo[::-1] for combo in product((-1, 1), repeat=len(factors))
        )

    @property
    def k(self) -> int:
        return len(self.factors)

    @property
    def n_runs(self) -> int:
        return 2**self.k

    # ------------------------------------------------------------------
    def signs(self) -> SignTable:
        """The 2^k rows of k ±1 signs, in standard order (first factor
        fastest)."""
        return self._signs

    def runs(self) -> Iterator[Dict[str, Any]]:
        """Yield factor-name → value mappings for all 2^k runs."""
        for row in self._signs:
            yield {f.name: f.level(s) for f, s in zip(self.factors, row)}

    def configs(self, make_config: Callable[[Dict[str, Any]], Any]) -> List[Any]:
        """Materialize one experiment cell description per run.

        *make_config* maps a run's ``{factor name: value}`` dict to
        whatever the experiment layer schedules (typically a
        ``SimulationConfig``); the list is in standard (Yates) order so
        row *i* lines up with ``signs()[i]`` and ``run_label(i)``.  This
        is the seam the parallel experiment engine uses: the design
        enumerates cells, ``repro.experiments.run_design`` batches them.
        """
        return [make_config(run) for run in self.runs()]

    # ------------------------------------------------------------------
    def effect_columns(self) -> Tuple[List[str], SignTable]:
        """Labels and sign columns for all main effects and interactions.

        Returns ``(labels, columns)``: 2^k − 1 columns of 2^k signs, one
        per effect (A, B, AB, C, AC, ...), ordered by interaction order
        then position.  Column *e*'s sign in run *i* is the product of
        run *i*'s signs for the factors in effect *e*.
        """
        labels: List[str] = []
        cols: List[Tuple[int, ...]] = []
        for order in range(1, self.k + 1):
            for idxs in combinations(range(self.k), order):
                labels.append("".join(self.labels[i] for i in idxs))
                cols.append(
                    tuple(prod(row[i] for i in idxs) for row in self._signs)
                )
        return labels, tuple(cols)

    def run_label(self, index: int) -> str:
        """Compact description of run *index* (e.g. ``A+ B- C+``)."""
        return " ".join(
            f"{lab}{'+' if s > 0 else '-'}"
            for lab, s in zip(self.labels, self._signs[index])
        )
