"""Fractional factorial designs: 2^(k-p) with generator relations.

The paper runs full 2^4 designs; screening more factors (§4.1 lists six)
at the same budget calls for fractional designs (Jain ch. 19).  A
:class:`FractionalFactorialDesign` is built from base factors plus
generator equations like ``"E=ABCD"``: the generated factor's level in
each run is the product of the base columns, which confounds (aliases)
each effect with its generalized interactions with the defining words.

The alias structure is computed explicitly so an analysis can report
what each estimated effect is confounded with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .factorial import Factor, FactorialDesign

__all__ = ["FractionalFactorialDesign"]


def _word_mul(a: str, b: str) -> str:
    """Product of two effect words under x^2 = I (e.g. AB * BC = AC).

    ``"I"`` is the identity word, not a factor letter.
    """
    counts: Dict[str, int] = {}
    for ch in a + b:
        if ch == "I":
            continue
        counts[ch] = counts.get(ch, 0) + 1
    word = "".join(sorted(ch for ch, n in counts.items() if n % 2 == 1))
    return word or "I"


@dataclass
class FractionalFactorialDesign:
    """A 2^(k-p) design from ``base_factors`` and ``generators``.

    ``generators`` map generated-factor objects to defining words over
    the base factor labels, e.g. ``{Factor("flush", 0, 1, "E"): "ABCD"}``.
    """

    base_factors: Sequence[Factor]
    generators: Dict[Factor, str]

    def __post_init__(self) -> None:
        self._base = FactorialDesign(list(self.base_factors))
        base_labels = set(self._base.labels)
        for factor, word in self.generators.items():
            label = factor.label or factor.name[0].upper()
            if label in base_labels:
                raise ValueError(f"generated label {label!r} collides with base")
            if not word or not set(word) <= base_labels:
                raise ValueError(
                    f"generator {word!r} must be a word over base labels "
                    f"{sorted(base_labels)}"
                )

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Total number of factors (base + generated)."""
        return len(self.base_factors) + len(self.generators)

    @property
    def p(self) -> int:
        return len(self.generators)

    @property
    def n_runs(self) -> int:
        return 2 ** len(self.base_factors)

    @property
    def resolution_words(self) -> List[str]:
        """The defining relation's words (I = word for each generator)."""
        words = []
        for factor, word in self.generators.items():
            label = factor.label or factor.name[0].upper()
            words.append(_word_mul(label, word))
        return words

    @property
    def resolution(self) -> int:
        """Design resolution: length of the shortest defining word."""
        full = self.defining_relation()
        lengths = [len(w) for w in full if w != "I"]
        return min(lengths) if lengths else 0

    def defining_relation(self) -> List[str]:
        """All words equal to identity (the defining contrast subgroup)."""
        words = {"I"}
        for w in self.resolution_words:
            words |= {_word_mul(w, existing) for existing in list(words)}
        return sorted(words, key=lambda w: (len(w), w))

    # ------------------------------------------------------------------
    def runs(self) -> Iterator[Dict[str, Any]]:
        """Yield factor-name → value mappings for the 2^(k-p) runs."""
        base_signs = self._base.signs()
        label_to_col = {lab: i for i, lab in enumerate(self._base.labels)}
        for row in base_signs:
            run = {f.name: f.level(s) for f, s in zip(self.base_factors, row)}
            for factor, word in self.generators.items():
                sign = 1
                for ch in word:
                    sign *= row[label_to_col[ch]]
                run[factor.name] = factor.level(sign)
            yield run

    def signs(self) -> Tuple[List[str], np.ndarray]:
        """Labels and ±1 columns for all k factors over the 2^(k-p) runs."""
        base_signs = np.array(self._base.signs())
        labels = list(self._base.labels)
        cols = [base_signs[:, i] for i in range(len(labels))]
        label_to_col = {lab: i for i, lab in enumerate(labels)}
        for factor, word in self.generators.items():
            col = np.ones(self.n_runs, dtype=int)
            for ch in word:
                col = col * base_signs[:, label_to_col[ch]]
            labels.append(factor.label or factor.name[0].upper())
            cols.append(col)
        return labels, np.column_stack(cols)

    def estimate_effects(
        self, responses: Sequence[Sequence[float]]
    ) -> Dict[str, float]:
        """Estimate every estimable contrast from 2^(k-p)·r responses.

        Returns a mapping from contrast label to the estimated effect,
        where each label lists its alias chain (e.g. ``"A=BCD"`` in a
        resolution-IV half fraction): the contrast measures the *sum*
        of the aliased effects, which is all a fraction can resolve.
        Responses must be in the standard order of :meth:`runs`.
        """
        y = np.asarray(responses, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape[0] != self.n_runs:
            raise ValueError(
                f"expected {self.n_runs} runs in standard order, got {y.shape[0]}"
            )
        run_means = y.mean(axis=1)
        # Full effect columns over the *base* factorial.
        base_labels, base_cols = self._base.effect_columns()
        out: Dict[str, float] = {}
        for label, col in zip(base_labels, np.array(base_cols)):
            q = float(col @ run_means / self.n_runs)
            chain = [label] + self.aliases(label)
            # Keep only the shortest few words for readability.
            chain = sorted(set(chain), key=lambda w: (len(w), w))
            out["=".join(chain)] = q
        return out

    def aliases(self, effect: str) -> List[str]:
        """Effects confounded with *effect* under the defining relation."""
        out = set()
        for word in self.defining_relation():
            if word == "I":
                continue
            out.add(_word_mul(effect, word))
        out.discard(effect)
        return sorted(out, key=lambda w: (len(w), w))
