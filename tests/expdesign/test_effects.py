"""Tests for allocation of variation (the paper's 'PCA')."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expdesign import Factor, FactorialDesign, allocate_variation


def design(k=2):
    return FactorialDesign([Factor(f"f{i}", -1, 1, chr(65 + i)) for i in range(k)])


def additive_responses(d, effects, noise=0.0, reps=1, seed=0):
    """Build y = mean + sum_e q_e * sign_e + noise for known effects."""
    rng = np.random.default_rng(seed)
    labels, cols = d.effect_columns()
    y = np.full(d.n_runs, 10.0)
    for label, q in effects.items():
        y = y + q * np.asarray(cols[labels.index(label)])
    out = np.tile(y[:, None], (1, reps))
    if noise:
        out = out + rng.normal(0, noise, out.shape)
    return out


def test_single_effect_explains_everything():
    d = design(2)
    y = additive_responses(d, {"A": 3.0})
    res = allocate_variation(d, y)
    assert res.fraction("A") == pytest.approx(1.0)
    assert res.fraction("B") == pytest.approx(0.0)
    assert res.error_fraction == pytest.approx(0.0)


def test_effect_estimates_recovered_exactly():
    d = design(3)
    truth = {"A": 2.0, "B": -1.0, "AB": 0.5, "C": 0.25}
    y = additive_responses(d, truth)
    res = allocate_variation(d, y)
    for s in res.shares:
        assert s.effect == pytest.approx(truth.get(s.label, 0.0), abs=1e-12)
    assert res.mean == pytest.approx(10.0)


def test_fractions_sum_to_one_with_noise():
    d = design(3)
    y = additive_responses(d, {"A": 2.0, "B": 1.0}, noise=0.3, reps=5)
    res = allocate_variation(d, y)
    total = sum(s.fraction for s in res.shares) + res.error_fraction
    assert total == pytest.approx(1.0)
    assert res.error_fraction > 0


def test_relative_importance_ordering():
    d = design(2)
    y = additive_responses(d, {"A": 5.0, "B": 1.0}, noise=0.1, reps=4)
    res = allocate_variation(d, y)
    top = res.top(2)
    assert top[0].label == "A"
    assert top[1].label == "B"
    assert res.fraction("A") > 0.9


def test_confidence_intervals_with_repetitions():
    d = design(2)
    y = additive_responses(d, {"A": 5.0}, noise=0.2, reps=10, seed=3)
    res = allocate_variation(d, y)
    a = next(s for s in res.shares if s.label == "A")
    assert a.ci_low is not None and a.ci_low < 5.0 < a.ci_high
    assert a.significant
    b = next(s for s in res.shares if s.label == "B")
    assert not b.significant  # CI includes zero


def test_no_ci_single_rep():
    d = design(2)
    res = allocate_variation(d, additive_responses(d, {"A": 1.0}))
    assert all(s.ci_low is None for s in res.shares)
    assert all(s.significant for s in res.shares)


def test_wrong_row_count_rejected():
    d = design(2)
    with pytest.raises(ValueError):
        allocate_variation(d, [[1.0], [2.0]])


def test_nan_rejected_with_helpful_message():
    d = design(2)
    y = additive_responses(d, {"A": 1.0}).astype(float)
    y[0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        allocate_variation(d, y)


def test_format_and_percentages():
    d = design(2)
    res = allocate_variation(d, additive_responses(d, {"A": 3.0, "B": 1.0}))
    pct = res.as_percentages()
    assert pct["A"] == pytest.approx(90.0)
    assert pct["B"] == pytest.approx(10.0)
    assert "A 90.0%" in res.format()


def test_unknown_label_raises():
    d = design(2)
    res = allocate_variation(d, additive_responses(d, {"A": 1.0}))
    with pytest.raises(KeyError):
        res.fraction("Z")


_effect = st.one_of(
    st.just(0.0),
    # Keep effects well above float-addition underflow vs the mean of 10.
    st.floats(min_value=1e-3, max_value=5),
    st.floats(min_value=-5, max_value=-1e-3),
)


@given(qa=_effect, qb=_effect, qab=_effect)
@settings(max_examples=60)
def test_decomposition_is_exact_property(qa, qb, qab):
    """For noiseless additive data the SS decomposition is exact:
    fractions are proportional to squared effects."""
    d = design(2)
    y = additive_responses(d, {"A": qa, "B": qb, "AB": qab})
    ss = qa**2 + qb**2 + qab**2
    res = allocate_variation(d, y)
    if ss == 0:
        assert res.total_variation == pytest.approx(0.0, abs=1e-18)
    else:
        assert res.fraction("A") == pytest.approx(qa**2 / ss, abs=1e-9)
        assert res.fraction("AB") == pytest.approx(qab**2 / ss, abs=1e-9)


def _numpy_reference(d, responses):
    """The matrix form of the allocation (``columns.T @ run_means``), as
    numpy computes it: ``(mean, effects, ss_effects, sse, sst)``."""
    y = np.asarray(responses, dtype=float)
    n_runs, r = y.shape
    labels, cols = d.effect_columns()
    columns = np.array(cols).T  # (runs, effects)
    run_means = y.mean(axis=1)
    effects = columns.T @ run_means / n_runs
    ss_effects = n_runs * r * effects**2
    sse = float(((y - run_means[:, None]) ** 2).sum())
    sst = float(ss_effects.sum() + sse)
    return float(run_means.mean()), effects, ss_effects, sse, sst


@st.composite
def _designs_and_responses(draw, values, reps=(1, 2, 3, 4, 5)):
    k = draw(st.integers(min_value=1, max_value=4))
    reps = draw(st.sampled_from(reps))
    rows = draw(st.lists(st.lists(values, min_size=reps, max_size=reps),
                         min_size=2**k, max_size=2**k))
    return design(k), rows


@given(_designs_and_responses(
    st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False)))
@settings(max_examples=200, deadline=None)
def test_allocation_agrees_with_numpy_reference(case):
    """Correctly rounded sums agree with numpy's matrix form to 1e-12 of
    the scale each quantity is computed at: the responses for the mean
    and the effects, the total variation for the sums of squares and
    the fractions."""
    d, rows = case
    mean, effects, ss_effects, sse, sst = _numpy_reference(d, rows)
    res = allocate_variation(d, rows)
    scale = max(abs(v) for row in rows for v in row)
    assert res.mean == pytest.approx(mean, rel=1e-12, abs=1e-12 * scale)
    # Below this the variation is rounding noise of the responses.
    if sst <= 1e-9 * d.n_runs * len(rows[0]) * scale**2:
        return
    assert res.total_variation == pytest.approx(sst, rel=1e-12)
    assert res.error_fraction == pytest.approx(sse / sst, rel=1e-12, abs=1e-12)
    for share, q, ss in zip(res.shares, effects, ss_effects):
        assert share.effect == pytest.approx(q, rel=1e-12, abs=1e-12 * scale)
        assert share.sum_of_squares == pytest.approx(ss, rel=1e-12, abs=1e-12 * sst)
        assert share.fraction == pytest.approx(ss / sst, rel=1e-12, abs=1e-12)


@given(_designs_and_responses(st.integers(min_value=-1000, max_value=1000),
                              reps=(1, 2, 4)))
@settings(max_examples=200, deadline=None)
def test_allocation_is_exact_on_integer_responses(case):
    """With integer responses and a power-of-two repetition count every
    intermediate is a short dyadic rational, so each result is the exact
    rational value rounded once."""
    from fractions import Fraction

    d, rows = case
    n, r = d.n_runs, len(rows[0])
    means = [Fraction(sum(row), r) for row in rows]
    labels, cols = d.effect_columns()
    effects = [sum(s * m for s, m in zip(col, means)) / n for col in cols]
    ss = [n * r * q * q for q in effects]
    sse = sum((v - m) ** 2 for row, m in zip(rows, means) for v in row)
    sst = sum(ss) + sse
    res = allocate_variation(d, rows)
    assert res.mean == float(sum(means) / n)
    assert res.total_variation == float(sst)
    for share, q, s in zip(res.shares, effects, ss):
        assert share.effect == float(q)
        assert share.sum_of_squares == float(s)
        assert share.fraction == (float(s / sst) if sst else 0.0)
    assert res.error_fraction == (float(sse / sst) if sst else 0.0)


def test_sums_are_correctly_rounded_under_cancellation():
    # Summed left to right, -1e16 + 1 rounds the 1 away: q_A would be 0
    # and the first run's mean 0.
    d = design(2)
    res = allocate_variation(d, [[1e16], [1.0], [-1e16], [0.0]])
    assert res.shares[0].label == "A" and res.shares[0].effect == 0.25
    res = allocate_variation(d, [[1e16, 1.0, -1e16]] + [[0.0] * 3] * 3)
    assert res.mean == 1 / 12
