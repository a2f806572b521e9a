"""Tests for 2^k factorial designs and sign tables."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.expdesign import Factor, FactorialDesign


def design_2():
    return FactorialDesign(
        [Factor("nodes", 2, 32, "A"), Factor("period", 5.0, 50.0, "B")]
    )


def test_factor_level():
    f = Factor("x", 1, 10, "A")
    assert f.level(-1) == 1
    assert f.level(1) == 10
    with pytest.raises(ValueError):
        f.level(0)


def test_needs_factors():
    with pytest.raises(ValueError):
        FactorialDesign([])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        FactorialDesign([Factor("a", 0, 1, "A"), Factor("alpha", 0, 1, "A")])


def test_default_label_from_name():
    d = FactorialDesign([Factor("nodes", 0, 1)])
    assert d.labels == ["N"]


def test_run_count():
    assert design_2().n_runs == 4
    d3 = FactorialDesign([Factor(n, 0, 1, n) for n in "XYZ"])
    assert d3.n_runs == 8


def test_runs_standard_order():
    runs = list(design_2().runs())
    assert runs == [
        {"nodes": 2, "period": 5.0},
        {"nodes": 32, "period": 5.0},
        {"nodes": 2, "period": 50.0},
        {"nodes": 32, "period": 50.0},
    ]


def test_signs_balanced():
    signs = design_2().signs()
    assert signs == ((-1, -1), (1, -1), (-1, 1), (1, 1))
    assert all(type(s) is int for row in signs for s in row)
    assert [sum(col) for col in zip(*signs)] == [0, 0]


def test_sign_table_built_once():
    d = design_2()
    assert d.signs() is d.signs()


def test_effect_columns_orthogonal():
    d = FactorialDesign([Factor(n, 0, 1, n) for n in "ABC"])
    labels, cols = d.effect_columns()
    assert labels == ["A", "B", "C", "AB", "AC", "BC", "ABC"]
    assert len(cols) == 7 and all(len(col) == 8 for col in cols)
    gram = np.array(cols) @ np.array(cols).T
    np.testing.assert_array_equal(gram, 8 * np.eye(7, dtype=int))


def test_interaction_column_is_product():
    d = design_2()
    labels, cols = d.effect_columns()
    signs = d.signs()
    ab = cols[labels.index("AB")]
    assert ab == tuple(a * b for a, b in signs)


def test_run_label():
    d = design_2()
    assert d.run_label(0) == "A- B-"
    assert d.run_label(3) == "A+ B+"


@given(st.integers(min_value=1, max_value=6))
def test_columns_all_balanced_and_pm_one(k):
    d = FactorialDesign([Factor(f"f{i}", 0, 1, chr(65 + i)) for i in range(k)])
    labels, cols = d.effect_columns()
    assert len(labels) == len(cols) == 2**k - 1
    assert all(len(col) == 2**k for col in cols)
    assert {s for col in cols for s in col} <= {-1, 1}
    assert all(sum(col) == 0 for col in cols)
