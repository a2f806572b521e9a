"""Benchmarks regenerating the Section-5 validation artifacts:
Figure 30 + Table 7, Figure 31 + Table 8."""

from repro.experiments import run


def test_figure30(run_once):
    """Figure 30: >60 % Pd and ~80 % main overhead reduction under BF."""
    fig = run_once(run, "figure30", quick=True)
    summary = fig.find("overhead reduction")
    for pd_red in summary.column("pd_reduction_pct"):
        assert pd_red > 60.0
    for main_red in summary.column("main_reduction_pct"):
        assert 70.0 < main_red < 90.0
    # Table 7: policy and period together explain nearly everything.
    t7 = fig.find("Table 7: variation explained for Pd CPU time")
    rows = dict(zip(t7.column("effect"), t7.column("percent")))
    assert rows["A"] + rows["B"] + rows["AB"] > 90.0


def test_figure31(run_once):
    """Figure 31 / Table 8: the BF gain is application-independent."""
    fig = run_once(run, "figure31", quick=True)
    t8 = fig.find("Table 8: variation explained for Pd")
    rows = dict(zip(t8.column("effect"), t8.column("percent")))
    assert rows["A"] > 90.0  # policy
    assert rows["B"] < 5.0  # application program (paper: ~0.3 %)
