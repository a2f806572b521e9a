"""Tests for the ROCC and workload command-line interfaces."""

import pytest

from repro.rocc.__main__ import build_parser, config_from_args, main
from repro.rocc.config import Architecture, ForwardingTopology


class TestRoccCli:
    def test_defaults(self):
        args = build_parser().parse_args([])
        cfg = config_from_args(args)
        assert cfg.architecture is Architecture.NOW
        assert cfg.nodes == 8
        assert cfg.sampling_period == 40_000.0
        assert cfg.adaptive is None

    def test_mpp_tree_flags(self):
        args = build_parser().parse_args(
            ["--arch", "mpp", "--nodes", "16", "--tree", "--batch", "32"]
        )
        cfg = config_from_args(args)
        assert cfg.architecture is Architecture.MPP
        assert cfg.forwarding is ForwardingTopology.TREE
        assert cfg.batch_size == 32

    def test_adaptive_flag(self):
        args = build_parser().parse_args(["--adaptive-budget", "0.02"])
        cfg = config_from_args(args)
        assert cfg.adaptive is not None
        assert cfg.adaptive.budget == 0.02

    def test_barrier_flag(self):
        args = build_parser().parse_args(["--barrier-ms", "5"])
        cfg = config_from_args(args)
        assert cfg.barrier_period == 5_000.0

    def test_run_prints_summary(self, capsys):
        rc = main(
            ["--nodes", "2", "--duration-s", "0.5", "--period-ms", "20",
             "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pd CPU/node" in out
        assert "samples" in out

    def test_uninstrumented_run(self, capsys):
        rc = main(["--nodes", "2", "--duration-s", "0.3", "--uninstrumented"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0/0 delivered" in out

    def test_aggregated_run(self, capsys):
        rc = main(
            ["--arch", "mpp", "--nodes", "32", "--duration-s", "0.5",
             "--aggregated", "--batch", "8"]
        )
        assert rc == 0
        assert "n=32" in capsys.readouterr().out

    @pytest.mark.parametrize("arch", ["now", "mpp"])
    def test_daemons_rejected_off_smp(self, arch, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--arch", arch, "--daemons", "3", "--duration-s", "0.1"])
        assert exc.value.code == 2
        assert "--daemons applies to --arch smp only" in capsys.readouterr().err

    def test_daemons_accepted_on_smp(self, capsys):
        rc = main(["--arch", "smp", "--nodes", "4", "--apps", "4",
                   "--daemons", "2", "--duration-s", "0.2"])
        assert rc == 0
        assert "Pd CPU/node" in capsys.readouterr().out

    def test_lp_workers_rejects_non_positive(self, capsys):
        # Every value is refused: the flag itself no longer exists.
        for value in ("0", "-3", "2"):
            with pytest.raises(SystemExit) as exc:
                main(["--lp-workers", value, "--duration-s", "0.1"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --lp-workers" in capsys.readouterr().err


class TestWorkloadCli:
    def test_generate_and_characterize(self, tmp_path, capsys):
        from repro.workload.__main__ import main as wmain

        out = tmp_path / "trace.csv"
        rc = wmain(
            ["generate", "--benchmark", "pvmbt", "--seconds", "1",
             "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()
        capsys.readouterr()

        rc = wmain(["characterize", str(out), "--fit"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "application" in text
        assert "lognormal" in text

    def test_unknown_benchmark_errors(self, tmp_path):
        from repro.workload.__main__ import main as wmain

        with pytest.raises(KeyError):
            wmain(["generate", "--benchmark", "pvmep",
                   "--out", str(tmp_path / "x.csv")])
