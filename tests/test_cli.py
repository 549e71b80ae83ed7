"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "table1", "fig7", "defense"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_is_a_usage_error(self, seed, capsys):
        assert main(["fig5", "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a non-negative integer")
        assert "Traceback" not in err

    def test_parser_help_mentions_full_scale(self):
        parser = build_parser()
        assert "REPRO_FULL" in parser.description

    def test_runs_defense_experiment(self, capsys):
        assert main(["defense"]) == 0
        out = capsys.readouterr().out
        assert "LeakyDSP" in out
