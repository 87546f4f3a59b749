"""Smoke tests for the registry-driven CLI sub-commands."""

import pytest

from repro.cli import main


class TestList:
    def test_list_all_kinds(self, capsys):
        rc = main(["list"])
        out = capsys.readouterr().out
        assert rc == 0
        # one section per kind: exactly the paper's five families
        headers = [
            line.split(" (")[0]
            for line in out.splitlines()
            if line and not line.startswith(" ")
        ]
        assert headers == [
            "cost_model", "strategy", "partitioner", "dlt_solver",
            "simulation",
        ]
        # a representative of each family
        for name in ("het", "peri-sum", "linear-parallel", "demand-driven"):
            assert name in out

    def test_list_one_kind(self, capsys):
        rc = main(["list", "strategy"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "het" in out and "hom/k" in out
        assert "peri-sum" not in out

    def test_list_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            main(["list", "flavour"])

    @pytest.mark.parametrize("kind", ["backend", "cache"])
    def test_infrastructure_is_not_a_kind(self, kind, capsys):
        # where misses are planned and which store holds plans are
        # session specs, not registered components
        with pytest.raises(SystemExit) as exc:
            main(["list", kind])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestPlan:
    def test_plan_single_strategy(self, capsys):
        rc = main(
            ["plan", "--speeds", "1", "2", "4", "--N", "1000",
             "--strategy", "het"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "het" in out and "planned in" in out

    def test_plan_unknown_strategy_lists_available(self, capsys):
        rc = main(["plan", "--speeds", "1", "2", "--strategy", "warp-drive"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown strategy 'warp-drive'" in err
        # the error names every registered strategy
        for name in ("het", "hom", "hom/k"):
            assert name in err

    def test_plan_default_compares_all(self, capsys):
        rc = main(["plan", "--speeds", "1", "2", "4", "--N", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("hom", "hom/k", "het"):
            assert name in out


class TestCompare:
    def test_compare_sweeps_registry(self, capsys):
        rc = main(["compare", "--speeds", "1", "2", "4", "8", "--N", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("hom", "hom/k", "het"):
            assert name in out
        assert "ratio to LB" in out
        assert "best: het" in out
