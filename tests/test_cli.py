"""Tests for the command-line interface."""

import socket
import subprocess

import pytest

from repro.cli import build_parser, main
from repro.registry import RegistryError
from repro.service.frontdoor import ListenError
from repro.service.server import PlanServer


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure4_defaults(self):
        args = build_parser().parse_args(["figure4"])
        assert args.model == "uniform"
        assert args.trials == 100

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure4", "--model", "weird"])


class TestCommands:
    def test_plan(self, capsys):
        rc = main(["plan", "--speeds", "1", "2", "4", "--N", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rho" in out and "het" in out

    def test_sort(self, capsys):
        rc = main(["sort", "--n", "20000", "--speeds", "1", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sorted=True" in out

    def test_figure4_small(self, capsys):
        rc = main(
            ["figure4", "--model", "homogeneous", "--processors", "10",
             "--trials", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 4" in out

    def test_section2(self, capsys):
        rc = main(["section2", "--processors", "4", "--alphas", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Section 2" in out

    def test_section3(self, capsys):
        rc = main(["section3", "--n", "10000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "residue" in out

    def test_rho(self, capsys):
        rc = main(["rho", "--k", "4", "--p", "10", "--N", "500"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rho" in out

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "r.txt"
        rc = main(
            ["report", "--trials", "2", "--no-charts", "--output", str(out_file)]
        )
        assert rc == 0
        assert "written" in capsys.readouterr().out
        assert out_file.read_text().startswith("REPRODUCTION REPORT")

    def test_compare_backend_flag(self, capsys):
        rc = main(
            ["compare", "--speeds", "1", "2", "4", "--N", "500",
             "--backend", "serial"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Strategy sweep" in out
        assert "cache:" in out
        # the pooled backends are gone: naming one is a user error
        rc = main(
            ["compare", "--speeds", "1", "2", "--backend", "threaded"]
        )
        assert rc == 2
        assert (
            "unknown backend 'threaded'; expected 'serial' or "
            "'remote:HOST:PORT'" in capsys.readouterr().err
        )

    def test_compare_no_cache(self, capsys):
        rc = main(
            ["compare", "--speeds", "1", "2", "--N", "500", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cache:" not in out

    def test_unknown_backend_is_user_error(self, capsys):
        rc = main(["compare", "--speeds", "1", "2", "--backend", "nope"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown backend 'nope'" in err

    def test_cache_stats(self, capsys):
        rc = main(
            ["cache-stats", "--speeds", "1", "2", "4", "--N", "500",
             "--repeats", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Plan cache statistics" in out
        # repeats 2 and 3 hit everything the first sweep planned
        assert "hit(s)" in out

    def test_cache_stats_no_cache(self, capsys):
        rc = main(
            ["cache-stats", "--speeds", "1", "2", "--N", "500", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "plan cache disabled" in out

    def test_plan_strategy_with_backend(self, capsys):
        rc = main(
            ["plan", "--speeds", "1", "2", "--N", "500",
             "--strategy", "het", "--backend", "serial"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "planned in" in out or "served from cache" in out
        rc = main(
            ["plan", "--speeds", "1", "2", "--N", "500",
             "--strategy", "het", "--backend", "process"]
        )
        assert rc == 2
        assert "unknown backend 'process'" in capsys.readouterr().err

    def test_figure4_no_cache(self, capsys):
        rc = main(
            ["figure4", "--model", "homogeneous", "--processors", "10",
             "--trials", "2", "--no-cache"]
        )
        assert rc == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_seed_threaded_through(self, capsys):
        main(["--seed", "7", "sort", "--n", "5000"])
        first = capsys.readouterr().out
        main(["--seed", "7", "sort", "--n", "5000"])
        second = capsys.readouterr().out
        assert first == second


class TestCompareCostModel:
    def test_coverage_column_printed(self, capsys):
        rc = main(
            ["compare", "--speeds", "1", "2", "4", "--N", "100",
             "--cost-model", "piecewise"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "work coverage under cost model 'piecewise'" in out

    def test_unknown_cost_model_is_clean_error(self, capsys):
        rc = main(
            ["compare", "--speeds", "1", "2", "--cost-model", "nope"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown cost_model" in err


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8640
        # a server always plans in its own process
        assert not hasattr(args, "backend")

    def test_serve_accepts_session_options(self, capsys):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cache", "memory:64"]
        )
        assert args.port == 0
        assert args.cache == "memory:64"
        for argv in (
            ["serve", "--jobs", "2"],
            ["serve", "--backend", "serial"],
            ["cluster", "up", "--jobs", "2"],
            ["cluster", "up", "--backend", "serial"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestVectorizeFlagGone:
    """Batches always plan through the kernels: no command takes a
    switch between two equal paths."""

    @pytest.mark.parametrize("flag", ["--vectorize", "--no-vectorize"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["figure4"],
            ["rho"],
            ["plan", "--speeds", "1", "2"],
            ["compare", "--speeds", "1", "2"],
            ["cache-stats", "--speeds", "1", "2"],
            ["serve"],
            ["cluster", "up"],
        ],
        ids=lambda argv: argv[0] if argv[0] != "cluster" else "cluster-up",
    )
    def test_flag_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [flag])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err


@pytest.fixture
def busy_port():
    """A localhost port another socket is listening on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        yield sock.getsockname()[1]


class TestListenErrors:
    """A host or port a server cannot listen on is a user error."""

    @pytest.mark.parametrize(
        "command", [["serve"], ["cluster", "up", "-n", "1"]],
        ids=["serve", "cluster-up"],
    )
    @pytest.mark.parametrize(
        "where", ["busy-port", "port-70000", "unresolvable-host"]
    )
    def test_one_error_line_exit_2(
        self, command, where, busy_port, tmp_path, capsys, monkeypatch
    ):
        host, port = {
            "busy-port": ("127.0.0.1", busy_port),
            "port-70000": ("127.0.0.1", 70000),
            "unresolvable-host": ("no-such-host.invalid", 0),
        }[where]
        spawned = []
        real_popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(real_popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        state = tmp_path / "cluster.json"
        argv = command + ["--host", host, "--port", str(port)]
        if command[0] == "cluster":
            argv += ["--state", str(state)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot listen on {host}:{port}: ")
        assert not state.exists()
        assert all(proc.poll() is not None for proc in spawned)

    def test_serve_that_cannot_listen_creates_no_store(self, tmp_path, capsys):
        store = tmp_path / "plans.db"
        rc = main(["serve", "--port", "70000", "--cache", f"sqlite:{store}"])
        assert rc == 2
        assert "cannot listen on" in capsys.readouterr().err
        assert not store.exists()

    def test_server_on_a_busy_port_opens_no_store(self, busy_port, tmp_path):
        store = tmp_path / "plans.db"
        with pytest.raises(ListenError):
            PlanServer(port=busy_port, cache=f"sqlite:{store}")
        assert not store.exists()

    def test_bad_store_spec_frees_the_port(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(RegistryError):
            PlanServer(port=port, cache="no-such-store:x")
        PlanServer(port=port).close()

    def test_failed_cluster_up_keeps_another_clusters_state(
        self, busy_port, tmp_path, capsys
    ):
        state = tmp_path / "cluster.json"
        state.write_text(
            '{"coordinator": {"url": "http://127.0.0.1:%d"}}' % busy_port
        )
        before = state.read_text()
        rc = main(
            ["cluster", "up", "-n", "1", "--port", str(busy_port),
             "--state", str(state)]
        )
        assert rc == 2
        assert "cannot listen on" in capsys.readouterr().err
        assert state.read_text() == before


class TestBackendSpecs:
    def test_unknown_backend_spec_is_clean_error(self, capsys):
        rc = main(
            ["compare", "--speeds", "1", "2", "--backend", "nope:arg"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown backend" in err

    def test_unreachable_remote_backend_reports_cleanly(self, capsys):
        rc = main(
            ["compare", "--speeds", "1", "2",
             "--backend", "remote:127.0.0.1:9", "--no-cache"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot reach plan server" in err

    def test_empty_remote_address_is_clean_error(self, capsys):
        rc = main(
            ["compare", "--speeds", "1", "2", "--backend", "remote:"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert (
            "bad backend spec 'remote:': empty plan-server address" in err
        )

    def test_argument_to_serial_is_clean_error(self, capsys):
        rc = main(
            ["compare", "--speeds", "1", "2", "--backend", "serial:foo"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown backend 'serial:foo'" in err

    @pytest.mark.parametrize(
        "spec", ["threaded", "serial:foo", "remote:", "nope:arg"]
    )
    def test_malformed_spec_names_itself_and_both_forms(self, spec, capsys):
        rc = main(["compare", "--speeds", "1", "2", "--backend", spec])
        captured = capsys.readouterr()
        assert rc == 2
        assert repr(spec) in captured.err
        assert "expected 'serial' or 'remote:HOST:PORT'" in captured.err


class TestBadSpecPrintsNothing:
    """A bad spec or name fails before the platform description."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--backend", "threaded"],
            ["plan", "--cache", "memory:x"],
            ["plan", "--strategy", "nope"],
            ["compare", "--backend", "threaded"],
            ["compare", "--cache", "memory:x"],
        ],
        ids=["plan-backend", "plan-cache", "plan-strategy",
             "compare-backend", "compare-cache"],
    )
    def test_exit_2_and_empty_stdout(self, argv, capsys):
        rc = main([*argv, "--speeds", "1", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestCacheSpecs:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("http://127.0.0.1:1", "unknown cache 'http'"),
            ("https://127.0.0.1:1", "unknown cache 'https'"),
            ("tiered:http://127.0.0.1:1", "--backend remote:HOST:PORT"),
        ],
        ids=["http", "https", "tiered-http"],
    )
    def test_network_store_spec_is_clean_error(
        self, spec, message, tmp_path, monkeypatch, capsys
    ):
        # a plan server's store is shared through --backend remote:, and
        # a URL never becomes a sqlite file in the working directory
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["compare", "--speeds", "1", "2", "--N", "100", "--cache", spec]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err
        assert list(tmp_path.iterdir()) == []
