"""Command-line interface: regenerate any paper experiment from a shell.

Usage (after ``pip install -e .``, which installs the ``repro``
console script; ``python -m repro`` works too)::

    repro list                   # every registered component, by kind
    repro list strategy          # one kind
    repro plan --speeds 1 2 4 8 --N 10000
    repro plan --speeds 1 2 4 8 --strategy hom/k
    repro compare --speeds 1 2 4 8   # sweep every registered strategy
    repro compare --speeds 1 2 4 8 --cost-model piecewise
    repro serve --port 8640 --cache tiered:plans.db   # HTTP plan server
    repro figure4 --backend remote:localhost:8640 --no-cache  # offload
    repro cluster up -n 3                             # scale-out pool
    repro cluster up -n 2 --log access.log            # + access lines
    repro cluster status         # pool liveness + request totals
    repro cluster down           # SIGTERM the `up` process + workers
    repro loadtest localhost:8650 --rps 100 --duration 10
    repro serve --trace spans.jsonl                   # span recording
    repro cluster up -n 2 --trace spans.jsonl         # + PATH.wN per worker
    repro loadtest localhost:8650 --trace-sample 10   # 1-in-10 end-to-end
    repro loadtest localhost:8650 --slo-p99-ms 50 --find-max-rps
    repro trace spans.jsonl spans.jsonl.w0 spans.jsonl.w1
    repro compare --speeds 1 2 4 8 --backend remote:localhost:8640
    repro cache-stats --speeds 1 2 4 8 --repeats 3
    repro figure4 --trials 100 --cache sqlite:plans.db   # resumable
    repro cache stats plans.db   # also: clear / export / import
    repro section2 --alphas 1.5 2 3
    repro section3
    repro rho --k 4 16 64
    repro sort --n 200000 --speeds 1 1 2 4
    repro all                    # every experiment, default protocol

Strategy and component names are resolved through
:mod:`repro.registry`, so plugins registered by third-party code are
planable and listable with no CLI edits.  Each experiment sub-command
prints the same ASCII table the corresponding benchmark produces, so
the CLI is the interactive twin of ``pytest benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np


def registry_kinds() -> tuple[str, ...]:
    """Component kinds for the ``list`` sub-command's choices.

    Reads only the kind names — provider modules stay unimported until
    a component of that kind is actually queried.
    """
    from repro import registry

    return registry.kinds()


def _session_from_args(args: argparse.Namespace):
    """Build the PlannerSession the plan/compare/cache-stats family uses."""
    from repro.core.session import PlannerSession

    return PlannerSession(
        backend=getattr(args, "backend", "serial"), cache=_cache_arg(args)
    )


def _cache_arg(args: argparse.Namespace) -> "bool | str":
    """The session ``cache`` argument --no-cache/--cache resolve to."""
    if getattr(args, "no_cache", False):
        return False
    return getattr(args, "cache", None) or True


def _access_log_from_arg(args: argparse.Namespace):
    """The AccessLog a ``--log`` flag asks for (``None`` when absent).

    ``--log`` alone streams to stderr (composes with shell
    redirection); ``--log PATH`` appends to a file the server owns.
    """
    target = getattr(args, "log", None)
    if target is None:
        return None
    from repro.service.metrics import AccessLog

    return AccessLog() if target == "-" else AccessLog.open(target)


def _add_log_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=(
            "structured access log, one ts/endpoint/status/elapsed_ms/"
            "bytes/trace line per handled request: to stderr with no "
            "argument, appended to PATH with one"
        ),
    )


def _span_recorder_from_arg(args: argparse.Namespace, service: str):
    """The SpanRecorder a ``--trace`` flag asks for (``None`` when absent).

    Mirrors ``--log``: bare ``--trace`` streams span JSONL to stderr,
    ``--trace PATH`` appends to a file the server owns and closes.
    """
    target = getattr(args, "trace", None)
    if target is None:
        return None
    from repro.obs import SpanRecorder

    if target == "-":
        return SpanRecorder.stderr(service=service)
    return SpanRecorder.open(target, service=service)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_session_options(parser: argparse.ArgumentParser) -> None:
    """``--backend`` plus the plan store options: the client commands."""
    parser.add_argument(
        "--backend",
        type=str,
        default="serial",
        metavar="SPEC",
        help=(
            "where cache misses are planned: serial (in this process, "
            "the default) or remote:HOST:PORT (on a `repro serve` "
            "instance or a `repro cluster` coordinator)"
        ),
    )
    _add_planning_options(parser)


def _add_planning_options(parser: argparse.ArgumentParser) -> None:
    """Plan store options (servers take only these)."""
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="plan every request anew instead of using the plan cache",
    )
    parser.add_argument(
        "--cache",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "plan store: memory[:SIZE] (in-process LRU, the default), "
            "sqlite:PATH or tiered:PATH (memory front over sqlite). A "
            "sqlite/tiered path persists plans, so an interrupted sweep "
            "rerun against the same path resumes from disk hits; inspect "
            "it with `repro cache stats PATH`. To share a `repro serve` "
            "instance's store, plan through it with --backend "
            "remote:HOST:PORT"
        ),
    )


def _cmd_figure4(args: argparse.Namespace) -> int:
    from repro.experiments.figure4 import run_figure4
    from repro.util.ascii_plot import figure4_chart

    result = run_figure4(
        args.model,
        processors=tuple(args.processors),
        trials=args.trials,
        seed=args.seed,
        backend=args.backend,
        cache=_cache_arg(args),
    )
    print(result.render())
    if args.chart:
        print()
        print(figure4_chart(result, log_y=args.model != "homogeneous"))
    return 0


def _cmd_section2(args: argparse.Namespace) -> int:
    from repro.experiments.section2 import run_section2

    print(
        run_section2(
            processors=tuple(args.processors),
            alphas=tuple(args.alphas),
            N=args.N,
            seed=args.seed,
        ).render()
    )
    return 0


def _cmd_section3(args: argparse.Namespace) -> int:
    from repro.experiments.section3 import run_section3

    print(run_section3(exec_N=args.n, seed=args.seed).render())
    return 0


def _cmd_rho(args: argparse.Namespace) -> int:
    from repro.experiments.rho import run_rho_experiment

    print(
        run_rho_experiment(
            ks=tuple(args.k),
            p=args.p,
            N=args.N,
            backend=args.backend,
            cache=_cache_arg(args),
        ).render()
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro import registry

    kinds = (args.kind,) if args.kind else registry.kinds()
    for kind in kinds:
        components = registry.describe(kind)
        print(f"{kind} ({len(components)} registered):")
        for comp in components:
            summary = f"  {comp.summary}" if comp.summary else ""
            print(f"  {comp.name:<20}{summary}")
        print()
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro import registry
    from repro.core.pipeline import PlanRequest
    from repro.core.strategies import compare_strategies
    from repro.platform.star import StarPlatform

    platform = StarPlatform.from_speeds(args.speeds)
    if args.strategy is not None:
        # an unknown name fails before any output, as a bad --backend
        # or --cache spec does when the session is built
        registry.get("strategy", args.strategy)
    with _session_from_args(args) as session:
        print(platform.describe())
        print()
        if args.strategy is not None:
            result = session.plan(
                PlanRequest(
                    platform=platform,
                    N=args.N,
                    strategy=args.strategy,
                    params={"imbalance_target": args.imbalance_target},
                )
            )
            print(result.summary())
        else:
            print(
                compare_strategies(
                    platform,
                    N=args.N,
                    imbalance_target=args.imbalance_target,
                    session=session,
                ).summary()
            )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.platform.star import StarPlatform

    platform = StarPlatform.from_speeds(args.speeds)
    model = None
    if args.cost_model:
        # resolve up front: a typo'd model name must fail before the
        # sweep is planned (and before any table output), like a bad
        # --backend or --cache spec does when the session is built
        from repro import registry

        model = registry.create("cost_model", args.cost_model)
    with _session_from_args(args) as session:
        print(platform.describe())
        print()
        sweep = session.sweep(
            platform, args.N, imbalance_target=args.imbalance_target
        )
        print(sweep.render())
        if model is not None:
            from repro.core.strategies import work_coverage

            print()
            print(
                f"work coverage under cost model {args.cost_model!r} "
                "(1 = linear; lower = one round covers less of the job):"
            )
            for name, res in sweep.results.items():
                print(f"  {name:<8}{work_coverage(res.plan, model):.4f}")
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    """Repeat one sweep through a single session and show cache effect."""
    from repro.platform.star import StarPlatform

    platform = StarPlatform.from_speeds(args.speeds)
    with _session_from_args(args) as session:
        sweep = None
        for _ in range(max(1, args.repeats)):
            sweep = session.sweep(
                platform, args.N, imbalance_target=args.imbalance_target
            )
        print(sweep.render())
        print()
        stats = session.cache_stats()
        if stats is None:
            print("plan cache disabled (--no-cache)")
        else:
            print(stats.render())
    return 0


def _cache_file_path(path: str) -> str:
    """The sqlite file behind a raw path or sqlite:/tiered: spec."""
    for prefix in ("sqlite:", "tiered:"):
        if path.startswith(prefix):
            return path[len(prefix):]
    return path


def _cmd_cache_group(args: argparse.Namespace) -> int:
    """Manage a persistent plan cache file: stats/clear/export/import."""
    import os
    import sqlite3

    from repro.core.cache import SQLitePlanCache

    path = _cache_file_path(args.path)
    # only `import` may create the file; inspecting or clearing a cache
    # that does not exist is a typo, not an empty result
    if args.cache_command != "import" and not os.path.exists(path):
        print(f"error: no plan cache at {path}", file=sys.stderr)
        return 2
    try:
        store = SQLitePlanCache(path)
    except sqlite3.DatabaseError as exc:
        # e.g. pointing `stats` at an export file instead of the db
        print(f"error: {path} is not a plan cache ({exc})", file=sys.stderr)
        return 2
    try:
        if args.cache_command == "stats":
            print(f"plan cache {store.path}: {len(store)} entr"
                  f"{'y' if len(store) == 1 else 'ies'}")
            print(store.stats.render())
        elif args.cache_command == "clear":
            entries = len(store)
            store.clear()
            print(f"cleared {entries} entr{'y' if entries == 1 else 'ies'} "
                  f"from {store.path} (statistics reset)")
        elif args.cache_command == "export":
            try:
                count = store.export_file(args.output)
            except OSError as exc:
                print(f"error: cannot write {args.output}: {exc}",
                      file=sys.stderr)
                return 2
            print(f"exported {count} entr{'y' if count == 1 else 'ies'} "
                  f"to {args.output}")
        elif args.cache_command == "import":
            try:
                count = store.import_file(args.input)
            except (FileNotFoundError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(f"imported {count} entr{'y' if count == 1 else 'ies'} "
                  f"into {store.path}")
    finally:
        store.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP plan server until interrupted."""
    from repro.service.server import PlanServer

    server = PlanServer(
        host=args.host,
        port=args.port,
        cache=_cache_arg(args),
        max_inflight=args.max_inflight,
        access_log=_access_log_from_arg(args),
        span_recorder=_span_recorder_from_arg(args, "server"),
    )
    print(f"repro plan server listening on {server.url}", flush=True)
    print(
        f"  cache={server.cache_spec!r} — "
        "endpoints: /plan /plan_batch /cache/get /cache/stats /healthz",
        flush=True,
    )
    print(
        "  point clients at it: "
        f"--backend remote:{server.host}:{server.port}  (Ctrl-C stops)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_cluster_up(args: argparse.Namespace) -> int:
    """Launch N worker replicas behind a coordinator, foreground."""
    import signal

    from repro.cluster.lifecycle import LocalCluster, default_state_path

    cluster = LocalCluster(
        n=args.workers,
        host=args.host,
        port=args.port,
        cache=None if args.no_cache else (args.cache or "memory"),
        max_inflight=args.max_inflight,
        worker_max_inflight=args.worker_max_inflight,
        state_path=args.state or default_state_path(),
        access_log=_access_log_from_arg(args),
        trace=args.trace,
    )
    # SIGTERM takes the Ctrl-C path, so the finally below reaps the
    # workers and removes the state file instead of leaking both
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        try:
            cluster.start()
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for worker in cluster.workers:
            print(f"worker {worker.index}: {worker.url} (pid {worker.pid})",
                  flush=True)
        print(f"repro cluster coordinator listening on {cluster.url}",
              flush=True)
        print(
            f"  workers={args.workers} state={cluster.state_path}",
            flush=True,
        )
        print(
            "  point clients at it: "
            f"--backend remote:{cluster.coordinator.host}:"
            f"{cluster.coordinator.port} — "
            "`repro cluster status` / `repro cluster down` from any shell "
            "(Ctrl-C stops)",
            flush=True,
        )
        cluster.coordinator.join()
    except KeyboardInterrupt:
        pass
    finally:
        cluster.close()
        signal.signal(signal.SIGTERM, previous)
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    """Show pool membership and request totals of a running cluster."""
    from repro.cluster.lifecycle import (
        cluster_metrics,
        cluster_status,
        default_state_path,
        read_state,
    )
    from repro.service.client import PlanServiceError

    state_path = args.state or default_state_path()
    try:
        state = read_state(state_path)
    except FileNotFoundError:
        print(
            f"error: no cluster state at {state_path} "
            "(is a `repro cluster up` running? --state to point elsewhere)",
            file=sys.stderr,
        )
        return 2
    url = state["coordinator"]["url"]
    try:
        status = cluster_status(url)
        metrics = cluster_metrics(url)
    except PlanServiceError as exc:
        print(f"error: coordinator at {url} unreachable ({exc}); "
              f"`repro cluster down` cleans up", file=sys.stderr)
        return 2
    pool = status["pool"]
    print(f"coordinator {url}  workers {pool['alive']}/{pool['total']} alive")
    for worker in pool["workers"]:
        flag = "up  " if worker["alive"] else "DEAD"
        print(
            f"  [{flag}] {worker['url']}  inflight={worker['inflight']} "
            f"dispatched={worker['dispatched']} failures={worker['failures']}"
            + (f"  ({worker['reason']})" if worker["reason"] else "")
        )
    totals = metrics["cluster"]["endpoints"]
    if totals:
        print("cluster request totals:")
        for endpoint, stats in totals.items():
            print(
                f"  {endpoint:<14} {stats['count']:>8}  "
                f"errors={stats['errors']}  p50={stats['p50_ms']}ms  "
                f"p99={stats['p99_ms']}ms"
            )
    return 0


def _cmd_cluster_down(args: argparse.Namespace) -> int:
    """Stop the cluster the state file describes and clean up."""
    from repro.cluster.lifecycle import (
        default_state_path,
        read_state,
        remove_state,
        shutdown_cluster,
    )

    state_path = args.state or default_state_path()
    try:
        state = read_state(state_path)
    except FileNotFoundError:
        print(f"error: no cluster state at {state_path}", file=sys.stderr)
        return 2
    pids = shutdown_cluster(state)
    remove_state(state_path)
    print(
        f"cluster down: coordinator at {state['coordinator']['url']} "
        f"stopped, {len(pids)} worker pid(s) reaped, {state_path} removed"
    )
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """Open-loop load test against a server/coordinator; exit 1 on fail."""
    from repro.loadtest import find_max_rps, parse_mix, run_loadtest

    kwargs = dict(
        mix=parse_mix(args.mix) if args.mix else None,
        seed=args.seed,
        threads=args.threads,
        timeout=args.timeout,
        error_budget=args.error_budget,
        batch_size=args.batch_size,
        check_server=not args.no_check,
        trace_sample=args.trace_sample,
    )
    try:
        if args.find_max_rps:
            if args.slo_p99_ms is None:
                print(
                    "error: --find-max-rps needs --slo-p99-ms to search "
                    "against",
                    file=sys.stderr,
                )
                return 2
            search = find_max_rps(
                args.target,
                slo_p99_ms=args.slo_p99_ms,
                start_rps=args.rps,
                duration=args.duration,
                **kwargs,
            )
            print(search.to_json() if args.json else search.render())
            return 0 if search.found else 1
        report = run_loadtest(
            args.target, rps=args.rps, duration=args.duration, **kwargs
        )
    except ValueError as exc:
        # bad --mix spec / non-positive --rps etc. are user errors:
        # message + exit 2, like the rest of the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace_file and report.client_spans:
        count = report.write_client_spans(args.trace_file)
        print(
            f"wrote {count} client span(s) to {args.trace_file}",
            file=sys.stderr,
        )
    print(report.to_json() if args.json else report.render())
    if args.slo_p99_ms is not None and report.p99_ms > args.slo_p99_ms:
        print(
            f"SLO violated: p99 {report.p99_ms:.2f}ms > "
            f"{args.slo_p99_ms:g}ms",
            file=sys.stderr,
        )
        return 1
    return 0 if report.passed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Assemble span files into traces; print stats + slowest trees."""
    from repro.obs import assemble_traces, read_spans, stage_stats
    from repro.obs.assemble import render_trace

    try:
        spans = read_spans(args.files)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    traces = assemble_traces(spans)
    if not traces:
        print("no traces found")
        return 1
    complete = [t for t in traces if t.complete]
    print(
        f"{len(traces)} trace(s) from {len(spans)} spans "
        f"({len(traces) - len(complete)} incomplete)"
    )
    print()
    print("per-stage latency (all traces, by total time):")
    for stage in stage_stats(traces):
        print(
            f"  {stage.name:<24} n={stage.count:>5}  "
            f"p50={1000 * stage.p50_s:>8.2f}ms  "
            f"p99={1000 * stage.p99_s:>8.2f}ms  "
            f"total={stage.total_s:>8.3f}s"
        )
    for trace in traces[: max(0, args.slow)]:
        print()
        print(render_trace(trace))
        path = " > ".join(span.name for span in trace.critical_path())
        print(f"  critical path: {path}")
        print(f"  accounted: {trace.accounted_fraction():.1%} of root")
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    from repro.platform.star import StarPlatform
    from repro.sorting.sample_sort import sample_sort

    platform = StarPlatform.from_speeds(args.speeds)
    keys = np.random.default_rng(args.seed).random(args.n)
    res = sample_sort(keys, platform, rng=args.seed)
    ok = bool(np.array_equal(res.sorted_keys, np.sort(keys)))
    print(
        f"sample sort: N={args.n}, p={platform.size}, "
        f"s={res.oversampling}, sorted={ok}"
    )
    print(f"  bucket sizes:   {res.bucket_sizes.tolist()}")
    print(f"  makespan:       {res.makespan:,.0f} work units")
    print(f"  speedup:        {res.speedup():.2f}x over one master-speed core")
    print(f"  parallel frac:  {100 * res.parallel_fraction:.1f}%")
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    report = build_report(
        trials=args.trials, seed=args.seed, charts=not args.no_charts
    )
    if args.output:
        report.save(args.output)
        print(f"report written to {args.output}")
    else:
        print(report.text)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.experiments.figure4 import run_figure4
    from repro.experiments.rho import run_rho_experiment
    from repro.experiments.section2 import run_section2
    from repro.experiments.section3 import run_section3

    for model in ("homogeneous", "uniform", "lognormal"):
        print(
            run_figure4(
                model, processors=(10, 40, 100), trials=args.trials, seed=args.seed
            ).render()
        )
        print()
    print(run_section2().render())
    print()
    print(run_section3().render())
    print()
    print(run_rho_experiment(p=40).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Non-Linear Divisible Loads: There is No "
            "Free Lunch' — regenerate any experiment."
        ),
    )
    parser.add_argument("--seed", type=int, default=2013, help="RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p4 = sub.add_parser("figure4", help="Figure 4 panel (a/b/c)")
    p4.add_argument(
        "--model",
        choices=("homogeneous", "uniform", "lognormal"),
        default="uniform",
    )
    p4.add_argument(
        "--processors", type=int, nargs="+", default=[10, 20, 40, 60, 80, 100]
    )
    p4.add_argument("--trials", type=int, default=100)
    p4.add_argument(
        "--chart", action="store_true", help="also draw an ASCII chart"
    )
    _add_session_options(p4)
    p4.set_defaults(fn=_cmd_figure4)

    p2 = sub.add_parser("section2", help="the vanishing-fraction table")
    p2.add_argument(
        "--processors", type=int, nargs="+", default=[2, 4, 8, 16, 32, 64, 128]
    )
    p2.add_argument("--alphas", type=float, nargs="+", default=[1.5, 2.0, 3.0])
    p2.add_argument("--N", type=float, default=1000.0)
    p2.set_defaults(fn=_cmd_section2)

    p3 = sub.add_parser("section3", help="sorting residue + sample sorts")
    p3.add_argument("--n", type=int, default=200_000, help="keys per run")
    p3.set_defaults(fn=_cmd_section3)

    pr = sub.add_parser("rho", help="half-slow/half-fast rho table")
    pr.add_argument("--k", type=float, nargs="+", default=[1, 2, 4, 9, 16, 25, 64])
    pr.add_argument("--p", type=int, default=40)
    pr.add_argument("--N", type=float, default=10_000.0)
    _add_session_options(pr)
    pr.set_defaults(fn=_cmd_rho)

    pl = sub.add_parser(
        "list", help="list registered components (strategies, solvers, ...)"
    )
    pl.add_argument(
        "kind",
        nargs="?",
        default=None,
        choices=registry_kinds(),
        help="restrict to one component kind",
    )
    pl.set_defaults(fn=_cmd_list)

    pp = sub.add_parser("plan", help="plan / compare strategies on a platform")
    pp.add_argument("--speeds", type=float, nargs="+", required=True)
    pp.add_argument("--N", type=float, default=10_000.0)
    pp.add_argument(
        "--strategy",
        type=str,
        default=None,
        help=(
            "plan with one registered strategy (see `repro list strategy`); "
            "default: compare all of them"
        ),
    )
    pp.add_argument("--imbalance-target", type=float, default=0.01)
    _add_session_options(pp)
    pp.set_defaults(fn=_cmd_plan)

    pc = sub.add_parser(
        "compare", help="sweep every registered strategy on one instance"
    )
    pc.add_argument("--speeds", type=float, nargs="+", required=True)
    pc.add_argument("--N", type=float, default=10_000.0)
    pc.add_argument("--imbalance-target", type=float, default=0.01)
    pc.add_argument(
        "--cost-model",
        type=str,
        default=None,
        metavar="NAME",
        help=(
            "also score every plan's work coverage under a registered "
            "cost model (see `repro list cost_model`, e.g. piecewise)"
        ),
    )
    _add_session_options(pc)
    pc.set_defaults(fn=_cmd_compare)

    pcs = sub.add_parser(
        "cache-stats",
        help="repeat a sweep through one session and report the plan cache",
    )
    pcs.add_argument("--speeds", type=float, nargs="+", required=True)
    pcs.add_argument("--N", type=float, default=10_000.0)
    pcs.add_argument("--imbalance-target", type=float, default=0.01)
    pcs.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="how many times to run the identical sweep (default: 2)",
    )
    _add_session_options(pcs)
    pcs.set_defaults(fn=_cmd_cache_stats)

    pcache = sub.add_parser(
        "cache", help="manage a persistent plan cache (sqlite file)"
    )
    cache_sub = pcache.add_subparsers(dest="cache_command", required=True)
    c_stats = cache_sub.add_parser(
        "stats", help="entry count and persisted hit/miss statistics"
    )
    c_stats.add_argument("path", help="cache file (or sqlite:PATH spec)")
    c_clear = cache_sub.add_parser(
        "clear", help="drop every entry and reset the statistics"
    )
    c_clear.add_argument("path", help="cache file (or sqlite:PATH spec)")
    c_export = cache_sub.add_parser(
        "export", help="write all entries to a portable file"
    )
    c_export.add_argument("path", help="cache file (or sqlite:PATH spec)")
    c_export.add_argument("output", help="destination export file")
    c_import = cache_sub.add_parser(
        "import",
        help="merge an exported file into a cache (exports written "
        "before binary-v2 was the only format are refused)",
    )
    c_import.add_argument("path", help="cache file (or sqlite:PATH spec)")
    c_import.add_argument("input", help="export file to merge in")
    pcache.set_defaults(fn=_cmd_cache_group)

    psv = sub.add_parser(
        "serve",
        help="serve the planner over HTTP (/plan, /plan_batch, /cache/get)",
    )
    psv.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1 — trusted networks only)",
    )
    psv.add_argument(
        "--port",
        type=int,
        default=8640,
        help="TCP port (0 binds an ephemeral port; default: 8640)",
    )
    psv.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission limit: refuse planning requests beyond N in "
            "flight with 429 + Retry-After (default: unbounded)"
        ),
    )
    _add_log_option(psv)
    psv.add_argument(
        "--trace",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=(
            "record request spans (wire decode, cache lookup, plan "
            "kernel, encode) for sampled requests as JSON lines: to "
            "stderr with no argument, appended to PATH with one; "
            "assemble with `repro trace PATH`"
        ),
    )
    _add_planning_options(psv)
    psv.set_defaults(fn=_cmd_serve)

    pcl = sub.add_parser(
        "cluster",
        help="run N plan-server replicas behind one coordinator",
    )
    cluster_sub = pcl.add_subparsers(dest="cluster_command", required=True)
    cl_up = cluster_sub.add_parser(
        "up", help="launch workers + coordinator in the foreground"
    )
    cl_up.add_argument(
        "-n",
        "--workers",
        type=_positive_int,
        default=2,
        help="worker replica count (default: 2)",
    )
    cl_up.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1 — trusted networks only)",
    )
    cl_up.add_argument(
        "--port",
        type=int,
        default=8650,
        help="coordinator TCP port (0 = ephemeral; default: 8650); "
        "workers always bind ephemeral ports",
    )
    cl_up.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="coordinator admission limit (429 beyond N in flight)",
    )
    cl_up.add_argument(
        "--worker-max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="per-worker admission limit (forwards --max-inflight)",
    )
    cl_up.add_argument(
        "--state",
        type=str,
        default=None,
        metavar="PATH",
        help="cluster state file for status/down "
        "(default: ~/.repro-cluster.json)",
    )
    _add_log_option(cl_up)
    cl_up.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "record spans across the whole cluster: the coordinator "
            "appends to PATH, worker i to PATH.wI (workers are "
            "subprocesses, so a file — not stderr — is required); "
            "assemble with `repro trace PATH*`"
        ),
    )
    _add_planning_options(cl_up)
    cl_up.set_defaults(fn=_cmd_cluster_up)
    cl_status = cluster_sub.add_parser(
        "status", help="pool membership + request totals of a running cluster"
    )
    cl_status.add_argument("--state", type=str, default=None, metavar="PATH")
    cl_status.set_defaults(fn=_cmd_cluster_status)
    cl_down = cluster_sub.add_parser(
        "down", help="stop the cluster recorded in the state file "
        "(SIGTERM to its `cluster up` process and its workers)",
    )
    cl_down.add_argument("--state", type=str, default=None, metavar="PATH")
    cl_down.set_defaults(fn=_cmd_cluster_down)

    plt = sub.add_parser(
        "loadtest",
        help=(
            "open-loop load test against a plan server or cluster "
            "coordinator, with a /metrics cross-check"
        ),
    )
    plt.add_argument(
        "target",
        help=(
            "base URL (or HOST:PORT) of a `repro serve` instance or a "
            "`repro cluster up` coordinator"
        ),
    )
    plt.add_argument(
        "--rps",
        type=float,
        default=50.0,
        help="target request rate; send slots are fixed up front, so a "
        "slow server faces the same arrival rate (default: 50)",
    )
    plt.add_argument(
        "--duration", type=float, default=5.0, help="seconds of traffic"
    )
    plt.add_argument(
        "--threads",
        type=_positive_int,
        default=4,
        help="client worker threads (default: 4)",
    )
    plt.add_argument(
        "--mix",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "traffic mix as KIND=WEIGHT pairs, e.g. "
            "plan=6,plan_batch=2,cache_get=2 (the default)"
        ),
    )
    plt.add_argument(
        "--batch-size",
        type=_positive_int,
        default=8,
        help="requests per plan_batch operation (default: 8)",
    )
    plt.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-request timeout in seconds (default: 10)",
    )
    plt.add_argument(
        "--error-budget",
        type=float,
        default=0.01,
        help=(
            "max tolerated fraction of answered-error + unreachable "
            "outcomes before the verdict fails; 429 backpressure is "
            "reported but not budgeted (default: 0.01)"
        ),
    )
    plt.add_argument(
        "--no-check",
        action="store_true",
        help="skip the server /metrics request-count cross-check",
    )
    plt.add_argument(
        "--trace-sample",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "trace 1 in N operations end to end: each sampled op gets a "
            "trace id the target continues when run with --trace; the "
            "report lists the sampled ids for `repro trace` to join"
        ),
    )
    plt.add_argument(
        "--trace-file",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "append the sampled client root spans to PATH as JSON "
            "lines; `repro trace PATH SERVER_TRACE...` then assembles "
            "complete client-to-server traces"
        ),
    )
    plt.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "latency SLO: fail (exit 1) if client-observed p99 exceeds "
            "MS milliseconds"
        ),
    )
    plt.add_argument(
        "--find-max-rps",
        action="store_true",
        help=(
            "instead of one run, ramp-and-bisect for the highest rate "
            "whose p99 stays under --slo-p99-ms (--rps is the floor)"
        ),
    )
    plt.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON instead of the summary",
    )
    plt.set_defaults(fn=_cmd_loadtest)

    ptr = sub.add_parser(
        "trace",
        help=(
            "assemble span JSONL files (--trace output) into traces: "
            "per-stage p50/p99 and critical paths of the slowest"
        ),
    )
    ptr.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="span files: a server's --trace PATH, a cluster's PATH PATH.w*",
    )
    ptr.add_argument(
        "--slow",
        type=int,
        default=3,
        metavar="N",
        help="show the N slowest traces as full trees (default: 3)",
    )
    ptr.set_defaults(fn=_cmd_trace)

    ps = sub.add_parser("sort", help="run a sample sort")
    ps.add_argument("--n", type=int, default=100_000)
    ps.add_argument("--speeds", type=float, nargs="+", default=[1.0, 1.0, 1.0, 1.0])
    ps.set_defaults(fn=_cmd_sort)

    pa = sub.add_parser("all", help="every experiment, reduced protocol")
    pa.add_argument("--trials", type=int, default=20)
    pa.set_defaults(fn=_cmd_all)

    prep = sub.add_parser("report", help="full reproduction report")
    prep.add_argument("--trials", type=int, default=30)
    prep.add_argument("--output", type=str, default=None, help="write to file")
    prep.add_argument("--no-charts", action="store_true")
    prep.set_defaults(fn=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from repro.registry import RegistryError
    from repro.service.client import PlanServiceError
    from repro.service.frontdoor import ListenError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (RegistryError, PlanServiceError, ListenError) as exc:
        # unknown/duplicate component names, unreachable plan servers
        # and a --host/--port a server cannot listen on are user
        # errors: report them like argparse does (message + exit 2),
        # not as a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream pager/head closed our stdout; exit quietly like
        # other well-behaved unix CLIs
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
