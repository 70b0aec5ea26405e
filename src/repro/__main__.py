"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``              run figures 1-5, print comparisons + audits
``figure <id>``          run one figure (fig1..fig5)
``tables``               print tables T1-T4
``audit [path]``         full paper-vs-measured report (markdown)
``libraries``            list registered library models
``apps``                 application workloads across libraries
``export``               write per-figure np.out/json curve files
``cpu``                  host-CPU availability per transport
``loopback``             live two-process NetPIPE over loopback TCP
``check``                verify, dimension & determinism static analysis
``verify``               bounded model checking of library handshakes
``trace``                record a Chrome/Perfetto protocol trace
``serve``                what-if query service (newline-JSON over TCP)
``scenario``             declarative whole-cluster scenarios with congestion

This table is audited against the registered subcommands by
``tests/test_cli_help.py`` — add new commands in both places.

``figures``/``figure`` also accept ``--trace FILE`` to record the
run's protocol events alongside the normal output, and — like
``export`` — ``--tier sim|auto|analytic`` to route curves through the
closed-form analytic fast tier (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import sys


def _sweep_cache(args: argparse.Namespace):
    """The --cache directory as a SweepCache (or None)."""
    from repro.exec import SweepCache

    return SweepCache(args.cache) if getattr(args, "cache", None) else None


def _trace_path(template: str, fig_id: str, multi: bool) -> str:
    """Per-figure trace file name (``trace.fig1.json`` when multi)."""
    import os

    if not multi:
        return template
    base, ext = os.path.splitext(template)
    return f"{base}.{fig_id}{ext or '.json'}"


def cmd_figures(args: argparse.Namespace) -> int:
    """Run figures (all or one) and audit their anchors."""
    from repro.core.report import format_comparison
    from repro.exec import SweepExecutionError
    from repro.experiments import ALL_FIGURES

    cache = _sweep_cache(args)
    trace_out = getattr(args, "trace", None)
    figures = [f for f in ALL_FIGURES if not args.figure or f.id == args.figure]
    status = 0
    for fig in figures:
        print(f"\n{'=' * 78}\n{fig.title}\n{'=' * 78}")
        try:
            results, exec_report = fig.run_with_report(
                max_workers=args.workers, cache=cache,
                timeout=args.timeout, retries=args.retries,
                trace=trace_out is not None, tier=args.tier,
            )
        except SweepExecutionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_comparison(results))
        print()
        print(exec_report.render())
        print()
        if trace_out is not None:
            from repro.obs import write_chrome_trace

            path = _trace_path(trace_out, fig.id, len(figures) > 1)
            write_chrome_trace(path, exec_report.traces)
            print(f"  wrote protocol trace to {path}")
            print()
        for row in fig.audit(results):
            print(" ", row.render())
            status |= 0 if row.ok else 1
    return status


def cmd_tables(_args: argparse.Namespace) -> int:
    """Print tables T1-T4."""
    from repro.experiments.tables import (
        format_table_t1,
        format_table_t2,
        format_table_t3,
        format_table_t4,
    )

    for block in (format_table_t1(), format_table_t2(), format_table_t3(),
                  format_table_t4()):
        print(block)
        print()
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Write (or print) the EXPERIMENTS.md report."""
    from repro.experiments.audit import main as audit_main

    return audit_main(["audit"] + ([args.path] if args.path else []))


def cmd_libraries(_args: argparse.Namespace) -> int:
    """List the registered library models."""
    from repro.experiments import configs
    from repro.mplib import get_library, library_names

    ga620 = configs.pc_netgear_ga620()
    for name in library_names():
        lib = get_library(name)
        try:
            desc = lib.describe(ga620)
        except ValueError:
            desc = f"{lib.display_name} (needs its own interconnect)"
        print(f"  {name:12s} {desc}")
    return 0


def cmd_apps(args: argparse.Namespace) -> int:
    """Run the application workloads across libraries."""
    from repro.apps import run_halo_exchange, run_overlap_probe, run_task_farm
    from repro.experiments import configs
    from repro.mplib import LamMpi, Mpich, MpiPro, MpLite, Pvm

    ga620 = configs.pc_netgear_ga620()
    libs = [MpLite(), MpiPro.tuned(), Mpich.tuned(), LamMpi.tuned(), Pvm.tuned()]
    print(f"{'library':26} {'overlap':>8} {'halo eff':>9} {'farm t/s':>9}")
    for lib in libs:
        o = run_overlap_probe(lib, ga620)
        h = run_halo_exchange(lib, ga620, nranks=args.ranks)
        f = run_task_farm(lib, ga620, nranks=args.ranks + 1)
        print(
            f"{lib.display_name[:26]:26} {o.overlap_efficiency:>8.2f} "
            f"{h.parallel_efficiency:>9.2f} {f.tasks_per_second:>9.0f}"
        )
    return 0


def cmd_cpu(args: argparse.Namespace) -> int:
    """Print the host-CPU availability table per transport."""
    from repro.analysis import cpu_load
    from repro.experiments import configs
    from repro.net.gm import GmModel, GmReceiveMode
    from repro.net.tcp import TcpModel, TcpTuning
    from repro.net.via import ViaModel
    from repro.units import kb

    n = args.size
    cases = (
        ("TCP GigE (PC)", TcpModel(configs.pc_netgear_ga620(),
                                   TcpTuning(sockbuf_request=kb(512)))),
        ("TCP jumbo (DS20)", TcpModel(configs.ds20_syskonnect_jumbo(),
                                      TcpTuning(sockbuf_request=kb(512)))),
        ("GM polling", GmModel(configs.pc_myrinet(), GmReceiveMode.POLLING)),
        ("GM hybrid", GmModel(configs.pc_myrinet())),
        ("Giganet VIA", ViaModel(configs.pc_giganet())),
        ("M-VIA/SysKonnect", ViaModel(configs.pc_syskonnect())),
    )
    print(f"{'transport':20} {'tx avail':>9} {'rx avail':>9} {'cpu s/MB':>10}")
    for label, link in cases:
        r = cpu_load(link, n, label)
        print(
            f"{label:20} {r.tx_availability:>9.2f} {r.rx_availability:>9.2f} "
            f"{r.cpu_seconds_per_mb:>10.4f}"
        )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Export every figure's curves as gnuplot-ready np.out files."""
    import os

    from repro.core.io import save_netpipe_out, save_result
    from repro.exec import SweepExecutionError
    from repro.experiments import ALL_FIGURES

    os.makedirs(args.directory, exist_ok=True)
    cache = _sweep_cache(args)
    count = 0
    for fig in ALL_FIGURES:
        try:
            curves = fig.run(
                max_workers=args.workers, cache=cache,
                timeout=args.timeout, retries=args.retries,
                tier=args.tier,
            )
        except SweepExecutionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for label, result in curves.items():
            slug = label.lower().replace("/", "-").replace(" ", "")
            base = os.path.join(args.directory, f"{fig.id}.{slug}")
            save_netpipe_out(result, base + ".np.out")
            save_result(result, base + ".json")
            count += 2
    print(f"wrote {count} files to {args.directory}/")
    return 0


def cmd_loopback(args: argparse.Namespace) -> int:
    """Live two-process NetPIPE over loopback."""
    from repro.core import netpipe_sizes
    from repro.core.report import format_result
    from repro.realnet import run_real_netpipe

    result = run_real_netpipe(
        sizes=netpipe_sizes(stop=args.max_size),
        sockbuf=args.sockbuf,
        eager_threshold=args.threshold,
    )
    print(format_result(result, every=4))
    return 0


def _config_by_name(name: str):
    """Resolve a cluster-config factory from :mod:`repro.experiments.configs`."""
    from repro.experiments import configs

    fn = getattr(configs, name, None)
    if fn is None or not callable(fn) or name.startswith("_"):
        valid = sorted(
            n for n in dir(configs)
            if not n.startswith("_") and callable(getattr(configs, n))
        )
        raise SystemExit(
            f"unknown config {name!r}; known: {', '.join(valid)}"
        )
    return fn()


def cmd_trace(args: argparse.Namespace) -> int:
    """Record a figure (or one ad-hoc sweep) as a Chrome/Perfetto trace."""
    from repro.obs import merged, protocol_overhead, write_chrome_trace, write_jsonl

    if args.target == "sweep":
        from repro.exec.scheduler import SweepRequest, execute_sweeps
        from repro.mplib import get_library

        try:
            library = get_library(args.library)
        except KeyError as exc:
            raise SystemExit(exc.args[0]) from None
        config = _config_by_name(args.config)
        requests = [
            SweepRequest(
                label=library.display_name, library=library, config=config
            )
        ]
        _results, report = execute_sweeps(
            requests, max_workers=args.workers,
            timeout=args.timeout, retries=args.retries, trace=True,
        )
        pairs = [(library, config)]
    else:
        from repro.experiments import ALL_FIGURES

        fig = next(f for f in ALL_FIGURES if f.id == args.target)
        _results, report = fig.run_with_report(
            max_workers=args.workers,
            timeout=args.timeout, retries=args.retries, trace=True,
        )
        pairs = [(e.library, e.config) for e in fig.entries]
    write_chrome_trace(args.out, report.traces)
    total_spans = sum(len(r.spans) for r in report.traces.values())
    print(
        f"wrote {args.out}: {len(report.traces)} traced sweep(s), "
        f"{total_spans} spans -- load it in ui.perfetto.dev or "
        "chrome://tracing"
    )
    if args.jsonl:
        write_jsonl(
            args.jsonl,
            merged(report.traces.values(), meta={"target": args.target}),
        )
        print(f"wrote {args.jsonl}")
    if not args.no_summary:
        for library, config in pairs:
            print()
            print(protocol_overhead(library, config).render())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the what-if query service (or answer one --query inline)."""
    import asyncio
    import json

    from repro.exec import ExecPolicy
    from repro.serve import ServeCore, ServeFrontend, ServeQuery

    policy = ExecPolicy.resolve(
        max_workers=args.workers, timeout=args.timeout,
        retries=args.retries, tier=args.tier,
    )

    def build_core() -> ServeCore:
        return ServeCore(
            cache=_sweep_cache(args),
            policy=policy,
            hot_size=args.hot_size,
            max_pending=args.max_pending,
            speculate=not args.no_speculate,
        )

    if args.query is not None:
        async def one_shot() -> int:
            core = build_core()
            try:
                query = ServeQuery.from_jsonable(json.loads(args.query))
                response = await core.query(query)
            finally:
                await core.aclose()
            print(json.dumps(response.to_jsonable(), indent=2))
            if args.stats:
                print(json.dumps(core.stats(), indent=2))
            return 0

        return asyncio.run(one_shot())

    async def run_server() -> int:
        core = build_core()
        frontend = ServeFrontend(core, host=args.host, port=args.port)
        host, port = await frontend.start()
        # flush: a supervisor reading the bound port through a pipe
        # must see the banner before the first connection.
        print(f"repro serve listening on {host}:{port} "
              f"(tier={policy.tier}, workers={policy.max_workers})",
              flush=True)
        try:
            await frontend.serve_forever()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await frontend.aclose()
        return 0

    return asyncio.run(run_server())


def cmd_check(args: argparse.Namespace) -> int:
    """Static analysis over the simulation core (repro.check)."""
    from repro.check.cli import main as check_main

    return check_main(args.check_args)


def cmd_verify(args: argparse.Namespace) -> int:
    """Bounded model checking of the mplib handshakes (repro.verify)."""
    from repro.verify.cli import main as verify_main

    return verify_main(args.verify_args)


def cmd_scenario(args: argparse.Namespace) -> int:
    """Declarative whole-cluster scenarios (repro.scenario)."""
    from repro.scenario.cli import main as scenario_main

    return scenario_main(args.scenario_args)


def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` parser (exposed for the help audit)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of Turner & Chen, CLUSTER 2002",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_exec_options(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="sweep processes (default $REPRO_EXEC_WORKERS or 1)",
        )
        sp.add_argument(
            "--cache", default=None, metavar="DIR",
            help="sweep-cache directory (default $REPRO_SWEEP_CACHE)",
        )
        sp.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-sweep attempt deadline "
                 "(default $REPRO_EXEC_TIMEOUT or unlimited)",
        )
        sp.add_argument(
            "--retries", type=int, default=None, metavar="N",
            help="extra attempts per failed/stuck sweep "
                 "(default $REPRO_EXEC_RETRIES or 2)",
        )

    def add_tier_option(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--tier", choices=["sim", "analytic", "auto"], default=None,
            help="execution tier: 'sim' always runs the event engine, "
                 "'auto' answers engine-validated configs with the "
                 "closed-form analytic model, 'analytic' demands it "
                 "(default $REPRO_EXEC_TIER or sim)",
        )

    def add_trace_flag(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--trace", default=None, metavar="FILE",
            help="also record a Chrome/Perfetto protocol trace "
                 "(bypasses the sweep cache)",
        )

    p = sub.add_parser("figures", help="run all figures with anchor audits")
    add_exec_options(p)
    add_tier_option(p)
    add_trace_flag(p)
    p.set_defaults(func=cmd_figures, figure=None)

    p = sub.add_parser("figure", help="run one figure")
    p.add_argument("figure", choices=["fig1", "fig2", "fig3", "fig4", "fig5"])
    add_exec_options(p)
    add_tier_option(p)
    add_trace_flag(p)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "trace", help="record a Chrome/Perfetto trace of a figure or sweep"
    )
    p.add_argument(
        "target",
        choices=["fig1", "fig2", "fig3", "fig4", "fig5", "sweep"],
        help="a paper figure, or 'sweep' for one --library/--config pair",
    )
    p.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="Chrome-trace output path (default trace.json)",
    )
    p.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="also write the merged span log as JSONL",
    )
    p.add_argument(
        "--library", default="mpich", metavar="NAME",
        help="library model for target 'sweep' (see: libraries)",
    )
    p.add_argument(
        "--config", default="pc_netgear_ga620", metavar="NAME",
        help="cluster config factory for target 'sweep' "
             "(a function of repro.experiments.configs)",
    )
    p.add_argument(
        "--no-summary", action="store_true",
        help="skip the per-layer ASCII overhead tables",
    )
    add_exec_options(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("tables", help="print tables T1-T4")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("audit", help="write the EXPERIMENTS.md report")
    p.add_argument("path", nargs="?", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("libraries", help="list library models")
    p.set_defaults(func=cmd_libraries)

    p = sub.add_parser("apps", help="application workloads on the fabric")
    p.add_argument("--ranks", type=int, default=4)
    p.set_defaults(func=cmd_apps)

    p = sub.add_parser("cpu", help="host CPU availability per transport")
    p.add_argument("--size", type=int, default=1 << 20)
    p.set_defaults(func=cmd_cpu)

    p = sub.add_parser("export", help="write np.out/json files per figure")
    p.add_argument("directory", nargs="?", default="curves")
    add_exec_options(p)
    add_tier_option(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "check", help="verify, dimension & determinism static analysis"
    )
    p.add_argument(
        "check_args", nargs=argparse.REMAINDER, metavar="...",
        help="paths and options passed to repro-check",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "verify", help="bounded model checking of library handshakes"
    )
    p.add_argument(
        "verify_args", nargs=argparse.REMAINDER, metavar="...",
        help="libraries and options passed to repro.verify.cli",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "serve", help="what-if query service (newline-JSON over TCP)"
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default loopback)",
    )
    p.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="port to bind; 0 picks an ephemeral port and prints it",
    )
    p.add_argument(
        "--hot-size", type=int, default=128, metavar="N",
        help="in-memory hot-curve LRU capacity (0 disables)",
    )
    p.add_argument(
        "--max-pending", type=int, default=8, metavar="N",
        help="admission limit on concurrently computing requests; "
             "past it the service sheds load with a typed error",
    )
    p.add_argument(
        "--no-speculate", action="store_true",
        help="disable background precomputation of neighbor queries",
    )
    p.add_argument(
        "--query", default=None, metavar="JSON",
        help="answer one query inline (JSON object) and exit "
             "instead of binding a port",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="with --query: also print the service stats document",
    )
    add_exec_options(p)
    add_tier_option(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("loopback", help="live loopback NetPIPE")
    p.add_argument("--max-size", type=int, default=1 << 20)
    p.add_argument("--sockbuf", type=int, default=None)
    p.add_argument("--threshold", type=int, default=64 * 1024)
    p.set_defaults(func=cmd_loopback)

    p = sub.add_parser(
        "scenario",
        help="declarative whole-cluster scenarios with congestion",
    )
    p.add_argument(
        "scenario_args", nargs=argparse.REMAINDER, metavar="...",
        help="subcommands and options passed to repro.scenario.cli",
    )
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()

    # ``check``/``verify``/``scenario`` forward everything (including
    # --options, which argparse.REMAINDER would swallow) to their own
    # CLIs.
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "check":
        return cmd_check(
            argparse.Namespace(check_args=raw[1:])
        )
    if raw and raw[0] == "verify":
        return cmd_verify(
            argparse.Namespace(verify_args=raw[1:])
        )
    if raw and raw[0] == "scenario":
        return cmd_scenario(
            argparse.Namespace(scenario_args=raw[1:])
        )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
