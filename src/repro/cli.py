"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``        — package overview and engine registry
* ``layout``      — the Table-1 register budget for a router config
* ``resources``   — the Table-2 FPGA resource report
* ``simulate``    — run a workload on any engine and print statistics
* ``trace``       — run the RTL engine and dump a VCD waveform
* ``faults``      — fault-injection campaigns with rollback recovery
* ``experiments`` — regenerate the paper's tables and figures

Exit codes are meaningful: simulation failures (network overload,
unrecovered faults) and below-threshold campaigns exit nonzero so CI
and scripts can gate on them.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.noc import NetworkConfig, RouterConfig


def _bounded(convert, ok, bound):
    """An argparse ``type=``: ``convert`` the text and reject a value
    outside ``bound`` at parse time (exit 2, one line naming the flag)."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound} (got {text})")
        return value

    return parse


_count = _bounded(int, lambda v: v >= 0, ">= 0")
_positive = _bounded(int, lambda v: v >= 1, ">= 1")
_fraction = _bounded(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _network_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=6)
    parser.add_argument("--height", type=int, default=6)
    parser.add_argument("--topology", choices=["torus", "mesh"], default="torus")
    parser.add_argument("--queue-depth", type=int, default=4)


def _network_from(args) -> NetworkConfig:
    return NetworkConfig(
        args.width,
        args.height,
        topology=args.topology,
        router=RouterConfig(queue_depth=args.queue_depth),
    )


def cmd_info(args) -> int:
    from repro.engines import list_engines

    print(__doc__.split("\n\n")[0])
    print("\nReproduction of: Wolkotte et al., 'Using an FPGA for Fast Bit")
    print("Accurate SoC Simulation', IPDPS 2007.\n")
    print("Engines:")
    for engine in list_engines():
        print(f"  {engine.name:<12} {engine.description}")
        print(f"  {'':<12} paper analogue: {engine.paper_analogue}")
    print("\nSee DESIGN.md / EXPERIMENTS.md for the full reproduction map.")
    return 0


def cmd_layout(args) -> int:
    from repro.noc.layout import state_word_layout, table1

    cfg = RouterConfig(queue_depth=args.queue_depth)
    rows = table1(cfg)
    width = max(len(k) for k in rows)
    for key, bits in rows.items():
        print(f"{key:<{width}}  {bits:>6} bits")
    if args.fields:
        print()
        print(state_word_layout(cfg).describe())
    return 0


def cmd_resources(args) -> int:
    from repro.fpga.resources import direct_instantiation_limit, simulator_resources

    net = _network_from(args)
    report = simulator_resources(net)
    print(report.render())
    est = direct_instantiation_limit(data_width=6)
    print(
        f"\nDirect instantiation (6-bit datapath): {est.max_routers} routers "
        f"fit; the sequential simulator handles {NetworkConfig.MAX_ROUTERS}."
    )
    return 0


def _simulation_failures():
    """Exception types that mean "the simulation failed", not "the CLI
    was misused" — callers report them on stderr and exit 1."""
    from repro.faults.errors import FaultDetectedError, RecoveryExhaustedError
    from repro.traffic import NetworkOverloadError

    return (NetworkOverloadError, FaultDetectedError, RecoveryExhaustedError)


def cmd_simulate(args) -> int:
    try:
        return _cmd_simulate(args)
    except _simulation_failures() as exc:
        print(f"simulation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _report_kernel(engine, drivers) -> None:
    """One line naming the execution body actually in use and where
    ``drivers``' traffic is generated (degrade visibly, never silently);
    engines with a single body print nothing."""
    kernel = getattr(engine, "kernel", None)
    if kernel is None:
        return
    from repro.engines.batch import window_source

    if getattr(engine, "_compiled", None) is not None:
        body = "generated C"
    else:
        body = "Python model" if engine.name == "sequential" else "golden lanes"
    if engine.kernel_reason:
        body += f"; {engine.kernel_reason}"
    reason = window_source(engine, drivers).reason
    traffic = "C scan" if reason is None else f"Python generators ({reason})"
    print(f"kernel: {kernel} ({body}); traffic: {traffic}")


def _report_run(engine, drivers) -> None:
    """One line after the run, for engines with a kernel choice: whether
    the generated body took whole windows or one call per cycle (and
    why), the share of router-cycles it had to evaluate and its host
    time per stepped lane-cycle, the
    simulation period it ran at (section 5.3: windows, their mean
    length and flits), the cycles the drain ran inside the body (a
    stepped run's drain steps too, for the reason the line opens with),
    the host's wall time a window around the body (the drain's call
    included) and, when any did, the calls that met an error and ran
    again in cycle order."""
    if getattr(engine, "kernel", None) is None:
        return
    from repro.engines.batch import chunk_decline

    decline = chunk_decline(engine, drivers)
    line = "chunked" if decline is None else f"stepping per cycle ({decline})"
    if getattr(engine, "kernel_lane_cycles", 0):
        share = engine.kernel_router_evals / (
            engine.kernel_lane_cycles * engine.cfg.n_routers
        )
        line += (
            f"; activity: {100 * share:.0f} % of router-cycles evaluated"
            f"; body: {1e9 * engine.kernel_seconds / engine.kernel_lane_cycles:.0f}"
            " ns per stepped lane-cycle"
        )
    windows = getattr(engine, "kernel_windows", 0)
    if windows:
        line += (
            f"; windows: {windows} "
            f"(mean {engine.kernel_window_cycles / windows:.0f} cycles, "
            f"{engine.kernel_window_flits / windows:.0f} flits)"
        )
    if decline is None:
        line += f"; drain: {engine.kernel_drain_cycles} cycles in C"
        if windows:
            host = (engine.kernel_loop_seconds - engine.kernel_seconds) / windows
            line += f"; host: {1e6 * host:.0f} µs a window outside the body"
    if getattr(engine, "kernel_replays", 0):
        line += f"; replays: {engine.kernel_replays}"
    print(f"kernel run: {line}")


def _report_analysis(tracker) -> None:
    """One line naming the body that matched the packets (phase five)."""
    body = "C pass" if tracker.kernel == "c" else f"NumPy ({tracker.kernel_reason})"
    print(f"analysis: {body}")


def _available_memory_bytes() -> Optional[int]:
    """Bytes of memory available right now, or None where unknowable."""
    try:
        with open("/proc/meminfo") as stream:
            for line in stream:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _ignored_flag(args, engine_name: str) -> Optional[str]:
    """The first ``simulate`` flag the chosen path would ignore, as the
    error line naming what it needs — or None when every given flag is
    read.  (A flag counts as given when it differs from its default;
    ``--scheduler`` / ``--chunk`` default to None to tell the two apart.)"""
    partitioned = engine_name == "partitioned"
    batch = engine_name == "batch"
    table = (
        # flag, given?, the path that reads it, is that the chosen path?
        ("--lanes", args.lanes > 1, "--engine batch", batch),
        (
            "--scheduler",
            args.scheduler is not None,
            "--engine sequential --kernel python or --partitions K",
            (engine_name == "sequential" and args.kernel == "python")
            or partitioned,
        ),
        (
            "--fast-forward",
            args.fast_forward,
            "--engine batch without --stream",
            batch and not args.stream,
        ),
        ("--chunk", args.chunk is not None, "--stream", args.stream),
    )
    for flag, given, needs, chosen in table:
        if given and not chosen:
            return f"{flag} requires {needs}"
    return None


def _cmd_simulate(args) -> int:
    from repro.engines import make_engine
    from repro.kernels import KernelUnavailableError
    from repro.seqsim.arraystate import estimate_bytes

    net = _network_from(args)
    lanes = args.lanes
    partitions = args.partitions or 0
    engine_name = args.engine
    if partitions > 1 and engine_name == "sequential":
        engine_name = "partitioned"  # --partitions implies the engine
    if partitions > 1 and engine_name != "partitioned":
        print(
            f"--partitions requires --engine partitioned (got {args.engine})",
            file=sys.stderr,
        )
        return 2
    ignored = _ignored_flag(args, engine_name)
    if ignored is not None:
        print(ignored, file=sys.stderr)
        return 2
    if args.chunk is not None and args.chunk < 1:
        print(f"--chunk must be >= 1 cycle (got {args.chunk})", file=sys.stderr)
        return 2
    kwargs = {}
    if engine_name in ("sequential", "partitioned") and args.scheduler:
        kwargs["scheduler"] = args.scheduler
    if engine_name == "batch":
        kwargs["lanes"] = lanes
        # Fail with a plan before numpy fails with an opaque MemoryError.
        need = estimate_bytes(net, lanes)
        have = _available_memory_bytes()
        if have is not None and need > have:
            print(
                f"packed state for {lanes} lane(s) of a "
                f"{net.width}x{net.height} network needs ~{need:,} bytes "
                f"but only ~{have:,} are available; reduce --lanes",
                file=sys.stderr,
            )
            return 2
    if engine_name == "partitioned":
        kwargs["partitions"] = partitions if partitions > 1 else 2
    kernel = args.kernel
    if kernel != "auto":
        kwargs["kernel"] = kernel
    try:
        engine = make_engine(engine_name, net, **kwargs)
    except KernelUnavailableError as exc:
        print(f"--kernel {kernel}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if engine_name == "partitioned":
            # e.g. K does not tile the fabric; the message names valid Ks.
            print(str(exc), file=sys.stderr)
        else:
            print(f"--kernel {kernel}: {exc}", file=sys.stderr)
        return 2
    return _drive_simulate(args, net, engine, lanes, engine_name)


def _drive_simulate(args, net, engine, lanes: int, engine_name: str) -> int:
    from repro.stats import PacketLatencyTracker, ThroughputStats
    from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

    layout = getattr(engine, "layout_line", None)
    if callable(layout):  # partitioned engine (it has no kernel line)
        print(layout())
    if args.stream:
        return _simulate_streamed(args, net, engine)
    if engine_name == "batch":
        return _simulate_batched(args, net, engine, lanes)
    be = BernoulliBeTraffic(net, args.load, uniform_random(net), seed=args.seed)
    driver = TrafficDriver(engine, be=be)
    _report_kernel(engine, [driver])
    tracker = PacketLatencyTracker(net)
    driver.attach_tracker(tracker)
    start = time.perf_counter()
    driver.run(args.cycles)
    driver.be = None
    driver.drain()
    elapsed = time.perf_counter() - start
    tracker.collect(engine)
    throughput = ThroughputStats.from_engine(engine)
    stats = tracker.stats()
    print(
        f"{engine_name} engine: {engine.cycle} cycles in {elapsed:.2f} s "
        f"({engine.cycle / elapsed:,.0f} simulated cycles/s)"
    )
    _report_run(engine, [driver])
    _report_analysis(tracker)
    print(
        f"traffic: {throughput.flits_injected} flits injected, "
        f"accepted load {throughput.accepted_load:.3f} flits/cycle/node"
    )
    if stats:
        print(
            f"latency: mean {stats.mean:.1f}, p99 {stats.p99:.0f}, "
            f"max {stats.maximum} cycles over {stats.count} packets"
        )
    metrics = getattr(engine, "metrics", None)
    if metrics is not None and metrics.system_cycles:
        print(
            f"delta cycles: {metrics.total_deltas} "
            f"({metrics.mean_deltas_per_cycle():.1f}/cycle, "
            f"extra fraction {metrics.extra_fraction():.3f})"
        )
    return 0


def _simulate_streamed(args, net, engine) -> int:
    """``simulate --stream``: the five-phase pipeline of section 5.3,
    with generate/load/retrieve/analyze in the caller overlapped against
    the simulation on the fabric thread."""
    from repro.engines import lane_views
    from repro.pipeline import run_pipeline
    from repro.pipeline.runner import DEFAULT_CHUNK
    from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

    drivers = [
        TrafficDriver(
            view,
            be=BernoulliBeTraffic(
                net, args.load, uniform_random(net), seed=args.seed + i
            ),
        )
        for i, view in enumerate(lane_views(engine))
    ]
    n = len(drivers)
    _report_kernel(engine, drivers)
    start = time.perf_counter()
    report = run_pipeline(
        engine, drivers, args.cycles, chunk=args.chunk or DEFAULT_CHUNK
    )
    elapsed = time.perf_counter() - start
    print(
        f"{args.engine} engine (streamed): {n} lane(s) x {args.cycles} "
        f"cycles (+drain) in {elapsed:.2f} s "
        f"({n * engine.cycle / elapsed:,.0f} lane-cycles/s)"
    )
    _report_run(engine, drivers)
    _report_analysis(report.trackers[0])
    for i in range(n):
        stats = report.trackers[i].stats()
        line = (
            f"  lane {i}: {report.analyze.inj_counts[i]} flits injected, "
            f"{report.analyze.ej_counts[i]} ejected, drained after "
            f"{report.done_cycles[i]} extra cycles"
        )
        if stats:
            line += f", mean latency {stats.mean:.1f}"
        print(line)
    print()
    print(report.profiler.render())
    return 0


def _simulate_batched(args, net, engine, lanes: int) -> int:
    """Lane-parallel ``simulate``: one independent seed per lane."""
    from repro.engines import drain_batched, run_batched
    from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

    drivers = [
        TrafficDriver(
            engine.lane(i),
            be=BernoulliBeTraffic(
                net, args.load, uniform_random(net), seed=args.seed + i
            ),
        )
        for i in range(lanes)
    ]
    _report_kernel(engine, drivers)
    start = time.perf_counter()
    run_batched(
        engine,
        drivers,
        args.cycles,
        fast_forward=args.fast_forward,
    )
    for driver in drivers:
        driver.be = None
    done = drain_batched(engine, drivers)
    elapsed = time.perf_counter() - start
    lane_cycles = lanes * engine.cycle
    print(
        f"batch engine: {lanes} lanes x {engine.cycle} cycles "
        f"in {elapsed:.2f} s ({lane_cycles / elapsed:,.0f} aggregate "
        f"lane-cycles/s, {engine.cycle / elapsed:,.0f} wall cycles/s)"
    )
    _report_run(engine, drivers)
    for i in range(lanes):
        inj = len(engine.lane_injections(i))
        ej = len(engine.lane_ejections(i))
        print(
            f"  lane {i}: seed {args.seed + i:#x}, {inj} flits injected, "
            f"{ej} ejected, drained after {done[i]} extra cycles"
        )
    return 0


def cmd_trace(args) -> int:
    from repro.engines import RtlEngine
    from repro.rtl import VcdWriter
    from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

    net = _network_from(args)
    engine = RtlEngine(net)
    signals = [
        s
        for s in engine.sim.signals()
        if args.filter in s.name
    ]
    if not signals:
        print(f"no signals match filter {args.filter!r}")
        return 1
    be = BernoulliBeTraffic(net, args.load, uniform_random(net), seed=args.seed)
    driver = TrafficDriver(engine, be=be)
    with open(args.out, "w") as stream:
        writer = VcdWriter(engine.sim, stream, signals=signals)
        writer.start()
        driver.run(args.cycles)
        writer.close()
    print(
        f"wrote {args.out}: {len(signals)} signals over {args.cycles} cycles "
        f"({engine.kernel_stats.delta_cycles} kernel delta cycles)"
    )
    return 0


def cmd_faults(args) -> int:
    from repro.faults import (
        CampaignConfig,
        FaultDomain,
        FaultKind,
        run_campaign,
        run_campaigns,
    )

    if args.action != "campaign":
        print(f"unknown faults action {args.action!r}; try 'campaign'")
        return 2
    domains = {
        "state": (FaultDomain.STATE,),
        "link": (FaultDomain.LINK,),
        "both": (FaultDomain.STATE, FaultDomain.LINK),
    }[args.domains]
    kinds = (FaultKind.TRANSIENT,)
    if args.bursts:
        kinds = kinds + (FaultKind.BURST,)
    configs = [
        CampaignConfig(
            width=args.width,
            height=args.height,
            topology=args.topology,
            n_faults=args.faults,
            seed=seed,
            load=args.load,
            spacing=args.spacing,
            domains=domains,
            kinds=kinds,
            include_flap=args.flap,
        )
        for seed in range(args.seed, args.seed + max(1, args.seeds))
    ]
    start = time.perf_counter()
    if len(configs) == 1:
        reports = [run_campaign(configs[0])]
    else:
        reports = run_campaigns(configs, workers=args.workers)
    elapsed = time.perf_counter() - start
    for i, report in enumerate(reports):
        if i:
            print()
        print(report.render())
    if len(reports) > 1:
        rates = [r.detection_rate for r in reports]
        print(
            f"\n{len(reports)} campaigns: detection rate "
            f"min {100 * min(rates):.1f}% / mean "
            f"{100 * sum(rates) / len(rates):.1f}% / max {100 * max(rates):.1f}%"
        )
    print(f"\ncampaign wall time: {elapsed:.1f} s")
    if args.verbose:
        for report in reports:
            print()
            for outcome in report.outcomes:
                mark = "DETECTED " if outcome.detected else "absorbed "
                print(f"  {mark} {outcome.fault.describe()}")
                if outcome.error:
                    print(f"            {outcome.error[:100]}")
    exhausted = any(r.recovery_exhausted for r in reports)
    below = [
        r for r in reports
        if r.detected and r.recovery_rate < args.min_recovery
    ]
    if exhausted:
        print("FAIL: recovery budget exhausted", file=sys.stderr)
    for r in below:
        print(
            f"FAIL: recovery rate {100 * r.recovery_rate:.1f}% below the "
            f"--min-recovery threshold ({100 * args.min_recovery:.1f}%)",
            file=sys.stderr,
        )
    return 1 if exhausted or below else 0


def cmd_experiments(args) -> int:
    from repro.experiments.__main__ import main as run_experiments

    return run_experiments(["repro"] + (args.names or []))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wolkotte et al. (IPDPS 2007) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package overview").set_defaults(fn=cmd_info)

    p = sub.add_parser("layout", help="Table-1 register budget")
    p.add_argument("--queue-depth", type=int, default=4)
    p.add_argument("--fields", action="store_true", help="dump every field offset")
    p.set_defaults(fn=cmd_layout)

    p = sub.add_parser("resources", help="Table-2 FPGA resource report")
    _network_args(p)
    p.set_defaults(fn=cmd_resources)

    p = sub.add_parser("simulate", help="run a workload on an engine")
    _network_args(p)
    p.add_argument(
        "--engine",
        choices=["rtl", "cycle", "sequential", "batch", "partitioned"],
        default="sequential",
    )
    p.add_argument("--load", type=_fraction, default=0.08)
    p.add_argument("--cycles", type=_count, default=500)
    p.add_argument("--seed", type=int, default=0xC11)
    p.add_argument(
        "--lanes", type=_positive, default=1,
        help="independent simulations run side by side (batch engine only)",
    )
    p.add_argument(
        "--partitions", type=int, default=0,
        help="split ONE simulation into K tiles, the lockstep "
        "multi-FPGA model (implies --engine partitioned)",
    )
    p.add_argument(
        "--scheduler", choices=["worklist", "roundrobin"], default=None,
        help="delta-cycle scheduler of the Python HBR model (--engine "
        "sequential --kernel python, or --partitions K)",
    )
    p.add_argument(
        "--kernel",
        choices=["auto", "python", "levelized", "jit"],
        default="auto",
        help="execution body: auto binds the generated-C kernel (on the "
        "sequential engine with its HBR delta-accounting pass) where the "
        "host has a C compiler, else the fallback; python forces the "
        "fallback (batch engine: golden lanes, one golden network per "
        "lane; sequential engine: the "
        "Python HBR model); batch engine only: levelized and jit are two "
        "labels for the one C kernel (both must compile)",
    )
    p.add_argument(
        "--fast-forward", action="store_true",
        help="skip provably quiescent windows (batch engine): when the "
        "fabric, queues and generators are all idle for D cycles the "
        "clocks and traffic LFSRs jump D in closed form instead of "
        "stepping — bit-identical, disabled while any fault is resident",
    )
    p.add_argument(
        "--stream", action="store_true",
        help="run the five-phase streaming pipeline (the simulation on a "
        "fabric thread, generate/load/retrieve/analyze beside it)",
    )
    p.add_argument(
        "--chunk", type=int, default=None,
        help="cycles per pipeline window at most (--stream only; "
        "default: repro.pipeline.runner.DEFAULT_CHUNK)",
    )
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("trace", help="dump a VCD waveform from the RTL engine")
    _network_args(p)
    p.set_defaults(width=2, height=2)
    p.add_argument("--out", default="noc.vcd")
    p.add_argument("--filter", default="r0.", help="substring filter on signal names")
    p.add_argument("--load", type=_fraction, default=0.1)
    p.add_argument("--cycles", type=_count, default=50)
    p.add_argument("--seed", type=int, default=0xC11)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("faults", help="fault-injection campaign with recovery")
    p.add_argument("action", nargs="?", default="campaign", help="campaign")
    _network_args(p)
    p.set_defaults(width=4, height=4)
    p.add_argument("--faults", type=_count, default=100, help="faults to inject")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--load", type=_fraction, default=0.10)
    p.add_argument("--spacing", type=_positive, default=4, help="cycles between strikes")
    p.add_argument(
        "--domains", choices=["state", "link", "both"], default="both",
        help="which memories to strike",
    )
    p.add_argument("--bursts", action="store_true", help="also sample burst faults")
    p.add_argument(
        "--flap", action="store_true",
        help="end with a livelock-inducing flap fault (watchdog + quarantine)",
    )
    p.add_argument("--verbose", action="store_true", help="per-fault outcomes")
    p.add_argument(
        "--seeds", type=int, default=1,
        help="run N campaigns at seeds seed..seed+N-1 (parallel sweep)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for --seeds > 1 (default: $REPRO_WORKERS or CPUs)",
    )
    p.add_argument(
        "--min-recovery", type=float, default=0.9,
        help="exit nonzero if the recovery rate of any campaign with "
        "detections falls below this fraction (default 0.9)",
    )
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser("experiments", help="regenerate tables/figures")
    p.add_argument(
        "names",
        nargs="*",
        help="fig1 table1 table2 table3 table4 deltas fig5 "
        "patterns resilience",
    )
    p.set_defaults(fn=cmd_experiments)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
