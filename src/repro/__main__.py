"""Command line: regenerate paper figures, run the demo, trace, sweep.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig5                 # one figure's series (serial)
    python -m repro all                  # every figure (serial)
    python -m repro demo                 # attach/detach walk-through
    python -m repro trace stream         # traced run + Chrome-trace artifacts
    python -m repro trace chaos --scenario link-kill-failover
    python -m repro metrics stream       # Prometheus exposition + events + profile
    python -m repro figures --jobs auto  # parallel + cached regeneration
    python -m repro sweep slice:fig8.config --sweep kind=local,scale-out \\
        --set samples=30000              # fan a target out over a grid
    python -m repro chaos link-kill-failover --seed 7 --out chaos-artifacts
    python -m repro dse --smoke          # fault-campaign DSE + SLO ranking
    python -m repro serve --port 8080    # control plane over HTTP (asyncio)
    python -m repro loadtest --smoke     # throughput-vs-p99 curves + shed counts
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .cluster import (
    GOOGLE_TRACE_MACHINES,
    ClusterConfig,
    run_cluster,
    write_artifacts,
)
from .figures import FIGURES, render
from .mem import MIB
from .net.faults import FaultInjector
from .obs import (
    MetricsRegistry,
    RunSummary,
    SloEngine,
    disable_events,
    disable_profiling,
    disable_tracing,
    enable_events,
    enable_profiling,
    enable_tracing,
    json_lines,
    parse_prometheus,
    parse_slo_specs,
    render_metrics_summary,
    render_prometheus,
    summary_from_snapshot,
    validate_chrome_trace,
    write_artifact,
    write_chrome_trace,
    write_metrics_json,
)
from .osmodel import PagePolicy
from .resilience import SCENARIOS, run_scenario
from .sweep import (
    SweepEngine,
    make_spec,
    resolve_jobs,
    resolve_target,
    run_figures,
)
from .testbed import RemoteBuffer, Testbed

# -- shared option declarations ------------------------------------------------


def _positive_int(text: str) -> int:
    """``type=``: an integer >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not an integer >= 1: {text!r}")
    return int(text)


def _jobs(text: str):
    """``type=`` for ``--jobs``: a positive integer or ``auto``."""
    return text if text == "auto" else _positive_int(text)


def _workload_bytes(text: str) -> int:
    """``type=`` for ``--bytes``: rounded down to 256 B, min 256."""
    value = int(text)
    return max(256, value - value % 256)


def _parse_value(text: str):
    """JSON if it parses, else the string itself."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _split_assignment(text: str):
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def _key_value(text: str):
    """``type=`` for ``KEY=VALUE``: ``(key, parsed VALUE)``."""
    key, value = _split_assignment(text)
    return key, _parse_value(value)


def _key_values(text: str):
    """``type=`` for ``KEY=V1,V2,...``: ``(key, [parsed values])``."""
    key, values = _split_assignment(text)
    return key, [_parse_value(value) for value in values.split(",")]


def _add_bytes(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bytes",
        type=_workload_bytes,
        default=128 * 1024,
        dest="nbytes",
        help="workload size in bytes (rounded down to 256 B, min 256)",
    )


def _add_slo(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="SPEC",
        dest="slos",
        help=help,
    )


def _add_json(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--json", action="store_true", help=help)


def _add_jobs(parser: argparse.ArgumentParser, help: str) -> None:
    """``--jobs`` defaults to ``None``: handlers resolve it through
    :func:`repro.sweep.resolve_jobs`, i.e. ``$SWEEP_JOBS`` or 1."""
    parser.add_argument("--jobs", type=_jobs, default=None, help=help)


def _run_demo(args) -> int:
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    payload = bytes(range(128))
    testbed.node0.run_store(window.start, payload)
    assert testbed.node0.run_load(window.start) == payload
    for _ in range(16):
        testbed.node0.run_load(window.start)
    rtt = testbed.node0.device.compute.rtt.mean
    testbed.detach(attachment)

    summary = RunSummary("repro demo — attach, store/load, detach")
    summary.section("attachment")
    summary.row("size", "4 MiB of node1 on node0")
    summary.row(
        "real-address window", f"[{window.start:#x}, {window.end:#x})"
    )
    summary.row("NUMA node", attachment.plan.numa_node_id)
    summary.section("datapath")
    summary.row("remote load/store", "roundtrip OK")
    summary.row("unloaded RTT", rtt * 1e9, "ns")
    summary.section("control plane")
    summary.row("teardown", "detached cleanly")
    print(summary.render())

    registry = MetricsRegistry()
    testbed.register_observability(registry)
    print()
    print(
        summary_from_snapshot(
            "end-of-run metrics",
            registry.snapshot(),
            prefixes=["bus", "endpoint", "llc", "dram"],
        ).render()
    )
    return 0


# -- traced workloads ------------------------------------------------------------


def _trace_stream(nbytes: int):
    """STREAM-style bulk transfer: burst write + read-back over the wire."""
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    buffer = RemoteBuffer.allocate(
        testbed.node0,
        nbytes,
        policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
        batched=True,
    )
    blob = bytes(range(256)) * (nbytes // 256)
    buffer.write(0, blob)
    assert buffer.read(0, nbytes) == blob
    buffer.free()
    return testbed


def _trace_pingpong(nbytes: int):
    """Per-cacheline load/store roundtrips (latency-bound)."""
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    payload = bytes(range(128))
    rounds = max(1, min(nbytes // 128, 64))
    for index in range(rounds):
        testbed.node0.run_store(window.start + index * 128, payload)
        testbed.node0.run_load(window.start + index * 128)
    return testbed


def _trace_fault(nbytes: int):
    """Forced frame drops on channel 0 exercising the LLC replay path."""
    injector = FaultInjector()
    testbed = Testbed(fault_injectors={0: injector})
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    payload = bytes(range(128))
    testbed.node0.run_store(window.start, payload)
    injector.force_drop_next(2)
    rounds = max(4, min(nbytes // 128, 32))
    for _ in range(rounds):
        testbed.node0.run_load(window.start)
    return testbed


_TRACE_WORKLOADS = {
    "stream": _trace_stream,
    "pingpong": _trace_pingpong,
    "fault": _trace_fault,
}


def _run_trace(args) -> int:
    if args.workload is None:
        args.parser.print_help()
        return 0
    if args.workload == "chaos":
        return _trace_chaos(args)

    tracer = enable_tracing(sample_every=args.sample)
    try:
        testbed = _TRACE_WORKLOADS[args.workload](args.nbytes)
    finally:
        disable_tracing()
    registry = MetricsRegistry()
    testbed.register_observability(registry)

    trace_path = os.path.join(args.out, f"trace-{args.workload}.json")
    metrics_path = os.path.join(args.out, f"metrics-{args.workload}.json")
    write_chrome_trace(tracer, trace_path)
    write_metrics_json(registry, metrics_path)
    print(render_metrics_summary(registry, f"repro trace {args.workload}"))
    print()
    completed = len(tracer.completed())
    print(
        f"traced {len(tracer.transactions)} transactions "
        f"({completed} completed end-to-end, 1-in-{tracer.sample_every} "
        f"sampling)"
    )
    print(f"chrome trace : {trace_path}")
    print(f"metrics json : {metrics_path}")
    return 0


def _trace_chaos(args) -> int:
    """Traced resilience scenario: validated Chrome trace + journal."""
    tracer = enable_tracing(sample_every=args.sample)
    try:
        result = run_scenario(args.scenario, seed=args.seed)
    finally:
        disable_tracing()

    stem = f"chaos-{args.scenario}"
    trace_path = os.path.join(args.out, f"trace-{stem}.json")
    metrics_path = os.path.join(args.out, f"metrics-{stem}.json")
    events_path = os.path.join(args.out, f"events-{stem}.jsonl")
    count = validate_chrome_trace(write_chrome_trace(tracer, trace_path))
    write_artifact(metrics_path, result["metrics"])
    write_artifact(events_path, json_lines(result["events"]))

    verdict = "OK" if result["verified"] else "FAILED"
    print(f"chaos {args.scenario} (seed {args.seed}): {verdict}")
    print(
        f"traced {len(tracer.transactions)} transactions, "
        f"{count} chrome-trace events (validated), "
        f"{len(result['events'])} journal events"
    )
    slo = result.get("slo")
    if slo is not None:
        print(f"SLOs: {slo['total'] - slo['breached']}/{slo['total']} ok")
    print(f"chrome trace : {trace_path}")
    print(f"metrics json : {metrics_path}")
    print(f"event journal: {events_path}")
    return 0 if result["verified"] else 1


# -- telemetry pipeline -----------------------------------------------------------


def _run_metrics(args) -> int:
    if args.workload is None:
        args.parser.print_help()
        return 0

    specs = parse_slo_specs(args.slos)

    enable_events()
    enable_profiling(stride=args.stride)
    try:
        testbed = _TRACE_WORKLOADS[args.workload](args.nbytes)
    finally:
        profiler = disable_profiling()

    registry = MetricsRegistry()
    testbed.register_observability(registry)

    # Evaluate SLOs before closing the journal so breach events land in
    # it with the workload as correlation context.
    report = None
    if specs:
        report = SloEngine(specs).evaluate(
            registry,
            now=testbed.sim.now,
            context={"workload": args.workload},
        )
    log = disable_events()

    exposition = render_prometheus(registry)
    parsed = parse_prometheus(exposition)  # strict self-check

    prom_path = os.path.join(args.out, f"metrics-{args.workload}.prom")
    events_path = os.path.join(args.out, f"events-{args.workload}.jsonl")
    folded_path = os.path.join(args.out, f"profile-{args.workload}.folded")
    write_artifact(prom_path, exposition)
    log.write_jsonl(events_path)
    profiler.write_folded(folded_path)

    print(exposition, end="")
    print()
    print(profiler.top_table(args.top).render())
    if report is not None:
        print()
        print(report.render())
    print()
    print(
        f"{len(parsed['samples'])} series across "
        f"{len(parsed['types'])} families (strict parse OK); "
        f"{log.total} journal events ({log.evicted} evicted); "
        f"{profiler.samples_taken} profiler samples @ stride {args.stride}"
    )
    print(f"exposition   : {prom_path}")
    print(f"event journal: {events_path}")
    print(f"folded stacks: {folded_path}")
    return report.exit_code() if report is not None else 0


# -- sweep-engine subcommands ----------------------------------------------------


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    _add_jobs(
        parser,
        "worker processes: an integer or 'auto' (= CPU count; default: "
        "$SWEEP_JOBS or 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: benchmarks/results/cache)",
    )


def _make_engine(args):
    return SweepEngine(
        jobs=resolve_jobs(args.jobs),
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
    )


def _run_figures(args) -> int:
    names = args.figures or sorted(FIGURES)
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        args.parser.error(
            f"unknown figure(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(FIGURES))})"
        )
    tables, engine = run_figures(names, engine=_make_engine(args))
    for name in names:
        print(render(tables[name]))
        print()
    print(engine.stats_line())
    if engine.executed:
        print()
        print(
            summary_from_snapshot(
                "sweep metrics (workers merged)",
                engine.registry.snapshot(),
                prefixes=["sweep"],
            ).render()
        )
    return 0


def _run_sweep(args) -> int:
    try:
        resolve_target(args.target)
    except (KeyError, ImportError, AttributeError, ValueError) as error:
        args.parser.error(str(error))

    fixed = dict(args.fixed)
    keys = [key for key, _ in args.swept]
    grids = [dict(zip(keys, combo)) for combo in
             itertools.product(*[values for _, values in args.swept])]
    specs = [
        make_spec(args.target, seed=args.seed, **{**fixed, **grid})
        for grid in grids
    ]
    engine = _make_engine(args)
    outcomes = engine.run(specs)

    for outcome in outcomes:
        record = {
            "key": outcome.spec.key,
            "target": outcome.spec.target,
            "kwargs": outcome.spec.kwargs,
            "seed": outcome.spec.seed,
            "cached": outcome.cached,
            "elapsed_s": round(outcome.elapsed_s, 6),
            "result": outcome.value,
        }
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            preview = json.dumps(outcome.value)
            if len(preview) > 72:
                preview = preview[:69] + "..."
            source = "cache" if outcome.cached else "run"
            print(
                f"{outcome.spec.key[:12]}  {source:5s} "
                f"{outcome.elapsed_s:8.3f}s  "
                f"{outcome.spec.kwargs_json}  {preview}"
            )
    print(engine.stats_line())
    return 0


# -- chaos engineering -----------------------------------------------------------


def _run_chaos(args) -> int:
    if args.scenario is None:
        args.parser.print_help()
        return 0

    result = run_scenario(args.scenario, seed=args.seed)
    verdict = "OK" if result["verified"] else "FAILED"
    print(f"chaos {args.scenario} (seed {args.seed}): {verdict}")
    for key in ("failed_at_offset", "failovers", "endpoint_retries",
                "frames_dropped", "drained_at_s"):
        if key in result:
            print(f"  {key:18s} {result[key]}")
    if "report" in result:
        report = result["report"]
        print(
            f"  failover           #{report['old_attachment']} "
            f"({report['old_memory_host']}) -> "
            f"#{report['new_attachment']} ({report['new_memory_host']}) "
            f"in {report['recovery_time_s'] * 1e6:.1f} us, "
            f"{report['replayed_bytes']} bytes replayed"
        )
    if "slo" in result:
        slo = result["slo"]
        print(
            f"  SLOs               {slo['total'] - slo['breached']}"
            f"/{slo['total']} ok, {len(result.get('events', []))} "
            f"journal events"
        )
    if args.out is not None:
        path = os.path.join(args.out, f"chaos-{args.scenario}.json")
        write_artifact(path, result)
        print(f"result json : {path}")
    return 0 if result["verified"] else 1


# -- fault-campaign design-space exploration --------------------------------------


def _run_dse(args) -> int:
    from .resilience.dse import (
        CELL_TARGET,
        EvolutionarySearch,
        build_report,
        cells_for,
        default_space,
        evaluate_cell_slo,
        fractional_factorial,
        full_factorial,
        render_markdown,
        render_text,
    )
    from .resilience.dse.responses import DEFAULT_SLOS

    overrides = {}
    if args.smoke:
        overrides = {
            "frame_flits": [8, 16],
            "credit_depth": [256],
            "loss_rate": [0.0, 0.01],
            "campaign": ["link-kill"],
            "failover_policy": ["fast", "none"],
        }
        args.replicates = max(args.replicates, 2)
    overrides.update(args.factors)
    campaign_params = dict(args.campaign_params)
    slo_lines = args.slos or list(DEFAULT_SLOS)

    space = default_space()
    levels = space.levels(overrides)
    engine = _make_engine(args)

    def evaluate(points):
        """Run every replicate of ``points``; returns the cell records."""
        cells = cells_for(points, args.replicates, args.seed)
        specs = []
        for cell in cells:
            kwargs = dict(cell.point)
            if kwargs.get("campaign") != "none" and campaign_params:
                kwargs["campaign_params"] = campaign_params
            specs.append(make_spec(
                CELL_TARGET,
                seed=cell.seed,
                payload_kib=args.payload_kib,
                **kwargs,
            ))
        return [
            {
                "point": dict(cell.point),
                "seed": cell.seed,
                "replicate": cell.replicate,
                "value": outcome.value,
            }
            for cell, outcome in zip(cells, engine.run(specs))
        ]

    design_info = {"kind": args.design, "seed": args.seed,
                   "replicates": args.replicates,
                   "payload_kib": args.payload_kib}
    if args.design == "factorial":
        if args.fraction > 1:
            points = fractional_factorial(
                levels, args.fraction, args.phase
            )
            design_info["fraction"] = args.fraction
            design_info["phase"] = args.phase
        else:
            points = full_factorial(levels)
        records = evaluate(points)
    else:
        specs = parse_slo_specs(slo_lines)
        records = []

        def fitness(points):
            batch = evaluate(points)
            records.extend(batch)
            scores = []
            for point in points:
                own = [
                    record for record in batch
                    if record["point"] == point
                ]
                breaches = sum(
                    0 if evaluate_cell_slo(record["value"], specs)["ok"]
                    else 1
                    for record in own
                )
                mean = sum(
                    record["value"]["responses"][args.objective]
                    for record in own
                ) / len(own)
                # SLO breaches dominate: an infeasible configuration
                # never outranks a feasible one on raw objective value.
                scores.append(mean + 1e9 * breaches)
            return scores

        search = EvolutionarySearch(
            levels,
            population=args.population,
            generations=args.generations,
            tournament=args.tournament,
            mutation_rate=args.mutation_rate,
            seed=args.seed,
        )
        result = search.run(fitness)
        design_info.update({
            "population": args.population,
            "generations": args.generations,
            "tournament": args.tournament,
            "mutation_rate": args.mutation_rate,
            "evolution": result.describe(),
        })

    report = build_report(
        design=design_info,
        cells=records,
        levels=levels,
        slo_lines=slo_lines,
        objective=args.objective,
    )

    json_path = os.path.join(args.out, "dse-report.json")
    md_path = os.path.join(args.out, "dse-report.md")
    write_artifact(json_path, report)
    write_artifact(md_path, render_markdown(report))

    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_text(report))
    print()
    print(engine.stats_line())
    print(f"report json    : {json_path}")
    print(f"report markdown: {md_path}")
    return 0


# -- sharded multi-rack cluster replay --------------------------------------------


def _run_cluster(args) -> int:
    machines = args.machines
    if args.scale is not None:
        if not 0.0 < args.scale <= 1.0:
            args.parser.error(
                f"--scale must be in (0, 1], got {args.scale}"
            )
        machines = max(args.racks, round(GOOGLE_TRACE_MACHINES * args.scale))
    overrides = {}
    if args.local_fraction is not None:
        overrides["local_memory_fraction"] = args.local_fraction
    if args.latency is not None:
        overrides["inter_rack_latency"] = args.latency
    config = ClusterConfig(
        racks=args.racks,
        nodes_per_rack=args.nodes,
        machines=machines if machines is not None else 160,
        tasks=args.tasks,
        seed=args.seed,
        sample=args.sample,
        chaos=args.chaos,
        **overrides,
    )
    jobs = resolve_jobs(args.jobs)

    artifact, runtime = run_cluster(config, jobs=jobs)
    summary = artifact["summary"]

    if args.json:
        print(json.dumps(
            {
                "config": artifact["config"],
                "horizon": artifact["horizon"],
                "rounds": artifact["rounds"],
                "messages": artifact["messages"],
                "summary": summary,
                "runtime": runtime,
            },
            sort_keys=True,
        ))
    else:
        print(
            f"cluster : {config.racks} racks x {config.nodes_per_rack} "
            f"nodes, {config.machines} machines, "
            f"{summary['tasks']} tasks, seed {config.seed}"
            f"{', chaos' if config.chaos else ''}"
        )
        print(
            f"sync    : {artifact['rounds']} windows of "
            f"{config.inter_rack_latency:g} (horizon "
            f"{artifact['horizon']:.0f}), {artifact['messages']} "
            f"inter-rack messages, jobs {runtime['jobs']}"
        )
        total = max(summary["tasks"], 1)
        share = "  ".join(
            f"{name} {100.0 * count / total:.1f}%"
            for name, count in summary["classes"].items()
        )
        print(f"classes : {share}")
        counters = {k: v for k, v in summary["counters"].items() if v}
        if counters:
            print(
                "traffic : "
                + "  ".join(f"{k} {v}" for k, v in sorted(counters.items()))
            )
        print(
            f"wall    : {runtime['wall_s']:.2f} s "
            f"(domain busy {runtime['busy_s']:.2f} s)"
        )
    if args.out is not None:
        paths = write_artifacts(artifact, args.out)
        print(f"summary : {paths['summary']}")
        print(f"journal : {paths['journal']}")
    return 0


# -- control-plane server + load test --------------------------------------------


def _run_serve(args) -> int:
    import asyncio

    from .control.api import RestApi
    from .control.qos import QosClass
    from .control.server import ControlServer, ServerConfig

    async def serve() -> None:
        testbed = Testbed()
        enable_events(4096)
        registry = MetricsRegistry()
        api = RestApi(testbed.plane, registry=registry)
        demo_tenant = testbed.plane.register_tenant(
            "demo", qos=QosClass.BURSTABLE,
            max_attachments=16, max_bytes=64 << 20,
        )
        server = ControlServer(
            api,
            ServerConfig(host=args.host, port=args.port,
                         workers=args.workers,
                         max_queue_depth=args.queue_depth),
            registry=registry,
        )
        await server.start()
        print(f"listening    : http://{args.host}:{server.port}")
        print(f"admin token  : {testbed.admin_token}")
        print(f"demo tenant  : {demo_tenant} (burstable)")
        print(f"catalogue    : GET /v1   (unauthenticated)")
        print(f"scrape       : GET /v1/metrics")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining ...")
            await server.drain()
            print(f"served {server.requests_served} requests, "
                  f"shed {server.queue.shed_count}")

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def _run_loadtest(args) -> int:
    from .control.loadgen import run_control_benchmark

    report = run_control_benchmark(
        smoke=args.smoke, queue_depth=args.queue_depth
    )
    report["preset"] = "smoke" if args.smoke else "full"
    write_artifact(args.out, report)

    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    print(f"preset  : {report['preset']}  "
          f"(queue depth {args.queue_depth})")
    print("stage      offered      ok  tput_rps   p50_ms   p95_ms   p99_ms")
    for stage in report["stages"]:
        lat = stage["latency_ms"]
        print(f"{stage['rate_rps']:>7.0f}/s  {stage['offered']:>7} "
              f"{stage['ok']:>7}  {stage['throughput_rps']:>8.1f} "
              f"{lat['p50']:>8.1f} {lat['p95']:>8.1f} {lat['p99']:>8.1f}")
    totals = report["totals"]
    validation = report["validation"]
    print(f"shed    : {totals['quota_429']} x 429 (quota), "
          f"{totals['shed_503']} x 503 (overload/headroom)")
    print(f"validate: n={validation['count']} "
          f"p50={validation['latency_ms']['p50']:.1f}ms "
          f"p99={validation['latency_ms']['p99']:.1f}ms")
    print(f"peak rss: {report['peak_rss_kib'] / 1024:.1f} MiB")
    print(f"report  : {args.out}")
    return 0


# -- entry point -----------------------------------------------------------------


def _run_list(args) -> int:
    for name, fn in sorted(FIGURES.items()):
        print(f"{name:6s} {fn.__doc__.strip().splitlines()[0]}")
    return 0


def _run_serial_figures(args) -> int:
    targets = sorted(FIGURES) if args.command == "all" else [args.command]
    for name in targets:
        print(render(FIGURES[name]()))
        print()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "ThymesisFlow (MICRO 2020) reproduction: regenerate the "
            "paper's figures from the simulated stack."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    # ``main`` calls ``args.handler(args)``; ``args.parser`` is the
    # subcommand's own parser, for its help and its usage errors.
    cmd = sub.add_parser("list", help="list every regenerable figure")
    cmd.set_defaults(handler=_run_list)
    cmd = sub.add_parser("all", help="regenerate every figure serially")
    cmd.set_defaults(handler=_run_serial_figures)
    for name, fn in sorted(FIGURES.items()):
        cmd = sub.add_parser(name, help=fn.__doc__.strip().splitlines()[0])
        cmd.set_defaults(handler=_run_serial_figures)
    cmd = sub.add_parser(
        "demo", help="attach/detach walk-through with summary"
    )
    cmd.set_defaults(handler=_run_demo)

    cmd = sub.add_parser(
        "trace",
        help="traced workload run with Chrome-trace + metrics artifacts",
        description=(
            "Run one workload with end-to-end tracing enabled and write "
            "the Chrome-trace JSON (Perfetto/chrome://tracing), the "
            "metrics snapshot JSON and a terminal summary. The 'chaos' "
            "workload traces a resilience scenario (--scenario) and "
            "additionally writes its event journal."
        ),
    )
    cmd.set_defaults(handler=_run_trace, parser=cmd)
    cmd.add_argument(
        "workload",
        choices=sorted(_TRACE_WORKLOADS) + ["chaos"],
        nargs="?",
        help="workload to trace",
    )
    _add_bytes(cmd)
    cmd.add_argument(
        "--sample",
        type=_positive_int,
        default=1,
        help="trace 1 in N transactions (default: every transaction)",
    )
    cmd.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="link-kill-failover",
        help="resilience scenario for the chaos workload",
    )
    cmd.add_argument(
        "--seed",
        type=int,
        default=7,
        help="scenario seed for the chaos workload",
    )
    cmd.add_argument(
        "--out",
        default="trace-artifacts",
        help="output directory for the exported artifacts",
    )

    cmd = sub.add_parser(
        "metrics",
        help="telemetry run: Prometheus exposition, event log, profiler",
        description=(
            "Run one workload with the full telemetry pipeline enabled "
            "(metrics registry + structured event log + sim-time "
            "profiler) and print the registry in Prometheus text "
            "exposition format. Writes the exposition, the JSON-lines "
            "event journal and a flame-graph folded-stacks profile; "
            "--slo evaluates declarative objectives against the final "
            "registry and exits non-zero on breach."
        ),
    )
    cmd.set_defaults(handler=_run_metrics, parser=cmd)
    cmd.add_argument(
        "workload",
        choices=sorted(_TRACE_WORKLOADS),
        nargs="?",
        help="workload to run with telemetry on",
    )
    _add_bytes(cmd)
    cmd.add_argument(
        "--stride",
        type=_positive_int,
        default=1024,
        help="profiler sampling stride in kernel events",
    )
    _add_slo(
        cmd,
        "SLO spec 'name: metric{k=v,...} op threshold' (repeatable); "
        "any breach makes the exit code non-zero",
    )
    cmd.add_argument(
        "--top",
        type=int,
        default=10,
        help="profiler components to show in the top-N table",
    )
    cmd.add_argument(
        "--out",
        default="metrics-artifacts",
        help="output directory for the exported artifacts",
    )

    cmd = sub.add_parser(
        "figures",
        help="parallel, cached figure regeneration (--jobs N, --no-cache)",
        description=(
            "Regenerate paper figures through the sweep engine: "
            "independent slices fan out over worker processes and "
            "cached slices are not recomputed. Output tables are "
            "byte-identical to the serial figure functions."
        ),
    )
    cmd.set_defaults(handler=_run_figures, parser=cmd)
    cmd.add_argument(
        "figures",
        nargs="*",
        metavar="figure",
        help=f"figure ids to regenerate (default: all of "
             f"{', '.join(sorted(FIGURES))})",
    )
    _add_engine_arguments(cmd)

    cmd = sub.add_parser(
        "sweep",
        help="fan a target out over a parameter grid (--sweep k=v1,v2)",
        description=(
            "Fan one target out over a parameter grid through the "
            "sweep engine. Targets: 'slice:<name>' (figure slices), "
            "'figure:<name>' (whole figures), 'py:<module>:<function>' "
            "(any importable JSON-returning function)."
        ),
        epilog=(
            "example: python -m repro sweep slice:fig8.config "
            "--sweep kind=local,scale-out --set samples=10000 --jobs 2"
        ),
    )
    cmd.set_defaults(handler=_run_sweep, parser=cmd)
    cmd.add_argument(
        "target", help="target to run (slice:, figure: or py:module:function)"
    )
    cmd.add_argument(
        "--set",
        action="append",
        type=_key_value,
        default=[],
        metavar="KEY=VALUE",
        dest="fixed",
        help="fixed kwarg for every run (VALUE parsed as JSON, else string)",
    )
    cmd.add_argument(
        "--sweep",
        action="append",
        type=_key_values,
        default=[],
        metavar="KEY=V1,V2,...",
        dest="swept",
        help="kwarg swept over comma-separated values (cartesian product)",
    )
    cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        help="per-spec seed recorded in the cache key (passed to targets "
             "that accept a 'seed' kwarg)",
    )
    _add_json(cmd, "print one JSON object per run instead of the table")
    _add_engine_arguments(cmd)

    cmd = sub.add_parser(
        "chaos",
        help="deterministic fault-recovery scenario (--seed N, --out DIR)",
        description=(
            "Run one deterministic fault-recovery scenario (seeded "
            "campaigns, monitored failover, journal replay) and print "
            "its verdict; optionally write the full JSON result with "
            "a sorted metrics snapshot for byte-for-byte diffing."
        ),
    )
    cmd.set_defaults(handler=_run_chaos, parser=cmd)
    cmd.add_argument(
        "scenario",
        choices=sorted(SCENARIOS),
        nargs="?",
        help="scenario to run",
    )
    cmd.add_argument(
        "--seed",
        type=int,
        default=7,
        help="campaign/workload seed (same seed => identical metrics)",
    )
    cmd.add_argument(
        "--out",
        default=None,
        help="directory for the chaos-<scenario>.json artifact",
    )

    cmd = sub.add_parser(
        "cluster",
        help="sharded multi-rack trace replay under conservative time "
             "sync (--racks N, --scale S, --jobs J)",
        description=(
            "Sharded rack-domain simulation: replay the cluster trace "
            "as live attach/detach/steal traffic across N rack "
            "testbeds, each its own simulation domain under "
            "conservative (Chandy-Misra) time sync. --jobs fans the "
            "domains out over worker processes; the artifact is "
            "byte-identical to a serial run for the same config."
        ),
        epilog=(
            "examples: python -m repro cluster --racks 4 --tasks 2000; "
            "python -m repro cluster --scale 0.013 --jobs 4 --chaos "
            "--out cluster-artifacts"
        ),
    )
    cmd.set_defaults(handler=_run_cluster, parser=cmd)
    cmd.add_argument(
        "--racks", type=_positive_int, default=4,
        help="rack domains (each a full packet-switched testbed)",
    )
    cmd.add_argument(
        "--nodes", type=int, default=4,
        help="nodes per rack; first half borrow, second half lend",
    )
    cmd.add_argument(
        "--scale", type=float, default=None,
        help="size the logical-machine fleet as a fraction of the "
             "Google trace's 12555 machines (overrides --machines)",
    )
    cmd.add_argument(
        "--machines", type=int, default=None,
        help="logical machines across the cluster (default 160)",
    )
    cmd.add_argument(
        "--tasks", type=int, default=None,
        help="trace length; default sizes it from the machine count",
    )
    cmd.add_argument(
        "--sample", type=float, default=1.0,
        help="deterministically keep this fraction of the trace's "
             "tasks (0 < f <= 1)",
    )
    cmd.add_argument(
        "--seed", type=int, default=17,
        help="trace seed (same seed + config => identical artifact)",
    )
    cmd.add_argument(
        "--local-fraction", type=float, default=None, metavar="F",
        help="machine memory that is local; tasks above it lease from "
             "the rack pool (default 0.1)",
    )
    cmd.add_argument(
        "--latency", type=float, default=None, metavar="T",
        help="one-way inter-rack latency in trace time units — also "
             "the sync lookahead / window width (default 50)",
    )
    cmd.add_argument(
        "--chaos", action="store_true",
        help="crash each rack's first memory lender mid-run "
             "(force-detach its leases, remap borrowers)",
    )
    _add_jobs(
        cmd,
        "domain worker processes ('auto' = cpu count; default: "
        "$SWEEP_JOBS or 1)",
    )
    cmd.add_argument(
        "--out", default=None,
        help="directory for cluster-summary.json + cluster-journal.jsonl",
    )
    _add_json(cmd, "print the summary JSON instead of the text rendering")

    cmd = sub.add_parser(
        "dse",
        help="fault-campaign design-space exploration with SLO-ranked "
             "decision support (--design factorial|evolve)",
        description=(
            "Fault-campaign design-space exploration with "
            "availability-SLO decision support: build a design over the "
            "robustness factor space (factorial grid or seeded "
            "evolutionary search), run every cell through the cached "
            "sweep engine, judge cells against availability SLOs, and "
            "write a decision-support report (text + JSON + markdown) "
            "ranking the SLO-passing configurations by bandwidth cost "
            "and naming the dominant sensitivity factors."
        ),
        epilog=(
            "examples: python -m repro dse --design factorial "
            "--factor failover_policy=fast,none --replicates 2; "
            "python -m repro dse --design evolve --generations 3 "
            "--population 6 --jobs auto"
        ),
    )
    cmd.set_defaults(handler=_run_dse, parser=cmd)
    cmd.add_argument(
        "--design",
        choices=("factorial", "evolve"),
        default="factorial",
        help="design builder: full/fractional factorial grid, or "
             "seeded evolutionary search (tournament + mutation)",
    )
    cmd.add_argument(
        "--factor",
        action="append",
        type=_key_values,
        default=[],
        metavar="NAME=V1,V2,...",
        dest="factors",
        help="override one factor's sweep levels (values parsed as "
             "JSON, else strings); repeatable",
    )
    cmd.add_argument(
        "--replicates",
        type=_positive_int,
        default=1,
        help="seed replicates per design point (replicate i runs with "
             "seed base+i)",
    )
    cmd.add_argument(
        "--seed",
        type=int,
        default=7,
        help="base seed: replicate seeds and the evolutionary search "
             "derive from it",
    )
    cmd.add_argument(
        "--fraction",
        type=int,
        default=1,
        help="factorial only: keep a deterministic 1/N lattice slice "
             "of the full grid",
    )
    cmd.add_argument(
        "--phase",
        type=int,
        default=0,
        help="factorial only: which 1/N slice to keep (0..fraction-1)",
    )
    cmd.add_argument(
        "--generations", type=_positive_int, default=4,
        help="evolve only: number of generations",
    )
    cmd.add_argument(
        "--population", type=int, default=8,
        help="evolve only: population size",
    )
    cmd.add_argument(
        "--tournament", type=_positive_int, default=2,
        help="evolve only: tournament size for parent selection",
    )
    cmd.add_argument(
        "--mutation-rate", type=float, default=0.35,
        help="evolve only: per-factor mutation probability",
    )
    cmd.add_argument(
        "--objective",
        default="bandwidth_cost",
        help="response minimized among SLO-passing configurations "
             "(and the evolutionary fitness)",
    )
    _add_slo(
        cmd,
        "SLO spec 'name: metric{k=v,...} op threshold' "
        "(repeatable; default: the stock availability objectives)",
    )
    cmd.add_argument(
        "--payload-kib",
        type=int,
        default=32,
        help="workload size per cell in KiB",
    )
    cmd.add_argument(
        "--campaign-param",
        action="append",
        type=_key_value,
        default=[],
        metavar="KEY=VALUE",
        dest="campaign_params",
        help="campaign parameter override (e.g. at_s=2e-5) applied to "
             "every faulted cell; repeatable",
    )
    cmd.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: 2x2x2 factorial (frame_flits x loss_rate x "
             "failover_policy) with 2 replicates — includes the "
             "deliberate no-failover canary that breaches the "
             "availability SLO",
    )
    cmd.add_argument(
        "--out",
        default="dse-artifacts",
        help="output directory for dse-report.{json,md}",
    )
    _add_json(cmd, "print the JSON report instead of the text rendering")
    _add_engine_arguments(cmd)

    cmd = sub.add_parser(
        "serve",
        help="serve the control plane over HTTP (--port, --workers)",
        description=(
            "Boot the prototype testbed and serve its control plane "
            "over HTTP (asyncio, stdlib-only). Prints the issued "
            "credentials; Ctrl-C drains gracefully."
        ),
    )
    cmd.set_defaults(handler=_run_serve, parser=cmd)
    cmd.add_argument("--host", default="127.0.0.1")
    cmd.add_argument("--port", type=int, default=8080,
                        help="0 picks an ephemeral port")
    cmd.add_argument("--workers", type=_positive_int, default=4)
    cmd.add_argument("--queue-depth", type=_positive_int, default=256,
                        help="bounded admission-queue depth")

    cmd = sub.add_parser(
        "loadtest",
        help="throughput-vs-latency load test of the control-plane "
             "server (--smoke, --out BENCH_control.json)",
        description=(
            "Open-loop load test of the control-plane HTTP server: "
            "stages of rising request rate against three tenants "
            "(guaranteed/burstable/best-effort), reporting throughput, "
            "latency percentiles, the validation-latency CDF, shed "
            "counts and peak RSS to BENCH_control.json."
        ),
    )
    cmd.set_defaults(handler=_run_loadtest, parser=cmd)
    cmd.add_argument("--smoke", action="store_true",
                        help="short CI preset (seconds, still sheds)")
    cmd.add_argument("--queue-depth", type=_positive_int, default=64)
    cmd.add_argument("--out", default="BENCH_control.json")
    _add_json(cmd, "print the full report as JSON")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly the way
        # well-behaved Unix filters do (128 + SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
