"""Command-line interface: regenerate any paper artifact from a shell.

Examples::

    python -m repro table2 --platform 9634
    python -m repro table3
    python -m repro fig4 --platform 7302
    python -m repro fig6
    python -m repro suite --platform synthetic
    python -m repro os-scaling
    python -m repro accel
    python -m repro devtree --platform 9634
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Sequence

from repro.platform.presets import epyc_7302, epyc_9634, synthetic_ucie
from repro.platform.topology import Platform

__all__ = ["main", "build_parser"]

_EPILOG = (
    "Every subcommand accepts --jobs N (or 'auto', the default; also set "
    "via REPRO_JOBS): independent experiment cells fan out over N worker "
    "processes with byte-identical output for any value. Cell results are "
    "cached content-addressed under .repro-cache/ (override with "
    "REPRO_CACHE_DIR, disable with --no-cache or REPRO_CACHE=0; manage "
    "with `repro cache stats|clear`); cached re-runs stay byte-identical. "
    "For repeated sweeps, `repro serve` keeps a warm daemon on a Unix "
    "socket and `repro submit` batches against it (falling back to an "
    "in-process run, byte-identical, when no server is listening)."
)

_PLATFORMS = {
    "7302": epyc_7302,
    "9634": epyc_9634,
    "synthetic": synthetic_ucie,
}


def _jobs_arg(text: str):
    """argparse type for --jobs: a positive integer or 'auto'."""
    value = text.strip().lower()
    if value == "auto":
        return value
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


#: Long-form spellings accepted anywhere a platform name is (e.g. scripts
#: that pass the marketing name verbatim).
_PLATFORM_ALIASES = {
    "epyc7302": "7302",
    "epyc-7302": "7302",
    "epyc9634": "9634",
    "epyc-9634": "9634",
}


def _severity_arg(text: str) -> float:
    """argparse type for --severity: a float in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number in [0, 1], got {text!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"severity must be in [0, 1], got {value}"
        )
    return value


def _shards_arg(text: str) -> int:
    """argparse type for --shards: a positive integer (range-checked later
    against the platform's CCD count)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _samples_arg(text: str) -> int:
    """argparse type for --samples: an integer >= 10."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 10, got {text!r}"
        ) from None
    if value < 10:
        raise argparse.ArgumentTypeError(
            f"need at least 10 samples, got {value}"
        )
    return value


def _platforms_for(name: str) -> List[Platform]:
    name = _PLATFORM_ALIASES.get(name.strip().lower(), name)
    if name == "all":
        return [epyc_7302(), epyc_9634()]
    try:
        return [_PLATFORMS[name]()]
    except KeyError:
        raise SystemExit(
            f"unknown platform {name!r} (choose from "
            f"{', '.join(sorted(_PLATFORMS))}, all)"
        ) from None


def _platform_names_for(name: str) -> List[str]:
    """Like :func:`_platforms_for`, but preset names (for job specs)."""
    name = _PLATFORM_ALIASES.get(name.strip().lower(), name.strip().lower())
    if name == "all":
        return ["7302", "9634"]
    if name not in _PLATFORMS:
        raise SystemExit(
            f"unknown platform {name!r} (choose from "
            f"{', '.join(sorted(_PLATFORMS))}, all)"
        )
    return [name]


def _validate_env(parser: argparse.ArgumentParser) -> None:
    """Reject malformed env knobs up front, as usage errors not tracebacks.

    ``REPRO_JOBS`` and ``REPRO_DES_SHARDS`` are read deep inside the
    runner and the engine selection; a typo there should fail like a bad
    flag (clean one-line error, exit 2), not as a traceback halfway
    through a sweep.
    """
    from repro.cache import DES_SHARDS_ENV_VAR
    from repro.errors import ConfigurationError
    from repro.runner import JOBS_ENV_VAR, resolve_jobs

    try:
        resolve_jobs(None)
    except ConfigurationError as error:
        parser.error(f"${JOBS_ENV_VAR}: {error}")
    raw = os.environ.get(DES_SHARDS_ENV_VAR, "").strip()
    if raw:
        try:
            shards_ok = int(raw) >= 1
        except ValueError:
            shards_ok = False
        if not shards_ok:
            parser.error(
                f"${DES_SHARDS_ENV_VAR} must be a positive integer, "
                f"got {raw!r}"
            )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Server Chiplet Networking (HotNets '25) reproduction — "
            "regenerate the paper's tables and figures from the simulator."
        ),
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, platform_default: str = "all"):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--platform",
            default=platform_default,
            help=f"7302, 9634, synthetic, or all (default {platform_default})",
        )
        cmd.add_argument(
            "--seed", type=int, default=0, help="simulation seed (default 0)"
        )
        cmd.add_argument(
            "--jobs",
            default=None,
            type=_jobs_arg,
            metavar="N",
            help=(
                "worker processes for independent cells: a count or 'auto' "
                "(default: $REPRO_JOBS, else auto); output is byte-identical "
                "for any value"
            ),
        )
        cmd.add_argument(
            "--no-cache",
            action="store_true",
            help=(
                "recompute every cell instead of reading/writing the "
                "content-addressed result cache (.repro-cache/)"
            ),
        )
        return cmd

    add("table1", "hardware specifications")
    table2_cmd = add("table2", "data-path latency breakdown")
    table2_cmd.add_argument(
        "--iterations", type=int, default=2000,
        help="pointer-chase iterations per point",
    )
    add("table3", "max bandwidth by sender scope")
    fig3_cmd = add("fig3", "latency vs offered load (closed-loop sweep)")
    fig3_cmd.add_argument(
        "--transactions", type=int, default=800,
        help="transactions per core per load point",
    )
    fig3_cmd.add_argument(
        "--csv", default=None, metavar="DIR",
        help="also write one CSV per panel/op into DIR",
    )
    add("fig4", "bandwidth partitioning cases")
    add("fig5", "bandwidth-harvesting timelines", platform_default="9634")
    add("fig6", "read/write interference knees", platform_default="9634")
    add("suite", "full cross-platform characterization + guidelines")
    add("os-scaling", "shared-memory vs multikernel scaling (§4 #2)")
    accel_cmd = add(
        "accel", "accelerator dispatch protection (§4 #4)",
        platform_default="9634",
    )
    accel_cmd.add_argument(
        "--dispatch-jobs", type=int, default=8,
        help="dispatch jobs simulated per scenario (default 8)",
    )
    chaos_cmd = add(
        "chaos", "graceful degradation under dynamic fabric faults",
        platform_default="7302",
    )
    chaos_cmd.add_argument(
        "--severity", type=_severity_arg, default=None, metavar="S",
        help=(
            "single fault severity in [0,1] (0 = healthy baseline); "
            "default: sweep 0, 0.25, 0.5, 0.75, 1"
        ),
    )
    chaos_cmd.add_argument(
        "--transactions", type=int, default=200,
        help="DES transactions per core per severity (default 200)",
    )
    chaos_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock timeout (default: none)",
    )
    chaos_cmd.add_argument(
        "--retries", type=int, default=0,
        help="retry attempts per failed cell (default 0)",
    )
    chaos_cmd.add_argument(
        "--recover",
        action="store_true",
        help=(
            "also run the failover comparison: a permanent cross-die link "
            "failure with fault-reactive recovery off vs on, per backend "
            "(detection, credit reclamation, retransmission, failover)"
        ),
    )
    chaos_mode = chaos_cmd.add_mutually_exclusive_group()
    chaos_mode.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep on the first severity that fails",
    )
    chaos_mode.add_argument(
        "--keep-going", action="store_true", default=True,
        help="report failed severities in their row and continue (default)",
    )
    netstack_cmd = add(
        "netstack", "networking stack vs sender-driven partitioning (§4)",
        platform_default="7302",
    )
    netstack_cmd.add_argument(
        "--arm", default=None, choices=("off", "credits", "credits+qos"),
        help="single stack arm (default: compare all three)",
    )
    netstack_cmd.add_argument(
        "--transactions", type=int, default=400,
        help="DES transactions per core per arm (default 400)",
    )
    netstack_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock timeout (default: none)",
    )
    netstack_cmd.add_argument(
        "--retries", type=int, default=0,
        help="retry attempts per failed cell (default 0)",
    )
    netstack_cmd.add_argument(
        "--fail-fast", action="store_true",
        help="abort the comparison on the first cell that fails",
    )
    sharded_cmd = add(
        "sharded",
        "serial vs sharded DES engine on the contention cell",
        platform_default="9634",
    )
    sharded_cmd.add_argument(
        "--engine", default="both", choices=("serial", "sharded", "both"),
        help="which engine(s) to run (default both, for the comparison)",
    )
    sharded_cmd.add_argument(
        "--shards", type=_shards_arg, default=None, metavar="N",
        help=(
            "event-loop shards for the sharded engine (default: "
            "$REPRO_DES_SHARDS, else one per CCD). Unlike --jobs — which "
            "fans whole cells over processes — shards split one cell's "
            "event loop and change its results within the documented "
            "tolerance; shards=1 is bit-identical to serial"
        ),
    )
    sharded_cmd.add_argument(
        "--transactions", type=int, default=150,
        help="closed-loop transactions per core (default 150)",
    )
    trace_cmd = add(
        "trace",
        "span-trace one cell: per-hop latency attribution + Perfetto JSON",
        platform_default="7302",
    )
    trace_cmd.add_argument(
        "cell", choices=("netstack", "table2"),
        help=(
            "netstack: the Fig 4-6 contention cell, one traced DES run per "
            "stack arm; table2: the DRAM/CXL pointer chases, one per position"
        ),
    )
    trace_cmd.add_argument(
        "--samples", type=_samples_arg, default=None, metavar="N",
        help=(
            "transactions per core (netstack) or chase iterations (table2); "
            "defaults keep the trace a few MB"
        ),
    )
    trace_cmd.add_argument(
        "--out", default=None, metavar="FILE",
        help=(
            "trace JSON path (default trace-<cell>-<platform>.json; "
            "'-' skips the file and prints only the breakdown)"
        ),
    )
    kvstore_cmd = add(
        "kvstore",
        "open-loop kvstore serving tails (hybrid batched/fluid engine)",
        platform_default="9634",
    )
    kvstore_cmd.add_argument(
        "--qps", type=float, default=2_000_000.0,
        help="offered open-loop arrival rate (default 2,000,000)",
    )
    kvstore_cmd.add_argument(
        "--requests", type=int, default=100_000,
        help="requests served per (tier, background) arm (default 100,000)",
    )
    kvstore_cmd.add_argument(
        "--engine", default="hybrid", choices=("hybrid", "des"),
        help=(
            "hybrid: exact batched recurrences with fluid-coupled "
            "background (default); des: the per-event reference model, "
            "for small-cell validation"
        ),
    )
    explore_cmd = sub.add_parser(
        "explore",
        help="generated topology x routing x workload design-space sweep",
        description=(
            "Sweep generated topologies (repro.platform.generator catalog) "
            "against routing policies and workloads through the hardened "
            "runner, scoring each point on victim share, Jain fairness, "
            "p99 DES latency, and bisection utilization."
        ),
    )
    explore_cmd.add_argument(
        "--topology", default="all", metavar="NAME",
        help=(
            "one generated topology from the catalog, or 'all' for the "
            "full catalog (default all)"
        ),
    )
    explore_cmd.add_argument(
        "--routing", default="both", choices=("xy", "adaptive", "both"),
        help="routing policy arm(s) to sweep (default both)",
    )
    explore_cmd.add_argument(
        "--workload", default="both",
        choices=("contention", "uniform", "both"),
        help="workload arm(s) to sweep (default both)",
    )
    explore_cmd.add_argument(
        "--packets", type=int, default=60, metavar="N",
        help="DES packets injected per sender per cell (default 60)",
    )
    explore_cmd.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default 0)"
    )
    explore_cmd.add_argument(
        "--jobs", default=None, type=_jobs_arg, metavar="N",
        help=(
            "worker processes for independent cells: a count or 'auto' "
            "(default: $REPRO_JOBS, else auto); output is byte-identical "
            "for any value"
        ),
    )
    explore_cmd.add_argument(
        "--no-cache", action="store_true",
        help=(
            "recompute every cell instead of reading/writing the "
            "content-addressed result cache (.repro-cache/)"
        ),
    )
    add("devtree", "chiplet-net device tree export (§4 #1)")
    add("io-relay", "NIC→DRAM→NVMe relay stack designs (§4 #3)")
    add("collective", "all-reduce algorithm costs across chiplets (§4 #6)")
    add("noc-routing", "buffered vs bufferless NoC routing (§2.3)")
    add("core-to-core", "cacheline handoff latency matrix")
    add("patterns", "access-pattern bandwidth matrix (§3.1)")
    all_cmd = add("all", "regenerate every table and figure in one report")
    all_cmd.add_argument(
        "--quality", default="quick", choices=("quick", "full"),
        help="DES sample counts: quick (~1 s) or full (~3 s), cold on 2 "
             "CPUs with --jobs 2",
    )
    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the content-addressed result cache"
    )
    cache_cmd.add_argument(
        "action", choices=("stats", "clear"),
        help="stats: entry count, size, and persisted hit/miss counters; "
             "clear: delete every entry and counter record",
    )
    cache_cmd.add_argument(
        "--dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR, else .repro-cache)",
    )
    cache_cmd.add_argument(
        "--jobs", default=None, type=_jobs_arg, metavar="N",
        help="accepted for uniformity; cache maintenance runs no cells",
    )
    cache_cmd.add_argument(
        "--no-cache", action="store_true",
        help="accepted for uniformity; maintenance always works on the store",
    )

    def add_service_options(cmd, jobs_help: str):
        cmd.add_argument(
            "--socket", default=None, metavar="PATH",
            help=(
                "service Unix socket (default: $REPRO_SOCKET, else "
                ".repro-service.sock)"
            ),
        )
        cmd.add_argument(
            "--jobs", default=None, type=_jobs_arg, metavar="N",
            help=jobs_help,
        )
        cmd.add_argument(
            "--no-cache", action="store_true",
            help="run without the content-addressed result cache",
        )

    serve_cmd = sub.add_parser(
        "serve",
        help="run the persistent simulation service (daemon on a Unix socket)",
        description=(
            "Start the long-lived job server: clients submit batches with "
            "`repro submit`, the server dedups them against the shared warm "
            "cache, schedules by priority with per-client fairness and "
            "bounded-depth admission, and streams per-cell results back as "
            "line-delimited JSON. Stop with SIGINT/SIGTERM or a client's "
            "shutdown op; the socket is unlinked on exit."
        ),
    )
    add_service_options(
        serve_cmd,
        "worker processes per batch (a count or 'auto'; batches themselves "
        "run one at a time)",
    )
    serve_cmd.add_argument(
        "--max-depth", type=int, default=16, metavar="N",
        help=(
            "admission bound: at most N queued jobs; submissions beyond it "
            "are rejected with a structured retry-after (default 16)"
        ),
    )
    serve_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock timeout for every job (default: none)",
    )
    serve_cmd.add_argument(
        "--retries", type=int, default=0,
        help="retry attempts per failed cell (default 0)",
    )
    serve_cmd.add_argument(
        "--artifacts-dir", default=None, metavar="DIR",
        help="trace-artifact directory (default .repro-service/)",
    )

    submit_cmd = sub.add_parser(
        "submit",
        help="submit one batch to the service (or run it locally)",
        description=(
            "Build one job spec and submit it to a running `repro serve` "
            "daemon; when no server is listening the same spec runs in "
            "process, with byte-identical stdout. The artifact goes to "
            "stdout, job/cache accounting to stderr."
        ),
    )
    submit_cmd.add_argument(
        "kind", choices=("netstack", "chaos", "trace", "kvstore", "explore"),
        help="which experiment family the batch runs",
    )
    submit_cmd.add_argument(
        "--platform", default="7302",
        help="7302, 9634, synthetic, or all (one job per platform)",
    )
    submit_cmd.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default 0)"
    )
    add_service_options(
        submit_cmd,
        "worker processes for the local fallback (a count or 'auto')",
    )
    submit_cmd.add_argument(
        "--priority", type=int, default=0, metavar="P",
        help="scheduling priority; higher runs first (default 0)",
    )
    submit_cmd.add_argument(
        "--client", default=None, metavar="NAME",
        help="client name for the server's fairness policy (default: per-"
             "connection)",
    )
    submit_cmd.add_argument(
        "--local", action="store_true",
        help="skip the server probe and run in process",
    )
    submit_cmd.add_argument(
        "--arm", default=None, choices=("off", "credits", "credits+qos"),
        help="netstack: single stack arm (default: all three)",
    )
    submit_cmd.add_argument(
        "--severity", type=_severity_arg, default=None, metavar="S",
        help="chaos: single fault severity in [0,1] (default: full sweep)",
    )
    submit_cmd.add_argument(
        "--cell", default="netstack", choices=("netstack", "table2"),
        help="trace: which cell to trace (default netstack)",
    )
    submit_cmd.add_argument(
        "--samples", type=_samples_arg, default=None, metavar="N",
        help="trace: samples per traced cell (default: kind-specific)",
    )
    submit_cmd.add_argument(
        "--transactions", type=int, default=None, metavar="N",
        help="netstack/chaos: DES transactions per core (default: "
             "experiment-specific)",
    )
    submit_cmd.add_argument(
        "--qps", type=float, default=None, metavar="RATE",
        help="kvstore: offered open-loop arrival rate (default 2,000,000)",
    )
    submit_cmd.add_argument(
        "--topology", default=None, metavar="NAME",
        help="explore: one catalog topology (default: the full catalog)",
    )
    submit_cmd.add_argument(
        "--routing", default=None, choices=("xy", "adaptive", "both"),
        help="explore: routing policy arm(s) (default both)",
    )
    submit_cmd.add_argument(
        "--workload", default=None,
        choices=("contention", "uniform", "both"),
        help="explore: workload arm(s) (default both)",
    )
    submit_cmd.add_argument(
        "--packets", type=int, default=None, metavar="N",
        help="explore: DES packets per sender per cell (default 60)",
    )
    submit_cmd.add_argument(
        "--requests", type=int, default=None, metavar="N",
        help="kvstore: requests per serving arm (default 100,000)",
    )
    submit_cmd.add_argument(
        "--shards", type=_shards_arg, default=None, metavar="N",
        help="run the batch on the sharded DES engine with N shards "
             "(cached separately per shard count)",
    )
    submit_cmd.add_argument(
        "--recover", action="store_true",
        help="run the batch with the fault-reactive recovery layer enabled",
    )
    submit_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell timeout for the local fallback (default: none)",
    )
    submit_cmd.add_argument(
        "--retries", type=int, default=0,
        help="retry attempts per failed cell in the local fallback",
    )

    jobs_cmd = sub.add_parser(
        "jobs",
        help="list the service's running, queued, and finished jobs",
    )
    add_service_options(
        jobs_cmd, "accepted for uniformity; the listing itself runs no cells"
    )
    return parser


def _submit_spec(args, platform_name: str) -> dict:
    """One service job spec from ``repro submit`` flags."""
    params: dict = {}
    if args.kind == "netstack":
        if args.arm is not None:
            params["arms"] = [args.arm]
        if args.transactions is not None:
            params["transactions_per_core"] = args.transactions
    elif args.kind == "chaos":
        if args.severity is not None:
            params["severities"] = [args.severity]
        if args.transactions is not None:
            params["transactions_per_core"] = args.transactions
    elif args.kind == "kvstore":
        if args.qps is not None:
            params["qps"] = args.qps
        if args.requests is not None:
            params["requests"] = args.requests
    elif args.kind == "explore":
        if args.topology is not None:
            params["topologies"] = [args.topology]
        if args.routing is not None and args.routing != "both":
            params["routings"] = [args.routing]
        if args.workload is not None and args.workload != "both":
            params["workloads"] = [args.workload]
        if args.packets is not None:
            params["packets_per_sender"] = args.packets
    else:
        params["cell"] = args.cell
        if args.samples is not None:
            params["samples"] = args.samples
    return {
        "kind": args.kind,
        "platform": platform_name,
        "seed": args.seed,
        "params": params,
        "variants": {
            "des_shards": args.shards,
            "recovery": bool(args.recover),
        },
    }


def _serve(args) -> int:
    """Run the service daemon until SIGINT/SIGTERM or a shutdown op."""
    import asyncio
    import signal

    from repro.cache import ResultCache, cache_enabled_by_env
    from repro.errors import ServiceError
    from repro.service.server import ReproService

    cache = (
        None if (args.no_cache or not cache_enabled_by_env())
        else ResultCache()
    )
    service = ReproService(
        args.socket,
        max_depth=args.max_depth,
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        cache=cache,
        artifacts_dir=args.artifacts_dir,
    )

    async def serve() -> None:
        await service.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(service.stop())
            )
        print(
            f"[repro] serving on {service.socket_path} "
            f"(max queue depth {service.scheduler.max_depth}, cache "
            f"{'on' if service.cache is not None else 'off'})",
            file=sys.stderr,
        )
        await service.serve_forever()

    try:
        asyncio.run(serve())
    except ServiceError as error:
        print(f"[repro] serve: {error}", file=sys.stderr)
        return 1
    print("[repro] serve: stopped cleanly", file=sys.stderr)
    return 0


def _jobs_listing(args) -> int:
    """Print the server's queue snapshot and job records."""
    from repro.analysis.report import render_table
    from repro.errors import ServiceError
    from repro.service import ServiceClient
    from repro.service.server import resolve_socket_path

    try:
        with ServiceClient(args.socket) as client:
            listing = client.jobs()
    except (OSError, ServiceError) as error:
        print(
            f"[repro] jobs: no service listening on "
            f"{resolve_socket_path(args.socket)} ({error})",
            file=sys.stderr,
        )
        return 1
    print(f"running: {listing.get('running') or '-'}")
    queued = listing.get("queued") or []
    if queued:
        print(render_table(
            ["job", "client", "priority", "kind", "cells"],
            [
                [row["job"], row["client"], row["priority"],
                 row["kind"], row["cells"]]
                for row in queued
            ],
            title="queued (dispatch order)",
        ))
    else:
        print("queued: none")
    records = listing.get("records") or []
    if records:
        print(render_table(
            ["job", "client", "status", "cells", "precached", "hits",
             "misses", "deduped", "failures", "duration s"],
            [
                [
                    row["job"], row["client"], row["status"], row["cells"],
                    row["precached"], row["hits"], row["misses"],
                    row["deduped"], row["failures"],
                    row.get("duration_s", "-"),
                ]
                for row in records
            ],
            title="jobs",
        ))
    else:
        print("jobs: none yet")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: run one subcommand and print its artifact.

    Artifacts go to stdout; a one-line timing summary goes to stderr (so
    redirected artifacts stay byte-identical regardless of ``--jobs``).
    """
    args = build_parser().parse_args(argv)
    from repro.cache import ResultCache, cache_enabled_by_env, set_default_cache

    _validate_env(build_parser())

    if args.command == "cache":
        cache = ResultCache(args.dir)
        if args.action == "clear":
            removed = cache.clear()
            print(f"cleared {removed} cached result(s) from {cache.root}")
        else:
            stats = cache.stats()
            print(f"cache: {stats.root}")
            print(f"entries: {stats.entries}")
            print(f"bytes: {stats.bytes}")
            print(f"recorded runs: {stats.recorded_runs}")
            print(f"recorded hits: {stats.recorded_hits}")
            print(f"recorded misses: {stats.recorded_misses}")
            print(f"recorded bytes read: {stats.recorded_bytes_read}")
            print(f"recorded bytes written: {stats.recorded_bytes_written}")
        return 0

    if args.command == "serve":
        return _serve(args)

    if args.command == "jobs":
        return _jobs_listing(args)

    # The CLI opts into result caching (library use stays uncached unless
    # asked); --no-cache or REPRO_CACHE=0 turns it off.
    if args.no_cache or not cache_enabled_by_env():
        set_default_cache(None)
    else:
        set_default_cache(ResultCache())

    # Validate the fluid-backend switch up front: on a warm cache no cell
    # may ever reach the solver, and a typo'd backend must not pass
    # silently just because every result was already cached.
    from repro.errors import ConfigurationError
    from repro.fluid.solver import resolve_backend

    try:
        resolve_backend()
    except ConfigurationError as error:
        build_parser().error(str(error))

    jobs = getattr(args, "jobs", None)
    started = time.perf_counter()
    out: List[str] = []

    if args.command == "table1":
        from repro.experiments import table1

        out.append(table1.render(table1.run()))

    elif args.command == "table2":
        from repro.experiments import table2

        rows = table2.run_many(
            _platforms_for(args.platform),
            iterations=args.iterations, seed=args.seed, jobs=jobs,
        )
        out.append(table2.render(rows))

    elif args.command == "table3":
        from repro.experiments import table3

        results = table3.run_many(
            _platforms_for(args.platform), seed=args.seed, jobs=jobs
        )
        out.append(table3.render(results))

    elif args.command == "fig3":
        from repro.experiments import fig3

        sweeps = fig3.run_all(
            _platforms_for(args.platform),
            transactions_per_core=args.transactions,
            seed=args.seed,
            jobs=jobs,
        )
        out.append(fig3.render(sweeps))
        if args.csv:
            written = fig3.export_csv(sweeps, args.csv)
            out.append("wrote: " + ", ".join(written))

    elif args.command == "fig4":
        from repro.experiments import fig4

        results = fig4.run_many(_platforms_for(args.platform), jobs=jobs)
        out.append(fig4.render(results))

    elif args.command == "fig5":
        from repro.experiments import fig5

        for result in fig5.run_all(_platforms_for(args.platform), jobs=jobs):
            delay = (
                "n/a (oscillates)"
                if result.harvest_delay_s is None
                else f"{result.harvest_delay_s * 1e3:.0f} ms"
            )
            out.append(
                f"{result.scenario.platform} {result.scenario.name}: "
                f"harvest delay {delay}, in-window variation "
                f"{result.variation_gbps:.2f} GB/s"
            )

    elif args.command == "fig6":
        from repro.experiments import fig6

        for result in fig6.run_many(_platforms_for(args.platform), jobs=jobs):
            out.append(fig6.render(result))

    elif args.command == "suite":
        from repro.core.suite import CharacterizationSuite

        suite = CharacterizationSuite(seed=args.seed, jobs=jobs)
        reports = suite.run_many(_platforms_for(args.platform))
        for report in reports.values():
            out.append(report.render())

    elif args.command == "os-scaling":
        from repro.experiments import os_scaling
        from repro.runner import platform_map

        results = platform_map(
            os_scaling.run, _platforms_for(args.platform), jobs=jobs
        )
        out.append(os_scaling.render(results))

    elif args.command == "accel":
        from repro.experiments import accel_dispatch

        for platform in _platforms_for(args.platform):
            if not platform.cxl_devices:
                continue
            reports = accel_dispatch.compare(
                platform, jobs=args.dispatch_jobs, seed=args.seed
            )
            out.append(accel_dispatch.render(reports))

    elif args.command == "chaos":
        from repro.experiments import chaos

        severities = (
            chaos.SEVERITIES if args.severity is None else (args.severity,)
        )
        for platform in _platforms_for(args.platform):
            results = chaos.run(
                platform,
                severities=severities,
                seed=args.seed,
                transactions_per_core=args.transactions,
                jobs=jobs,
                timeout_s=args.timeout,
                retries=args.retries,
                fail_fast=args.fail_fast,
            )
            out.append(chaos.render(platform.name, results))
            from repro.net.recovery import recovery_enabled_by_env

            if args.recover or recovery_enabled_by_env():
                recovery_results = chaos.run_recovery(
                    platform,
                    seed=args.seed,
                    jobs=jobs,
                    timeout_s=args.timeout,
                    retries=args.retries,
                    fail_fast=args.fail_fast,
                )
                out.append(
                    chaos.render_recovery(platform.name, recovery_results)
                )

    elif args.command == "netstack":
        from repro.experiments import netstack

        arms = netstack.ARMS if args.arm is None else (args.arm,)
        for platform in _platforms_for(args.platform):
            results = netstack.run(
                platform,
                arms=arms,
                seed=args.seed,
                transactions_per_core=args.transactions,
                jobs=jobs,
                timeout_s=args.timeout,
                retries=args.retries,
                fail_fast=args.fail_fast,
            )
            out.append(netstack.render(platform.name, results))

    elif args.command == "sharded":
        from repro.experiments import sharded_cell

        engines = (
            sharded_cell.ENGINES if args.engine == "both" else (args.engine,)
        )
        for platform in _platforms_for(args.platform):
            try:
                results = sharded_cell.run(
                    platform,
                    engines=engines,
                    shards=args.shards,
                    seed=args.seed,
                    transactions_per_core=args.transactions,
                    jobs=jobs,
                )
            except ConfigurationError as error:
                # An out-of-range shard count (or a bad REPRO_DES_SHARDS
                # value) is a usage error, not a traceback.
                build_parser().error(str(error))
            out.append(sharded_cell.render(platform.name, results))

    elif args.command == "kvstore":
        from repro.experiments import kvserve

        for platform in _platforms_for(args.platform):
            try:
                results = kvserve.run(
                    platform,
                    qps=args.qps,
                    requests=args.requests,
                    engine=args.engine,
                    seed=args.seed,
                    jobs=jobs,
                )
            except ConfigurationError as error:
                build_parser().error(str(error))
            out.append(kvserve.render(platform.name, results))

    elif args.command == "explore":
        from repro.experiments import explore
        from repro.platform.generator import catalog_names

        if args.topology == "all":
            topologies = None
        elif args.topology in catalog_names():
            topologies = [args.topology]
        else:
            build_parser().error(
                f"unknown topology {args.topology!r} (choose from "
                f"{', '.join(catalog_names())}, all)"
            )
        routings = (
            explore.ROUTINGS if args.routing == "both" else (args.routing,)
        )
        workloads = (
            explore.WORKLOADS if args.workload == "both" else (args.workload,)
        )
        results = explore.run(
            topologies=topologies,
            routings=routings,
            workloads=workloads,
            seed=args.seed,
            packets_per_sender=args.packets,
            jobs=jobs,
        )
        out.append(explore.render(results))

    elif args.command == "trace":
        from repro.experiments import trace as trace_exp

        platforms = _platforms_for(args.platform)
        if args.out not in (None, "-") and len(platforms) > 1:
            build_parser().error(
                "--out names a single file; pick a single --platform"
            )
        for platform in platforms:
            results = trace_exp.run(
                platform, args.cell,
                seed=args.seed, samples=args.samples, jobs=jobs,
            )
            out.append(trace_exp.render(platform, args.cell, results))
            if args.out != "-":
                path = args.out or trace_exp.default_out_path(
                    args.cell, platform
                )
                text, events = trace_exp.export_json(results)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                out.append(f"wrote {path} ({events} trace events)")

    elif args.command == "devtree":
        from repro.telemetry.devtree import build_devtree, render_dts

        for platform in _platforms_for(args.platform):
            out.append(render_dts(build_devtree(platform)))

    elif args.command == "io-relay":
        from repro.io.relay import render as render_relay
        from repro.io.relay import sweep_designs

        for platform in _platforms_for(args.platform):
            out.append(render_relay(sweep_designs(platform)))

    elif args.command == "collective":
        from repro.analysis.report import render_table
        from repro.collective import Algorithm, allreduce_time_ns, crossover_bytes

        for platform in _platforms_for(args.platform):
            rows = [
                [
                    n,
                    *(
                        f"{allreduce_time_ns(platform, n, a) / 1e3:.1f}"
                        for a in Algorithm
                    ),
                ]
                for n in (256, 4096, 65536, 1 << 20, 16 << 20)
            ]
            out.append(render_table(
                ["bytes", "flat (us)", "tree (us)", "ring (us)"],
                rows, title=f"All-reduce across chiplets ({platform.name})",
            ))
            out.append(
                f"ring beats tree from {crossover_bytes(platform):.0f} bytes"
            )

    elif args.command == "noc-routing":
        from repro.experiments import noc_routing

        for platform in _platforms_for(args.platform):
            results = {
                lanes: noc_routing.run(platform, lanes_per_sender=lanes)
                for lanes in (1, 4, 8)
            }
            out.append(noc_routing.render(results))

    elif args.command == "all":
        from repro.experiments.summary import reproduce_all

        out.append(reproduce_all(quality=args.quality, seed=args.seed, jobs=jobs))

    elif args.command == "patterns":
        from repro.experiments import patterns
        from repro.runner import platform_map

        results = platform_map(
            patterns.run, _platforms_for(args.platform), jobs=jobs,
            seed=args.seed,
        )
        out.append(patterns.render(results))

    elif args.command == "submit":
        from repro.errors import ConfigurationError as _ConfigError
        from repro.errors import ServiceError
        from repro.service import submit_or_local

        for platform_name in _platform_names_for(args.platform):
            spec = _submit_spec(args, platform_name)
            try:
                outcome = submit_or_local(
                    spec,
                    socket_path=args.socket,
                    priority=args.priority,
                    client=args.client,
                    jobs=jobs,
                    timeout_s=args.timeout,
                    retries=args.retries,
                    prefer_local=args.local,
                )
            except _ConfigError as error:
                build_parser().error(str(error))
            except ServiceError as error:
                hint = (
                    f" (retry in {error.retry_after_s:.1f}s)"
                    if error.retry_after_s is not None else ""
                )
                print(
                    f"[repro] submit rejected: {error}{hint}",
                    file=sys.stderr,
                )
                return 1
            out.append(outcome.render())
            where = (
                f"job {outcome.job_id} (served)"
                if outcome.served else "local"
            )
            print(
                f"[repro] submit {platform_name}: {where} "
                f"cells={len(outcome.results)} hits={outcome.hits} "
                f"deduped={outcome.deduped} failures={outcome.failures}",
                file=sys.stderr,
            )

    elif args.command == "core-to-core":
        from repro.core.coretocore import measure_matrix

        for platform in _platforms_for(args.platform):
            sample = sorted(
                {platform.cores_of_ccx(ccx_id)[0].core_id
                 for ccx_id in platform.ccxs}
            )[:12]
            matrix = measure_matrix(platform, core_ids=sample)
            out.append(
                f"core-to-core handoff latency (ns), {platform.name} "
                f"(one core per CCX):\n" + matrix.heatmap()
            )

    elapsed = time.perf_counter() - started
    # Persist this run's cache hit/miss deltas so `repro cache stats`
    # reports accounting across processes, not just the live one.
    from repro.cache import default_cache

    run_cache = default_cache()
    if run_cache is not None:
        run_cache.record_run(args.command)
    try:
        print("\n\n".join(out))
    except BrokenPipeError:
        # Downstream pager/head closed early — not an error.
        return 0
    from repro.runner import resolve_jobs

    print(
        f"[repro] {args.command}: {elapsed:.2f}s (jobs={resolve_jobs(jobs)})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
