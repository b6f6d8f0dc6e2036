"""One in-process pass of a workload, traced or not.

The traced run (``run.py --trace 1``) calls :func:`run_pass` with a
:class:`layers.Tracer` in the benchmark's own process, with cells run
in-process (``--jobs 1``), so every wrapped call lands where the tracer
sees it. Its untraced reference is the same pass in a fresh process::

    python3 perfbench/inproc.py --workload paper-all --seed 0 --tmp DIR

which prints one JSON line; the wall-time difference between the two is
the tracing overhead. A pass is a cold run into an empty cache and a warm
re-run against it (for ``service``: one daemon session, both passes).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from typing import Any, Dict, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import cli_argv, make_hermetic, run_clients, service_plan  # noqa: E402

JOBS = 1


def _cli(argv) -> str:
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue()


def run_pass(workload: str, seed: int, tmp: str, tracer: Optional[Any] = None) -> Dict[str, Any]:
    """Import, then a cold and a warm pass of ``workload`` in this process.

    ``tmp`` holds the pass's cache (and the service's socket and
    artifacts); the process environment is made hermetic first.
    """
    os.makedirs(tmp, exist_ok=True)
    make_hermetic(tmp)
    started = time.perf_counter()
    import repro.cli  # noqa: F401 — the import is what is timed

    import_s = time.perf_counter() - started
    if tracer is not None:
        tracer.install()
    result: Dict[str, Any] = {"import_s": import_s}
    started = time.perf_counter()
    if workload in ("paper-all", "kvserve"):
        argv = cli_argv(workload, seed, JOBS)
        result["cold_out"] = _cli(argv)
        if tracer is not None:
            tracer.phase = "warm"
        result["warm_out"] = _cli(argv)
        result["pass_wall_s"] = time.perf_counter() - started
        return result

    from repro.cache import ResultCache
    from repro.service.server import ServiceThread

    socket_path = os.path.relpath(os.path.join(tmp, "s.sock"))

    def on_warm() -> None:
        if tracer is not None:
            tracer.phase = "warm"

    with ServiceThread(
        socket_path,
        jobs=JOBS,
        cache=ResultCache(os.path.join(tmp, "cache")),
        artifacts_dir=os.path.join(tmp, "artifacts"),
    ):
        session = run_clients(socket_path, service_plan(seed), on_warm=on_warm)
    result["pass_wall_s"] = time.perf_counter() - started
    result["records"] = session["records"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.tmp)
    print(json.dumps({
        key: result[key] for key in ("import_s", "pass_wall_s")
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
