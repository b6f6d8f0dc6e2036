"""What each workload runs: command lines, service specs and client loops.

Shared by the end-to-end runs in ``run.py`` (the program as subprocesses)
and the in-process passes in ``inproc.py`` (traced run and its untraced
reference), so both measure the same work.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from checks import Checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("paper-all", "kvserve", "service")

#: Open-loop kvstore load: requests per (tier, background) arm and rate.
KV_REQUESTS = 2_000_000
KV_QPS = 2_000_000.0

#: Service clients, each a closed loop on its own connection.
CLIENTS = 2

#: Warm re-runs per cold run (CLI) and warm passes per daemon session:
#: warm runs are short, so several per cold one keep their median steady.
WARM_REPEATS = 2

#: Interpreter knobs dropped from every measured process, besides every
#: ``REPRO_*`` variable (process-global switches that would otherwise
#: decide what is measured).
_DROP = ("PYTHONDONTWRITEBYTECODE", "PYTHONPROFILEIMPORTTIME", "PYTHONSTARTUP")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def hermetic_env(tmp: str) -> Dict[str, str]:
    """The environment every measured process runs under.

    A fresh cache directory under ``tmp``, the numpy fluid backend picked
    by ``auto``, no sharded DES, no recovery layer, and the checkout's own
    ``src`` on the path.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key not in _DROP
    }
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE"] = "1"
    env["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
    env["REPRO_FLUID_BACKEND"] = "auto"
    env["REPRO_SOCKET"] = os.path.join(tmp, "unused.sock")
    return env


def make_hermetic(tmp: str) -> None:
    """Apply :func:`hermetic_env` to this process before importing repro."""
    env = hermetic_env(tmp)
    for key in list(os.environ):
        if key not in env:
            del os.environ[key]
    os.environ.update(env)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def cli_argv(workload: str, seed: int, jobs: int) -> List[str]:
    """``repro`` arguments of a CLI workload (without the program name)."""
    if workload == "paper-all":
        return ["all", "--jobs", str(jobs), "--seed", str(seed)]
    if workload == "kvserve":
        return [
            "kvstore", "--platform", "9634", "--requests", str(KV_REQUESTS),
            "--qps", str(int(KV_QPS)), "--jobs", str(jobs), "--seed", str(seed),
        ]
    raise ValueError(f"{workload!r} is not a CLI workload")


#: Presets whose construction is part of each workload's set-up.
SETUP_PRESETS = {
    "paper-all": ("epyc_7302", "epyc_9634"),
    "kvserve": ("epyc_9634",),
}


def setup_code(workload: str) -> str:
    presets = SETUP_PRESETS[workload]
    return (
        "import repro.cli\n"
        f"from repro.platform.presets import {', '.join(presets)}\n"
        + "".join(f"{name}()\n" for name in presets)
    )


def service_plan(seed: int) -> List[List[Dict[str, Any]]]:
    """Each client's spec list: every served kind, both presets, two seeds.

    The two clients ask for the same kinds on opposite presets, so their
    jobs are of similar size and each waits behind the other's.
    """
    plan = []
    for client in range(CLIENTS):
        mine, other = ("7302", "9634") if client == 0 else ("9634", "7302")
        a, b = 4 * seed + 2 * client, 4 * seed + 2 * client + 1
        plan.append([
            {"kind": "netstack", "platform": mine, "seed": a,
             "params": {"transactions_per_core": 200 if mine == "7302" else 100}},
            {"kind": "chaos", "platform": mine, "seed": a,
             "params": {"transactions_per_core": 100 if mine == "7302" else 60}},
            {"kind": "kvstore", "platform": "9634", "seed": a,
             "params": {"requests": 300_000}},
            {"kind": "explore", "platform": mine, "seed": a,
             "params": {"packets_per_sender": 60}},
            {"kind": "netstack", "platform": other, "seed": b,
             "params": {"transactions_per_core": 200 if other == "7302" else 100}},
            {"kind": "chaos", "platform": other, "seed": b,
             "params": {"transactions_per_core": 100 if other == "7302" else 60}},
            {"kind": "kvstore", "platform": "7302", "seed": b,
             "params": {"requests": 300_000}},
        ])
    return plan


def run_clients(
    socket_path: str,
    plan: List[List[Dict[str, Any]]],
    on_warm: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """Drive one service session: every client's cold pass, then warm ones.

    Each client thread owns one connection and runs a closed loop: submit,
    wait for ``done``, submit the next. A barrier separates the passes, so
    a warm pass starts only after every job of the pass before has
    finished. There are :data:`WARM_REPEATS` warm passes. Returns per-job
    records and each warm pass's wall time.
    """
    from repro.service import ServiceClient

    marks: List[float] = []

    def start_warm_pass() -> None:
        if on_warm is not None and not marks:
            on_warm()
        marks.append(time.perf_counter())

    barrier = threading.Barrier(len(plan), action=start_warm_pass)
    records: List[Dict[str, Any]] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    phases = ["cold"] + ["warm"] * WARM_REPEATS

    def client_loop(index: int, specs: List[Dict[str, Any]]) -> None:
        try:
            with ServiceClient(socket_path, client=f"bench-{index}") as client:
                for phase in phases:
                    if phase == "warm":
                        barrier.wait(timeout=120)
                    for position, spec in enumerate(specs):
                        first: List[float] = []

                        def on_event(frame: Dict[str, Any]) -> None:
                            if frame.get("event") == "cell" and not first:
                                first.append(time.perf_counter())

                        submitted = time.perf_counter()
                        outcome = client.submit(spec, on_event=on_event)
                        done = time.perf_counter()
                        with lock:
                            records.append({
                                "client": index,
                                "position": position,
                                "phase": phase,
                                "kind": spec["kind"],
                                "status": outcome.status,
                                "cells": len(outcome.results),
                                "hits": outcome.hits,
                                "failures": outcome.failures,
                                "first_result_s": (first[0] if first else done)
                                - submitted,
                                "job_s": done - submitted,
                                "render": outcome.render(),
                            })
        except BaseException as error:  # noqa: BLE001 — reported by the caller
            errors.append(error)
            barrier.abort()

    threads = [
        threading.Thread(target=client_loop, args=(i, specs), name=f"bench-client-{i}")
        for i, specs in enumerate(plan)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    ended = time.perf_counter()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("service clients did not finish in time")
    if errors:
        raise errors[0]
    ends = marks[1:] + [ended]
    return {
        "records": records,
        "warm_walls_s": [end - start for start, end in zip(marks, ends)],
    }


def check_service(records: List[Dict[str, Any]], checks: Checks) -> None:
    """Every job done with no failures; warm pass all hits, same bytes."""
    cold = {
        (r["client"], r["position"]): r for r in records if r["phase"] == "cold"
    }
    for record in records:
        label = f"service client {record['client']} job {record['position']} " \
                f"({record['kind']}, {record['phase']})"
        checks.check(
            record["status"] == "done" and record["failures"] == 0,
            f"{label}: done without failures",
        )
        if record["phase"] == "warm":
            checks.check(
                record["hits"] == record["cells"], f"{label}: all cache hits"
            )
            twin = cold.get((record["client"], record["position"]))
            checks.check(
                twin is not None and twin["render"] == record["render"],
                f"{label}: warm render byte-equal to cold",
            )
