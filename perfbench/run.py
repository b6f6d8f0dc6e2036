"""The repo benchmark: three workloads run against the CLI and the service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-all --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the workload as a user would (subprocesses of the
``repro`` CLI and daemon, ``--jobs`` = nproc) again and again for
``--seconds`` seconds and reports the end-to-end metrics as medians.
``--trace 1`` instead runs one in-process pass with every layer wrapped
(see ``layers.py``) and reports the per-layer metrics and the tracing
overhead. Either way the program's outputs are checked, each check
counting as one operation, and the last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

All times are host time. A run record (samples, artifact sha256, check
failures, and for traced runs the spans) is written under
``.perfbench-out/``. See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as chk  # noqa: E402
from layers import METRICS as PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    KV_QPS,
    KV_REQUESTS,
    ROOT,
    SRC,
    WARM_REPEATS,
    WORKLOADS,
    check_service,
    cli_argv,
    hermetic_env,
    make_hermetic,
    nproc,
    run_clients,
    service_plan,
    setup_code,
)

#: Fewest timed set-ups per CLI run: one per iteration, topped up to this.
#: One untimed set-up first fills the bytecode cache (a user pays that
#: once, not per command).
MIN_SETUP_SAMPLES = 5
#: Worst wall time of any one measured process before it is killed.
PROCESS_TIMEOUT_S = 150.0
#: paper_err above this fails the fidelity check. The model reads
#: 0.04-0.09 across seeds, so only a real loss of fidelity trips it.
PAPER_ERR_CEILING = 0.15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "warm_wall_s": "s",
    "peak_rss_mb": "MB",
}


# ------------------------------------------------------------- processes


class Measured:
    """One spawned process whose wall, CPU and peak RSS are measured.

    ``os.wait4`` returns the child's resource usage including every
    descendant it reaped (the runner's pool workers), so CPU is summed
    over the tree and ``ru_maxrss`` is its largest resident set.
    """

    def __init__(self, argv: List[str], env: Dict[str, str], tmp: str) -> None:
        self._out = tempfile.TemporaryFile(dir=tmp)
        self._err = tempfile.TemporaryFile(dir=tmp)
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, stdout=self._out, stderr=self._err, env=env, cwd=ROOT
        )
        self.result: Optional[Dict[str, Any]] = None

    def _reaped(self, status: int, usage: Any) -> Dict[str, Any]:
        wall = time.perf_counter() - self.started
        self.process.returncode = os.waitstatus_to_exitcode(status)
        with self._out, self._err:
            self._out.seek(0)
            self._err.seek(0)
            self.result = {
                "code": self.process.returncode,
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": self._out.read(),
                "stderr": self._err.read().decode("utf-8", "replace"),
            }
        return self.result

    def exited(self) -> bool:
        """Has the process ended (reaping it if so)? Never blocks."""
        if self.result is None:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                self._reaped(status, usage)
        return self.result is not None

    def wait(self, timeout_s: float = PROCESS_TIMEOUT_S) -> Dict[str, Any]:
        """Block until the process ends; kill it after ``timeout_s``."""
        if self.result is not None:
            return self.result
        previous = signal.signal(signal.SIGALRM, lambda *__: self.process.kill())
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            __, status, usage = os.wait4(self.process.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return self._reaped(status, usage)


def run_measured(argv: List[str], env: Dict[str, str], tmp: str) -> Dict[str, Any]:
    """Run one process to its end (see :class:`Measured`)."""
    return Measured(argv, env, tmp).wait()


class Window:
    """The measuring window: repeat while another repetition still fits.

    A repetition starts only if the median repetition so far would end
    before ``seconds`` have passed, so a run measures for about
    ``seconds`` and never overshoots by a whole repetition. There is
    always at least one.
    """

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds
        self.durations: List[float] = []
        self._started: Optional[float] = None

    def another(self) -> bool:
        now = time.perf_counter()
        if self._started is not None:
            self.durations.append(now - self._started)
            if now + statistics.median(self.durations) > self.deadline:
                return False
        self._started = now
        return True


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------- CLI workloads


def measure_setup(workload: str, tmp: str) -> float:
    """Spawn to exit of a fresh interpreter doing the workload's set-up."""
    run = run_measured([sys.executable, "-c", setup_code(workload)], hermetic_env(tmp), tmp)
    if run["code"] != 0:
        raise RuntimeError(f"set-up failed: {run['stderr']}")
    return run["wall_s"]


def measure_cli(workload: str, seed: int, seconds: float, tmp: str, checks: chk.Checks) -> Dict[str, Any]:
    """Cold run into an empty cache, then warm re-runs against it; repeated."""
    jobs = nproc()
    argv = [sys.executable, "-m", "repro"] + cli_argv(workload, seed, jobs)
    measure_setup(workload, tmp)  # untimed: fills the bytecode cache
    samples: Dict[str, List[float]] = {k: [] for k in END_TO_END}
    artifact: Optional[bytes] = None
    extra: Dict[str, Any] = {}
    window = Window(seconds)
    iteration = 0
    while window.another():
        # Set-up samples interleave with the runs, so that each median
        # covers the whole measuring window, not a burst at its start.
        samples["setup_s"].append(measure_setup(workload, tmp))
        scratch = os.path.join(tmp, f"iter-{iteration}")
        os.makedirs(scratch)
        env = hermetic_env(scratch)
        cold = run_measured(argv, env, scratch)
        warms = [run_measured(argv, env, scratch) for __ in range(WARM_REPEATS)]
        shutil.rmtree(scratch)
        label = f"{workload} iteration {iteration}"
        for run in [cold] + warms:
            if run["code"] != 0:
                raise RuntimeError(f"{label}: exit {run['code']}: {run['stderr'][-2000:]}")
        for warm in warms:
            checks.check(warm["stdout"] == cold["stdout"], f"{label}: warm output byte-equal to cold")
        if artifact is None:
            artifact = cold["stdout"]
            text = artifact.decode("utf-8")
            if workload == "paper-all":
                chk.check_paper_all(text, checks)
                extra["paper_err"] = chk.paper_err(text)
                checks.check(
                    extra["paper_err"] <= PAPER_ERR_CEILING,
                    f"paper_err {extra['paper_err']:.4f} <= {PAPER_ERR_CEILING}",
                )
            else:
                chk.check_kvserve(text, KV_REQUESTS, KV_QPS, checks)
        else:
            checks.check(cold["stdout"] == artifact, f"{label}: output identical across iterations")
        samples["wall_s"].append(cold["wall_s"])
        samples["cpu_s"].append(cold["cpu_s"])
        samples["warm_wall_s"].extend(warm["wall_s"] for warm in warms)
        samples["peak_rss_mb"].append(max(run["rss_mb"] for run in [cold] + warms))
        iteration += 1
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        samples["setup_s"].append(measure_setup(workload, tmp))
    extra["artifact_sha256"] = _sha(artifact)
    return {"samples": samples, "extra": extra}


# ------------------------------------------------------- service workload


def _session(seed: int, jobs: int, tmp: str, checks: chk.Checks, index: int) -> Dict[str, Any]:
    """One daemon: spawn, first ping, both client passes, shutdown."""
    from repro.errors import ServiceError
    from repro.service import ServiceClient, server_available

    scratch = os.path.join(tmp, f"session-{index}")
    os.makedirs(scratch)
    env = hermetic_env(scratch)
    socket_path = os.path.relpath(os.path.join(scratch, "s.sock"), ROOT)
    argv = [
        sys.executable, "-m", "repro", "serve", "--jobs", str(jobs),
        "--socket", socket_path, "--artifacts-dir", os.path.join(scratch, "artifacts"),
    ]
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    daemon = Measured(argv, env, scratch)
    started = daemon.started
    try:
        while not server_available(socket_path):
            if daemon.exited():
                raise RuntimeError(f"daemon exited early: {daemon.result['stderr'][-2000:]}")
            if time.perf_counter() - started > 60:
                raise RuntimeError("daemon did not answer a ping within 60 s")
            time.sleep(0.002)
        setup = time.perf_counter() - started
        session = run_clients(socket_path, service_plan(seed))
    finally:
        if not daemon.exited():
            try:
                with ServiceClient(socket_path) as client:
                    client.shutdown()
            except (OSError, ServiceError):
                daemon.process.kill()
        result = daemon.wait()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    label = f"service session {index}"
    checks.check(result["code"] == 0, f"{label}: daemon exit 0")
    checks.check(not os.path.exists(os.path.join(ROOT, socket_path)), f"{label}: socket unlinked")
    check_service(session["records"], checks)
    shutil.rmtree(scratch)
    own_cpu = (self_after.ru_utime - self_before.ru_utime) + (self_after.ru_stime - self_before.ru_stime)
    return {
        "setup_s": setup,
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"] + own_cpu,
        "warm_walls_s": session["warm_walls_s"],
        "peak_rss_mb": result["rss_mb"],
        "records": session["records"],
    }


def measure_service(seed: int, seconds: float, tmp: str, checks: chk.Checks) -> Dict[str, Any]:
    """Daemon sessions until ``seconds`` pass; latencies pooled over all."""
    jobs = nproc()
    # Fill the bytecode cache before the first timed spawn.
    warmup = run_measured([sys.executable, "-c", "import repro.cli"], hermetic_env(tmp), tmp)
    if warmup["code"] != 0:
        raise RuntimeError(f"import failed: {warmup['stderr']}")
    samples: Dict[str, List[float]] = {k: [] for k in END_TO_END}
    cold_first: List[float] = []
    cold_job: List[float] = []
    warm_job: List[float] = []
    artifact: Optional[bytes] = None
    window = Window(seconds)
    index = 0
    while window.another():
        session = _session(seed, jobs, tmp, checks, index)
        for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
            samples[key].append(session[key])
        samples["warm_wall_s"].extend(session["warm_walls_s"])
        records = sorted(session["records"], key=lambda r: (r["phase"], r["client"], r["position"]))
        for record in records:
            if record["phase"] == "cold":
                cold_first.append(record["first_result_s"])
                cold_job.append(record["job_s"])
            else:
                warm_job.append(record["job_s"])
        rendered = "\n".join(r["render"] for r in records if r["phase"] == "cold").encode()
        if artifact is None:
            artifact = rendered
        else:
            checks.check(rendered == artifact, f"service session {index}: output identical across sessions")
        index += 1
    tail_q, tail = chk.tail_percentile(cold_first)
    extra = {
        "artifact_sha256": _sha(artifact),
        "first_result_p50_s": statistics.median(cold_first),
        "first_result_tail_s": tail,
        "first_result_tail_percentile": tail_q,
        "first_result_samples": len(cold_first),
        "job_p50_s": statistics.median(cold_job),
        "warm_job_p50_s": statistics.median(warm_job),
        "jobs_per_session": len(cold_job) // index,
    }
    return {"samples": samples, "extra": extra}


# ------------------------------------------------------------ traced run


def traced(workload: str, seed: int, tmp: str, checks: chk.Checks) -> Dict[str, Any]:
    """Untraced reference pass in a fresh process, then the traced pass here."""
    from inproc import run_pass
    from layers import Tracer

    reference_tmp = os.path.join(tmp, "reference")
    os.makedirs(reference_tmp)
    reference = run_measured(
        [sys.executable, os.path.join(ROOT, "perfbench", "inproc.py"),
         "--workload", workload, "--seed", str(seed), "--tmp", reference_tmp],
        hermetic_env(reference_tmp), reference_tmp,
    )
    if reference["code"] != 0:
        raise RuntimeError(f"untraced reference failed: {reference['stderr'][-2000:]}")
    untraced_wall = json.loads(reference["stdout"].decode().strip().splitlines()[-1])["pass_wall_s"]

    tracer = Tracer()
    result = run_pass(workload, seed, os.path.join(tmp, "traced"), tracer=tracer)
    if workload == "service":
        check_service(result["records"], checks)
        cold = sorted((r for r in result["records"] if r["phase"] == "cold"),
                      key=lambda r: (r["client"], r["position"]))
        artifact = "\n".join(r["render"] for r in cold).encode()
    else:
        checks.check(result["warm_out"] == result["cold_out"], f"{workload} traced: warm output byte-equal to cold")
        artifact = result["cold_out"].encode()
        if workload == "paper-all":
            chk.check_paper_all(result["cold_out"], checks)
        else:
            chk.check_kvserve(result["cold_out"], KV_REQUESTS, KV_QPS, checks)
    metrics = tracer.metrics()
    metrics["cli.import_s"] = result["import_s"]
    metrics["trace.traced_wall_s"] = result["pass_wall_s"]
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = result["pass_wall_s"] / untraced_wall - 1.0
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    tracer.dump(spans_path)
    return {
        "metrics": metrics,
        "extra": {
            "artifact_sha256": _sha(artifact),
            "spans_file": os.path.relpath(spans_path, ROOT),
        },
    }


# ------------------------------------------------------------------ main


def main() -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    base_tmp = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(base_tmp, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=base_tmp)
    checks = chk.Checks()
    try:
        make_hermetic(tmp)
        if args.trace:
            outcome = traced(args.workload, args.seed, tmp, checks)
            metrics = {
                name: {"value": float(outcome["metrics"][name]), "unit": unit}
                for name, unit in PER_LAYER
            }
        else:
            if args.workload == "service":
                outcome = measure_service(args.seed, args.seconds, tmp, checks)
            else:
                outcome = measure_cli(args.workload, args.seed, args.seconds, tmp, checks)
            samples = outcome["samples"]
            metrics = {
                name: {"value": statistics.median(samples[name]), "unit": unit}
                for name, unit in END_TO_END.items()
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    extra = outcome["extra"]
    for name, metric in metrics.items():
        print(f"perfbench: {args.workload} seed={args.seed} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in extra.items():
        print(f"perfbench: {args.workload} seed={args.seed} {name} = {value}")
    for failure in checks.failures:
        print(f"perfbench: CHECK FAILED: {failure}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": metrics,
        "extra": extra,
        "samples": outcome.get("samples"),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
    }
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
