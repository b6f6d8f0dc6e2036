"""`repro all` warm, and the CLI's import cost.

``bench_summary_warm`` regenerates the quick report once into a fresh
result cache, then times the warm re-run: every computed artifact is one
runner batch, so the warm run must execute no cell at all (Figure 6
included) and render the same bytes. ``bench_import_cli`` times
``import repro.cli`` in fresh interpreters and checks that it leaves
networkx unloaded. Both samples go to ``BENCH_results.json``.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro.cache as cache_module
import repro.runner as runner
from repro.cache import ResultCache
from repro.experiments import summary

from benchmarks.conftest import emit

_SRC = Path(__file__).resolve().parent.parent / "src"

#: Fresh interpreters timed per import sample (after one that fills the
#: bytecode cache); the median is recorded.
_IMPORT_ROUNDS = 5

_IMPORT_PROBE = (
    "import sys, time\n"
    "began = time.perf_counter()\n"
    "import repro.cli\n"
    "print(time.perf_counter() - began, 'networkx' in sys.modules)\n"
)


def bench_summary_warm(benchmark, tmp_path, monkeypatch, record_timing):
    """Warm `reproduce_all`: all cache hits, zero executed cells."""
    monkeypatch.setattr(cache_module, "_default", ResultCache(tmp_path))
    began = time.perf_counter()
    cold = summary.reproduce_all(quality="quick", seed=0, jobs=1)
    cold_s = time.perf_counter() - began

    executed = []
    original = runner._run_in_process

    def counting(cell, index, attempt):
        executed.append(cell)
        return original(cell, index, attempt)

    monkeypatch.setattr(runner, "_run_in_process", counting)
    warm = benchmark.pedantic(
        summary.reproduce_all,
        kwargs=dict(quality="quick", seed=0, jobs=1),
        rounds=1, iterations=1,
    )
    warm_s = benchmark.stats.stats.min
    emit(f"repro all quick: cold {cold_s:.3f} s, warm {warm_s:.3f} s")
    record_timing(
        "bench_summary_warm", warm_s, cold_s=cold_s,
        executed_cells=len(executed), quality="quick",
    )
    assert executed == []
    assert warm == cold


def _import_once() -> tuple:
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
    seconds, loaded = completed.stdout.split()
    return float(seconds), loaded == "True"


def bench_import_cli(benchmark, record_timing):
    """`import repro.cli` in a fresh interpreter; networkx stays unloaded."""
    _import_once()  # fill the bytecode cache
    samples = benchmark.pedantic(
        lambda: [_import_once() for _ in range(_IMPORT_ROUNDS)],
        rounds=1, iterations=1,
    )
    import_s = statistics.median(seconds for seconds, __ in samples)
    emit(f"import repro.cli: {import_s:.3f} s (median of {_IMPORT_ROUNDS})")
    record_timing(
        "bench_import_cli", import_s, rounds=_IMPORT_ROUNDS,
        networkx_loaded=any(loaded for __, loaded in samples),
    )
    assert not any(loaded for __, loaded in samples)
