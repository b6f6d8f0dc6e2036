"""Golden snapshots of paper-cell outputs, pinned as committed JSON.

Each golden freezes a reduced-size run of one artifact cell — the Table 2
column, the Figure 3 sweeps at ``repro all``'s quick quality (the rendered
table byte for byte, plus every point's statistics), the Figure 4
partitioning cases, the Figure 4–6 style netstack
contention cell (both backends), and the per-hop trace breakdown — so an
unintended change to any simulated number shows up as a diff against a
reviewed file, not as silent drift.

Refresh intentionally with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

Floats are compared with ``rel=1e-9`` (``abs=1e-12``): tight enough that
any model change trips, loose enough to survive JSON round-tripping.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Reduced sample counts: goldens must be cheap enough for tier-1.
_TABLE2_ITERATIONS = 300
_NETSTACK_TXNS = 60
_TRACE_TXNS = 20
_RECOVERY_TXNS = 600


def _check(name: str, payload, update: bool) -> None:
    """Compare ``payload`` against the committed golden (or rewrite it)."""
    path = GOLDEN_DIR / f"{name}.json"
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip(f"updated {path.name}")
    if not path.exists():
        pytest.fail(
            f"missing golden {path.name}; create it with --update-goldens"
        )
    expected = json.loads(path.read_text())
    mismatches: list = []
    _compare(expected, json.loads(text), name, mismatches)
    assert not mismatches, (
        f"{len(mismatches)} mismatch(es) vs {path.name} "
        f"(refresh intentionally with --update-goldens):\n"
        + "\n".join(mismatches[:20])
    )


def _compare(expected, actual, where: str, out: list) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            out.append(
                f"{where}: keys {sorted(expected)} != {sorted(actual)}"
            )
            return
        for key in expected:
            _compare(expected[key], actual[key], f"{where}.{key}", out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(
                f"{where}: length {len(expected)} != {len(actual)}"
            )
            return
        for index, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{where}[{index}]", out)
    elif isinstance(expected, float) or isinstance(actual, float):
        if expected is None or actual is None:
            if expected is not actual:
                out.append(f"{where}: {expected!r} != {actual!r}")
        elif not math.isclose(
            float(expected), float(actual), rel_tol=1e-9, abs_tol=1e-12
        ):
            out.append(f"{where}: {expected!r} != {actual!r}")
    elif expected != actual:
        out.append(f"{where}: {expected!r} != {actual!r}")


class TestGoldens:
    def test_table2_rows(self, platform, update_goldens):
        from repro.experiments import table2

        row = table2.run(platform, iterations=_TABLE2_ITERATIONS, seed=0)
        slug = platform.name.lower().replace(" ", "-")
        _check(f"table2-{slug}", dataclasses.asdict(row), update_goldens)

    def test_fig3_sweeps(self, platform, update_goldens):
        from repro.experiments import fig3
        from repro.experiments.summary import QUALITY_PRESETS

        __, transactions, fractions = QUALITY_PRESETS["quick"]
        sweeps = fig3.run_all(
            [platform], transactions_per_core=transactions,
            fractions=fractions, seed=0, jobs=1,
        )
        payload = {
            "render": fig3.render(sweeps),
            "points": [
                {
                    "panel": sweep.config.panel,
                    "op": sweep.op.value,
                    "offered_gbps": rate,
                    "achieved_gbps": result.achieved_gbps,
                    "stats": dataclasses.asdict(result.stats),
                }
                for sweep in sweeps
                for rate, result in zip(sweep.offered_gbps, sweep.results)
            ],
        }
        slug = platform.name.lower().replace(" ", "-")
        _check(f"fig3-{slug}", payload, update_goldens)

    def test_fig4_partitioning_cases(self, platform, update_goldens):
        from repro.experiments import fig4

        result = fig4.run(platform)
        payload = {
            link: {
                case: {
                    "requested": flows.requested,
                    "achieved": flows.achieved,
                    "capacity_gbps": flows.capacity_gbps,
                }
                for case, flows in cases.items()
            }
            for link, cases in result.outcomes.items()
        }
        slug = platform.name.lower().replace(" ", "-")
        _check(f"fig4-{slug}", payload, update_goldens)

    def test_netstack_contention_cell(self, p7302, update_goldens):
        from repro.experiments import netstack

        payload = {}
        for backend in netstack.BACKENDS:
            for arm in netstack.ARMS:
                point = netstack.run_point(
                    p7302, arm, backend,
                    transactions_per_core=_NETSTACK_TXNS,
                )
                payload[f"{backend}/{arm}"] = {
                    "victim_gbps": point.victim_gbps,
                    "hog_gbps": point.hog_gbps,
                    "victim_share": point.victim_share,
                    "jain": point.jain,
                    "p50_ns": None if math.isnan(point.p50_ns) else point.p50_ns,
                    "p99_ns": None if math.isnan(point.p99_ns) else point.p99_ns,
                }
        _check("netstack-epyc-7302", payload, update_goldens)

    def test_trace_per_hop_breakdown(self, p7302, update_goldens):
        from repro.experiments import netstack
        from repro.trace import assert_tiles, hop_stats, txn_latency_stats

        __, recording, __p = netstack.run_point_traced(
            p7302, "credits+qos", transactions_per_core=_TRACE_TXNS
        )
        txns = assert_tiles(recording)
        count, mean_ns = txn_latency_stats(recording)
        payload = {
            "transactions": txns,
            "sampled": count,
            "end_to_end_mean_ns": mean_ns,
            "hops": [
                {
                    "hop": stat.hop,
                    "count": stat.count,
                    "bytes_moved": stat.bytes_moved,
                    "total_ns": stat.total_ns,
                    "service_ns": stat.service_ns,
                }
                for stat in hop_stats(recording)
            ],
        }
        _check("trace-breakdown-epyc-7302", payload, update_goldens)

    def test_chaos_recovery_cells(self, p7302, update_goldens):
        from repro.experiments import chaos

        payload = {}
        for backend in ("fluid", "des"):
            for recover in (False, True):
                point = chaos.run_recovery_point(
                    p7302, backend, recover,
                    transactions_per_core=_RECOVERY_TXNS,
                )
                payload[f"{backend}/{'on' if recover else 'off'}"] = {
                    "pre_gbps": point.pre_gbps,
                    "post_gbps": point.post_gbps,
                    "recovered": point.recovered,
                    "detect_ns": (
                        None if math.isnan(point.detect_ns)
                        else point.detect_ns
                    ),
                    "reclaimed": point.reclaimed,
                    "retries": point.retries,
                    "failovers": point.failovers,
                }
        _check("chaos-recovery-epyc-7302", payload, update_goldens)
