"""Output checks and the fidelity figure for the benchmark's workloads.

Every check is one operation: :class:`Checks` counts attempts and
failures, so a workload reports ``failed`` against ``attempted`` instead
of a bare pass/fail. The parsers read the artifacts exactly as the CLI and
the service render them (``repro.analysis.report.render_table`` layout:
title line, header row, ``---+---`` rule, rows), so the checks exercise the
program's real output and nothing else.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

Table = Tuple[List[str], List[List[str]]]


class Checks:
    """Counts output checks; each ``check`` call is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(label)
        return ok


# ----------------------------------------------------------------- parsing


def parse_tables(text: str) -> Dict[str, Table]:
    """Every rendered table in ``text``, keyed by its title line."""
    lines = text.splitlines()
    tables: Dict[str, Table] = {}
    for i in range(1, len(lines) - 1):
        rule = lines[i + 1]
        if not rule or set(rule) - set("-+"):
            continue
        title = lines[i - 1].strip()
        headers = [cell.strip() for cell in lines[i].split("|")]
        rows = []
        for line in lines[i + 2:]:
            if "|" not in line:
                break
            rows.append([cell.strip() for cell in line.split("|")])
        tables[title] = (headers, rows)
    return tables


def find_table(tables: Dict[str, Table], prefix: str) -> Table:
    for title, table in tables.items():
        if title.startswith(prefix):
            return table
    raise KeyError(f"no table titled {prefix!r}")


def _num(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def _pair(cell: str) -> Optional[Tuple[float, float]]:
    parts = cell.split("/")
    if len(parts) != 2:
        return None
    read, write = _num(parts[0]), _num(parts[1])
    if read is None or write is None:
        return None
    return read, write


# ------------------------------------------------------------ paper-all


def _fig3_points(tables: Dict[str, Table]) -> Dict[Tuple[str, str], List[dict]]:
    """Fig. 3 rows grouped by (panel, op), in offered-load order."""
    headers, rows = find_table(tables, "Figure 3")
    col = {name: headers.index(name) for name in headers}
    panels: Dict[Tuple[str, str], List[dict]] = {}
    for row in rows:
        panels.setdefault((row[col["panel"]], row[col["op"]]), []).append({
            "offered": row[col["offered GB/s"]],
            "avg": float(row[col["avg ns"]]),
            "p999": float(row[col["P999 ns"]]),
        })
    return panels


def load_paper_reference() -> dict:
    with open(os.path.join(HERE, "paper_reference.json"), encoding="utf-8") as f:
        return json.load(f)


def paper_error_points(text: str) -> List[Tuple[str, float, float]]:
    """(label, simulated, paper) for every paper value the report can meet.

    Table 2 and Table 3 print the paper's values beside the simulated
    ones; the Figure 3 endpoints (lowest offered load and unthrottled
    ``max``) come from ``paper_reference.json``, copied from the repo's
    EXPERIMENTS.md. Ratios there are peak/base rises.
    """
    tables = parse_tables(text)
    points: List[Tuple[str, float, float]] = []
    headers, rows = find_table(tables, "Table 2")
    for row in rows:
        for j, name in enumerate(headers):
            if name.endswith("(sim)"):
                paper_name = name.replace("(sim)", "(paper)")
                sim, paper = _num(row[j]), _num(row[headers.index(paper_name)])
                if sim is not None and paper:
                    points.append((f"table2 {row[0]} {name}", sim, paper))
    headers, rows = find_table(tables, "Table 3")
    for row in rows:
        for j, name in enumerate(headers):
            if name.endswith(" sim"):
                sim = _pair(row[j])
                paper = _pair(row[headers.index(name[:-4] + " paper")])
                if sim is None or paper is None:
                    continue
                for k, op in enumerate(("read", "write")):
                    points.append(
                        (f"table3 {row[0]} {name} {op}", sim[k], paper[k])
                    )
    panels = _fig3_points(tables)
    for ref in load_paper_reference()["fig3"]:
        rows3 = panels[(ref["panel"], ref["op"])]
        base, peak = rows3[0], rows3[-1]
        sim = {
            "base_avg": base["avg"], "base_p999": base["p999"],
            "peak_avg": peak["avg"], "peak_p999": peak["p999"],
            "rise_avg": peak["avg"] / base["avg"],
            "rise_p999": peak["p999"] / base["p999"],
        }
        for field, paper in ref["paper"].items():
            points.append(
                (f"fig3 {ref['panel']} {ref['op']} {field}", sim[field], paper)
            )
    return points


def paper_err(text: str) -> float:
    """Mean absolute relative error of the report against the paper."""
    points = paper_error_points(text)
    return statistics.fmean(abs(sim - paper) / paper for __, sim, paper in points)


def check_paper_all(text: str, checks: Checks) -> None:
    """The EXPERIMENTS.md shape criteria, one operation each."""
    tables = parse_tables(text)
    headers, rows = find_table(tables, "Table 2")
    by_row = {row[0]: row for row in rows}
    for j, name in enumerate(headers):
        if not name.endswith("(sim)"):
            continue
        value = {key: _num(row[j]) for key, row in by_row.items()}
        checks.check(
            value["L1"] < value["L2"] < value["L3"] < value["DRAM near"],
            f"table2 {name}: L1<L2<L3<DRAM",
        )
        checks.check(
            value["DRAM near"] < value["DRAM vertical"] < value["DRAM horizontal"],
            f"table2 {name}: near<vertical<horizontal",
        )
    headers, rows = find_table(tables, "Table 3")
    by_scope = {row[0]: row for row in rows}
    for j, name in enumerate(headers):
        if not name.endswith(" sim"):
            continue
        scopes = [
            _pair(by_scope[f"From {scope}"][j])
            for scope in ("CORE", "CCX", "CCD", "CPU")
        ]
        for k, op in enumerate(("read", "write")):
            core, ccx, ccd, cpu = (pair[k] for pair in scopes)
            checks.check(
                core < ccx <= ccd < cpu, f"table3 {name} {op}: core<CCX<=CCD<CPU"
            )
    panels = _fig3_points(tables)
    for (panel, op), points in panels.items():
        rise = points[-1]["avg"] / points[0]["avg"]
        if panel.startswith(("(a)", "(c)")):
            checks.check(rise < 1.05, f"fig3 {panel} {op}: 7302 IF flat ({rise:.2f}x)")
        elif panel.startswith("(b)"):
            checks.check(rise > 1.5, f"fig3 {panel} {op}: 9634 IF rises ({rise:.2f}x)")
        for point in points:
            checks.check(
                point["p999"] > point["avg"],
                f"fig3 {panel} {op} {point['offered']}: P999>avg",
            )
    headers, rows = find_table(tables, "Figure 4")
    col = {name: headers.index(name) for name in headers}
    for row in rows:
        if row[col["case"]] != "case4-unequal-demands":
            continue
        wins = (
            float(row[col["req f1"]]) > float(row[col["req f0"]])
            and float(row[col["got f1"]]) > float(row[col["got f0"]])
        )
        checks.check(
            wins,
            f"fig4 {row[col['platform']]} {row[col['link']]}: case 4 favours "
            "the higher demand",
        )


# ---------------------------------------------------------------- kvserve


def check_kvserve(
    text: str, requests: int, qps: float, checks: Checks
) -> Dict[Tuple[str, str], float]:
    """Served count, offered rate and the p99 orderings; returns p99s."""
    headers, rows = find_table(parse_tables(text), "Open-loop kvstore")
    col = {name: headers.index(name) for name in headers}
    p99: Dict[Tuple[str, str], float] = {}
    for row in rows:
        arm = f"{row[col['tier']]}/{row[col['background']]}"
        checks.check(
            int(row[col["requests"]]) == requests, f"kvserve {arm}: served"
        )
        achieved = float(row[col["achieved qps"]])
        checks.check(
            abs(achieved - qps) <= 0.01 * qps,
            f"kvserve {arm}: achieved {achieved:.0f} qps within 1% of {qps:.0f}",
        )
        p99[(row[col["tier"]], row[col["background"]])] = float(row[col["p99 ns"]])
    for background in ("off", "hog", "qos"):
        checks.check(
            p99[("dram", background)] < p99[("cxl", background)],
            f"kvserve {background}: p99 dram<cxl",
        )
    for tier in ("dram", "cxl"):
        off, hog, qos = (p99[(tier, bg)] for bg in ("off", "hog", "qos"))
        checks.check(off < hog, f"kvserve {tier}: p99 off<hog")
        checks.check(
            abs(qos - off) <= 0.02 * off, f"kvserve {tier}: p99 qos~off"
        )
    return p99


# ----------------------------------------------------------------- stats


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """(q, value): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples there is no such percentile and the median
    is returned as ``(50.0, median)``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return 50.0, statistics.median(ordered)
    index = n - 11
    q = 100.0 * (index + 1) / n
    return q, ordered[index]
