"""One-call reproduction: every paper artifact in a single report.

``reproduce_all`` is the "run everything" entry point a new user reaches
for first: it regenerates Tables 1-3 and Figures 3-6 (plus the headline
ablations) and concatenates the paper-style renderings. Two quality levels
trade DES sample counts for wall-clock time.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError
from repro.platform.presets import epyc_7302, epyc_9634

__all__ = ["QUALITY_PRESETS", "reproduce_all"]

#: (pointer-chase iterations, DES transactions/core, fig3 load fractions).
QUALITY_PRESETS: Dict[str, tuple] = {
    "quick": (600, 300, (0.3, 0.8)),
    "full": (2500, 1500, (0.2, 0.4, 0.6, 0.8, 0.9)),
}


def reproduce_all(quality: str = "quick", seed: int = 0, jobs=None) -> str:
    """Regenerate every table and figure; returns the combined report.

    Every computed artifact's cells run as **one** runner batch (see
    :mod:`repro.runner`), so ``jobs`` workers share the whole report's
    work and the result cache serves all of it on a re-run. Each cell is
    the one its own subcommand submits for the same parameters, so the
    two share cache entries. The report is byte-identical for any
    ``jobs`` value, cached or not.
    """
    try:
        iterations, transactions, fractions = QUALITY_PRESETS[quality]
    except KeyError:
        raise ConfigurationError(
            f"unknown quality {quality!r} (choose from "
            f"{sorted(QUALITY_PRESETS)})"
        ) from None
    from repro.experiments import (
        ablations,
        fig3,
        fig4,
        fig5,
        fig6,
        table1,
        table2,
        table3,
    )
    from repro.runner import Cell, run_cells

    p7302, p9634 = epyc_7302(), epyc_9634()
    platforms = (p7302, p9634)
    # Longest cells first: the pool starts on the two DES-bound Table 2
    # columns and Figure 6 while the short cells fill in behind them.
    groups = {
        "table2": [
            Cell(table2.run, (p,), dict(iterations=iterations, seed=seed))
            for p in platforms
        ],
        "fig6": [Cell(fig6.run, (p9634,), dict(points=fig6.POINTS))],
        "fig3": fig3.sweep_cells(
            platforms,
            transactions_per_core=transactions,
            fractions=fractions,
            seed=seed,
        ),
        "table3": [Cell(table3.run, (p,), dict(seed=seed)) for p in platforms],
        "fig4": [Cell(fig4.run, (p,)) for p in platforms],
        "fig5": [
            Cell(fig5.run, args)
            for args in ((p9634, "if"), (p9634, "plink"), (p7302, "if"))
        ],
    }
    # No serial ramp: in-process it would run a whole Table 2 column
    # before the pool starts; a pool is always worth it for this batch.
    values = iter(run_cells(
        [cell for cells in groups.values() for cell in cells],
        jobs=jobs,
        pool_threshold_s=0,
    ))
    done = {name: [next(values) for _ in cells] for name, cells in groups.items()}
    names = [p.name for p in platforms]

    managed = ablations.manager_vs_sender_driven(p9634)
    fair_before, fair_after = managed["case4-unequal-demands"].fairness()
    return "\n\n".join([
        table1.render(table1.run()),
        table2.render(dict(zip(names, done["table2"]))),
        table3.render(dict(zip(names, done["table3"]))),
        fig3.render(done["fig3"]),
        fig4.render(done["fig4"]),
        fig5.render(done["fig5"]),
        fig6.render(done["fig6"][0]),
        "Ablation highlights: the max-min traffic manager lifts case-4 "
        f"Jain fairness from {fair_before:.3f} to {fair_after:.3f}; see "
        "benchmarks/ for the full ablation set.",
    ])
