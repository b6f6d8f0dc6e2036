"""DRAM access-time variability.

Mean latency is captured by the fixed path model; the *tail* (the paper
reports P999 throughout Figure 3) comes from rare in-device stalls: refresh
windows (hundreds of ns, ~0.1% of accesses) and bank conflicts (tens of ns,
a few percent). The model samples an additive latency with those two
components, calibrated per platform so unloaded P999 matches Figure 3's
low-load tail readings (≈470-500 ns on the 7302, ≈350-380 ns on the 9634).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["DramTimingModel"]


@dataclass(frozen=True)
class DramTimingModel:
    """Additive DRAM latency jitter: bank conflicts plus refresh stalls."""

    bank_conflict_prob: float
    bank_conflict_min_ns: float
    bank_conflict_max_ns: float
    refresh_prob: float
    refresh_min_ns: float
    refresh_max_ns: float

    def __post_init__(self) -> None:
        for prob in (self.bank_conflict_prob, self.refresh_prob):
            if not 0.0 <= prob <= 1.0:
                raise ConfigurationError(f"probability out of range: {prob}")
        if self.bank_conflict_min_ns > self.bank_conflict_max_ns:
            raise ConfigurationError("bank conflict range inverted")
        if self.refresh_min_ns > self.refresh_max_ns:
            raise ConfigurationError("refresh range inverted")

    @classmethod
    def for_platform(cls, platform_name: str) -> "DramTimingModel":
        """Calibrated jitter for the two evaluated platforms.

        DDR4 (7302) refreshes stall longer than DDR5 (9634), which has
        same-bank refresh; the P999 targets are Figure 3's low-load tails.
        """
        # P999 targets: with refresh probability p over uniform (a, b), the
        # unloaded 99.9th-percentile stall is q = b − (b−a)·(0.001/p);
        # p = 0.003 keeps the expected event count comfortably above the
        # P999 cutoff for a few thousand samples while the mean extra stays
        # under 1 ns.
        if "7302" in platform_name:
            return cls(
                bank_conflict_prob=0.04,
                bank_conflict_min_ns=10.0,
                bank_conflict_max_ns=25.0,
                refresh_prob=0.003,
                refresh_min_ns=250.0,        # q ≈ 333 → unloaded P999 ≈ 457
                refresh_max_ns=375.0,
            )
        if "9634" in platform_name:
            return cls(
                bank_conflict_prob=0.04,
                bank_conflict_min_ns=8.0,
                bank_conflict_max_ns=20.0,
                refresh_prob=0.003,
                refresh_min_ns=150.0,        # q ≈ 223 → unloaded P999 ≈ 365
                refresh_max_ns=260.0,
            )
        # Uncalibrated platforms (e.g. the synthetic UCIe preset) get a
        # generic modern-DDR profile.
        return cls(
            bank_conflict_prob=0.04,
            bank_conflict_min_ns=8.0,
            bank_conflict_max_ns=20.0,
            refresh_prob=0.003,
            refresh_min_ns=150.0,
            refresh_max_ns=250.0,
        )

    def sample_extra_ns(self, rng: np.random.Generator) -> float:
        """Draw the additive stall for one access (usually zero)."""
        extra = 0.0
        draw = rng.random()
        if draw < self.refresh_prob:
            extra += rng.uniform(self.refresh_min_ns, self.refresh_max_ns)
        elif draw < self.refresh_prob + self.bank_conflict_prob:
            extra += rng.uniform(self.bank_conflict_min_ns, self.bank_conflict_max_ns)
        return extra

    def sample_batch_ns(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Additive stalls for ``count`` accesses in one vectorized draw.

        This matches :meth:`sample_extra_ns` in distribution only, not in
        the stream it produces: it takes all ``count`` selector draws
        first and then each stall class's durations, where the scalar
        method interleaves them access by access. The same generator
        therefore yields different per-access values. Do not use it where
        a result must equal the DES draw for draw; the batched engine
        calls :meth:`sample_extra_ns` at grant time instead.
        """
        draws = rng.random(count)
        extras = np.zeros(count)
        refresh_mask = draws < self.refresh_prob
        conflict_mask = (~refresh_mask) & (
            draws < self.refresh_prob + self.bank_conflict_prob
        )
        extras[refresh_mask] = rng.uniform(
            self.refresh_min_ns, self.refresh_max_ns, refresh_mask.sum()
        )
        extras[conflict_mask] = rng.uniform(
            self.bank_conflict_min_ns, self.bank_conflict_max_ns, conflict_mask.sum()
        )
        return extras

    @property
    def mean_extra_ns(self) -> float:
        """Expected additive stall per access (analytic)."""
        refresh_mean = (self.refresh_min_ns + self.refresh_max_ns) / 2.0
        conflict_mean = (self.bank_conflict_min_ns + self.bank_conflict_max_ns) / 2.0
        return (
            self.refresh_prob * refresh_mean
            + self.bank_conflict_prob * conflict_mean
        )
