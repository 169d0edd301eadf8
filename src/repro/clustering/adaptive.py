"""Adaptive iterative DBSCAN outlier detection (paper Algorithm 3).

The parameter descent: min_pts starts at 4 % of the dataset size and walks
down to 2 % in steps of two, with eps fixed at ``mult`` times the 0.05-0.95
quantile range of the latencies.  The first configuration whose noise
(outlier) ratio is at most 10 % wins; if none qualifies, the configuration
with the smallest noise ratio is kept — minimizing false outliers is the
algorithm's stated objective.  When even that configuration labels every
point as noise (sparse data where no point has ``min_pts`` neighbours
within ``eps``), no labelling is kept at all: every point stays, exactly
as for degenerate data, and ``converged`` reports the failed descent.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from repro.clustering.dbscan import DbscanResult, dbscan
from repro.errors import ConfigError
from repro.stats.descriptive import quantile_range

__all__ = ["AdaptiveDbscanConfig", "AdaptiveDbscanResult", "adaptive_dbscan"]


@dataclass(frozen=True)
class AdaptiveDbscanConfig:
    """Knobs of Algorithm 3 with the paper's defaults.

    ``eps_multiplier`` = 0.15 and the 4 %→2 % min_pts descent are the
    values the paper selected after the k-NN-distance analysis; they
    "provided consistent clustering results across all frequency pairs and
    GPUs from the three architectures".
    """

    eps_multiplier: float = 0.15
    minpts_hi_frac: float = 0.04
    minpts_lo_frac: float = 0.02
    minpts_step: int = 2
    max_noise_ratio: float = 0.10
    quantile_lo: float = 0.05
    quantile_hi: float = 0.95
    minpts_floor: int = 4

    def __post_init__(self) -> None:
        if self.eps_multiplier <= 0:
            raise ConfigError("eps multiplier must be positive")
        if not 0 < self.minpts_lo_frac <= self.minpts_hi_frac < 1:
            raise ConfigError("invalid min_pts fraction range")
        if self.minpts_step < 1:
            raise ConfigError("min_pts step must be >= 1")

    def minpts_schedule(self, n: int) -> list[int]:
        """The descending min_pts values to try for a dataset of size n."""
        start = max(self.minpts_floor, math.ceil(self.minpts_hi_frac * n))
        end = max(self.minpts_floor, math.floor(self.minpts_lo_frac * n))
        schedule = list(range(start, end - 1, -self.minpts_step))
        return schedule or [start]


@dataclass(frozen=True)
class AdaptiveDbscanResult:
    """Chosen clustering plus the descent trace."""

    result: DbscanResult
    eps: float
    min_pts: int
    attempts: tuple[tuple[int, float], ...]  # (min_pts, noise_ratio) per try
    converged: bool

    @property
    def labels(self) -> np.ndarray:
        return self.result.labels

    @property
    def outlier_mask(self) -> np.ndarray:
        return self.result.noise_mask

    @property
    def kept_mask(self) -> np.ndarray:
        return ~self.result.noise_mask

    @property
    def n_clusters(self) -> int:
        return self.result.n_clusters

    @property
    def outlier_ratio(self) -> float:
        return self.result.noise_ratio


def adaptive_dbscan(
    values, config: AdaptiveDbscanConfig | None = None
) -> AdaptiveDbscanResult:
    """Run the Algorithm-3 parameter descent on 1-D latency data."""
    cfg = config or AdaptiveDbscanConfig()
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < cfg.minpts_floor + 1:
        raise ConfigError(
            f"adaptive DBSCAN needs more than {cfg.minpts_floor} samples, got {x.size}"
        )

    qr = quantile_range(x, cfg.quantile_lo, cfg.quantile_hi)
    if qr == 0.0:
        # Degenerate data (all latencies identical to timer resolution):
        # everything is one cluster, nothing is an outlier.
        return _no_outliers(x.size, attempts=(), converged=True)
    eps = cfg.eps_multiplier * qr

    attempts: list[tuple[int, float]] = []
    best: DbscanResult | None = None
    chosen: DbscanResult | None = None
    for min_pts in cfg.minpts_schedule(x.size):
        res = dbscan(x, eps=eps, min_pts=min_pts)
        attempts.append((min_pts, res.noise_ratio))
        if best is None or res.noise_ratio < best.noise_ratio:
            best = res
        if res.noise_ratio <= cfg.max_noise_ratio:
            chosen = res
            break

    converged = chosen is not None
    final = chosen if chosen is not None else best
    assert final is not None
    if final.noise_ratio == 1.0:
        # Calling every measurement an outlier is the most false
        # outliers a labelling can have; keep them all instead.
        return _no_outliers(x.size, attempts=tuple(attempts), converged=False)
    return AdaptiveDbscanResult(
        result=final,
        eps=eps,
        min_pts=final.min_pts,
        attempts=tuple(attempts),
        converged=converged,
    )


def _no_outliers(n: int, attempts: tuple, converged: bool) -> AdaptiveDbscanResult:
    """One cluster holding all ``n`` points: the labelling with no outliers."""
    labels = np.zeros(n, dtype=np.int64)
    res = DbscanResult(labels=labels, eps=0.0, min_pts=0)
    return AdaptiveDbscanResult(
        result=res, eps=0.0, min_pts=0, attempts=attempts, converged=converged
    )
