"""Shared experiment plumbing: dataset bundles and selector factories.

Every benchmark builds on the same three steps — generate a synthetic
dataset at a configurable scale, bin it once, and prepare the competing
selectors on the shared binning — so those steps live here.

Scale: the paper runs on a 24-core Xeon against datasets up to 6M rows; the
benchmarks default to laptop-friendly row counts (hundreds of times smaller)
and scaled draw/iteration counts.  Set the environment variable
``REPRO_SCALE`` to a float to multiply all row counts (e.g.
``REPRO_SCALE=5`` for a closer-to-paper run).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.api.registry import make_selector as make_registry_selector
from repro.api.registry import resolve_name
from repro.baselines.base import BaseSelector
from repro.binning.normalize import normalize_table
from repro.binning.pipeline import BinnedTable, TableBinner
from repro.core.config import SubTabConfig
from repro.datasets.generator import SyntheticDataset
from repro.datasets.registry import make_dataset
from repro.metrics.combined import SubTableScorer
from repro.rules.miner import RuleMiner

# Benchmark-scale row counts (paper scale in comments).
BENCH_ROWS = {
    "flights": 6_000,   # 6M in the paper
    "credit": 4_000,    # 250K
    "spotify": 4_000,   # 42K
    "cyber": 4_000,     # 30K
    "funds": 2_500,     # 23.5K
    "loans": 4_000,     # 110K
}


def scale_factor() -> float:
    """The REPRO_SCALE multiplier (default 1.0)."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_SCALE must be a float, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {value}")
    return value


def bench_rows(name: str, override: Optional[int] = None) -> int:
    """Benchmark row count for a dataset, honoring REPRO_SCALE."""
    if override is not None:
        return override
    base = BENCH_ROWS.get(name, 4_000)
    return max(200, int(base * scale_factor()))


@dataclass
class DatasetBundle:
    """A generated dataset with its shared binning and lazily-built scorer."""

    dataset: SyntheticDataset
    binned: BinnedTable
    seed: int
    _scorers: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.dataset.name

    @property
    def frame(self):
        return self.binned.frame

    def scorer(self, targets: Sequence[str] = (), miner: Optional[RuleMiner] = None,
               alpha: float = 0.5) -> SubTableScorer:
        """A (cached) scorer for this dataset with the given targets."""
        key = (tuple(targets), alpha,
               None if miner is None else (miner.min_support, miner.min_confidence,
                                           miner.min_rule_size, miner.max_rule_size))
        if key not in self._scorers:
            self._scorers[key] = SubTableScorer(
                self.binned,
                miner=miner or RuleMiner(),
                targets=list(targets) or None,
                alpha=alpha,
            )
        return self._scorers[key]


def load_bundle(name: str, n_rows: Optional[int] = None, seed: int = 0,
                n_bins: int = 5) -> DatasetBundle:
    """Generate + normalize + bin one dataset."""
    dataset = make_dataset(name, n_rows=bench_rows(name, n_rows), seed=seed)
    normalized = normalize_table(dataset.frame)
    binned = TableBinner(n_bins=n_bins, seed=seed).bin_table(normalized)
    dataset.frame = binned.frame  # keep dataset and binning consistent
    return DatasetBundle(dataset=dataset, binned=binned, seed=seed)


def make_selector(
    kind: str,
    bundle: DatasetBundle,
    seed: int = 0,
    ran_draws: int = 12,
    mab_iterations: int = 200,
    greedy_max_combinations: Optional[int] = 50,
    embdi_walks: int = 3,
    subtab_config: Optional[SubTabConfig] = None,
) -> BaseSelector:
    """Build + prepare one selector on the bundle's shared binning.

    A thin wrapper over the :mod:`repro.api` registry that fills in the
    benchmark-scale counts and shares the bundle's scorer/rules so no
    selector re-mines them.

    ``ran_draws`` defaults to 12: at the paper's table sizes one combined-
    score evaluation costs seconds, so RAN's one-minute loop amounts to a
    dozen draws; on benchmark-scale tables scoring is near-free and an
    uncapped RAN would degenerate into direct metric optimization.
    """
    kind_lower = resolve_name(kind)
    config = subtab_config or SubTabConfig(seed=seed)
    options: dict = {}
    if kind_lower == "ran":
        options = dict(max_draws=ran_draws, scorer=bundle.scorer(), seed=seed)
    elif kind_lower == "mab":
        options = dict(iterations=mab_iterations, scorer=bundle.scorer(), seed=seed)
    elif kind_lower == "greedy":
        options = dict(
            rules=bundle.scorer().rules,
            max_combinations=greedy_max_combinations,
            order="random",
            seed=seed,
        )
    elif kind_lower == "semigreedy":
        options = dict(
            rules=bundle.scorer().rules,
            max_combinations=greedy_max_combinations,
            seed=seed,
        )
    elif kind_lower == "embdi":
        options = dict(walks_per_node=embdi_walks, seed=seed)
    elif kind_lower == "nc":
        options = dict(seed=seed)
    selector = make_registry_selector(kind_lower, config, **options)
    selector.prepare(bundle.frame, binned=bundle.binned)
    return selector


def prepare_selectors(
    bundle: DatasetBundle,
    kinds: Sequence[str],
    seed: int = 0,
    **kwargs,
) -> dict[str, BaseSelector]:
    """Prepare several selectors; returns ``{display name: selector}``."""
    selectors = {}
    for kind in kinds:
        selector = make_selector(kind, bundle, seed=seed, **kwargs)
        selectors[selector.name] = selector
    return selectors
