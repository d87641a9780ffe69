"""String-keyed selector registry: ``make_selector("subtab" | "greedy" | ...)``.

One factory per algorithm, covering SubTab and every baseline of the paper
(Section 6.1).  The registry is what lets the Engine, the experiment
harness, and the CLI construct any algorithm from a name — and what lets
new backends plug in without touching those layers: call
:func:`register_selector` with a factory and the whole serving surface
(Engine caching, artifact persistence, CLI ``--algorithm``) picks it up.

Factories receive the shared :class:`~repro.core.config.SubTabConfig`
(source of the seed and, where relevant, the full pipeline configuration)
plus algorithm-specific keyword options forwarded verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.baselines.base import BaseSelector
from repro.baselines.embdi_baseline import EmbDISelector
from repro.baselines.greedy import GreedySelector, SemiGreedySelector
from repro.baselines.greedy_approx import ApproxGreedySelector
from repro.baselines.mab import MABSelector
from repro.baselines.naive_cluster import NaiveClusteringSelector
from repro.baselines.random_search import RandomSelector
from repro.baselines.subtab_adapter import SubTabSelector
from repro.core.config import SubTabConfig


@dataclass(frozen=True)
class SelectorSpec:
    """One registry entry: the factory plus descriptive metadata."""

    name: str
    factory: Callable[..., BaseSelector]
    description: str
    interactive: bool  # fast enough for per-display use (paper Sec. 6.1 split)


_REGISTRY: dict[str, SelectorSpec] = {}
_ALIASES: dict[str, str] = {}


def register_selector(
    name: str,
    factory: Callable[..., BaseSelector],
    *,
    description: str = "",
    interactive: bool = False,
    aliases: tuple = (),
    overwrite: bool = False,
) -> None:
    """Register ``factory`` under ``name`` (and optional aliases).

    The factory is called as ``factory(config, **options)`` where ``config``
    is a :class:`SubTabConfig` and ``options`` are the keyword arguments of
    :func:`make_selector`.  Existing names are protected unless
    ``overwrite=True``.
    """
    key = name.lower()
    if not overwrite and (key in _REGISTRY or key in _ALIASES):
        raise ValueError(f"selector {name!r} is already registered")
    _REGISTRY[key] = SelectorSpec(
        name=key, factory=factory, description=description, interactive=interactive
    )
    for alias in aliases:
        alias_key = alias.lower()
        if not overwrite and (alias_key in _REGISTRY or alias_key in _ALIASES):
            raise ValueError(f"selector alias {alias!r} is already registered")
        _ALIASES[alias_key] = key


def resolve_name(name: str) -> str:
    """Canonical registry key for ``name`` (aliases resolved); raises if unknown."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown selector kind {name!r}; registered: {known}")
    return key


def selector_spec(name: str) -> SelectorSpec:
    """The :class:`SelectorSpec` registered under ``name``."""
    return _REGISTRY[resolve_name(name)]


def selector_names() -> list[str]:
    """Canonical names of all registered selectors, sorted."""
    return sorted(_REGISTRY)


def selector_aliases(name: str) -> list[str]:
    """Sorted aliases registered for canonical selector ``name``."""
    key = resolve_name(name)
    return sorted(alias for alias, target in _ALIASES.items() if target == key)


def make_selector(
    name: str,
    config: Optional[SubTabConfig] = None,
    **options,
) -> BaseSelector:
    """Construct the selector registered under ``name``.

    ``config`` carries the shared pipeline configuration (seed, binning
    knobs, and — for subtab — the full Algorithm-2 parameters); ``options``
    are forwarded to the algorithm's constructor (e.g. ``max_draws`` for
    RAN, ``iterations`` for MAB).  The selector is returned *unprepared*;
    call ``prepare``/``fit`` or hand it to an :class:`~repro.api.Engine`.
    """
    spec = selector_spec(name)
    return spec.factory(config or SubTabConfig(), **options)


# ---------------------------------------------------------------------------
# Built-in algorithms (paper Section 6.1)
# ---------------------------------------------------------------------------

def _make_subtab(config: SubTabConfig, **options) -> SubTabSelector:
    return SubTabSelector(config=config, **options)


def _make_ran(config: SubTabConfig, **options) -> RandomSelector:
    options.setdefault("seed", config.seed)
    return RandomSelector(**options)


def _make_nc(config: SubTabConfig, **options) -> NaiveClusteringSelector:
    options.setdefault("seed", config.seed)
    return NaiveClusteringSelector(**options)


def _make_greedy(config: SubTabConfig, **options) -> GreedySelector:
    options.setdefault("seed", config.seed)
    return GreedySelector(**options)


def _make_semigreedy(config: SubTabConfig, **options) -> SemiGreedySelector:
    options.setdefault("seed", config.seed)
    return SemiGreedySelector(**options)


def _make_greedy_approx(config: SubTabConfig, **options) -> ApproxGreedySelector:
    options.setdefault("seed", config.seed)
    return ApproxGreedySelector(**options)


def _make_mab(config: SubTabConfig, **options) -> MABSelector:
    options.setdefault("seed", config.seed)
    return MABSelector(**options)


def _make_embdi(config: SubTabConfig, **options) -> EmbDISelector:
    options.setdefault("seed", config.seed)
    options.setdefault("word2vec", config.word2vec)
    return EmbDISelector(**options)


register_selector(
    "subtab", _make_subtab, interactive=True,
    description="SubTab (Alg. 2): cell embedding + centroid selection",
)
register_selector(
    "ran", _make_ran, interactive=True, aliases=("random",),
    description="RAN: best of 60 random draws",
)
register_selector(
    "nc", _make_nc, interactive=True, aliases=("naive", "naive_cluster"),
    description="NC: KMeans over raw one-hot encodings",
)
register_selector(
    "greedy", _make_greedy,
    description="Greedy (Alg. 1): exhaustive columns + greedy rows",
)
register_selector(
    "semigreedy", _make_semigreedy,
    description="SemiGreedy: greedy over 50 column subsets in random order",
)
register_selector(
    "greedy-approx", _make_greedy_approx, interactive=True,
    aliases=("greedy_approx", "stochastic-greedy"),
    description="Greedy (Sec. 4): sampled row stage over 50 column subsets",
)
register_selector(
    "mab", _make_mab,
    description="MAB: UCB bandit over joint row/column arms",
)
register_selector(
    "embdi", _make_embdi,
    description="EmbDI: centroid selection over graph-walk embeddings",
)
