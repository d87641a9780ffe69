"""The Engine: one serving facade over every registered selector.

``Engine`` owns the paper's phase split end to end (Alg. 2, Fig. 9):

* :meth:`Engine.fit` runs preprocessing once — normalize, bin (with the
  config's knobs), and the algorithm's own preparation (embedding training
  for subtab/embdi, rule mining for greedy, ...) — recording the timing
  split in ``timings_``;
* :meth:`Engine.select` serves one display per call from a typed
  :class:`~repro.api.request.SelectionRequest`, memoizing finished
  selections in an LRU so session replay and back-navigation are O(1) for
  *any* algorithm (cached responses are the same objects the cold path
  produced — bit-identical by construction);
* :meth:`Engine.save` / :meth:`Engine.load` persist the fitted state
  (normalized frame, binned table + vocabulary, embedding vectors) so a
  serving restart skips the heavy preprocessing — a loaded engine reports
  0.0 for normalization, binning, and embedding training; only the
  selector's cheap local preparation runs.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.api.artifacts import load_artifact, save_artifact
from repro.api.cache import CacheStats, LRUCache, query_fingerprint
from repro.api.registry import make_selector, resolve_name
from repro.api.request import SelectionRequest, SelectionResponse
from repro.baselines.base import BaseSelector
from repro.binning.normalize import normalize_table
from repro.binning.pipeline import BinnedTable, TableBinner
from repro.core.config import SubTabConfig
from repro.core.result import SubTable
from repro.frame.frame import DataFrame
from repro.utils.blas import single_blas_thread
from repro.utils.timer import timed
from repro.utils.validation import validate_selection_args

_PREPROCESS_KEYS = (
    "preprocess_normalize",
    "preprocess_binning",
    "preprocess_prepare",
    "preprocess_total",
)


class Engine:
    """Fit-once / select-per-display facade over a registered selector.

    >>> from repro.frame import DataFrame
    >>> frame = DataFrame({"a": [1.0, 2.0, 30.0, 31.0] * 10,
    ...                    "b": ["x", "x", "y", "y"] * 10,
    ...                    "c": [0.1, 0.2, 9.0, 9.1] * 10})
    >>> engine = Engine("subtab", SubTabConfig(k=2, l=2, seed=0)).fit(frame)
    >>> engine.select().shape
    (2, 2)

    Parameters
    ----------
    algorithm:
        Registry name of the selection algorithm (``"subtab"``, ``"ran"``,
        ``"nc"``, ``"greedy"``, ``"semigreedy"``, ``"mab"``, ``"embdi"``,
        or anything registered via :func:`repro.api.register_selector`).
    config:
        Shared pipeline configuration; supplies default k/l, binning knobs,
        the seed, and (for subtab) the full Algorithm-2 parameters.
    selector_options:
        Algorithm-specific constructor options (e.g. ``max_draws`` for
        RAN).  Not persisted by :meth:`save`; pass them again to
        :meth:`load`.
    selector:
        A pre-built selector to serve instead of constructing one from the
        registry (it may already be fitted, in which case the engine adopts
        its fitted state).
    cache_size:
        Capacity of the selection LRU.
    dataset:
        Optional label of the dataset this engine serves (the
        :class:`~repro.api.Workspace` sets it to the store name).  When set,
        requests naming a *different* dataset are rejected instead of
        silently served from the wrong table.
    """

    def __init__(
        self,
        algorithm: str = "subtab",
        config: Optional[SubTabConfig] = None,
        selector_options: Optional[dict] = None,
        selector: Optional[BaseSelector] = None,
        cache_size: int = 256,
        dataset: Optional[str] = None,
    ):
        self.dataset = dataset
        self.config = config or SubTabConfig()
        self._selector_options = dict(selector_options or {})
        if selector is not None:
            # A pre-built (possibly unregistered) selector: trust the caller's
            # algorithm label instead of resolving it against the registry.
            self.algorithm = algorithm
            self._selector = selector
        else:
            self.algorithm = resolve_name(algorithm)
            self._selector = make_selector(
                self.algorithm, self.config, **self._selector_options
            )
        self._cache = LRUCache(cache_size)
        self.timings_: dict[str, float] = {}
        if self._selector.is_fitted:
            for key in _PREPROCESS_KEYS:
                self.timings_.setdefault(key, 0.0)

    # -- lifecycle ---------------------------------------------------------------
    def fit(self, frame: DataFrame, binned: Optional[BinnedTable] = None) -> "Engine":
        """Preprocess ``frame`` once (normalize, bin, prepare the selector).

        A pre-computed ``binned`` table may be supplied (experiments share
        one binning across algorithms); normalization and binning are then
        skipped.
        """
        with timed(self.timings_, "preprocess_total"):
            if binned is None:
                with timed(self.timings_, "preprocess_normalize"):
                    normalized = normalize_table(frame)
                with timed(self.timings_, "preprocess_binning"):
                    binned = TableBinner.from_config(self.config).bin_table(
                        normalized
                    )
            else:
                self.timings_["preprocess_normalize"] = 0.0
                self.timings_["preprocess_binning"] = 0.0
            with timed(self.timings_, "preprocess_prepare"):
                self._selector.prepare(binned.frame, binned=binned)
        self._cache.clear()
        return self

    @property
    def selector(self) -> BaseSelector:
        """The underlying selector (shared — do not re-prepare it directly)."""
        return self._selector

    @property
    def is_fitted(self) -> bool:
        return self._selector.is_fitted

    @property
    def binned(self) -> BinnedTable:
        return self._selector.binned

    @property
    def frame(self) -> DataFrame:
        return self._selector.frame

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("call fit(frame) before serving selections")

    def _check_routing(self, request: SelectionRequest) -> None:
        """Reject requests routed to the wrong engine.

        The routing fields are advisory on a bare engine — a request with
        ``dataset=None``/``algorithm=None`` is served unconditionally — but
        when a request names a dataset or algorithm that disagrees with
        this engine's, serving it would silently answer from the wrong
        table or method.
        """
        if request.algorithm is not None:
            requested = request.algorithm
            try:
                requested = resolve_name(requested)
            except ValueError:
                pass  # unregistered label (pre-built selector): compare raw
            if requested != self.algorithm:
                raise ValueError(
                    f"request asks for algorithm {request.algorithm!r} but "
                    f"this engine serves {self.algorithm!r}; route it "
                    "through a Workspace instead"
                )
        if (request.dataset is not None and self.dataset is not None
                and request.dataset != self.dataset):
            raise ValueError(
                f"request asks for dataset {request.dataset!r} but this "
                f"engine serves {self.dataset!r}; route it through a "
                "Workspace instead"
            )

    # -- cache -------------------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    def clear_cache(self) -> None:
        self._cache.clear()

    # -- serving -----------------------------------------------------------------
    def select(
        self,
        request: Optional[SelectionRequest] = None,
        **kwargs,
    ) -> SelectionResponse:
        """Serve one display.

        Accepts either a prepared :class:`SelectionRequest` or its keyword
        fields directly (``engine.select(k=5, l=4, targets=("Y",))``).
        Repeated cache-eligible requests are served from the LRU without
        re-running the selection pipeline; responses then share the cached
        :class:`~repro.core.SubTable` object — treat it as immutable.
        Fairness-constrained requests are never cached.  A cold select
        runs inside :func:`~repro.utils.blas.single_blas_thread`; fits
        keep the process's BLAS thread count.
        """
        if request is None:
            request = SelectionRequest(**kwargs)
        elif kwargs:
            raise TypeError("pass either a SelectionRequest or keyword fields, not both")
        self._require_fitted()
        self._check_routing(request)
        k, l = request.resolve(self.config.k, self.config.l)
        targets = validate_selection_args(k, l, request.targets)
        modes = request.mode_overrides()

        cacheable = request.use_cache and request.fairness is None
        key = None
        if cacheable:
            key = (
                query_fingerprint(request.query),
                k,
                l,
                tuple(targets),
                tuple(sorted(modes.items())),
            )
            cached = self._cache.get(key)
            if cached is not None:
                return self._respond(cached, request, k, l, cache_hit=True,
                                     select_seconds=0.0)

        start = time.perf_counter()
        # Serving parallelises with processes; a second BLAS thread only
        # spins, so a cold select runs its GEMMs on one (same bits).
        with single_blas_thread():
            subtable = self._selector.select(
                k,
                l,
                query=request.query,
                targets=targets,
                fairness=request.fairness,
                modes=modes or None,
            )
        elapsed = time.perf_counter() - start
        if cacheable:
            self._cache.put(key, subtable)
        return self._respond(subtable, request, k, l, cache_hit=False,
                             select_seconds=elapsed)

    def select_subtable(self, *args, **kwargs) -> SubTable:
        """Like :meth:`select` but returning only the sub-table."""
        return self.select(*args, **kwargs).subtable

    def _respond(
        self,
        subtable: SubTable,
        request: SelectionRequest,
        k: int,
        l: int,
        cache_hit: bool,
        select_seconds: float,
    ) -> SelectionResponse:
        timings = {key: self.timings_.get(key, 0.0) for key in _PREPROCESS_KEYS}
        timings["select_seconds"] = select_seconds
        return SelectionResponse(
            subtable=subtable,
            request=request,
            algorithm=self.algorithm,
            k=k,
            l=l,
            cache_hit=cache_hit,
            select_seconds=select_seconds,
            timings=timings,
        )

    # -- persistence -------------------------------------------------------------
    def save(self, path) -> "Engine":
        """Persist the fitted state to directory ``path`` (see
        :mod:`repro.api.artifacts` for the format).  Returns ``self``."""
        self._require_fitted()
        model = getattr(self._selector, "embedding_model", None)
        save_artifact(
            path,
            algorithm=self.algorithm,
            config=self.config,
            binned=self.binned,
            model=model,
        )
        return self

    @classmethod
    def load(
        cls,
        path,
        selector_options: Optional[dict] = None,
        cache_size: int = 256,
        algorithm: Optional[str] = None,
        dataset: Optional[str] = None,
    ) -> "Engine":
        """Rebuild a fitted engine from :meth:`save`'s artifact.

        The heavy preprocessing is skipped entirely: the normalized frame,
        binned table, and (when present) the embedding are restored from
        disk, so ``timings_`` reports 0.0 for normalization, binning, and
        embedding training; only the selector's local preparation (e.g.
        restoring caches) runs and is reported as ``preprocess_prepare``.
        The artifact-reading cost itself is reported as ``artifact_load``.
        ``algorithm`` may override the persisted algorithm name — the
        shared preprocessed state (binning, vocabulary) is
        algorithm-independent, though the embedding only transfers between
        embedding-based selectors.
        """
        start = time.perf_counter()
        artifact = load_artifact(path)
        engine = cls(
            algorithm=algorithm or artifact.algorithm,
            config=artifact.config,
            selector_options=selector_options,
            cache_size=cache_size,
            dataset=dataset,
        )
        engine.timings_["artifact_load"] = time.perf_counter() - start
        selector = engine._selector
        if artifact.model is not None and hasattr(selector, "preload_embedding"):
            selector.preload_embedding(artifact.model)
        engine.timings_["preprocess_normalize"] = 0.0
        engine.timings_["preprocess_binning"] = 0.0
        with timed(engine.timings_, "preprocess_prepare"):
            selector.prepare(artifact.binned.frame, binned=artifact.binned)
        engine.timings_["preprocess_total"] = engine.timings_["preprocess_prepare"]
        return engine
