"""Common selector interface shared by SubTab and all baselines.

Every selector exposes ``prepare(frame)`` (one-time pre-processing, the
analogue of SubTab's fit — ``fit`` is accepted as an alias) and
``select(k, l, query=None, targets=())`` returning a
:class:`~repro.core.SubTable`.  The uniform interface lets the experiment
harness swap algorithms freely — user study, session replay, quality
benches, and the :class:`repro.api.Engine` all drive selectors through this
protocol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.binning.normalize import normalize_table
from repro.binning.pipeline import BinnedTable, TableBinner
from repro.core.result import SubTable, subtable_from_selection
from repro.frame.frame import DataFrame
from repro.utils.validation import validate_selection_args


class BaseSelector(ABC):
    """Skeleton for sub-table selectors.

    Subclasses implement :meth:`_select_from_view`, which receives the query
    result as a binned view plus the global row indices it came from, and
    the request's mode overrides as an argument: one selector serves
    concurrent requests, so request state is passed, never stored on
    ``self``.  A stochastic selector builds each select's generator from
    the seed inside the call (``ensure_rng(self._seed)``), so a reply is a
    function of the prepared table and the request alone.

    Parameters
    ----------
    seed:
        Integer seed driving all stochastic choices (``None``: fresh
        entropy on every select).  A numpy Generator is refused (see
        :func:`check_seed`).  When ``prepare`` has to bin the table
        itself, the seed is also threaded into the :class:`TableBinner`
        (KDE sub-sampling), so selector-owned binnings are as reproducible
        as shared ones.
    binner:
        Optional pre-configured :class:`TableBinner`.  ``prepare`` uses it
        when no shared ``binned`` table is supplied, so binning knobs
        (``n_bins``/``strategy``/``max_categories``/``seed``) are honored
        instead of silently falling back to defaults.
    """

    name = "base"

    #: Per-request mode overrides this selector understands (see
    #: :meth:`select`); empty for selectors without tunable modes.
    supported_modes: frozenset = frozenset()

    def __init__(self, seed=None, binner: Optional[TableBinner] = None):
        self._seed = check_seed(seed)
        self._binner = binner
        self._frame: Optional[DataFrame] = None
        self._binned: Optional[BinnedTable] = None

    # -- preparation -------------------------------------------------------------
    def prepare(self, frame: DataFrame, binned: Optional[BinnedTable] = None) -> "BaseSelector":
        """One-time pre-processing of the full table.

        ``binned`` may be supplied to share one binning across selectors
        (the experiments do this so all algorithms see identical bins);
        otherwise the table is normalized and binned with :meth:`make_binner`.
        """
        if binned is None:
            normalized = normalize_table(frame)
            binned = self.make_binner().bin_table(normalized)
        self._frame = binned.frame
        self._binned = binned
        self._after_prepare()
        return self

    # ``fit`` is the :class:`repro.api.Selector`-protocol spelling of the
    # pre-processing phase; SubTab and the baselines answer to both names.
    fit = prepare

    def make_binner(self) -> TableBinner:
        """The binner :meth:`prepare` uses when no shared binning is given.

        Defaults to the pipeline's standard knobs with this selector's seed
        threaded in; a ``binner`` passed at construction wins outright.
        """
        if self._binner is not None:
            return self._binner
        return TableBinner(seed=int(self._seed or 0))

    def _after_prepare(self) -> None:
        """Hook for subclass-specific preparation (embeddings, scorers...)."""

    @property
    def frame(self) -> DataFrame:
        self._require_prepared()
        return self._frame

    @property
    def binned(self) -> BinnedTable:
        self._require_prepared()
        return self._binned

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`prepare` (or ``fit``) has run."""
        return self._binned is not None

    def _require_prepared(self) -> None:
        if self._binned is None:
            raise RuntimeError(f"{type(self).__name__}: call prepare(frame) first")

    # -- selection ------------------------------------------------------------
    def select(
        self,
        k: int,
        l: int,
        query=None,
        targets: Sequence[str] = (),
        fairness=None,
        modes: Optional[Mapping[str, str]] = None,
    ) -> SubTable:
        """Select a k x l sub-table of the table (or of a query result).

        ``modes`` optionally overrides per-request selection modes (e.g.
        ``{"row_mode": "mass"}`` for SubTab); keys outside
        :attr:`supported_modes` raise so unsupported overrides are never
        silently ignored.  ``fairness`` applies a
        :class:`~repro.core.fairness.GroupRepresentation` repair where the
        selector supports it (embedding-based selectors only).
        """
        self._require_prepared()
        modes = dict(modes or {})
        unsupported = set(modes) - self.supported_modes
        if unsupported:
            raise ValueError(
                f"{type(self).__name__} does not support mode overrides "
                f"{sorted(unsupported)}; supported: {sorted(self.supported_modes)}"
            )
        rows, columns = self._apply_query(query)
        targets = validate_selection_args(k, l, targets, columns=columns)
        view = self._binned.subset(rows=rows, columns=columns)
        local_rows, selected_columns = self._select_from_view(
            view, rows, columns, k, l, targets, modes
        )
        if fairness is not None:
            local_rows = self._repair_fairness(view, local_rows, fairness)
        selected_rows = [int(rows[i]) for i in local_rows]
        return subtable_from_selection(
            self._frame, selected_rows, selected_columns, targets=targets
        )

    @abstractmethod
    def _select_from_view(
        self,
        view: BinnedTable,
        rows: np.ndarray,
        columns: list[str],
        k: int,
        l: int,
        targets: list[str],
        modes: Mapping[str, str],
    ) -> tuple[list[int], list[str]]:
        """Return (row positions local to ``view``, selected column names).

        ``modes`` holds this request's validated mode overrides (empty
        when none were given).
        """

    def _repair_fairness(self, view: BinnedTable, local_rows, fairness):
        """Repair a row selection to satisfy a representation constraint.

        The default implementation refuses: the repair needs row vectors to
        pick replacements, which only embedding-based selectors have.
        """
        raise ValueError(
            f"{type(self).__name__} does not support fairness constraints; "
            "use an embedding-based selector (subtab, embdi)"
        )

    def _apply_query(self, query) -> tuple[np.ndarray, list[str]]:
        if query is None:
            return np.arange(self._frame.n_rows), list(self._frame.columns)
        rows = np.asarray(query.row_indices(self._frame), dtype=np.int64)
        columns = list(query.output_columns(self._frame))
        if len(rows) == 0:
            raise ValueError("query selects no rows; nothing to display")
        if not columns:
            raise ValueError("query selects no columns; nothing to display")
        return rows, columns


def check_seed(seed):
    """``seed`` itself when it is an integer or ``None``; else ``TypeError``.

    A numpy Generator is refused: ``ensure_rng`` hands a Generator back
    unchanged, so every select would draw from one shared stream and a
    repeated request would get a different answer.
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        return seed
    raise TypeError(
        f"selector seed must be an int or None, got {type(seed).__name__}; "
        "a numpy Generator would carry state from one select to the next"
    )


def random_column_choice(
    rng: np.random.Generator,
    columns: list[str],
    l: int,
    targets: list[str],
) -> list[str]:
    """Uniformly choose ``l`` columns, always including the targets."""
    free = [name for name in columns if name not in targets]
    n_free = min(l - len(targets), len(free))
    picked = set(targets)
    if n_free > 0:
        chosen = rng.choice(len(free), size=n_free, replace=False)
        picked.update(free[i] for i in chosen)
    return [name for name in columns if name in picked]
