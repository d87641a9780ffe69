"""repro — reproduction of "Selecting Sub-tables for Data Exploration" (ICDE 2023).

The package implements the SubTab framework end to end:

* :mod:`repro.frame` — columnar DataFrame substrate (pandas stand-in);
* :mod:`repro.binning` — KDE/width/quantile binning (Def. 3.2);
* :mod:`repro.rules` — Apriori association-rule mining (Def. 3.4);
* :mod:`repro.metrics` — cell coverage, diversity, combined score (Sec. 3.2);
* :mod:`repro.embedding` — tabular Word2Vec and EmbDI-style embeddings (Sec. 5.1);
* :mod:`repro.cluster` — KMeans and centroid-representative selection;
* :mod:`repro.core` — the SubTab algorithm (Alg. 2) and display integration;
* :mod:`repro.baselines` — RAN, NC, Greedy (Alg. 1), SemiGreedy, MAB, EmbDI;
* :mod:`repro.queries` — SP query algebra and EDA-session simulation;
* :mod:`repro.api` — the serving stack: ``Selector`` protocol, string-keyed
  registry, typed requests/responses with a JSON wire format, the
  ``Engine`` per-dataset kernel with persistable fitted artifacts, the
  ``ArtifactStore`` of named versioned artifacts, and the ``Workspace``
  multi-dataset front door;
* :mod:`repro.serve` — serving topologies behind one backend protocol:
  in-process, socket and asyncio servers, and consistent-hash rings;
* :mod:`repro.datasets` — synthetic stand-ins for the paper's six datasets;
* :mod:`repro.study` — simulated user study (Table 1, Fig. 5);
* :mod:`repro.hardness` — executable reductions behind Propositions 4.1/4.2.

Quickstart::

    from repro import SubTab, SubTabConfig
    from repro.datasets import make_dataset

    table = make_dataset("flights", n_rows=5_000, seed=7)
    subtab = SubTab(SubTabConfig(k=10, l=10, seed=7)).fit(table.frame)
    print(subtab.select(targets=["CANCELLED"]))
"""

from repro.api import (
    ArtifactStore,
    Engine,
    SelectionRequest,
    SelectionResponse,
    Selector,
    Workspace,
    make_selector,
    register_selector,
    selector_names,
)
from repro.core import (
    ExplorationSession,
    SubTab,
    SubTabConfig,
    SubTable,
    explore,
)
from repro.frame import Column, DataFrame, read_csv, to_csv
from repro.metrics import Scores, SubTableScorer
from repro.rules import AssociationRule, RuleMiner

__version__ = "1.2.0"

__all__ = [
    "ArtifactStore",
    "AssociationRule",
    "Column",
    "DataFrame",
    "Engine",
    "ExplorationSession",
    "RuleMiner",
    "Scores",
    "SelectionRequest",
    "SelectionResponse",
    "Selector",
    "SubTab",
    "SubTabConfig",
    "SubTable",
    "SubTableScorer",
    "Workspace",
    "__version__",
    "explore",
    "make_selector",
    "read_csv",
    "register_selector",
    "selector_names",
    "to_csv",
]
