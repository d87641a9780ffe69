"""Kernel smoke: fast-vs-reference bit-identity, the one-BLAS-thread
select scope, and committed selection goldens.

Four checks, over the shared smoke artifact and the 300-row cyber bundle
it is fitted from (the scope check fits its own 2,000-row bundle):

1. **Live backend diff** — every generated session request is served
   twice through the full selection pipeline (``use_cache=False``), once
   under ``REPRO_KERNEL=fast`` and once under ``REPRO_KERNEL=reference``,
   and the wire forms (minus timing/cache metadata) must match bit for
   bit.  This is the version-independent check: whatever numpy/BLAS this
   runner ships, the vectorized kernels must reproduce the naive loops
   exactly.

2. **Fit backend diff** — the word2vec training behind a fit runs on the
   same kernels, so the bundle is fitted once per backend and the two
   engines must agree on the embedding's vector bytes, its vocabulary
   fingerprint and the first full-table display.

3. **One BLAS thread per cold select** — ``Engine.select`` runs a cold
   select with every loaded OpenBLAS on one thread
   (``repro.utils.blas.single_blas_thread``).  The check fails when
   numpy's build config names OpenBLAS but the scope found no library (a
   numpy upgrade that renamed the thread-count symbols would otherwise
   switch the scope off silently).  It then fits the 2,000-row cyber
   bundle (over 1,000 distinct rows, so the full-table and the larger
   session views are past the few hundred rows where OpenBLAS splits a
   GEMM across threads) and serves the full table and every session
   request through ``Engine.select``; each sub-table must equal the
   selector's own ``select`` called outside the scope, at the runner's
   default thread count.  The 300-row bundle is too small to show this.
   The library path and both thread counts are printed.

4. **Committed goldens** — the *discrete* selection content (row
   indices, columns, targets; never float cells) of four families is
   diffed against ``scripts/ci/goldens/kernel_smoke.json``: the subtab
   artifact, a registry-built ``greedy-approx`` engine and a
   registry-built ``embdi`` engine (each served under both kernel
   backends), and the library path ``SubTab(config).fit(...).select(...)``
   over the same session requests.  This pins the selections across
   commits: a kernel "optimization" or a refactor of the selection path
   that silently changes what gets selected fails here even if fast and
   reference were changed in lockstep.  Regenerate deliberately with
   ``REPRO_UPDATE_GOLDENS=1``.

Runs in CI and locally: ``python scripts/ci/kernel_smoke.py``.
"""

import json
import os
from pathlib import Path

from smoke_common import content, ensure_artifact, session_requests

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "kernel_smoke.json"


def _discrete(response) -> dict:
    """The numpy-version-robust slice of a response: which rows and
    columns were selected, never the float cell values."""
    payload = content(response)
    subtable = payload["subtable"]
    return {
        "algorithm": payload["algorithm"],
        "k": payload["k"],
        "l": payload["l"],
        "row_indices": subtable["row_indices"],
        "columns": subtable["columns"],
        "targets": subtable["targets"],
    }


def _serve_both_backends(engine, requests, label):
    """Serve cold under each kernel backend; assert bit-identity; return
    the fast-path responses."""
    from repro.core.kernels import use_kernel_backend

    with use_kernel_backend("fast"):
        fast = [engine.select(request) for request in requests]
    with use_kernel_backend("reference"):
        reference = [engine.select(request) for request in requests]
    for request, f, r in zip(requests, fast, reference):
        assert content(f) == content(r), (
            f"{label}: fast and reference kernels diverged for {request}"
        )
    return fast


def _subtable_discrete(subtable, k: int, l: int) -> dict:
    """:func:`_discrete` for a bare :class:`~repro.core.SubTable`."""
    return {
        "k": k,
        "l": l,
        "row_indices": [int(i) for i in subtable.row_indices],
        "columns": list(subtable.columns),
        "targets": list(subtable.targets),
    }


def _library_selections(bundle) -> list:
    """``SubTab(config).fit(...).select(...)`` over the session requests:
    the library entry point, outside any engine."""
    from repro.core import SubTab
    from repro.core.config import SubTabConfig

    config = SubTabConfig(k=4, l=4, seed=1)
    subtab = SubTab(config).fit(bundle.frame, binned=bundle.binned)
    selections = []
    for request in session_requests(subtab):
        k, l = request.resolve(config.k, config.l)
        subtable = subtab.select(k, l, query=request.query,
                                 targets=request.targets)
        selections.append(_subtable_discrete(subtable, k, l))
    return selections


def _fit_both_backends(bundle) -> None:
    """Fit ``bundle`` under each kernel backend; assert the embeddings and
    first displays are bit-identical."""
    from repro.api import Engine, SelectionRequest
    from repro.core.config import SubTabConfig
    from repro.core.kernels import use_kernel_backend

    def fit(backend):
        with use_kernel_backend(backend):
            engine = Engine("subtab", config=SubTabConfig(k=4, l=4, seed=1))
            engine.fit(bundle.frame, binned=bundle.binned)
            model = engine.selector.embedding_model
            return {
                "vector bytes": model.vectors.tobytes(),
                "vocabulary fingerprint": model.vocab_fingerprint,
                "first display": content(engine.select(SelectionRequest())),
            }

    fast, reference = fit("fast"), fit("reference")
    for name in fast:
        assert fast[name] == reference[name], (
            f"kernel smoke [fit]: fast and reference fits differ in {name}"
        )


def _one_blas_thread_leg() -> None:
    """Cold selects inside the one-BLAS-thread scope equal direct selector
    calls at the default thread count (see the module docstring)."""
    from dataclasses import replace

    import numpy as np

    from repro.api import Engine, SelectionRequest
    from repro.api.wire import encode_subtable
    from repro.bench import load_bundle
    from repro.core.config import SubTabConfig
    from repro.utils.blas import (
        loaded_openblas,
        numpy_links_openblas,
        single_blas_thread,
    )

    libraries = loaded_openblas()
    assert libraries or not numpy_links_openblas(), (
        "kernel smoke [blas]: numpy links OpenBLAS but the one-thread scope "
        "found no library; cold selects would spin a second BLAS thread"
    )
    default = [library.num_threads() for library in libraries]
    with single_blas_thread():
        inside = [library.num_threads() for library in libraries]
    assert inside == [1] * len(libraries), (
        f"kernel smoke [blas]: scope left the thread counts at {inside}"
    )

    bundle = load_bundle("cyber", n_rows=2000, seed=1)
    engine = Engine("subtab", config=SubTabConfig(k=10, l=7, seed=1))
    engine.fit(bundle.frame, binned=bundle.binned)
    distinct = len(np.unique(engine.binned.token_ids, axis=0))
    assert distinct >= 1000, (
        f"kernel smoke [blas]: only {distinct} distinct rows; too few for "
        "OpenBLAS to split the score GEMM"
    )
    requests = [SelectionRequest(use_cache=False)] + [
        replace(request, use_cache=False)
        for request in session_requests(engine)
    ]

    def direct(request):
        k, l = request.resolve(engine.config.k, engine.config.l)
        return engine.selector.select(
            k, l, query=request.query, targets=request.targets,
            modes=request.mode_overrides() or None,
        )

    for request in requests:
        served = encode_subtable(engine.select(request).subtable)
        assert served == encode_subtable(direct(request)), (
            f"kernel smoke [blas]: scoped select differs from the direct "
            f"selector call for {request}"
        )
    for library, count, scoped in zip(libraries, default, inside):
        print(f"kernel smoke [blas]: {library.path}: {count} thread(s) by "
              f"default, {scoped} inside the select scope")
    if not libraries:
        print("kernel smoke [blas]: numpy links no OpenBLAS; the select "
              "scope is a no-op")
    print(f"kernel smoke [blas]: {len(requests)} cold selects on a "
          f"{distinct}-distinct-row table equal direct selector calls")


def main() -> int:
    artifact = ensure_artifact()

    from dataclasses import replace

    from repro.api import Engine
    from repro.api.registry import selector_names
    from repro.bench import load_bundle
    from repro.core.config import SubTabConfig
    from repro.embedding.word2vec import Word2VecConfig

    assert "greedy-approx" in selector_names(), (
        f"greedy-approx missing from the registry: {selector_names()}"
    )

    engine = Engine.load(artifact)
    # Cold selects: the LRU would otherwise serve the second backend's
    # pass from the first backend's results and the diff would be vacuous.
    requests = [replace(request, use_cache=False)
                for request in session_requests(engine)]
    subtab_fast = _serve_both_backends(engine, requests, "kernel smoke")

    # The sampling-based Greedy, built through the registry like any
    # other selector, replayed under both backends on the same dataset
    # slice the artifact was fitted from.
    bundle = load_bundle("cyber", n_rows=300, seed=1)
    _fit_both_backends(bundle)
    _one_blas_thread_leg()
    approx = Engine("greedy-approx",
                    config=SubTabConfig(k=4, l=4, seed=1),
                    selector_options={"sample_rate": 0.2, "min_sample": 8,
                                      "max_combinations": 10})
    approx.fit(bundle.frame, binned=bundle.binned)
    approx_requests = [replace(request, use_cache=False)
                       for request in session_requests(approx)]
    approx_fast = _serve_both_backends(
        approx, approx_requests, "kernel smoke [greedy-approx]"
    )

    # EmbDI: the same centroid selection over a graph-walk embedding,
    # at the registry's small test scale.
    embdi = Engine("embdi", config=SubTabConfig(k=4, l=4, seed=1),
                   selector_options={
                       "walks_per_node": 1, "walk_length": 6,
                       "word2vec": Word2VecConfig(epochs=1, dim=8),
                   })
    embdi.fit(bundle.frame, binned=bundle.binned)
    embdi_requests = [replace(request, use_cache=False)
                      for request in session_requests(embdi)]
    embdi_fast = _serve_both_backends(
        embdi, embdi_requests, "kernel smoke [embdi]"
    )
    library = _library_selections(bundle)

    golden = {
        "subtab": [_discrete(response) for response in subtab_fast],
        "greedy_approx": [_discrete(response) for response in approx_fast],
        "embdi": [_discrete(response) for response in embdi_fast],
        "subtab_library": library,
    }
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                               + "\n")
        print(f"kernel smoke: regenerated {GOLDEN_PATH}")
        return 0
    committed = json.loads(GOLDEN_PATH.read_text())
    for family in golden:
        fresh, pinned = golden[family], committed[family]
        assert len(fresh) == len(pinned), (
            f"kernel smoke [{family}]: {len(fresh)} selections vs "
            f"{len(pinned)} committed — regenerate deliberately with "
            f"REPRO_UPDATE_GOLDENS=1"
        )
        for i, (f, p) in enumerate(zip(fresh, pinned)):
            assert f == p, (
                f"kernel smoke [{family}] selection {i} drifted from the "
                f"committed golden:\nfresh:     {f}\ncommitted: {p}"
            )

    print(f"kernel smoke: one fit, {len(requests)} subtab + "
          f"{len(approx_requests)} greedy-approx + {len(embdi_requests)} "
          f"embdi selections bit-identical across kernel backends; they and "
          f"{len(library)} library selections match the committed goldens")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
