"""Run BLAS on one thread for the duration of a scope.

The serving stack parallelises with processes, not threads: each
``BackendDispatcher`` runs one backend call at a time.  OpenBLAS
nevertheless splits a large enough GEMM (k-means' ``(n x d) . (d x k)``
score matrix on a view of a few hundred distinct rows) across a worker
thread, and that worker keeps spinning for a while after every call: on
a cold session stream it burnt as much CPU as the selects themselves.
:func:`single_blas_thread` sets every loaded OpenBLAS to one thread on
entry and restores the saved count when the last concurrent holder
leaves; scikit-learn's KMeans wraps its Lloyd loop in the same policy.  A
GEMM's result does not depend on the thread count (threads split the
output, never the inner products), so the scope changes no bits.  Fits
enter it too, around KDE binning's ``gaussian_kde``: its 1x1 Cholesky and
triangular solves run on scipy's OpenBLAS, and each solved value is the
same on any thread count.

The libraries are found on first use (never at import) in
``/proc/self/maps``: numpy and scipy wheels each bundle their own
OpenBLAS, and both are driven.  Each one found is driven through the
first known get/set symbol pair it exports; where no OpenBLAS is loaded
(MKL, Accelerate, a platform without ``/proc``) the scope does nothing.
``OPENBLAS_NUM_THREADS`` still sets the count outside the scope.
"""

from __future__ import annotations

import ctypes
import json
import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

#: (getter, setter) symbol pairs, in the order they are tried: the
#: bundled builds first (numpy's ILP64 one, ``libscipy_openblas64_``, and
#: scipy's LP64 one, ``libscipy_openblas``), then stock ILP64 and LP64
#: builds.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class OpenBLAS:
    """The thread-count controls of one loaded OpenBLAS library."""

    def __init__(self, path: str, library: ctypes.CDLL,
                 getter: str, setter: str):
        self.path = path
        self._get = getattr(library, getter)
        self._get.argtypes = []
        self._get.restype = ctypes.c_int
        self._set = getattr(library, setter)
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None

    def num_threads(self) -> int:
        return int(self._get())

    def set_num_threads(self, count: int) -> None:
        self._set(count)


def _mapped_openblas_paths() -> list[str]:
    """Paths of the mapped shared objects whose file name mentions
    openblas, in map order, each once."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths: list[str] = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        if "openblas" in os.path.basename(path).lower() and path not in paths:
            paths.append(path)
    return paths


def find_openblas() -> tuple[OpenBLAS, ...]:
    """Every loaded OpenBLAS that exports a known get/set symbol pair."""
    found = []
    for path in _mapped_openblas_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for getter, setter in _SYMBOLS:
            if hasattr(library, getter) and hasattr(library, setter):
                found.append(OpenBLAS(path, library, getter, setter))
                break
    return tuple(found)


def numpy_links_openblas() -> bool:
    """Whether numpy's build configuration names OpenBLAS as its BLAS."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in json.dumps(blas).lower()


class _OneThreadScope:
    """Reference-counted one-thread scope over the loaded OpenBLAS.

    The first holder saves each library's thread count and sets it to 1;
    the last one to leave restores the saved counts.  Holders in between
    (other threads, nested scopes) only count.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._libraries: Optional[tuple[OpenBLAS, ...]] = None
        self._depth = 0
        self._saved: list[int] = []

    def libraries(self) -> tuple[OpenBLAS, ...]:
        """The libraries the scope drives, looked up on first call."""
        with self._lock:
            if self._libraries is None:
                self._libraries = find_openblas()
            return self._libraries

    def enter(self) -> None:
        libraries = self.libraries()
        with self._lock:
            if self._depth == 0:
                self._saved = [library.num_threads() for library in libraries]
                for library in libraries:
                    library.set_num_threads(1)
            self._depth += 1

    def leave(self) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for library, count in zip(self._libraries or (), self._saved):
                    library.set_num_threads(count)
                self._saved = []


#: One scope per process: the thread count it guards is process-wide
#: state of the loaded libraries.
_SCOPE = _OneThreadScope()


def loaded_openblas() -> tuple[OpenBLAS, ...]:
    """The OpenBLAS libraries :func:`single_blas_thread` drives."""
    return _SCOPE.libraries()


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS on one thread.

    Safe to nest and to hold from several threads at once: the thread
    count is restored when the last holder leaves, also when the body
    raises.
    """
    _SCOPE.enter()
    try:
        yield
    finally:
        _SCOPE.leave()
