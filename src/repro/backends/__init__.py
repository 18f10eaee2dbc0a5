"""Execution backends: the formal storage ↔ advisor seam.

The paper presents Charles as "a front-end for SQL systems" whose advisor
needs only counts and medians over predicates (Section 5.1).  This
package owns that contract:

* :mod:`repro.backends.base` — the :class:`ExecutionBackend` protocol and
  the :class:`BackendWrapper` delegation base for decorating backends;
* :mod:`repro.backends.pool` — :class:`ExecutorPool`, the bounded,
  shared worker pool the in-memory engine maps its shards through;
* :mod:`repro.backends.approx` — :class:`ApproxEngine`, answering counts
  and medians from mergeable per-shard sketches with explicit error
  bounds (``memory?approx=...``);
* :mod:`repro.backends.sqlite` — :class:`SQLiteBackend`, executing SDL
  through the :mod:`repro.storage.sql` glue against ``sqlite3``;
* :mod:`repro.backends.registry` — :class:`BackendRegistry` and
  :func:`open_backend`, resolving specs such as ``"memory"``,
  ``"memory?workers=4"`` or ``"sqlite:///path.db#table"``.

``base`` and ``pool`` are imported eagerly (they have no storage
dependencies, so the storage layer itself may use
:class:`BackendWrapper`); the registry, the SQLite backend and the
approximate engine load lazily on first attribute access to keep the import
graph acyclic (``registry`` → ``storage.sampling`` → ``base``).
"""

from repro.backends.base import BackendWrapper, ExecutionBackend
from repro.backends.pool import ExecutorPool

__all__ = [
    "ExecutionBackend",
    "BackendWrapper",
    "ExecutorPool",
    "ApproxEngine",
    "Estimate",
    "SQLiteBackend",
    "BackendSpec",
    "BackendRegistry",
    "default_registry",
    "register_backend",
    "open_backend",
]

_LAZY = {
    "ApproxEngine": "repro.backends.approx",
    "Estimate": "repro.backends.approx",
    "SQLiteBackend": "repro.backends.sqlite",
    "BackendSpec": "repro.backends.registry",
    "BackendRegistry": "repro.backends.registry",
    "default_registry": "repro.backends.registry",
    "register_backend": "repro.backends.registry",
    "open_backend": "repro.backends.registry",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.backends' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
