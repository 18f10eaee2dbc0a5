"""Execution backends: the formal storage ↔ advisor seam.

The paper presents Charles as "a front-end for SQL systems" whose advisor
needs only counts and medians over predicates (Section 5.1).  This
package owns that contract:

* :mod:`repro.backends.base` — the :class:`ExecutionBackend` protocol and
  the :class:`BackendWrapper` delegation base for decorating backends;
* :mod:`repro.backends.pool` — :class:`ExecutorPool`, the bounded,
  shared worker pool the in-memory engine maps its shards through;
* :mod:`repro.backends.approx` — :class:`ApproxEngine`, the approximate
  view: statistics from a uniform row sample of any backend, with an
  explicit error bound (``memory?sample=...``, ``mode="interactive"``);
* :mod:`repro.backends.sqlite` — :class:`SQLiteBackend`, executing SDL
  through the :mod:`repro.storage.sql` glue against ``sqlite3``;
* :mod:`repro.backends.registry` — :func:`open_backend`, resolving specs
  such as ``"memory"``, ``"memory?workers=4"`` or
  ``"sqlite:///path.db#table"``.
"""

from repro.backends.approx import ApproxEngine
from repro.backends.base import BackendWrapper, ExecutionBackend
from repro.backends.pool import ExecutorPool
from repro.backends.registry import open_backend
from repro.backends.sqlite import SQLiteBackend

__all__ = [
    "ExecutionBackend",
    "BackendWrapper",
    "ExecutorPool",
    "ApproxEngine",
    "SQLiteBackend",
    "open_backend",
]
