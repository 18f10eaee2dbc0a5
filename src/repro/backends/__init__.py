"""Execution backends: the formal storage ↔ advisor seam.

The paper presents Charles as "a front-end for SQL systems" whose advisor
needs only counts and medians over predicates (Section 5.1).  This
package owns that contract:

* :mod:`repro.backends.base` — the :class:`ExecutionBackend` protocol and
  the :class:`BackendWrapper` delegation base for decorating backends;
* :mod:`repro.backends.approx` — :class:`ApproxEngine`, the approximate
  view: statistics from a uniform row sample of any backend, with an
  explicit error bound (``memory?sample=...``, ``mode="interactive"``);
* :mod:`repro.backends.sqlite` — :class:`SQLiteBackend`, executing SDL
  through the :mod:`repro.storage.sql` glue against ``sqlite3``;
* :mod:`repro.backends.registry` — :func:`open_backend`, resolving specs
  such as ``"memory"``, ``"memory?partitions=4"`` or
  ``"sqlite:///path.db#table"``.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.backends.base": ("ExecutionBackend", "BackendWrapper"),
    "repro.backends.approx": ("ApproxEngine",),
    "repro.backends.sqlite": ("SQLiteBackend",),
    "repro.backends.registry": ("open_backend",),
})

__all__ = list(_EXPORTS)
