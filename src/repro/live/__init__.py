"""Live data subsystem: versioned mutable tables for a running advisor.

The reproduction's storage substrate is immutable by design; this package
makes the whole stack *mutation-aware* on top of it:

* :mod:`repro.live.versioned` — :class:`VersionedTable`, the one mutable
  handle over a chain of immutable copy-on-write snapshots:
  ``append_batch``/``delete_where`` bump a monotonic data version, a
  reader holding a snapshot keeps its rows (snapshots never change), and
  row-range shard sets rebuild lazily (and zero-copy) on growth.

Everything above consumes the data version this package mints: the
:class:`~repro.storage.cache.ResultCache` keys entries by it and evicts
superseded versions surgically, every
:class:`~repro.backends.base.ExecutionBackend` exposes
``ingest``/``delete_where``/``data_version``, exploration sessions record
the version each advice was computed at and report staleness, and the
wire protocol carries an ``ingest`` operation end-to-end (service op,
HTTP route, ``RemoteAdvisor.ingest``, ``charles ingest``).
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.live.versioned": ("VersionedTable",),
})

__all__ = list(_EXPORTS)
