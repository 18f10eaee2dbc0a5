"""Service layer: concurrent exploration sessions over shared tables.

The paper observes (Section 5.1) that Charles issues only two kinds of
back-end operations — medians and counts over predicates — which makes the
advisor embarrassingly cacheable and batchable across users.  This package
is the subsystem built on that observation:

* :mod:`repro.service.service` — :class:`AdvisorService`, the session
  pool, per-table shared caches and the ``submit`` entry point;
* :mod:`repro.service.sessions` — :class:`ServiceSession`, one named
  drill-down session backed by the shared runtime;
* :mod:`repro.service.batching` — :class:`BatchCoordinator` and
  :class:`BatchedEngine`, which merge concurrent ``count_batch`` passes
  into single multi-query engine evaluations.

:meth:`AdvisorService.submit` takes and returns the wire envelopes of
:mod:`repro.api.protocol` (``Request``/``Response``), validated against
its op table — the same versioned protocol the HTTP server
(:mod:`repro.api.server`) puts on the network.

The CLI's ``serve`` sub-command drives this layer with
the multi-user scenarios of :mod:`repro.workloads.concurrent` (replayed
by its :func:`~repro.workloads.concurrent.serve`);
``serve --http`` exposes it to remote
:class:`~repro.api.client.RemoteAdvisor` clients.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.service.service": ("AdvisorService",),
    "repro.service.sessions": ("ServiceSession",),
    "repro.service.batching": ("BatchCoordinator", "BatchedEngine"),
})

__all__ = list(_EXPORTS)
