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
  :class:`BatchedEngine`, which merge concurrent HB-cuts INDEP passes
  into single multi-query engine evaluations.

:meth:`AdvisorService.submit` takes and returns the wire envelopes of
:mod:`repro.api.protocol` (``Request``/``Response``), validated against
its op table — the same versioned protocol the HTTP server
(:mod:`repro.api.server`) puts on the network.

The CLI's ``serve`` sub-command and benchmark E12 drive this layer with
the multi-user scenarios of :mod:`repro.workloads.concurrent` (replayed
by its :func:`~repro.workloads.concurrent.serve`);
``serve --http`` exposes it to remote
:class:`~repro.api.client.RemoteAdvisor` clients.
"""

from repro.service.batching import BatchCoordinator, BatchedEngine
from repro.service.service import AdvisorService
from repro.service.sessions import ServiceSession

__all__ = [
    "AdvisorService",
    "ServiceSession",
    "BatchCoordinator",
    "BatchedEngine",
]
