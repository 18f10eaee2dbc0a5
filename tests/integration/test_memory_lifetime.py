"""Memory follows live data: nothing a request leaves behind waits for the collector.

Two kinds of check, both with CPython's cycle collector out of the
picture:

* :func:`unreachable_after` runs a piece of traffic under
  ``gc.DEBUG_SAVEALL`` and returns what a collection *would have* freed.
  No instance of a ``repro.*`` class may be in it, and nothing in it may
  refer to an ``ndarray`` — cyclic garbage holding a superseded version's
  shards or a closed session's advice is resident until a generation-2
  pass that nothing schedules.  The standard library leaves closures of
  its own behind (``ast.literal_eval``, ``inspect._signature_fromstr``);
  those are allowed.
* weak references, with the collector disabled, show *when* a superseded
  version and a closed session are freed: by reference count, at once.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np

from repro import AdvisorService, Charles
from repro.api.client import RemoteAdvisor
from repro.api.codec import dumps
from repro.api.protocol import Request
from repro.api.server import AdvisorHTTPServer
from repro.cluster.router import ClusterRouter, RouterHTTPServer
from repro.workloads import generate_voc

_CONTEXT = ["type_of_boat", "departure_harbour", "tonnage"]
_INDEXED = "memory?index=zonemap,bitmap,maskreuse&partitions=8"
_ROWS, _SEED = 600, 11


def unreachable_after(fn):
    """What only the cycle collector could free of the objects ``fn`` left.

    Whatever ``fn`` returns (the service and servers that took the
    traffic) stays referenced across the collection: they are built once
    and live as long as their process, so the question is what their
    *requests* leave.
    """
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        kept = fn()
        gc.collect()
        del kept
        return list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _assert_nothing_of_ours(garbage):
    ours = sorted(
        {
            f"{type(item).__module__}.{type(item).__qualname__}"
            for item in garbage
            if type(item).__module__.split(".")[0] == "repro"
        }
    )
    assert not ours, f"unreachable repro objects: {ours}"
    # Arrays are not tracked by the collector: look through the referents.
    holders = sorted(
        {
            type(item).__qualname__
            for item in garbage
            if any(isinstance(held, np.ndarray) for held in gc.get_referents(item))
        }
    )
    assert not holders, f"unreachable objects referring to arrays: {holders}"


def _batch(round_index, size=40):
    fresh = generate_voc(rows=size, seed=100 + round_index)
    return [fresh.row(index) for index in range(fresh.num_rows)]


def _answers(advice):
    return dumps({"context": advice.context, "answers": advice.answers})


def _live_rounds(backend):
    service = AdvisorService(
        generate_voc(rows=_ROWS, seed=_SEED), batch_window=0.0, backend=backend
    )
    exact = service.open_session("exact", context=_CONTEXT)
    interactive = service.open_session("interactive", context=_CONTEXT)
    for round_index in range(5):
        service.ingest(_batch(round_index))
        exact.advise(refresh=True)
        approximate = interactive.advise(refresh=True, mode="interactive")
        assert approximate.approximate
        assert not interactive.refine().approximate
    return service


def _user(open_session, name):
    session = open_session(name)
    session.advise(_CONTEXT)
    session.drill(0, 0)
    session.back()
    session.drill(0, 1)
    return session


class TestNothingCyclicIsLeftBehind:
    def test_live_rounds_on_the_indexed_partitioned_backend(self):
        _assert_nothing_of_ours(unreachable_after(lambda: _live_rounds(_INDEXED)))

    def test_live_rounds_on_the_plain_backend(self):
        _assert_nothing_of_ours(unreachable_after(lambda: _live_rounds("memory")))

    def test_users_through_submit(self):
        def traffic():
            service = AdvisorService(generate_voc(rows=_ROWS, seed=_SEED))
            for user in range(20):
                name = f"user-{user}"
                script = [
                    ("open_session", {}),
                    ("advise", {"context": _CONTEXT}),
                    ("drill", {"answer_index": 0, "segment_index": 0}),
                    ("back", {}),
                    ("close_session", {}),
                ]
                for op, params in script:
                    assert service.submit(Request(op, name, params)).ok, op
            return service

        _assert_nothing_of_ours(unreachable_after(traffic))

    def test_users_through_a_threaded_http_server(self):
        def traffic():
            service = AdvisorService(generate_voc(rows=_ROWS, seed=_SEED))
            server = AdvisorHTTPServer(service, port=0).start()
            try:
                client = RemoteAdvisor(server.url, timeout=10.0)
                for user in range(20):
                    _user(client.open_session, f"user-{user}").close()
            finally:
                server.shutdown()
            return server

        _assert_nothing_of_ours(unreachable_after(traffic))

    def test_users_and_an_ingest_through_a_threaded_cluster(self):
        def traffic():
            services = [
                AdvisorService(generate_voc(rows=_ROWS, seed=_SEED)) for _ in range(2)
            ]
            servers = [
                AdvisorHTTPServer(service, port=0, node_id=f"node-{index}").start()
                for index, service in enumerate(services)
            ]
            router = ClusterRouter(
                {index: server.url for index, server in enumerate(servers)},
                replicas=1,
                probe_interval=3600.0,
            ).start()
            front = RouterHTTPServer(router, port=0).start()
            try:
                client = RemoteAdvisor(front.url, timeout=10.0)
                for user in range(20):
                    if user == 10:
                        client.ingest(_batch(0))
                    _user(client.open_session, f"user-{user}").close()
            finally:
                front.shutdown()
                router.close()
                for server in servers:
                    server.shutdown()
            return servers, router, front

        _assert_nothing_of_ours(unreachable_after(traffic))


class _ExactPassFailed(RuntimeError):
    """Raised in place of every exact advise."""


class TestARefineThatRaises:
    def test_propagates_keeps_the_approximate_step_and_leaves_nothing(
        self, monkeypatch
    ):
        interactive = Charles.advise

        def advise(self, context=None, max_answers=10, attributes=None, mode=None):
            if mode == "exact":
                raise _ExactPassFailed("the exact pass failed")
            return interactive(self, context, max_answers, attributes, mode)

        monkeypatch.setattr(Charles, "advise", advise)

        def traffic():
            service = AdvisorService(
                generate_voc(rows=_ROWS, seed=_SEED), batch_window=0.0
            )
            session = service.open_session("alice")
            approximate = session.advise(_CONTEXT, mode="interactive")
            try:
                session.refine()
            except _ExactPassFailed:
                pass
            else:
                raise AssertionError("refine swallowed its exact advise's error")
            assert session.exploration.current.advice is approximate
            return service

        _assert_nothing_of_ours(unreachable_after(traffic))


class TestFreedByReferenceCount:
    def test_a_superseded_version_dies_while_an_idle_session_is_open(self):
        gc.collect()
        gc.disable()
        try:
            table = generate_voc(rows=_ROWS, seed=_SEED)
            service = AdvisorService(table, batch_window=0.0, backend=_INDEXED)
            idle = service.open_session("idle", context=_CONTEXT)
            busy = service.open_session("busy", context=_CONTEXT)
            engine = idle.advisor.engine
            snapshot, shards = engine.table, engine.partitioned_table
            old = [weakref.ref(x) for x in (snapshot, shards, shards.skipping())]
            del table, snapshot, shards

            batch = _batch(0)
            version = service.ingest(batch)["data_version"]
            busy.advise(refresh=True)
            assert [ref() for ref in old] == [None, None, None]

            # The idle session last saw the dead version; it catches up.
            assert idle.stale
            refreshed = idle.advise(refresh=True)
            assert idle.data_version == version and not idle.stale
            fresh = Charles(generate_voc(rows=_ROWS, seed=_SEED))
            fresh.ingest(batch)
            assert _answers(refreshed) == _answers(fresh.advise(_CONTEXT))
        finally:
            gc.enable()

    def test_closing_a_session_frees_its_exploration(self):
        gc.collect()
        gc.disable()
        try:
            service = AdvisorService(generate_voc(rows=_ROWS, seed=_SEED))
            session = service.open_session("alice", context=_CONTEXT)
            session.drill(0, 0)
            # An interactive advice that is never refined.
            session.advise(refresh=True, mode="interactive")
            exploration = weakref.ref(session.exploration)
            del session
            service.close_session("alice")
            assert exploration() is None
        finally:
            gc.enable()
