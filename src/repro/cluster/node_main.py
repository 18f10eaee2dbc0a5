"""Entry point of one cluster node: ``python -m repro.cluster.node_main``.

Launched by :class:`~repro.cluster.nodes.NodeSupervisor` with one JSON
argument (``node_id``, ``host``, ``specs``, ``service_options``).  The
node builds its tables, binds an ephemeral port, announces ``ok <port>``
(or ``error <reason>``) as the one line it ever writes to the
supervisor's pipe, and serves until it is killed or its stdin reaches
end-of-file — the supervisor holds the other end and never writes, so
that is the moment the supervisor is gone.

:mod:`repro.cluster` does not import this module: it only ever runs as
``__main__``.
"""

from __future__ import annotations

import json
import os
import sys
import threading

from repro.api.server import AdvisorHTTPServer
from repro.cluster.specs import TableSpec
from repro.service import AdvisorService


def _exit_at_stdin_eof() -> None:
    sys.stdin.buffer.read()  # nothing is ever written: returns at end-of-file
    os._exit(0)


def main() -> None:
    config = json.loads(sys.argv[1])
    try:
        tables = [TableSpec(**spec).load() for spec in config["specs"]]
        service = AdvisorService(tables, **config["service_options"])
        server = AdvisorHTTPServer(
            service, host=config["host"], port=0, node_id=f"node-{config['node_id']}"
        )
    except Exception as exc:
        print(f"error {type(exc).__name__}: {exc}", flush=True)
        raise SystemExit(1) from exc
    print(f"ok {server.port}", flush=True)
    # The supervisor closes its end after that line: whatever this
    # process prints from now on goes where its errors go.
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    threading.Thread(target=_exit_at_stdin_eof, name="stdin-eof", daemon=True).start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # Ctrl-C reaches the whole process group
        pass


if __name__ == "__main__":
    main()
