"""The explicit shard map: which node owns which slice of the key space.

Routing is *consistent hashing with an explicit assignment table*: the
key space is cut into :data:`DEFAULT_SHARDS` shards, every shard is assigned
an owner node plus ``replicas`` distinct fallback nodes at construction
time, and a key routes by hashing into a shard and reading the table.
Making the table explicit (rather than recomputing ``hash % nodes`` per
request) buys three properties the router needs:

* **Determinism across processes** — the hash is CRC-32 of the key's
  UTF-8 bytes, never Python's seeded ``hash()``, so every router restart
  and every test process computes the same placement.  Placement needs
  spread, not collision resistance: CRC-32 is in :mod:`zlib`, which the
  process has loaded anyway, where SHA-1 mapped OpenSSL's ``libcrypto``
  (3.5 MB resident) into a router that hashes nothing else.
* **Inspectability** — ``GET /v1/cluster`` can print the whole table.
* **Stable failover order** — a shard's replica chain is fixed, so when
  the owner dies every router decision agrees on the next candidate.
"""

from __future__ import annotations

import zlib
from typing import Dict, Sequence, Tuple

from repro.errors import ClusterError

__all__ = ["ShardMap", "session_key", "table_key"]

#: The shard count: comfortably more shards than nodes so session load
#: spreads evenly, small enough to print.
DEFAULT_SHARDS = 32


def session_key(session: str) -> str:
    """The routing key of a named session."""
    return f"s:{session}"


def table_key(table: object) -> str:
    """The routing key of a table-level operation (``table`` may be None)."""
    return f"t:{table if isinstance(table, str) else ''}"


def _shard_of(key: str, shards: int) -> int:
    # Stable across processes, platforms and PYTHONHASHSEED (unlike
    # builtin hash()): zlib.crc32 is an unsigned 32-bit value everywhere.
    return zlib.crc32(key.encode("utf-8")) % shards


class ShardMap:
    """An immutable shard → (owner, replicas...) assignment table.

    Parameters
    ----------
    node_ids:
        The cluster's node identifiers, in a canonical order (the order
        itself is part of the map: two routers given the same sequence
        build the same table).
    replicas:
        Fallback nodes per shard, clamped to ``len(node_ids) - 1``.
    """

    shards = DEFAULT_SHARDS

    def __init__(self, node_ids: Sequence[int], replicas: int = 1) -> None:
        nodes = list(node_ids)
        if not nodes:
            raise ClusterError("a shard map needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ClusterError(f"duplicate node ids in shard map: {nodes!r}")
        # Sort so two routers fed the same node *set* in any order build
        # the same assignment table — determinism must not hinge on the
        # caller's iteration order.
        nodes.sort()
        self.node_ids: Tuple[int, ...] = tuple(nodes)
        self.replicas = max(0, min(int(replicas), len(nodes) - 1))
        # Owner by rotation, replicas by walking the ring: shard i is
        # owned by node i mod n with the next `replicas` distinct nodes
        # as its fallback chain.
        n = len(nodes)
        self._assignment: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(nodes[(shard + step) % n] for step in range(self.replicas + 1))
            for shard in range(self.shards)
        )

    # -- routing -------------------------------------------------------------

    def shard_of(self, key: str) -> int:
        """The shard a routing key hashes into."""
        return _shard_of(key, self.shards)

    def route(self, key: str) -> Tuple[int, ...]:
        """Candidate nodes for a key: the owner first, then its replicas."""
        return self._assignment[self.shard_of(key)]

    def owner(self, key: str) -> int:
        """The owning node of a key (the preferred target when live)."""
        return self.route(key)[0]

    # -- inspection ----------------------------------------------------------

    @property
    def assignment(self) -> Dict[int, Tuple[int, ...]]:
        """The full table: shard index → (owner, replicas...)."""
        return {shard: nodes for shard, nodes in enumerate(self._assignment)}

    def to_document(self) -> Dict[str, object]:
        """A JSON-safe description, served under ``GET /v1/cluster``."""
        return {
            "shards": self.shards,
            "replicas": self.replicas,
            "nodes": list(self.node_ids),
            "assignment": {
                str(shard): list(nodes)
                for shard, nodes in enumerate(self._assignment)
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardMap(nodes={list(self.node_ids)!r}, "
            f"replicas={self.replicas}, shards={self.shards})"
        )
