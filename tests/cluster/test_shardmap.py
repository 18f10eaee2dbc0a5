"""Routing determinism units for the cluster shard map.

The router's correctness rests on one property: every router process,
restarted at any time, maps the same key to the same ordered node list.
These tests pin that mapping — including hard-coded CRC-32 expectations,
so an accidental switch to Python's randomised ``hash()`` fails loudly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.shardmap import DEFAULT_SHARDS, ShardMap, session_key, table_key
from repro.errors import ClusterError


class TestKeyDerivation:
    def test_session_and_table_keys_never_collide(self):
        # Distinct namespaces: a session named like a table routes
        # independently of that table's sessionless traffic.
        assert session_key("voc") != table_key("voc")

    def test_table_key_treats_none_as_default_table(self):
        assert table_key(None) == table_key("")


class TestDeterminism:
    def test_routing_is_stable_across_instances(self):
        first = ShardMap([0, 1, 2], replicas=1)
        second = ShardMap([2, 0, 1], replicas=1)  # order must not matter
        for name in ("alice", "bob", "carol", "dave"):
            key = session_key(name)
            assert first.route(key) == second.route(key)

    def test_pinned_crc32_expectations(self):
        # Hard-coded outputs of the CRC-32 shard function.  If these
        # move, every deployed router disagrees with every restarted one:
        # that is a wire-protocol break, not a refactor.
        shard_map = ShardMap([0, 1, 2], replicas=1)
        assert shard_map.shard_of(session_key("alice")) == 25
        assert shard_map.shard_of(session_key("bob")) == 21
        assert shard_map.shard_of(table_key("voc")) == 31
        assert shard_map.route(session_key("alice")) == (1, 2)
        assert shard_map.route(session_key("bob")) == (0, 1)
        assert ShardMap([0, 1], replicas=1).owner(table_key("voc")) == 1

    def test_shards_do_not_depend_on_the_interpreters_hash_seed(self):
        # Two fresh interpreters with different PYTHONHASHSEED: builtin
        # hash() of a str differs between them, the shards must not.
        script = (
            "import json; from repro.cluster.shardmap import ShardMap, session_key; "
            "m = ShardMap([0, 1, 2]); "
            "print(json.dumps([hash('s:user0'), "
            "[m.shard_of(session_key(f'user{i}')) for i in range(200)]]))"
        )
        source = str(Path(__file__).resolve().parents[2] / "src")
        printed = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": source, "PYTHONHASHSEED": seed}
            completed = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                timeout=60, env=env, check=True,
            )
            printed.append(json.loads(completed.stdout))
        (first_hash, first), (second_hash, second) = printed
        assert first_hash != second_hash  # the seeds took effect
        assert first == second
        assert first == [ShardMap([0, 1, 2]).shard_of(session_key(f"user{i}")) for i in range(200)]

    def test_a_thousand_session_keys_touch_every_shard(self):
        shard_map = ShardMap([0, 1], replicas=1)
        touched = {shard_map.shard_of(session_key(f"user{i}")) for i in range(1000)}
        assert touched == set(range(DEFAULT_SHARDS))

    def test_owner_is_first_of_route(self):
        shard_map = ShardMap([0, 1, 2, 3], replicas=2)
        for name in ("alice", "bob", "carol"):
            key = session_key(name)
            route = shard_map.route(key)
            assert shard_map.owner(key) == route[0]
            assert len(route) == 3  # owner + 2 replicas
            assert len(set(route)) == 3  # all distinct nodes


class TestAssignment:
    def test_every_shard_has_owner_plus_replicas(self):
        shard_map = ShardMap([0, 1, 2], replicas=1)
        assignment = shard_map.assignment
        assert sorted(assignment) == list(range(DEFAULT_SHARDS))
        for nodes in assignment.values():
            assert len(nodes) == 2
            assert len(set(nodes)) == 2

    def test_ownership_spreads_over_all_nodes(self):
        shard_map = ShardMap([0, 1, 2, 3], replicas=1)
        owned = {
            node: [shard for shard, nodes in shard_map.assignment.items() if nodes[0] == node]
            for node in range(4)
        }
        # Rotation assignment: every node owns DEFAULT_SHARDS / n shards.
        assert all(len(shards) == DEFAULT_SHARDS // 4 for shards in owned.values())
        flattened = sorted(shard for shards in owned.values() for shard in shards)
        assert flattened == list(range(DEFAULT_SHARDS))

    def test_replicas_clamp_to_node_count(self):
        # Asking for more copies than peers exist degrades gracefully to
        # "every node holds it" rather than erroring.
        shard_map = ShardMap([0, 1], replicas=5)
        assert shard_map.replicas == 1
        single = ShardMap([7], replicas=3)
        assert single.replicas == 0
        assert single.route(session_key("alice")) == (7,)

    def test_document_round_trips_the_assignment(self):
        shard_map = ShardMap([0, 1], replicas=1)
        document = shard_map.to_document()
        assert document["shards"] == DEFAULT_SHARDS
        assert document["replicas"] == 1
        assert len(document["assignment"]) == DEFAULT_SHARDS


class TestValidation:
    def test_empty_node_list_is_rejected(self):
        with pytest.raises(ClusterError):
            ShardMap([])

    def test_duplicate_node_ids_are_rejected(self):
        with pytest.raises(ClusterError):
            ShardMap([0, 1, 1])
