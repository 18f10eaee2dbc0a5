"""The request-script generator is a pure function of the seed."""

from itertools import islice

from bench import scripts


def _take(count, **options):
    options.setdefault("workload", "w")
    options.setdefault("client", 0)
    return list(islice(scripts.user_stream(**options), count))


def test_same_seed_same_requests():
    assert _take(120, seed=7) == _take(120, seed=7)
    assert _take(50, seed=7, hot_contexts=2, distinct_paths=4) == _take(
        50, seed=7, hot_contexts=2, distinct_paths=4
    )
    assert scripts.count_predicates(7) == scripts.count_predicates(7)


def test_another_seed_other_requests():
    assert _take(20, seed=7) != _take(20, seed=8)
    assert scripts.count_predicates(7) != scripts.count_predicates(8)


def test_clients_get_streams_of_their_own():
    first = _take(20, seed=7, client=0, clients=2)
    second = _take(20, seed=7, client=1, clients=2)
    assert [user.context for user in first] != [user.context for user in second]
    assert not {user.name for user in first} & {user.name for user in second}


def test_cold_stream_deals_every_context_once_per_deck():
    users = _take(2 * len(scripts.CONTEXTS), seed=3)
    for deck in (users[: len(scripts.CONTEXTS)], users[len(scripts.CONTEXTS):]):
        assert sorted(user.context for user in deck) == sorted(scripts.CONTEXTS)
    assert all("trip" not in user.context for user in users)
    assert len({user.steps for user in users}) > 100  # every user its own path


def test_shared_stream_reuses_a_few_paths_over_the_hot_contexts():
    users = _take(300, seed=3, hot_contexts=2, distinct_paths=4)
    assert {user.context for user in users} == set(scripts.HOT_CONTEXTS[:2])
    assert len({(user.context, user.steps) for user in users}) == 4
    # The paths themselves depend on the seed, not on the client.
    other = _take(300, seed=3, client=1, clients=2, hot_contexts=2, distinct_paths=4)
    assert {user.steps for user in other} == {user.steps for user in users}


def test_a_user_is_eight_steps_with_a_count_after_every_third():
    for user in _take(30, seed=5):
        kinds = [step.kind for step in user.steps]
        assert kinds.count("count") == 2
        assert len(kinds) - 2 == 8
        assert kinds[3] == "count" and kinds[7] == "count"
        depth = 0
        for kind in kinds:
            depth += {"drill": 1, "back": -1, "count": 0}[kind]
            assert depth >= 0  # never backs out of the root


def test_count_predicates_are_ranges_inside_the_domains():
    for predicate in scripts.count_predicates(11):
        assert predicate.low <= predicate.high
        assert predicate.text == f"({predicate.attribute}: [{predicate.low}, {predicate.high}])"
