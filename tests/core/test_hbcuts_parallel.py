"""HB-cuts over sharded engines: bit-for-bit identical results at every
partition count."""

from __future__ import annotations

import pytest

from repro.core import Charles, HBCuts, HBCutsConfig
from repro.sdl import SDLQuery
from repro.storage import QueryEngine
from repro.workloads import generate_voc

CONTEXT_COLUMNS = ("type_of_boat", "departure_harbour", "tonnage", "built")


@pytest.fixture(scope="module")
def voc():
    return generate_voc(rows=600, seed=23)


def _context():
    return SDLQuery.over(CONTEXT_COLUMNS)


def _segmentation_fingerprint(result):
    return [
        (
            segmentation.cut_attributes,
            tuple(segmentation.counts),
            tuple(segment.query.to_sdl() for segment in segmentation.segments),
        )
        for segmentation in result.segmentations
    ]


def _run(voc, partitions=1, **config_options):
    engine = QueryEngine(voc, partitions=partitions)
    return HBCuts(HBCutsConfig(**config_options)).run(engine, _context())


class TestParallelIndepParity:
    def test_one_and_four_shards_are_bit_for_bit_identical(self, voc):
        one = _run(voc)
        four = _run(voc, partitions=4)
        assert _segmentation_fingerprint(one) == _segmentation_fingerprint(four)
        # The whole trace — everything except wall-clock — is identical.
        for field in (
            "initial_candidates",
            "uncuttable_attributes",
            "iterations",
            "pair_evaluations",
            "pair_cache_hits",
            "batched_passes",
            "compositions",
            "indep_values",
            "stop_reason",
        ):
            assert getattr(one.trace, field) == getattr(four.trace, field)

    def test_parallel_matches_with_partitioned_engines(self, voc):
        baseline = _run(voc)
        combined = _run(voc, partitions=3)
        assert _segmentation_fingerprint(baseline) == (
            _segmentation_fingerprint(combined)
        )
        assert baseline.trace.indep_values == combined.trace.indep_values

    def test_parallel_without_indep_reuse(self, voc):
        baseline = _run(voc, reuse_indep=False)
        parallel = _run(voc, partitions=4, reuse_indep=False)
        assert baseline.trace.indep_values == parallel.trace.indep_values
        assert baseline.trace.pair_evaluations == parallel.trace.pair_evaluations
        assert _segmentation_fingerprint(baseline) == (
            _segmentation_fingerprint(parallel)
        )


class TestCharlesParallelWiring:
    def test_charles_default_is_one_shard(self, voc):
        assert Charles(voc).engine.partitions == 1

    def test_advice_is_identical_across_shard_counts(self, voc):
        def fingerprint(advice):
            return [
                (
                    answer.segmentation.cut_attributes,
                    tuple(answer.segmentation.counts),
                    answer.score,
                )
                for answer in advice.answers
            ]

        baseline = Charles(voc).advise(list(CONTEXT_COLUMNS), max_answers=8)
        for partitions in (2, 4):
            engine = QueryEngine(voc, partitions=partitions)
            advice = Charles(engine).advise(list(CONTEXT_COLUMNS), max_answers=8)
            assert fingerprint(advice) == fingerprint(baseline)
            assert advice.trace.indep_values == baseline.trace.indep_values
            assert advice.engine_operations == baseline.engine_operations
