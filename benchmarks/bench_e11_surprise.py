"""E11 — Section 5.2 extension beyond the prototype: interestingness and surprise.

"We do not use any notion of 'interestingness' or 'surprise'."  This
future-work item of the paper is implemented in this repo as the
``surprise`` ranker (``charles advise --ranker surprise``) and measured
here as an extension experiment (it has no counterpart figure in the
paper; the expected shape comes from the paper's own argumentation).  The
benchmark compares the paper's entropy ranking with the surprise-blended
ranking on the VOC context that includes an uninformative
high-cardinality column (``master``): entropy alone ranks a ``master`` cut
above more revealing answers, the surprise ranking demotes it.
"""

from __future__ import annotations

from conftest import print_table

from repro.core import Charles, EntropyRanker, SurpriseRanker
from repro.storage import QueryEngine


def test_e11_surprise_ranking_demotes_uninformative_cuts(benchmark, voc_table):
    engine = QueryEngine(voc_table)
    interestingness = SurpriseRanker(engine=engine).interestingness
    context_columns = ["master", "type_of_boat", "tonnage", "departure_harbour"]

    def rank_both():
        entropy_advisor = Charles(QueryEngine(voc_table), ranker=EntropyRanker())
        entropy_advice = entropy_advisor.advise(context_columns, max_answers=None)
        surprise_advisor = Charles(
            QueryEngine(voc_table),
            ranker=SurpriseRanker(engine=engine, surprise_weight=2.0),
        )
        surprise_advice = surprise_advisor.advise(context_columns, max_answers=None)
        return entropy_advice, surprise_advice

    entropy_advice, surprise_advice = benchmark.pedantic(rank_both, rounds=1, iterations=1)

    def summarise(advice):
        rows = []
        for answer in advice.answers[:5]:
            interest = interestingness(answer.segmentation)
            rows.append(
                (
                    f"#{answer.rank}",
                    ", ".join(answer.attributes),
                    f"{answer.scores.entropy:.3f}",
                    f"{interest:.3f}",
                )
            )
        return rows

    print_table(
        "E11 / §5.2 — paper's entropy ranking (context includes 'master')",
        ["rank", "attributes", "entropy", "interestingness"],
        summarise(entropy_advice),
    )
    print_table(
        "E11 / §5.2 — surprise-blended ranking (weight 2.0)",
        ["rank", "attributes", "entropy", "interestingness"],
        summarise(surprise_advice),
    )

    def position_of_master_only(advice):
        for answer in advice.answers:
            if set(answer.attributes) == {"master"}:
                return answer.rank
        return len(advice.answers) + 1

    entropy_position = position_of_master_only(entropy_advice)
    surprise_position = position_of_master_only(surprise_advice)
    # Cutting the high-cardinality 'master' column is balanced (high
    # entropy) but reveals nothing; the surprise ranking must not place it
    # higher than the paper's ranking does.
    assert surprise_position >= entropy_position
    # And the surprise ranking's top answer must be at least as interesting.
    top_entropy_interest = interestingness(entropy_advice.best().segmentation)
    top_surprise_interest = interestingness(surprise_advice.best().segmentation)
    assert top_surprise_interest >= top_entropy_interest - 1e-9
    benchmark.extra_info["master_rank_entropy"] = entropy_position
    benchmark.extra_info["master_rank_surprise"] = surprise_position
