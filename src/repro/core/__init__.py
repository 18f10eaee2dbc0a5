"""Core contribution of the paper: primitives, metrics, HB-cuts, the advisor.

* :mod:`repro.core.median`, :mod:`repro.core.cut`,
  :mod:`repro.core.compose`, :mod:`repro.core.product` — the CUT, COMPOSE
  and SDL-product primitives of Section 4.1;
* :mod:`repro.core.metrics`, :mod:`repro.core.dependence` — the quality
  criteria of Section 3 and Proposition 1's dependence quotient;
* :mod:`repro.core.hbcuts` — the HB-cuts heuristic of Figure 4;
* :mod:`repro.core.ranking`, :mod:`repro.core.advisor`,
  :mod:`repro.core.session` — ranking, the Charles facade and interactive
  drill-down.

Section 5.2's extensions each have a caller outside this package:
:mod:`repro.core.interestingness` is ``--ranker surprise``,
:mod:`repro.core.lazy` (:class:`LazyAdvisor`) and
:mod:`repro.core.quantiles` (:func:`quantile_cut_query`) serve the weblog
and astronomy examples.  :mod:`repro.core.baselines` holds the comparison
strategies of the E9 study.
"""

from repro.core.median import (
    DEFAULT_LOW_CARDINALITY_THRESHOLD,
    median_split,
    nominal_value_order,
)
from repro.core.cut import cut_query, cut_segmentation
from repro.core.compose import compose
from repro.core.product import product, product_counts
from repro.core.metrics import (
    SegmentationScores,
    balance,
    breadth,
    cover,
    entropy,
    homogeneity_proxy,
    indep,
    indep_from_entropies,
    max_entropy,
    score_segmentation,
    simplicity,
)
from repro.core.dependence import (
    analyse_dependence,
    chi_square_test,
    contingency_table,
    cramers_v,
    mutual_information,
)
from repro.core.hbcuts import HBCuts, HBCutsConfig, HBCutsResult, HBCutsTrace
from repro.core.ranking import EntropyRanker, LexicographicRanker, Ranker, WeightedRanker
from repro.core.advisor import Advice, Charles, RankedAnswer
from repro.core.session import ExplorationSession
from repro.core.quantiles import quantile_cut_query
from repro.core.lazy import LazyAdvisor
from repro.core.interestingness import SurpriseRanker
from repro.core.baselines import (
    all_facet_segmentations,
    clique_like_segmentation,
    facet_segmentation,
    full_product_segmentation,
    random_segmentation,
)

__all__ = [
    # median / primitives
    "DEFAULT_LOW_CARDINALITY_THRESHOLD",
    "median_split",
    "nominal_value_order",
    "cut_query",
    "cut_segmentation",
    "compose",
    "product",
    "product_counts",
    # metrics / dependence
    "entropy",
    "max_entropy",
    "balance",
    "simplicity",
    "breadth",
    "cover",
    "indep",
    "indep_from_entropies",
    "homogeneity_proxy",
    "SegmentationScores",
    "score_segmentation",
    "analyse_dependence",
    "contingency_table",
    "chi_square_test",
    "cramers_v",
    "mutual_information",
    # hb-cuts
    "HBCuts",
    "HBCutsConfig",
    "HBCutsResult",
    "HBCutsTrace",
    # ranking / advisor / session
    "Ranker",
    "EntropyRanker",
    "WeightedRanker",
    "LexicographicRanker",
    "Charles",
    "Advice",
    "RankedAnswer",
    "ExplorationSession",
    # section 5.2 extensions
    "quantile_cut_query",
    "LazyAdvisor",
    "SurpriseRanker",
    # baselines
    "facet_segmentation",
    "all_facet_segmentations",
    "random_segmentation",
    "full_product_segmentation",
    "clique_like_segmentation",
]
