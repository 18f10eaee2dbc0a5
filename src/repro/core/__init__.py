"""Core contribution of the paper: primitives, metrics, HB-cuts, the advisor.

* :mod:`repro.core.median`, :mod:`repro.core.cut`,
  :mod:`repro.core.compose`, :mod:`repro.core.product` — the CUT, COMPOSE
  and SDL-product primitives of Section 4.1;
* :mod:`repro.core.metrics`, :mod:`repro.core.dependence` — the quality
  criteria of Section 3 and Proposition 1's dependence quotient;
* :mod:`repro.core.hbcuts` — the HB-cuts heuristic of Figure 4;
* :mod:`repro.core.ranking`, :mod:`repro.core.advisor`,
  :mod:`repro.core.session` — ranking, the Charles facade and interactive
  drill-down;
* :mod:`repro.core.quantiles`, :mod:`repro.core.lazy` — the Section 5.2
  extensions (general quantile cuts, lazy generation);
* :mod:`repro.core.baselines` — comparison strategies for the E9 study.
"""

from repro.core.median import (
    DEFAULT_LOW_CARDINALITY_THRESHOLD,
    SplitSpec,
    median_split,
    nominal_split_point,
    nominal_value_order,
)
from repro.core.cut import can_cut, cut_query, cut_segmentation
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
    DependenceReport,
    analyse_dependence,
    chi_square_test,
    contingency_table,
    cramers_v,
    g_test,
    indep_from_table,
    mutual_information,
    pairwise_indep_matrix,
)
from repro.core.hbcuts import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_INDEP,
    HBCuts,
    HBCutsConfig,
    HBCutsResult,
    HBCutsTrace,
    hb_cuts,
)
from repro.core.ranking import (
    EntropyRanker,
    LexicographicRanker,
    Ranker,
    WeightedRanker,
    rank_segmentations,
)
from repro.core.advisor import Advice, Charles, RankedAnswer
from repro.core.session import ExplorationSession, ExplorationStep
from repro.core.quantiles import (
    equal_frequency_segmentation,
    quantile_cut_query,
    quantile_points,
)
from repro.core.lazy import LazyAdvisor
from repro.core.heterogeneous import (
    HeterogeneousTrace,
    greedy_heterogeneous,
    randomized_heterogeneous,
)
from repro.core.interestingness import (
    SurpriseRanker,
    divergence_from_counts,
    segment_surprise,
    segmentation_interestingness,
)
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
    "SplitSpec",
    "median_split",
    "nominal_value_order",
    "nominal_split_point",
    "can_cut",
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
    "DependenceReport",
    "analyse_dependence",
    "contingency_table",
    "chi_square_test",
    "g_test",
    "cramers_v",
    "mutual_information",
    "indep_from_table",
    "pairwise_indep_matrix",
    # hb-cuts
    "DEFAULT_MAX_INDEP",
    "DEFAULT_MAX_DEPTH",
    "HBCuts",
    "HBCutsConfig",
    "HBCutsResult",
    "HBCutsTrace",
    "hb_cuts",
    # ranking / advisor / session
    "Ranker",
    "EntropyRanker",
    "WeightedRanker",
    "LexicographicRanker",
    "rank_segmentations",
    "Charles",
    "Advice",
    "RankedAnswer",
    "ExplorationSession",
    "ExplorationStep",
    # extensions
    "quantile_points",
    "quantile_cut_query",
    "equal_frequency_segmentation",
    "LazyAdvisor",
    "HeterogeneousTrace",
    "greedy_heterogeneous",
    "randomized_heterogeneous",
    "SurpriseRanker",
    "divergence_from_counts",
    "segment_surprise",
    "segmentation_interestingness",
    # baselines
    "facet_segmentation",
    "all_facet_segmentations",
    "random_segmentation",
    "full_product_segmentation",
    "clique_like_segmentation",
]
