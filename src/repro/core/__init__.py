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

from repro import _lazy_exports

# ``compose`` and ``product`` also name submodules.  Importing a submodule
# binds it as a package attribute, which ``__getattr__`` never overrides,
# so the two functions are bound eagerly, before any such import.
from repro.core.compose import compose
from repro.core.product import product

_EXPORTS, __getattr__, __dir__ = _lazy_exports(__name__, {
    # primitives
    "repro.core.median": ("median_split", "nominal_value_order"),
    "repro.core.cut": ("cut_query", "cut_segmentation"),
    "repro.core.compose": ("compose",),
    "repro.core.product": ("product", "product_counts"),
    # metrics / dependence
    "repro.core.metrics": (
        "entropy", "max_entropy", "balance", "simplicity", "breadth", "cover", "indep",
        "indep_from_entropies", "homogeneity_proxy", "SegmentationScores",
        "score_segmentation",
    ),
    "repro.core.dependence": (
        "analyse_dependence", "contingency_table", "chi_square_test", "cramers_v",
        "mutual_information",
    ),
    # hb-cuts, ranking, the advisor, sessions
    "repro.core.hbcuts": ("HBCuts", "HBCutsConfig", "HBCutsResult", "HBCutsTrace"),
    "repro.core.ranking": ("Ranker", "EntropyRanker", "WeightedRanker", "LexicographicRanker"),
    "repro.core.advisor": ("Charles", "Advice", "RankedAnswer"),
    "repro.core.session": ("ExplorationSession",),
    # section 5.2 extensions, E9's baselines
    "repro.core.quantiles": ("quantile_cut_query",),
    "repro.core.lazy": ("LazyAdvisor",),
    "repro.core.interestingness": ("SurpriseRanker",),
    "repro.core.baselines": (
        "facet_segmentation", "all_facet_segmentations", "random_segmentation",
        "full_product_segmentation", "clique_like_segmentation",
    ),
})

__all__ = list(_EXPORTS)
