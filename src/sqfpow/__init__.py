"""sqfpow: square-free powers of edge ideals, exactly.

Bit-vector hypergraphs and matchings, generalized k-admissible
matchings and aim, Hochster-formula Betti tables and regularity over
prime fields, block-graph and Cohen-Macaulay-chordal structure, and
the verification campaigns tying them together.
"""

from .admissible import (
    AdmissibleWitness,
    aim,
    aim_profile,
    aim_star,
    forcing_components,
    is_generalized_k_admissible,
    is_rigid_part,
    lower_bound,
)
from .betti import (
    BettiTable,
    betti_splitting_check,
    betti_table,
    regularity,
)
from .campaigns import (
    CampaignFailure,
    CampaignReport,
    pair_corpus,
    run_campaign,
)
from .corpus import (
    Corpus,
    bundled_corpus,
    load_corpus,
    parse_graph6,
    parse_instance,
)
from .graphclasses import (
    BlockDecomposition,
    block_decomposition,
    cm_clique_partition,
    colon_graph,
    free_vertices,
    is_block_graph,
    is_chordal,
    is_weakly_chordal,
    maximal_cliques,
)
from .hypergraphs import (
    BudgetError,
    Graph,
    Hypergraph,
    InputError,
    disjoint_union,
    enumerate_matchings,
    induced_matching_number,
    induced_sub,
    matching_number,
    vertex_set,
    vertices_of,
)
from .ideals import (
    GeneralMonomialIdeal,
    SquareFreeIdeal,
    edge_ideal,
    matching_power_general,
    polarize,
    splitting_for_disjoint_union,
    sqfree_power,
)

__version__ = "0.1.0"
