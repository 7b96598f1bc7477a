"""Packings of vertex-disjoint connected dominating sets in expander graphs."""

from .coloring import (ColorAssignment, DominatingFamily, build_family,
                       stage_one, stage_two)
from .connector import (CdsPacking, PathRecord, choose_representatives,
                        connect_family, connect_one)
from .generators import (GenSpec, binomial_random, complete_graph, cycle_graph,
                         generate, glued_cliques, petersen_graph, random_regular)
from .graph import (Graph, components_of, edge_count_between,
                    gamma_restricted, induced_subgraph, load_graph, save_graph,
                    vertex_set)
from .params import PackingParams, derive_params
from .spectral import (ExpansionReport, LambdaBound, SpectralProfile,
                       expansion_check, extremal_eigenvalues, lambda_bound)
from .verifier import (VerificationReport, brute_force_max_disjoint_cds,
                       brute_force_min_cds, is_dominating, verify_packing)

__version__ = "0.1.0"
