"""Exact cores, partition-based stability, and steepest ascent for
transferable-utility coalitional games.

All arithmetic is exact rational (ints and ``fractions.Fraction``), so every
membership and dominance test is a sharp comparison, never a tolerance.
"""

__version__ = "0.1.0"

from .errors import (CapExceeded, CoalstabError, EmptyBlockAllocation, InfeasiblePair,
                     InputError, NoCoarsening, NoNonGrandPartition)
from .rational import Rational, exact, format_rational, parse_rational
from .game import (DEFAULT_PLAYER_CAP, Game, PAPair, Partition, coalition,
                   coalition_value, equal_surplus_allocation, is_efficient_allocation,
                   is_partition_allocation, members, subgame, worth)
from .lattice import (PartitionMove, all_partitions, enumerate_partitions, export_graph,
                      fission_neighborhood, fusion_neighborhood, is_refinement, meet,
                      one_step_fission, one_step_fusion, path)
from .ratlp import LinearProgram, LpOutcome, balancedness_value, lp_solve
from .cores import (MEDIUM, MODES, STRONG, WEAK, CoreReport, core_contains,
                    max_nongrand_worth, medium_core_contains, medium_core_nonempty,
                    optimal_structure_value, strong_core_contains, strong_core_nonempty,
                    weak_core_contains, weak_core_nonempty)
from .stability import (StabilityReport, blockwise_core_contains, blockwise_core_nonempty,
                        dominates_coarsenings, enumerate_stable_partitions,
                        fission_resistant_decomposed, fusion_resistant, stable_contains)
from .sam import SamStep, SamTrace, best_coarsening, best_refinement, sam_run, sam_step
from .io import GameFile, load_game, parse_allocation, parse_game_json, parse_partition

__all__ = [
    "CapExceeded", "CoalstabError", "EmptyBlockAllocation", "InfeasiblePair",
    "InputError", "NoCoarsening", "NoNonGrandPartition",
    "Rational", "exact", "format_rational", "parse_rational",
    "DEFAULT_PLAYER_CAP", "Game", "PAPair", "Partition", "coalition",
    "coalition_value", "equal_surplus_allocation", "is_efficient_allocation",
    "is_partition_allocation", "members", "subgame", "worth",
    "PartitionMove", "all_partitions", "enumerate_partitions", "export_graph",
    "fission_neighborhood", "fusion_neighborhood", "is_refinement", "meet",
    "one_step_fission", "one_step_fusion", "path",
    "LinearProgram", "LpOutcome", "balancedness_value", "lp_solve",
    "MEDIUM", "MODES", "STRONG", "WEAK", "CoreReport", "core_contains",
    "max_nongrand_worth", "medium_core_contains", "medium_core_nonempty",
    "optimal_structure_value", "strong_core_contains", "strong_core_nonempty",
    "weak_core_contains", "weak_core_nonempty",
    "StabilityReport", "blockwise_core_contains", "blockwise_core_nonempty",
    "dominates_coarsenings", "enumerate_stable_partitions",
    "fission_resistant_decomposed", "fusion_resistant",
    "stable_contains",
    "SamStep", "SamTrace", "best_coarsening", "best_refinement", "sam_run", "sam_step",
    "GameFile", "load_game", "parse_allocation", "parse_game_json", "parse_partition",
]
