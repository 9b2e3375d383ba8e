"""The public API, pinned: every name in ``coalstab.__all__`` with the
parameters of each public callable (names, kinds and defaults; annotations
are left out). A removed, renamed or added name, or a changed parameter,
fails here until ``API`` is edited on purpose and CHANGES.md says why.
"""

import inspect

import coalstab


def _params(obj) -> str | None:
    """Parameter list of a public callable, or None for a constant and for an
    exception class that inherits the builtin constructor."""
    if not callable(obj):
        return None
    try:
        sig = inspect.signature(obj)
    except ValueError:
        return None
    bare = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=sig.empty))


API = {
    "CapExceeded": None,
    "CoalstabError": None,
    "EmptyBlockAllocation": "(block, message)",
    "InfeasiblePair": None,
    "InputError": None,
    "NoCoarsening": None,
    "NoNonGrandPartition": None,
    "Rational": None,
    "exact": "(value)",
    "format_rational": "(value)",
    "parse_rational": "(text)",
    "DEFAULT_PLAYER_CAP": None,
    "Game": "(n, values=())",
    "PAPair": "(partition, allocation)",
    "Partition": "(n, blocks)",
    "coalition": "(players)",
    "coalition_value": "(game, c)",
    "equal_surplus_allocation": "(game, p)",
    "is_efficient_allocation": "(game, x)",
    "is_partition_allocation": "(game, p, x)",
    "members": "(mask)",
    "subgame": "(game, c)",
    "worth": "(game, p)",
    "PartitionMove": "(kind, source, target, touched)",
    "all_partitions": "(n)",
    "enumerate_partitions": "(n)",
    "export_graph": "(n)",
    "fission_neighborhood": "(p)",
    "fusion_neighborhood": "(p)",
    "is_refinement": "(p, q)",
    "meet": "(p, q)",
    "one_step_fission": "(p)",
    "one_step_fusion": "(p)",
    "path": "(p, q)",
    "LinearProgram": ("(num_vars, sense='feasibility', objective=None, constraints=(), "
                      "lower=None)"),
    "LpOutcome": "(status, value, witness)",
    "balancedness_value": "(game)",
    "lp_solve": "(lp)",
    "MEDIUM": None,
    "MODES": None,
    "STRONG": None,
    "WEAK": None,
    "CoreReport": "(mode, member, coalition=None, partition=None, satisfied=None, reason=None)",
    "core_contains": "(game, x, mode)",
    "max_nongrand_worth": "(game)",
    "medium_core_contains": "(game, x)",
    "medium_core_nonempty": "(game)",
    "optimal_structure_value": "(game)",
    "strong_core_contains": "(game, x)",
    "strong_core_nonempty": "(game)",
    "weak_core_contains": "(game, x)",
    "weak_core_nonempty": "(game)",
    "StabilityReport": ("(mode, feasible, stable, fission_resistant=None, "
                        "fusion_resistant=None, fission_certificate=None, "
                        "fusion_certificate=None, reason=None)"),
    "blockwise_core_contains": "(game, p, x, mode)",
    "blockwise_core_nonempty": "(game, p, mode)",
    "dominates_coarsenings": "(game, p)",
    "enumerate_stable_partitions": "(game, mode)",
    "fission_resistant_decomposed": "(game, pair, mode)",
    "fusion_resistant": "(game, pair)",
    "stable_contains": "(game, pair, mode)",
    "SamStep": "(source, target, source_worth, target_worth, direction)",
    "SamTrace": "(start, steps, terminal, terminal_pair)",
    "best_coarsening": "(game, p)",
    "best_refinement": "(game, p)",
    "sam_run": "(game, start=None)",
    "sam_step": "(game, p)",
    "GameFile": "(game, players, filled)",
    "load_game": "(path)",
    "parse_allocation": "(text, n)",
    "parse_game_json": "(text)",
    "parse_partition": "(text, players)",
}


def test_public_names_are_pinned():
    assert len(set(coalstab.__all__)) == len(coalstab.__all__)
    assert set(coalstab.__all__) == set(API)


def test_public_signatures_are_pinned():
    assert {name: _params(getattr(coalstab, name)) for name in coalstab.__all__} == API
