"""Labeled chip-firing on infinitely subdivided star graphs.

Simulation, exhaustive enumeration, and verification of the labeled and
unlabeled chip-firing games started from a pile of chips on the center of a
k-branch star, including the standard-Young-tableau structure of the stable
outcomes.

``import starchip`` loads no submodule: each public name, and each
submodule named in ``_EXPORTS``, is loaded on first access (PEP 562), so a
command pays only for the modules it runs.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "BudgetExceededError",
        "CENTER",
        "ChipGameError",
        "IllegalMoveError",
        "LogInconsistencyError",
        "Move",
        "Outcome",
        "ShapeError",
        "StarParams",
        "Vertex",
        "WitnessConstructionError",
        "branch_vertex",
        "degree",
        "is_totally_sorted",
        "outcome_from_text",
        "outcome_to_text",
        "parse_move",
        "parse_vertex",
        "totally_sorted_outcome",
    ),
    "engine": (
        "Deterministic",
        "RandomUniform",
        "VolatilityMinimizing",
        "expected_fire_count",
        "expected_total_fires",
        "make_strategy",
        "replay",
        "stabilize_labeled",
        "stabilize_unlabeled",
    ),
    "enumeration": ("DEFAULT_CELL_BUDGET", "EnumerationResult", "enumerate_all", "enumerate_volmin", "reachable_set"),
    "rng": ("SplitMix64", "derive_seed"),
    "tableaux": (
        "Tableau",
        "catalan",
        "count_rect_syt",
        "from_outcome",
        "generate_syts",
        "is_row_and_rim_sorted",
        "sort_rows",
        "to_outcome",
        "witness_sequence",
    ),
    "verify": (
        "FireRef",
        "SequenceLog",
        "VerifierReport",
        "Violation",
        "endgame_positions",
        "endgame_refs",
        "verify_branch_sorted",
        "verify_mixing",
        "verify_poset",
        "verify_rim_sorted",
    ),
    "reports": ("FrequencyReport", "emit_table", "run_montecarlo", "write_atomic"),
}
"""The public names of each submodule."""

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Load a public name's module, or a submodule, on first access. The
    name is then bound in this module, so later reads find it there."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
