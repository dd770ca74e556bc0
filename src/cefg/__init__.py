"""Coalitional extensive-form games: model, solvers, oracle, and rendering."""

from .errors import (
    CefgError,
    GameFormatError,
    GameValidationError,
    ImperfectInformation,
    InfeasibleCoalition,
    MixedEquilibriumUnsupported,
    OutputError,
    TooLarge,
    UntimeableLayer,
)
from .gamefile import (
    GameSpec,
    load_game,
    load_game_text,
    parse_game,
    serialize_game,
    validate_game,
)
from .model import GameTree, Node, UtilitySystem
from .noncoop import LocalSolution, backward_induction, spne_in_subgame
from .oracle import OracleReport, equivalence_check, oracle_bi, oracle_solve, random_game
from .render import (
    bracket_entry,
    bracket_summary,
    export_dot,
    profile_to_json,
    render_solution,
    render_trace,
)
from .ri import (
    SolutionProfile,
    SolveStep,
    check_ir_invariants,
    solve_game,
)

__version__ = "0.1.0"
