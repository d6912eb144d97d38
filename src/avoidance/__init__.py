"""Workbench for transitive avoidance positional games.

Submodules:
  core           game model: boards, line stores, positions, automorphisms
  pairset        cyclic pair sets in Z_m and rotation-extremum machinery
  constructions  factories for every shipped game family
  canonical      orbit keys of the families' groups, for the solver's table
  strategies     scripted strategies as pure state transitions
  solver         exact solvers and exhaustive strategy verification
  cli            command-line workbench
"""

from .core import (
    Game,
    GameError,
    IllegalMoveError,
    LinePreservationError,
    Outcome,
    Permutation,
    Player,
    Position,
    SearchCapExceeded,
    StrategyInvariantError,
    Winner,
    apply_move,
    find_fpf_involution,
    is_transitive,
    orbit,
)

__all__ = [
    "Game", "GameError", "IllegalMoveError", "LinePreservationError",
    "Outcome", "Permutation", "Player", "Position", "SearchCapExceeded",
    "StrategyInvariantError", "Winner", "apply_move",
    "find_fpf_involution", "is_transitive", "orbit",
]
