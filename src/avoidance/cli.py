"""Command-line workbench.

Commands: gen, check-transitive, solve, solve-plus, verify-strategy,
verify-lemma, earliest-loss, play, catalog. Reports are single JSON
documents on stdout. Exit status: 0 = verified / succeeded, 1 = refuted
(counterexample or failing suite), 2 = usage error or refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import pairset
from .core import (Game, GameError, IllegalMoveError, Player, Position,
                   SearchCapExceeded, apply_move, is_transitive, iter_bits, orbit)
from .constructions import (CATALOG, _catalog_game, game_from_json, game_to_json,
                            parse_game_spec, spec_size)


def _load_game(args, search: Optional[str] = None) -> Game:
    """The game of ``--game-file`` or ``--game``. A ``--game`` spec for a
    ``search`` (its name in the cap message) is refused over ``--cap``
    before it is built."""
    if args.game_file is not None:
        with open(args.game_file, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise GameError("the game file nests too deeply to be a game "
                                "document") from None
        return game_from_json(doc)
    if search is not None:
        from .solver import check_cap
        check_cap(spec_size(args.game), args.cap, search)
    return parse_game_spec(args.game)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_gen(args) -> int:
    if "(" in args.construction:
        game = parse_game_spec(args.construction)
    else:
        # an unknown name has no flags to check and is refused by the catalog
        params = CATALOG.get(args.construction, {"params": []})["params"]
        values = [getattr(args, pname, None) for pname in params]
        if None in values:
            raise GameError(f"construction {args.construction} needs "
                            f"--{params[values.index(None)]}")
        game = _catalog_game(args.construction, values)
    doc = game_to_json(game)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    else:
        _emit(doc)
    return 0


def cmd_check_transitive(args) -> int:
    game = _load_game(args)
    try:
        transitive = is_transitive(game)
        preserved = True
        detail = None
    except SearchCapExceeded:
        raise  # a cap hit is no answer, so not a "no" (exit 2)
    except GameError as exc:
        transitive, preserved, detail = False, False, str(exc)
    orb = sorted(orbit(game.generators, 0)) if preserved else []
    _emit({
        "game": game.name,
        "n": game.n,
        "lines_preserved": preserved,
        "line_violation": detail,
        "orbit_of_0": orb,
        "transitive": transitive,
    })
    return 0 if transitive else 1


def cmd_solve(args) -> int:
    from .solver import solve
    game = _load_game(args, "solve")
    report = solve(game, cap=args.cap, root_symmetry=args.root_symmetry)
    _emit({"game": game.name, **report.to_json()})
    return 0


def cmd_solve_plus(args) -> int:
    from .solver import solve_plus
    game = _load_game(args, "plus-solve")
    report = solve_plus(game, cap=args.cap)
    _emit({"game": game.name, **report.to_json()})
    return 0


def cmd_verify_strategy(args) -> int:
    from .solver import Goal, verify_strategy
    from .strategies import strategy_for
    game = _load_game(args)
    strat = strategy_for(game, args.strategy)
    goal = Goal.WIN if args.goal == "win" else Goal.NEVER_LOSE
    report = verify_strategy(game, strat, strat.role, goal, mode=args.mode,
                             samples=args.samples, seed=args.seed)
    _emit({"game": game.name, "strategy": strat.name, "goal": goal.value,
           **report.to_json()})
    return 0 if report.passed else 1


def cmd_verify_lemma(args) -> int:
    names = pairset.SUITES if args.suite == "all" else [args.suite]
    reports = [pairset.run_suite(name, args.m) for name in names]
    _emit({"reports": [r.to_json() for r in reports]})
    return 0 if all(r.passed for r in reports) else 1


def cmd_earliest_loss(args) -> int:
    from .solver import earliest_forced_loss
    game = _load_game(args, "solve")
    value = earliest_forced_loss(game, cap=args.cap)
    _emit({"game": game.name, "earliest_forced_loss": value})
    return 0


def cmd_catalog(args) -> int:
    from .strategies import STRATEGY_NAMES
    _emit({
        "constructions": {
            name: {"params": entry["params"], "ranges": entry["ranges"]}
            for name, entry in CATALOG.items()
        },
        "strategies": list(STRATEGY_NAMES),
        "lemma_suites": sorted(pairset.SUITES),
    })
    return 0


def cmd_play(args) -> int:
    from .solver import best_move
    from .strategies import strategy_for
    by_solver = not args.strategy or args.strategy == "solver"
    game = _load_game(args, "solve" if by_solver else None)
    opponent = None
    if not by_solver:
        opponent = strategy_for(game, args.strategy)
        state = opponent.initial
    last = None  # the human's last move, which a strategy opponent answers
    human = Player.ONE if args.side == "1" else Player.TWO
    if opponent is not None and opponent.role is human:
        print(f"strategy {opponent.name} plays side {opponent.role.name}; "
              f"pick the other side", file=sys.stderr)
        return 2
    pos = Position.initial()
    print(f"playing {game.name}: you are Player {'I' if human is Player.ONE else 'II'}; "
          f"enter a point 0..{game.n - 1}, or q to quit")
    points = lambda mask: list(iter_bits(mask))
    while True:
        if pos.a | pos.b == game.full_mask:
            print("board full: draw")
            return 0
        print(f"PI={points(pos.a)} PII={points(pos.b)}  {pos.to_move.name} to move")
        if pos.to_move is human:
            line = sys.stdin.readline()
            if not line or line.strip().lower() in ("q", "quit"):
                print("bye")
                return 0
            try:
                x = int(line.strip())
            except ValueError:
                print("enter a point index")
                continue
            try:
                newpos, lost = apply_move(game, pos, x)
            except IllegalMoveError as exc:
                print(f"illegal: {exc}")
                continue
            last = x
        else:
            if opponent is not None:
                x, state = opponent.step(state, pos.a, pos.b, last)
            elif pos.to_move is Player.ONE:
                x = best_move(game, pos.a, pos.b, args.cap)
            else:
                x = best_move(game, pos.b, pos.a, args.cap)
            print(f"opponent plays {x}")
            newpos, lost = apply_move(game, pos, x)
        if lost:
            loser = pos.to_move
            print(f"PI={points(newpos.a)} PII={points(newpos.b)}")
            print(f"Player {'I' if loser is Player.ONE else 'II'} completed a line "
                  f"and loses on move {(newpos.a | newpos.b).bit_count()}")
            return 0
        pos = newpos


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="avoidance",
                                 description="transitive avoidance game workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_game_args(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--game", help="game spec, e.g. pairs(3) or copies(pairs(3),3)")
        src.add_argument("--game-file", help="path to a game JSON document")

    g = sub.add_parser("gen", help="build a game and emit its JSON")
    g.add_argument("construction", help="construction name or full spec string")
    for flag in ("p", "q", "a", "b", "d", "n", "c", "r", "k"):
        g.add_argument(f"--{flag}", type=int)
    g.add_argument("--base", help="base game spec for copies/superset")
    g.add_argument("--out", help="write JSON here instead of stdout")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("check-transitive", help="orbit and line-preservation checks")
    add_game_args(c)
    c.set_defaults(func=cmd_check_transitive)

    s = sub.add_parser("solve", help="exact outcome")
    add_game_args(s)
    s.add_argument("--cap", type=int, default=16)
    s.add_argument("--root-symmetry", action="store_true",
                   help="restrict the opening move to point 0 (transitive games)")
    s.set_defaults(func=cmd_solve)

    sp = sub.add_parser("solve-plus", help="exact outcome of the any-set-per-move variant")
    add_game_args(sp)
    sp.add_argument("--cap", type=int, default=8)
    sp.set_defaults(func=cmd_solve_plus)

    v = sub.add_parser("verify-strategy", help="exhaustive or sampled strategy check")
    add_game_args(v)
    v.add_argument("--strategy", required=True)
    v.add_argument("--goal", choices=("win", "neverlose"), required=True)
    v.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    v.add_argument("--samples", type=int, default=100_000)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify_strategy)

    l = sub.add_parser("verify-lemma", help="exhaustive pair-set suites")
    l.add_argument("suite", choices=sorted(pairset.SUITES) + ["all"])
    l.add_argument("--m", type=int, required=True)
    l.set_defaults(func=cmd_verify_lemma)

    e = sub.add_parser("earliest-loss", help="forced loss time in a first-player win")
    add_game_args(e)
    e.add_argument("--cap", type=int, default=16)
    e.set_defaults(func=cmd_earliest_loss)

    p = sub.add_parser("play", help="interactive demo against a strategy or the solver")
    add_game_args(p)
    p.add_argument("--strategy", default="solver",
                   help="opponent: a strategy name or 'solver'")
    p.add_argument("--side", choices=("1", "2"), default="1", help="your seat")
    p.add_argument("--cap", type=int, default=16)
    p.set_defaults(func=cmd_play)

    cat = sub.add_parser("catalog", help="list constructions, strategies, suites")
    cat.set_defaults(func=cmd_catalog)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GameError, ValueError, OSError) as exc:
        message = f"error: {exc}"
    except Exception as exc:  # a crash must not exit 1, which means "refuted"
        message = f"error: unexpected {type(exc).__name__}: {exc}"
    try:
        print(message, file=sys.stderr)
    except OSError:  # stderr is a closed pipe too: the exit status still tells
        pass
    return 2


if __name__ == "__main__":
    sys.exit(main())
