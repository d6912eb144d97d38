"""The benchmark's workloads: CLI commands, answer checks, in-process twins.

Each ``Command`` is one ``avoidance`` CLI invocation. It carries the exit
status the CLI must return, a check of the JSON it prints, and an
in-process twin that makes the same library calls through a ``Library``
(see ``tracing.py``) and returns the same JSON document. The end-to-end run
times the CLI form; the traced run times the twin.

Known answers (outcomes, leaves, suite ``checked`` counts) are checked: a
wrong one fails the command. Work counts that a faster search may change
(solver states and table size) are compared with ``REFERENCE_COUNTS`` and
reported as drift, never as a failure.

This module imports nothing from the package, so the harness can start
(and refuse) without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

SAMPLES = 20_000
LEMMA_M = 16
LEMMA_CHECKED = {
    "unique-max": 6560, "not-min": 560, "not-top": 416,
    "least-max": 26, "earliest-latest": 49104, "key-lemma": 6560,
}

# Work counts of the commit that defined the benchmark. A later commit may
# change them (say, a symmetry-reduced search); the harness prints the change.
REFERENCE_COUNTS = {
    "solve-affine-13": {"states": 62217, "table": 62217},
    "solve-pairs-7": {"states": 285571, "table": 279299},
    "solve-odd-composite-5-3": {"states": 141646, "table": 141646},
}


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple            # arguments after ``python -m avoidance.cli``
    status: int            # exit status the CLI must return
    twin: Callable         # (lib) -> (status, doc or None), same calls in-process
    check: Callable        # (doc, answers) -> list of problems
    specs: tuple = ()      # game specs the command builds


def work_counts(doc: Optional[dict]) -> dict:
    """Deterministic work counts a command reports in its JSON."""
    if not doc:
        return {}
    out = {key: doc[key] for key in ("states", "table", "leaves") if key in doc}
    for rep in doc.get("reports", ()):
        out["checked." + rep["suite"]] = rep["checked"]
    return out


class Answers:
    """Replays reported play against games built in the harness process.

    ``lib`` is any namespace with the package's ``core`` and
    ``constructions`` modules.
    """

    def __init__(self, lib):
        self.lib = lib
        self._games: dict = {}

    def game(self, spec: str):
        if spec not in self._games:
            self._games[spec] = self.lib.constructions.parse_game_spec(spec)
        return self._games[spec]

    def replay(self, spec: str, moves: list) -> tuple:
        """(winner, loss_time, moves left unplayed) of a move sequence,
        played through ``core.apply_move``."""
        core = self.lib.core
        game = self.game(spec)
        pos = core.Position.initial()
        for i, move in enumerate(moves):
            mover = i % 2
            pos, lost = core.apply_move(game, pos, move)
            if lost:
                return ("PIIWin" if mover == 0 else "PIWin"), i + 1, len(moves) - i - 1
        return "Draw", None, 0


def _problems(*pairs) -> list:
    return [f"{what}: got {got!r}, want {want!r}" for what, got, want in pairs if got != want]


# --------------------------------------------------------------------------
# command builders

def solve(spec: str, cmd_id: str, outcome: str = "PIWin") -> Command:
    def twin(lib):
        game = lib.parse(spec)
        try:
            report = lib.solve(game)
        except lib.core.GameError:
            return 2, None
        return 0, {"game": game.name, **report.to_json()}

    def check(doc, answers):
        winner, loss_time, rest = answers.replay(spec, doc["pv"])
        return _problems(("outcome", doc["outcome"], outcome),
                         ("pv replay outcome", winner, doc["outcome"]),
                         ("pv replay loss time", loss_time, doc["loss_time"]),
                         ("moves after the loss", rest, 0))

    return Command(cmd_id, ("solve", "--game", spec), 0, twin, check, (spec,))


def refuse_solve(spec: str, cmd_id: str) -> Command:
    """A solve the CLI must refuse (exit 2) because the board is over the cap."""
    base = solve(spec, cmd_id)
    return Command(cmd_id, base.argv, 2, base.twin, lambda doc, answers: [], (spec,))


def check_transitive(spec: str, cmd_id: str, n: int) -> Command:
    def twin(lib):
        game = lib.parse(spec)
        transitive, preserved, orbit = lib.transitive(game)
        return (0 if transitive else 1), {
            "game": game.name, "n": game.n, "lines_preserved": preserved,
            "orbit_of_0": orbit, "transitive": transitive}

    def check(doc, answers):
        return _problems(("n", doc["n"], n), ("transitive", doc["transitive"], True),
                         ("lines_preserved", doc["lines_preserved"], True),
                         ("orbit_of_0", doc["orbit_of_0"], list(range(n))))

    return Command(cmd_id, ("check-transitive", "--game", spec), 0, twin, check, (spec,))


def gen_affine(n: int, lines: int) -> Command:
    spec = f"affine({n})"

    def twin(lib):
        return 0, lib.to_json(lib.parse(spec))

    def check(doc, answers):
        return _problems(("n", doc["n"], n), ("name", doc["name"], spec),
                         ("lines", len(doc["lines"]["explicit"]), lines),
                         ("generators", len(doc["generators"]), 2))

    return Command(f"gen-affine-{n}", ("gen", "affine", "--n", str(n)), 0, twin, check,
                   (spec,))


def verify(spec: str, strategy: str, goal: str, cmd_id: str, leaves: Optional[int],
           samples: Optional[int] = None, seed: Optional[int] = None,
           status: int = 0) -> Command:
    """Exhaustive verify, or sampled when ``samples`` is given.

    ``status`` 1 marks an expected refutation: the counterexample must
    replay to a loss (or, under a win goal, a draw) for the owner.
    """
    argv = ["verify-strategy", "--game", spec, "--strategy", strategy, "--goal", goal]
    mode = "exhaustive"
    if samples is not None:
        mode = "sampled"
        argv += ["--mode", mode, "--samples", str(samples), "--seed", str(seed)]

    def twin(lib):
        game = lib.parse(spec)
        strat = lib.strategy_for(game, strategy)
        report = lib.verify(game, strat, goal, mode, samples, seed)
        doc = {"game": game.name, "strategy": strat.name, "goal": goal, **report.to_json()}
        return (0 if report.passed else 1), doc

    def check(doc, answers):
        if status == 1:
            winner, _, rest = answers.replay(spec, doc.get("counterexample", []))
            owner_failed = winner == "PIIWin" or (winner == "Draw" and goal == "win")
            return _problems(("verdict", doc["verdict"], "counterexample"),
                             ("counterexample replays to a failure", owner_failed, True),
                             ("moves after the failure", rest, 0))
        got = _problems(("verdict", doc["verdict"], "pass"), ("leaves", doc["leaves"], leaves),
                        ("mode", doc["mode"], mode))
        if samples is not None:
            got += _problems(("seed", doc.get("seed"), seed), ("samples", doc.get("samples"), samples))
        return got

    return Command(cmd_id, tuple(argv), status, twin, check, (spec,))


def lemma_all(m: int) -> Command:
    def twin(lib):
        reports = [lib.run_suite(name, m) for name in sorted(LEMMA_CHECKED)]
        return (0 if all(r.passed for r in reports) else 1), {
            "reports": [r.to_json() for r in reports]}

    def check(doc, answers):
        got = {r["suite"]: (r["passed"], r["checked"]) for r in doc["reports"]}
        want = {name: (True, checked) for name, checked in LEMMA_CHECKED.items()}
        return _problems(("suites (passed, checked)", got, want))

    return Command(f"lemma-all-{m}", ("verify-lemma", "all", "--m", str(m)), 0, twin, check)


# --------------------------------------------------------------------------
# workloads

def commands(workload: str, seed: int) -> list:
    """The commands of one workload; ``seed`` feeds only the sampled verify."""
    if workload == "solve-large":
        return [solve("affine(13)", "solve-affine-13"),
                solve("pairs(7)", "solve-pairs-7"),
                solve("odd_composite(5,3)", "solve-odd-composite-5-3"),
                check_transitive("affine(13)", "transitive-affine-13", 13),
                gen_affine(13, lines=1326),
                refuse_solve("pairs(9)", "refuse-pairs-9")]
    if workload == "verify":
        return [verify("even_general(2,5)", "even-general", "win",
                       "verify-even-general-2-5", leaves=29376),
                verify("torus(3,3)", "torus-pairing", "neverlose", "sample-torus-3-3",
                       leaves=SAMPLES, samples=SAMPLES, seed=seed),
                lemma_all(LEMMA_M),
                verify("pairs(3)", "lowest", "win", "refute-pairs-3-lowest",
                       leaves=None, status=1)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("solve-large", "verify")


def all_command_ids() -> list:
    return [c.id for w in WORKLOADS for c in commands(w, 0)]
