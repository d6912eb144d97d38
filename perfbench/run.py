#!/usr/bin/env python3
"""Benchmark of the avoidance workbench: CLI workloads, end to end and by layer.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it reads ``src/`` beside
this directory and writes only under ``perfbench/out/``.

``--trace 0`` times the workload's CLI commands end to end. Every command
starts a fresh interpreter (one child at a time) and is timed from process
start until it exits; ``os.wait4`` gives its peak RSS. One pass runs every
command of the workload once. Passes repeat until ``--seconds`` is spent
(at least one); with ``all`` the workloads take turns pass by pass. Set-up
time (a fresh interpreter importing ``avoidance.cli`` and building the
workload's games) is measured ``SETUP_PER_PASS`` times before each pass.

Between commands the harness times a reference command: a fresh
interpreter running a fixed pure-Python loop of dict and integer work,
which imports nothing from the package. It runs at the start of each pass
and once per ``CALIB_EVERY_S`` of command time, so the mean of its times is
the host's speed over the run. ``wall_s`` (the mean pass time) and
``setup_s`` (the median set-up time) are host-adjusted: multiplied by
``CALIB_REF_S`` over that mean. On a shared host whose speed drifts by
1.5x for minutes, that keeps one commit's runs comparable with another's.
The raw times are printed beside them and kept in the result file.

``--trace 1`` runs the same commands in-process through ``tracing.py``, once
untraced and once traced, then times bare interpreter start-up and the
CLI commands again, and reports per-layer metrics.

Every answer is checked (see ``workloads.py``); a failed check or a wrong
exit status counts as a failed operation. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402  (beside this file, not a package)

SETUP_PER_PASS = 3
STARTUP_REPS = 11
COMMAND_TIMEOUT_S = 150
RUN_LIMIT_S = 150          # start no pass that would end past this
CALIB_EVERY_S = 2.0        # one reference command per this much command time
CALIB_REF_S = 0.2          # its time on a quiet host; the adjusted times' scale
CALIB_SCRIPT = """
table = {}
for i in range(120_000):
    table[(i * 2654435761) & 0xFFFFFFFF] = i
acc = 0
for i in range(120_000):
    acc = (acc * 31 + table[(i * 2654435761) & 0xFFFFFFFF]) & 0xFFFFFFFF
"""
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


# --------------------------------------------------------------------------
# child processes

def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list) -> SimpleNamespace:
    """Run ``python <args>`` to completion: wall seconds, status, peak RSS, output."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=ENV, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: the child must not outlive the harness
            _kill(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return SimpleNamespace(seconds=seconds, status=proc.returncode,
                               rss_mib=usage.ru_maxrss / 1024,
                               stdout=out.read().decode(), stderr=err.read().decode())


def calibrate() -> float:
    """Seconds for the reference command: tells a slow host from a slow program."""
    r = spawn(["-c", CALIB_SCRIPT])
    if r.status != 0:
        raise RuntimeError(f"the reference command exited {r.status}: {r.stderr.strip()[-300:]}")
    return r.seconds


# --------------------------------------------------------------------------
# answer checks

def judge(cmd: W.Command, status: int, doc, answers, stderr: str = "") -> list:
    """Problems with one command's result; empty when it is right."""
    problems = []
    if status != cmd.status:
        problems.append(f"exit status {status}, want {cmd.status}. {stderr.strip()[-300:]}")
    elif cmd.status != 2:
        if doc is None:
            problems.append("no JSON report")
        else:
            try:
                problems += cmd.check(doc, answers)
            except Exception as exc:  # a malformed report is a wrong answer
                problems.append(f"report did not check: {exc!r}")
    return problems


def run_cli(cmd: W.Command, answers) -> dict:
    r = spawn(["-m", "avoidance.cli", *cmd.argv])
    doc = None
    if r.stdout.strip():
        try:
            doc = json.loads(r.stdout)
        except json.JSONDecodeError:
            pass
    return {"id": cmd.id, "seconds": r.seconds, "rss_mib": r.rss_mib, "status": r.status,
            "problems": judge(cmd, r.status, doc, answers, r.stderr),
            "counts": W.work_counts(doc)}


def run_pass(cmds: list, answers) -> dict:
    """Every command once, with a calibration sample at the start and one
    per ``CALIB_EVERY_S`` of command time after that."""
    calib = [calibrate()]
    rows = []
    owed = 0.0
    for cmd in cmds:
        rows.append(run_cli(cmd, answers))
        owed += rows[-1]["seconds"]
        while owed >= CALIB_EVERY_S:
            calib.append(calibrate())
            owed -= CALIB_EVERY_S
    return {"calib": calib, "wall_s": sum(r["seconds"] for r in rows),
            "rss_mib": max(r["rss_mib"] for r in rows), "rows": rows}


def setup_script(cmds: list) -> str:
    specs = list(dict.fromkeys(s for cmd in cmds for s in cmd.specs))
    lines = ["import avoidance.cli", "from avoidance.constructions import parse_game_spec"]
    lines += [f"parse_game_spec({s!r})" for s in specs]
    return "\n".join(lines)


def time_script(script: str, reps: int, problems: list, what: str, warm: bool = True) -> list:
    """Wall times of ``reps`` fresh interpreters running ``script``, after one
    untimed run that warms the file cache (unless ``warm`` is false)."""
    if warm:
        spawn(["-c", script])
    times = []
    for _ in range(reps):
        r = spawn(["-c", script])
        if r.status != 0:
            problems.append(f"{what} exited {r.status}: {r.stderr.strip()[-300:]}")
        times.append(r.seconds)
    return times


# --------------------------------------------------------------------------
# statistics

def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def supported_percentile(n: int):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    if n < 20:
        return None
    return int(100 * (1 - 10 / n))


def consistent_counts(rows: list, problems: list) -> dict:
    """Work counts per command; they must agree across every pass."""
    seen: dict = {}
    for row in rows:
        first = seen.setdefault(row["id"], row["counts"])
        if row["counts"] != first:
            problems.append(f"{row['id']}: work counts differ between runs: "
                            f"{first} vs {row['counts']}")
    return seen


def drift_lines(counts: dict) -> list:
    out = []
    for cmd_id, ref in W.REFERENCE_COUNTS.items():
        got = counts.get(cmd_id)
        if got is None:
            continue
        for key, want in ref.items():
            if got.get(key) != want:
                out.append(f"{cmd_id}.{key}: {want} -> {got.get(key)}")
    return out


# --------------------------------------------------------------------------
# end-to-end runs

def command_medians(passes: list) -> dict:
    """Median wall time of each command over the passes."""
    times: dict = {}
    for p in passes:
        for row in p["rows"]:
            times.setdefault(row["id"], []).append(row["seconds"])
    return {cmd_id: statistics.median(v) for cmd_id, v in times.items()}


def measure_end_to_end(names: list, seed: int, seconds: int, answers) -> dict:
    cmds = {w: W.commands(w, seed) for w in names}
    scripts = {w: setup_script(cmds[w]) for w in names}
    res = {w: {"problems": [], "passes": [], "setup": []} for w in names}
    for w in names:
        spawn(["-c", scripts[w]])  # untimed: warms the file cache
    # Set-up runs go between the passes, so they see the host as the passes do.
    # A pass may start if at least half of it fits in the time left.
    budget = min(seconds * len(names), RUN_LIMIT_S)
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        for w in names:
            res[w]["setup"] += time_script(scripts[w], SETUP_PER_PASS, res[w]["problems"],
                                           "set-up", warm=False)
            res[w]["passes"].append(run_pass(cmds[w], answers))
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) / 2 > budget:
            break
    for w in names:
        r = res[w]
        rows = [row for p in r["passes"] for row in p["rows"]]
        r["attempted"] = len(rows)
        r["failed"] = sum(1 for row in rows if row["problems"])
        for row in rows:
            r["problems"] += [f"{row['id']}: {p}" for p in row["problems"]]
        r["counts"] = consistent_counts(rows, r["problems"])
        r["host_s"] = statistics.fmean(c for p in r["passes"] for c in p["calib"])
        r["raw"] = {"wall_s": statistics.fmean(p["wall_s"] for p in r["passes"]),
                    "setup_s": statistics.median(r["setup"])}
        adjust = CALIB_REF_S / r["host_s"]
        r["metrics"] = {
            "wall_s": r["raw"]["wall_s"] * adjust,
            "setup_s": r["raw"]["setup_s"] * adjust,
            "peak_rss_mb": statistics.median(p["rss_mib"] for p in r["passes"]),
            "ops_ok_frac": (r["attempted"] - r["failed"]) / r["attempted"],
        }
    return res


def report_end_to_end(w: str, r: dict, seed: int) -> None:
    walls = [p["wall_s"] for p in r["passes"]]
    q1, med, q3 = quartiles(walls)
    pct = supported_percentile(len(walls))
    print(f"== {w}  seed={seed}  passes={len(walls)}")
    print(f"  host         calibration mean {r['host_s']:.5f} s over "
          f"{sum(len(p['calib']) for p in r['passes'])} samples, reference {CALIB_REF_S} s")
    print(f"  wall_s       {r['metrics']['wall_s']:.4f} s adjusted; raw: mean {r['raw']['wall_s']:.4f} s  "
          f"median {med:.4f} s  quartiles {q1:.4f} .. {q3:.4f}  n={len(walls)}  "
          + (f"p{pct} {statistics.quantiles(walls, n=100)[pct - 1]:.4f} s" if pct
             else "no percentile above the median has ten samples beyond it"))
    print(f"  setup_s      {r['metrics']['setup_s']:.4f} s adjusted; raw median "
          f"{r['raw']['setup_s']:.4f} s  n={len(r['setup'])}")
    print(f"  peak_rss_mb  median {r['metrics']['peak_rss_mb']:.2f} MiB")
    print(f"  ops_ok_frac  {r['metrics']['ops_ok_frac']:.4f}  "
          f"({r['attempted'] - r['failed']}/{r['attempted']} commands)")
    for cmd_id, median in command_medians(r["passes"]).items():
        counts = " ".join(f"{k}={v}" for k, v in r["counts"].get(cmd_id, {}).items())
        print(f"  cmd {cmd_id:32s} median {median:.4f} s  {counts}")
    drift = drift_lines(r["counts"])
    print("  work counts vs reference: " + ("; ".join(drift) if drift else "unchanged"))
    for p in r["problems"]:
        print(f"  FAIL {p}")


# --------------------------------------------------------------------------
# traced runs

def run_twins(lib, cmds: list, answers, problems: list, root=None) -> list:
    """Each command's in-process twin, with the package caches cold."""
    rows = []
    for cmd in cmds:
        caches = lib.caches()
        for c in caches:
            c.cache_clear()
        t0 = time.perf_counter()
        try:
            status, doc = root(cmd.twin, lib) if root else cmd.twin(lib)
        except Exception as exc:  # a crash in the program is a failed command
            status, doc = f"raised {exc!r}", None
        seconds = time.perf_counter() - t0
        info = [c.cache_info() for c in caches if c.__name__ == "_max_point_info"]
        found = judge(cmd, status, doc, answers)
        problems += [f"{cmd.id} (in-process): {p}" for p in found]
        rows.append({"id": cmd.id, "seconds": seconds, "doc": doc, "failed": bool(found),
                     "counts": W.work_counts(doc),
                     "cache": (sum(i.hits for i in info), sum(i.misses for i in info))})
    return rows


def layer_metrics(spans: dict, rows: list, untraced_s: float, cli: dict) -> dict:
    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_self(prefix):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    contains = ("core.loses_after", "core.contains_mask")
    docs = [r["doc"] or {} for r in rows]
    states = sum(d.get("states", 0) for d in docs)
    leaves = sum(d.get("leaves", 0) for d in docs)
    traced_s = self_s(*spans)
    hits = sum(r["cache"][0] for r in rows)
    lookups = hits + sum(r["cache"][1] for r in rows)
    m = {
        "core.contains_calls": calls(*contains),
        "core.contains_s": self_s(*contains),
        "core.contains_true_frac": ratio(sum(spans.get(n, {}).get("true", 0) for n in contains),
                                         calls(*contains)),
        "core.transitive_s": self_s("core.transitive"),
        "solver.states": states,
        "solver.table_entries": sum(d.get("table", 0) for d in docs),
        "solver.leaves": leaves,
        "solver.self_s": layer_self("solver."),
        "solver.states_per_s": ratio(states, self_s("solver.solve")),
        "solver.leaves_per_s": ratio(leaves, self_s("solver.verify")),
    }
    for method in ("clone", "choose", "observe", "key"):
        m[f"strategies.{method}_calls"] = calls(f"strategies.{method}")
    m["strategies.self_s"] = layer_self("strategies.")
    m["pairset.key_params_calls"] = calls("pairset.key_params")
    m["pairset.maximal_point_calls"] = calls("pairset.maximal_point")
    m["pairset.kernel_s"] = self_s("pairset.key_params", "pairset.maximal_point")
    for suite in sorted(W.LEMMA_CHECKED):
        m[f"pairset.suite_s.{suite}"] = self_s(f"pairset.suite.{suite}")
        m[f"pairset.checked.{suite}"] = sum(
            rep["checked"] for d in docs for rep in d.get("reports", ()) if rep["suite"] == suite)
    m["pairset.max_point_cache_hit_frac"] = ratio(hits, lookups)
    m["constructions.build_s"] = self_s("constructions.parse")
    m["constructions.to_json_s"] = self_s("constructions.to_json")
    m["cli.interp_s"] = cli["interp_s"]
    m["cli.import_s"] = cli["import_s"]
    m["cli.overhead_s"] = cli["pass_s"] - untraced_s
    for cmd_id in W.all_command_ids():
        m[f"cmd.{cmd_id}_s"] = cli["cmd_s"].get(cmd_id, 0.0)
    m["trace.traced_s"] = traced_s
    m["trace.harness_s"] = self_s("harness.command")
    m["trace.overhead_frac"] = ratio(traced_s, untraced_s) - 1 if untraced_s else 0.0
    m["host.calib_s"] = cli["calib_s"]
    return m


LAYER_SELF_TIMES = ("core.contains_s", "core.transitive_s", "solver.self_s", "strategies.self_s",
                    "pairset.kernel_s", "constructions.build_s", "constructions.to_json_s",
                    "trace.harness_s")


def measure_layers(names: list, seed: int, seconds: int, modules, answers) -> dict:
    from tracing import Library, TracedLibrary, Tracer

    res = {}
    for w in names:
        start = time.perf_counter()
        cmds = W.commands(w, seed)
        problems: list = []
        plain = Library(modules)
        untraced = run_twins(plain, cmds, answers, problems)
        tracer = Tracer()
        traced_lib = TracedLibrary(modules, tracer)
        traced = run_twins(traced_lib, cmds, answers, problems, root=traced_lib.command)
        spans = tracer.summary()
        tracer.write(OUT / f"spans-{w}.bin")
        interp = time_script("pass", STARTUP_REPS, problems, "bare interpreter")
        imp = time_script("import avoidance.cli", STARTUP_REPS, problems, "import")
        passes = []
        while True:
            passes.append(run_pass(cmds, answers))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p["wall_s"] for p in passes) > min(seconds, RUN_LIMIT_S):
                break
        cli_rows = [row for p in passes for row in p["rows"]]
        for row in cli_rows:
            problems += [f"{row['id']}: {p}" for p in row["problems"]]
        cli_counts = consistent_counts(cli_rows, problems)
        for row in untraced + traced:
            if row["counts"] != cli_counts.get(row["id"]):
                problems.append(f"{row['id']}: in-process work counts {row['counts']} "
                                f"differ from the CLI's {cli_counts.get(row['id'])}")
        cmd_s = command_medians(passes)
        cli = {"interp_s": statistics.median(interp),
               "import_s": statistics.median(imp) - statistics.median(interp),
               "pass_s": sum(cmd_s.values()),
               "calib_s": statistics.median(c for p in passes for c in p["calib"]),
               "cmd_s": cmd_s}
        untraced_s = sum(r["seconds"] for r in untraced)
        metrics = layer_metrics(spans, traced, untraced_s, cli)
        attempted = len(untraced) + len(traced) + len(cli_rows)
        failed = (sum(r["failed"] for r in untraced + traced)
                  + sum(1 for row in cli_rows if row["problems"]))
        res[w] = {"metrics": metrics, "spans": spans, "problems": problems,
                  "attempted": attempted, "failed": failed, "counts": cli_counts,
                  "untraced_s": untraced_s}
    return res


def report_layers(w: str, r: dict, seed: int) -> None:
    m = r["metrics"]
    print(f"== {w}  seed={seed}  traced in-process {m['trace.traced_s']:.4f} s, "
          f"untraced {r['untraced_s']:.4f} s, overhead {m['trace.overhead_frac']:+.3f}")
    parts = {k: m[k] for k in LAYER_SELF_TIMES}
    parts.update({k: v for k, v in m.items() if k.startswith("pairset.suite_s.")})
    total = sum(parts.values())
    print("  self times: " + ", ".join(f"{k} {v:.4f}" for k, v in parts.items() if v))
    print(f"  self times sum {total:.6f} s = traced {m['trace.traced_s']:.6f} s "
          f"(residual {total - m['trace.traced_s']:+.2e})")
    for name, row in sorted(r["spans"].items()):
        print(f"  span {name:30s} calls {row['calls']:8d}  total {row['total_s']:.4f} s  "
              f"self {row['self_s']:.4f} s")
    for p in r["problems"]:
        print(f"  FAIL {p}")


# --------------------------------------------------------------------------

def load_package():
    sys.path.insert(0, str(SRC))
    import avoidance.cli  # noqa: F401  (imports every module the twins call)
    from avoidance import constructions, core, pairset, solver, strategies

    where = Path(core.__file__).resolve().parent
    if where != SRC / "avoidance":
        raise SystemExit(f"imported the package from {where}, not {SRC / 'avoidance'}")
    return SimpleNamespace(core=core, constructions=constructions, pairset=pairset,
                           solver=solver, strategies=strategies)


def declared_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "avoidance" / "cli.py").is_file():
        print(f"no package source at {SRC / 'avoidance'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The in-process twins must hash like the CLI children.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)
    modules = load_package()
    answers = W.Answers(modules)
    declared = declared_metrics(args.trace)
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]

    if args.trace:
        results = measure_layers(names, args.seed, args.seconds, modules, answers)
    else:
        results = measure_end_to_end(names, args.seed, args.seconds, answers)
    for w in names:
        (report_layers if args.trace else report_end_to_end)(w, results[w], args.seed)
        got = set(results[w]["metrics"])
        if got != set(declared):
            raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(got ^ set(declared))}")

    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "results": results},
                  fh, indent=1, default=str)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    problems = sum(len(r["problems"]) for r in results.values())

    def key(w, name):
        return name if len(names) == 1 else f"{w}/{name}"

    metrics = {key(w, name): {"value": value, "unit": declared[name]}
               for w, r in results.items() for name, value in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and problems == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
