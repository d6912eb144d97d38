"""Tier-1 and the seeded sampled reports on each local CPython.

For each of the pyenv interpreters 3.11.7, 3.12.1 and 3.13.0 that is
installed, run Tier-1 with 3.11's site-packages (pytest and hypothesis are
pure Python) on PYTHONPATH, so nothing is downloaded; then run two seeded
sampled strategy checks, which replay the same play-outs wherever
``random.getrandbits`` is unchanged, and require their stdout to be
identical on every version. 3.10 is left to CI, since pytest needs the
``exceptiongroup`` backport there.

Run from anywhere:

    python tests/version_matrix.py

It prints one line per version and exits 1 when a Tier-1 run fails or a
report differs from the first version's.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYENV = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
VERSIONS = ("3.11.7", "3.12.1", "3.13.0")
SITE = PYENV / "3.11.7" / "lib" / "python3.11" / "site-packages"
SAMPLED = [
    ["--game", "torus(3,3)", "--strategy", "torus-pairing", "--goal", "neverlose",
     "--samples", "20000", "--seed", "5"],
    ["--game", "even_general(4,3)", "--strategy", "even-general", "--goal", "win",
     "--samples", "300", "--seed", "3"],
]


def run(python: Path, args: list, pythonpath: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([str(python), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def main() -> int:
    reference, failed = None, False
    for version in VERSIONS:
        python = PYENV / version / "bin" / "python"
        if not python.exists():
            print(f"{version}: not installed, skipped")
            continue
        start = time.perf_counter()
        tier1 = run(python, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors"],
                    f"{ROOT / 'src'}{os.pathsep}{SITE}")
        took = time.perf_counter() - start
        tail = (tier1.stdout.strip().splitlines() or ["no output"])[-1]
        summary = re.sub(r"=+", "", tail).strip()
        reports = [run(python, ["-m", "avoidance.cli", "verify-strategy", "--mode", "sampled",
                                *argv], str(ROOT / "src")) for argv in SAMPLED]
        outputs = [r.stdout for r in reports]
        if any(r.returncode != 0 for r in reports):
            same = "FAILED"
        elif reference is None:
            reference, same = outputs, "reference"
        else:
            same = "identical" if outputs == reference else "DIFFERENT"
        failed |= tier1.returncode != 0 or same in ("FAILED", "DIFFERENT")
        print(f"{version}: tier-1 {summary} ({took:.0f} s); sampled reports {same}",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
