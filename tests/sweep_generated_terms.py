"""Run tests/test_generated_terms.py once per Hypothesis seed and list the
seeds that fail.

    python3 tests/sweep_generated_terms.py 1 200

runs seeds 1..200 against this checkout's ``src/``, one pytest process per
seed, each in a fresh temporary directory so that no example saved by an
earlier seed (Hypothesis's ``.hypothesis/`` database) is replayed.  It
prints one line per failing seed with its failing tests, then the list of
failing seeds, and exits 1 when there is one.  Run it on two checkouts to
compare their failing seeds.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests" / "test_generated_terms.py"


def run_seed(seed: int) -> list[str] | None:
    """The failing tests at this seed (a non-test error as one entry), or None."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             f"--rootdir={ROOT}", f"--hypothesis-seed={seed}", str(TESTS)],
            cwd=cwd, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return failed or [f"pytest exit {proc.returncode}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=int, help="first seed")
    parser.add_argument("last", type=int, help="last seed, included")
    args = parser.parse_args()
    failing = []
    for seed in range(args.first, args.last + 1):
        failed = run_seed(seed)
        if failed is not None:
            failing.append(seed)
            print(f"seed {seed}: {' '.join(name.rsplit('::', 1)[-1] for name in failed)}", flush=True)
    print(f"failing seeds ({len(failing)} of {args.last - args.first + 1}): {failing}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
