"""Mutants: every one-line defect in mutants.json must fail a test.

Usage, from the repository root:

    python3 mutants/run.py

Each entry of mutants.json names a file, an old text that must occur in it
exactly once, the new text that replaces it, and the test meant to catch
the defect.  For each mutant, src/, tests/, README.md and pyproject.toml
are copied into a temporary directory, the mutant is applied there, and
its test runs against the copy.  If that test passes,
every test whose name lacks "golden" runs too: a byte digest fails for a
fix as readily as for a bug, so it cannot count as catching one.  The
working tree is only read.

Every pytest run stops after TIMEOUT_S seconds.  A mutant whose own test
runs that long is reported on a TIMEOUT line and counted as caught: it
makes the suite hang, which a CI time limit turns into a failure.

Before any mutant, the named tests must pass on an unmutated copy.  Exit
status: 0 if every mutant fails its own test or times out in it; 1 if one
survives, or is caught only by other tests; 2 if the list is wrong (an old
text not found exactly once, or a golden test named, each such entry
listed; or a named test failing or timing out unmutated).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 300  # per pytest run; the whole suite takes well under a minute unmutated


def pytest(tree: Path, *args: str) -> subprocess.CompletedProcess | None:
    """pytest on the copy ``tree``, importing intermod from its own src/; None on timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None


def copy_tree(dest: Path, mutant: dict | None = None) -> Path:
    """A copy of the tested files under ``dest``, with ``mutant`` applied if given."""
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)
    if mutant is not None:
        path = dest / mutant["file"]
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    return dest


def first_failure(result: subprocess.CompletedProcess | None) -> str:
    if result is None:
        return f"the run passed its {TIMEOUT_S} s timeout"
    return next((line for line in result.stdout.splitlines() if line.startswith("FAILED")),
                result.stdout.strip().splitlines()[-1] if result.stdout.strip() else "")


def main() -> int:
    mutants = json.loads((ROOT / "mutants" / "mutants.json").read_text(encoding="utf-8"))
    bad_entries = 0
    for mutant in mutants:  # every bad entry is listed before the run stops
        count = (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"])
        if count != 1 or "golden" in mutant["test"]:
            print(f"bad entry {mutant['name']!r}: old text found {count} times in "
                  f"{mutant['file']}, test {mutant['test']}")
            bad_entries += 1
    if bad_entries:
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        clean = pytest(copy_tree(Path(scratch)), *sorted({m["test"] for m in mutants}))
        if clean is None or clean.returncode != 0:
            print(f"a named test fails unmutated: {first_failure(clean)}")
            return 2
    bad = 0
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as scratch:
            tree = copy_tree(Path(scratch), mutant)
            own = pytest(tree, mutant["test"])
            if own is None:
                print(f"TIMEOUT   {mutant['name']}: {mutant['test']} ran past {TIMEOUT_S} s",
                      flush=True)
                continue
            if own.returncode != 0:
                print(f"killed    {mutant['name']}: {mutant['test']}", flush=True)
                continue
            bad += 1
            others = pytest(tree, "-x", "-k", "not golden", "tests")
            if others is None or others.returncode != 0:
                print(f"MISSED    {mutant['name']}: {mutant['test']} passes, but "
                      f"{first_failure(others)}", flush=True)
            else:
                print(f"SURVIVED  {mutant['name']}: every non-golden test passes", flush=True)
    print(f"{bad} of {len(mutants)} mutants not caught by their own test")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
