"""Statement survey: delete each statement of src/, and force each if, and see what fails.

Usage, from the repository root (20 to 30 minutes on 2 CPUs; not run in CI):

    python3 mutants/survey.py

For each statement in a function or class body of src/intermod/*.py, at
any depth and docstrings excluded, one mutant replaces the statement with
``pass``; for each ``if`` (an ``elif`` too), two more force its test to
True and to False.  Each mutant runs ``pytest -q -x tests`` on a temporary
copy of the tested files, as run.py does, at most WORKERS at a time, each
run stopped after run.TIMEOUT_S seconds.  A mutant is killed when the run
fails or times out; it survives when every test passes.

Every site and its verdict is written to survey.txt beside this file, one
line each: verdict, file:line, operator and the statement's first line.
A surviving mutant whose statement starts with a prefix of a KEPT entry is
listed there as "kept"; the others as "SURVIVED".

Exit status: 0 if every survivor is kept; 1 if one is not, each listed on
stdout; 2 if the unmutated suite fails.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import ROOT, copy_tree, first_failure, pytest

WORKERS = 2  # pytest runs at once, one per CPU of a 2-CPU host
RESULT = Path(__file__).resolve().parent / "survey.txt"

# (file, statement prefixes, reason): survivors that no test should catch
KEPT = [
    ("detector.py", ("if not probes:", "raise ValueError(f\"N_alpha search", "probes -= 1"),
     "the N_alpha probe bound turns a looping defect into a raise; a correct search never "
     "reaches it"),
]


def _span(starts: list[int], node: ast.AST) -> tuple[int, int]:
    """Offsets of ``node``'s source in the text whose lines start at offsets ``starts``."""
    first = node.decorator_list[0] if getattr(node, "decorator_list", None) else node
    return (starts[first.lineno - 1] + node.col_offset,  # an "@" stands where "def" does
            starts[node.end_lineno - 1] + node.end_col_offset)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def sites(path: Path) -> list[tuple[int, str, str, str]]:
    """(line, operator, statement's first line, mutated text) per mutant of ``path``."""
    text = path.read_text(encoding="utf-8")
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []

    def mutate(node, operator, replacement, span):
        begin, end = _span(starts, node)
        first = text[begin:end].splitlines()[0].strip()
        begin, end = span
        mutated = text[:begin] + replacement + text[end:]
        ast.parse(mutated)  # every mutant must still compile
        found.append((node.lineno, operator, first, mutated))

    def visit(body, inside):
        for index, node in enumerate(body):
            if inside and not (index == 0 and _is_docstring(node)):
                if not isinstance(node, ast.Pass):
                    mutate(node, "pass", "pass", _span(starts, node))
                if isinstance(node, ast.If):
                    for forced in ("True", "False"):
                        mutate(node, f"if {forced}", forced, _span(starts, node.test))
            nested = inside or isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), nested)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, nested)

    visit(ast.parse(text).body, False)
    return found


def run_mutant(path: Path, mutated: str) -> str:
    with tempfile.TemporaryDirectory() as scratch:
        tree = copy_tree(Path(scratch))
        (tree / path.relative_to(ROOT)).write_text(mutated, encoding="utf-8")
        result = pytest(tree, "-x", "tests")
    if result is None:
        return "timeout"
    return "killed" if result.returncode != 0 else "survived"


def kept(path: Path, first: str) -> bool:
    return any(path.name == name and first.startswith(prefixes)
               for name, prefixes, _ in KEPT)


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        clean = pytest(copy_tree(Path(scratch)), "-x", "tests")
        if clean is None or clean.returncode != 0:
            print(f"the unmutated suite fails: {first_failure(clean)}")
            return 2
    mutants = [(path, *site) for path in sorted((ROOT / "src" / "intermod").glob("*.py"))
               for site in sites(path)]
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        verdicts = list(pool.map(lambda m: run_mutant(m[0], m[4]), mutants))
    lines, unkept = [], []
    for (path, line, operator, first, _), verdict in zip(mutants, verdicts):
        if verdict == "survived":
            verdict = "kept" if kept(path, first) else "SURVIVED"
        where = f"{path.name}:{line}"
        lines.append(f"{verdict:<9} {where:<16} {operator:<9} {first}")
        if verdict == "SURVIVED":
            unkept.append(lines[-1])
    counts = {v: verdicts.count(v) for v in ("killed", "timeout", "survived")}
    summary = (f"{len(mutants)} mutants: {counts['killed']} killed, {counts['timeout']} timed "
               f"out, {counts['survived']} survived ({counts['survived'] - len(unkept)} kept)")
    RESULT.write_text("\n".join([f"# {summary}", *lines]) + "\n", encoding="utf-8")
    print(*unkept, summary, sep="\n")
    return 1 if unkept else 0


if __name__ == "__main__":
    sys.exit(main())
