"""Mutant survey: delete each statement of src/, force each if, flip each order comparison.

Usage, from the repository root (about 30 minutes on 2 CPUs; not run in CI):

    python3 mutants/survey.py

For each statement in a function or class body of src/intermod/*.py, at
any depth and docstrings excluded, one mutant replaces the statement with
``pass``; for each ``if`` (an ``elif`` too), two more force its test to
True and to False; and each order comparison in the statement's own
expressions (<, <=, > or >=, each link of a chain apart) is flipped at its
boundary, < to <= and back, > to >= and back.  == and != are left alone.
Each mutant runs ``pytest -q -x tests`` on a temporary copy of the tested
files, as run.py does, at most WORKERS at a time, each run stopped after
run.TIMEOUT_S seconds.  A mutant is killed when the run
fails or times out; it survives when every test passes.

Every site and its verdict is written to survey.txt beside this file, one
line each: verdict, file:line, operator and the statement's first line.
A surviving mutant is listed there as "kept" if a KEPT entry names its
file, its enclosing function or class, its operator and a prefix of its
statement; the others as "SURVIVED".

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

# (file, enclosing function or class, operators, statement prefixes, reason): survivors that
# no test should catch
KEPT = [
    ("detector.py", "_n_alpha", ("pass", "if False"),
     ("if not probes:", "raise ValueError(f\"N_alpha search", "probes -= 1"),
     "the N_alpha probe bound turns a looping defect into a raise; a correct search never "
     "reaches it"),
    ("channel.py", "near_singular", ("> to >=",), ("return abs(self.rho) ** 2 >",),
     "only a |rho|^2 exactly on the tolerance moves"),
    ("channel.py", "__post_init__", ("> to >=",), ("if abs(nrm - 1.0) > _UNIT_NORM_TOL:",),
     "only a norm exactly on the tolerance moves"),
    ("detector.py", "_log_tails", ("< to <=",), ("if x < s:",),
     "at x = s both fractions converge unguarded, so the choice moves only rounding"),
    ("detector.py", "_lower_gamma_cf", ("<= to <",), ("if abs(delta - 1.0) <= _EPS:",),
     "a factor exactly one ulp from 1 stops one pair later, within the tail's stated error"),
    ("detector.py", "_n_alpha", ("> to >=",), ("guided = e > 0.0 and min(ends) > 0.0",),
     "the model guides only where probes land, never the answer"),
]
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}


def _span(starts: list[int], node: ast.AST) -> tuple[int, int]:
    """Offsets of ``node``'s source in the text whose lines start at offsets ``starts``."""
    first = node.decorator_list[0] if getattr(node, "decorator_list", None) else node
    return (starts[first.lineno - 1] + node.col_offset,  # an "@" stands where "def" does
            starts[node.end_lineno - 1] + node.end_col_offset)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _compares(node: ast.stmt):
    """The comparisons in ``node``'s own expressions, not in the statements of its body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.stmt, ast.excepthandler)):
            yield from (sub for sub in ast.walk(child) if isinstance(sub, ast.Compare))


def sites(path: Path) -> list[tuple[int, str, str, str, str]]:
    """(line, scope, operator, statement's first line, mutated text) per mutant of ``path``,
    scope being the innermost function or class around the statement."""
    text = path.read_text(encoding="utf-8")
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []

    def mutate(node, scope, operator, replacement, span):
        begin, end = _span(starts, node)
        first = text[begin:end].splitlines()[0].strip()
        begin, end = span
        mutated = text[:begin] + replacement + text[end:]
        ast.parse(mutated)  # every mutant must still compile
        found.append((node.lineno, scope, operator, first, mutated))

    def visit(body, scope):
        for index, node in enumerate(body):
            if scope and not (index == 0 and _is_docstring(node)):
                if not isinstance(node, ast.Pass):
                    mutate(node, scope, "pass", "pass", _span(starts, node))
                if isinstance(node, ast.If):
                    for forced in ("True", "False"):
                        mutate(node, scope, f"if {forced}", forced, _span(starts, node.test))
                for compare in _compares(node):
                    for left, op, right in zip([compare.left, *compare.comparators],
                                               compare.ops, compare.comparators):
                        if type(op) in FLIPS:  # between the operands: the operator, blanks, parens
                            old, new = FLIPS[type(op)]
                            at = text.index(old, _span(starts, left)[1], _span(starts, right)[0])
                            mutate(node, scope, f"{old} to {new}", new, (at, at + len(old)))
            inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else scope
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)

    visit(ast.parse(text).body, None)
    return found


def run_mutant(path: Path, mutated: str) -> str:
    with tempfile.TemporaryDirectory() as scratch:
        tree = copy_tree(Path(scratch))
        (tree / path.relative_to(ROOT)).write_text(mutated, encoding="utf-8")
        result = pytest(tree, "-x", "tests")
    if result is None:
        return "timeout"
    return "killed" if result.returncode != 0 else "survived"


def kept(path: Path, scope: str, operator: str, first: str) -> bool:
    return any(path.name == name and scope == where and operator in operators
               and first.startswith(prefixes) for name, where, operators, prefixes, _ in KEPT)


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        clean = pytest(copy_tree(Path(scratch)), "-x", "tests")
        if clean is None or clean.returncode != 0:
            print(f"the unmutated suite fails: {first_failure(clean)}")
            return 2
    mutants = [(path, *site) for path in sorted((ROOT / "src" / "intermod").glob("*.py"))
               for site in sites(path)]
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        verdicts = list(pool.map(lambda m: run_mutant(m[0], m[5]), mutants))
    lines, unkept = [], []
    for (path, line, scope, operator, first, _), verdict in zip(mutants, verdicts):
        if verdict == "survived":
            verdict = "kept" if kept(path, scope, operator, first) else "SURVIVED"
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
