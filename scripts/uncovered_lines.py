"""Line coverage of the package over the tier-1 suite, with the standard library.

Usage: python scripts/uncovered_lines.py [PYTEST_ARGS...]

Runs `pytest.main` on PYTEST_ARGS under `sys.settrace` and
`threading.settrace`, recording the lines executed in `src/ditalg`, and
prints, for each source file, the executable lines that never ran, as
ranges.  `tests/` is added when no argument names an existing path, so
options alone (`-q -x`) still run the whole suite.  A line is executable
when the compiled module maps bytecode to it; docstrings are left out.
Lines run only by a subprocess are not seen.

The suite runs from a temporary working directory with
`-p no:cacheprovider` and without writing bytecode, so nothing is written
into the repository.  Tracing slows the suite down five- to sixfold (2 to 3
minutes on a 2-core x86_64 machine, against about 25 s untraced).  Exits
with pytest's status.
"""

import ast
import os
import sys
import tempfile
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ditalg") + os.sep


def executable_lines(path: str) -> set:
    """Lines of `path` that its compiled code objects map instructions to,
    less the lines of docstrings."""
    with open(path, encoding="utf8") as fh:
        text = fh.read()
    lines = set()
    todo = [compile(text, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return lines


def ranges(numbers) -> str:
    out = []
    for n in sorted(numbers):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def pytest_args(argv) -> list:
    """The pytest arguments for argv: each one that names an existing path
    (before any `::`) made absolute from the calling directory, since the
    suite runs elsewhere, followed by `tests/` when none does."""
    def is_path(a):
        return os.path.exists(a.split("::")[0])

    args = [os.path.abspath(a) if is_path(a) else a for a in argv]
    return args if any(map(is_path, argv)) else [*args, os.path.join(ROOT, "tests")]


def main(argv) -> int:
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.dont_write_bytecode = True
    seen = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        hits = seen.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    # paths are read from the calling directory, before the suite moves out
    args = pytest_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(cwd)
    total = 0
    for dirpath, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            missed = executable_lines(path) - seen.get(path, set())
            total += len(missed)
            rel = os.path.relpath(path, PACKAGE)
            print(f"{rel}: {len(missed)} unexecuted" + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {total} unexecuted lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
