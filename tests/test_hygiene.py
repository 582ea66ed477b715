"""Source hygiene of the package, checked with the standard-library `ast`:
no unused top-level imports, no function-local import from a module the
file already imports at top level, no module draws on `random` (every
decision the library makes is deterministic), and no handler swallows every
error.  Every source file is plain ASCII.  The reduction driver names none
of the reductions that a `StepSpec` dispatches to.  `scalars/linalg.py` is the
one matrix kernel: no other module defines a module-level function whose
name ends in `_det`, `_inverse` or `mat_mul` (methods are exempt)."""

import ast
import functools
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ditalg"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


@functools.lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text(encoding="utf8"), filename=str(path))


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "LocElt" or "Optional[Mat]"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def _unused_top_level_imports(tree):
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(name)
    return unused


def test_no_unused_top_level_imports():
    offenders = {str(p.relative_to(SRC)): _unused_top_level_imports(_tree(p))
                 for p in MODULES}
    assert {k: v for k, v in offenders.items() if v} == {}


def _local_imports_of_top_level_modules(tree):
    """Line numbers of imports below the top level that draw on a module the
    file already imports at top level."""
    def modules(node):
        if isinstance(node, ast.ImportFrom):
            return {(node.level, node.module)}
        if isinstance(node, ast.Import):
            return {(0, a.name) for a in node.names}
        return set()

    top = set().union(*(modules(n) for n in tree.body))
    return sorted(node.lineno for stmt in tree.body if not modules(stmt)
                  for node in ast.walk(stmt) if modules(node) & top)


def test_no_local_import_from_a_top_level_module():
    offenders = {str(p.relative_to(SRC)): _local_imports_of_top_level_modules(_tree(p))
                 for p in sorted(SRC.rglob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def _imports_random(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "random" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "random":
                return True
    return False


def test_no_random_import():
    assert [str(p.relative_to(SRC)) for p in MODULES if _imports_random(_tree(p))] == []


def _catch_all_handlers(tree):
    """Line numbers of bare `except:` and of handlers naming Exception or
    BaseException, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(t, ast.Name) and t.id in
                                    ("Exception", "BaseException") for t in types):
            lines.append(node.lineno)
    return lines


def test_no_catch_all_except():
    offenders = {str(p.relative_to(SRC)): _catch_all_handlers(_tree(p))
                 for p in sorted(SRC.rglob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_sources_are_ascii():
    offenders = {}
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            bad = [i for i, line in enumerate(p.read_bytes().splitlines(), 1)
                   if not line.isascii()]
            if bad:
                offenders[str(p.relative_to(SRC))] = bad
    assert offenders == {}


def test_pipeline_applies_steps_through_specs():
    tree = _tree(SRC / "pipeline.py")
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    assert names & {"regularize", "absorb", "factor_out", "build_admissible",
                    "reduce_admissible", "change_solid_basis"} == set()


def _matrix_kernel_functions(tree):
    return [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name.endswith(("_det", "_inverse", "mat_mul"))]


def test_one_matrix_kernel():
    offenders = {str(p.relative_to(SRC)): _matrix_kernel_functions(_tree(p))
                 for p in MODULES if p != SRC / "scalars" / "linalg.py"}
    assert {k: v for k, v in offenders.items() if v} == {}
