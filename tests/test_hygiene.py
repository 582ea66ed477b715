"""Source hygiene of the package, checked with the standard-library `ast`:
no unused top-level imports, no function-local import from a module the
file already imports at top level, no module draws on `random` (every
decision the library makes is deterministic), and no handler swallows every
error.  Every source file is plain ASCII.  The reduction driver names none
of the reductions that a `StepSpec` dispatches to.  `scalars/linalg.py` is the
one matrix kernel: no other module defines a module-level function whose
name ends in `_det`, `_inverse` or `mat_mul` (methods are exempt), and the
kernel itself names no particular field and reads no modulus `.p`: per-field
arithmetic lives in the ring contexts (`Field.sub_scaled`).  Nor does it read
a context's `is_zero`: ring values are falsy exactly at zero, so the kernel
tests an entry by its truth value.  No module but `scalars/fields.py`
imports or names `Fraction`: a Q value enters through the field context,
which keeps it canonical (an int when integral).  `Poly` is the one
polynomial arithmetic: outside its methods no function, module-level or
nested, has a name that ends in `poly_mul`, `exact_div` or `divmod` or
starts with `pm_`.  Every module-level function is used by package or
script code, not by the tests alone.  `tensor.Elem` is the one
word algebra: no other class keeps a `terms` attribute or slot.  `certify`
and `inherit_certificates` are the only writers of certificate flags.
`IsoClassIndex` is the one isomorphism-class index: no function outside it
calls `_indec_iso` inside a loop, which would match summands on its own.
`reduce.LetterMap` is the one letter-map engine: no function or method
outside it has a name that ends in `mat_mul`, `expand` or `map_elem`, which
would mark a second sparse letter-image product or word expansion.  No
module changes an element's `terms` in place (a subscript store or delete,
an augmented assignment, a mutating dict method or `add_term` into it), and
only the `Elem` constructors bind one: elements may share their terms."""

import ast
import collections
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


def _polynomial_arithmetic_functions(tree):
    """Functions, module-level or nested, that are not methods of `Poly` and
    whose names mark a second polynomial arithmetic."""
    poly_methods = {id(node) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) and cls.name == "Poly" for node in cls.body}
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and id(node) not in poly_methods
            and (node.name.endswith(("poly_mul", "exact_div", "divmod"))
                 or node.name.startswith("pm_"))]


def test_one_polynomial_arithmetic():
    offenders = {str(p.relative_to(SRC)): _polynomial_arithmetic_functions(_tree(p))
                 for p in MODULES}
    assert {k: v for k, v in offenders.items() if v} == {}


def _field_dispatch(tree):
    """Line numbers that name a particular field class or read a `.p`."""
    lines = []
    for node in ast.walk(tree):
        named = (node.id if isinstance(node, ast.Name)
                 else node.name if isinstance(node, ast.alias) else None)
        if named in ("PrimeField", "RationalField") or (
                isinstance(node, ast.Attribute) and node.attr == "p"):
            lines.append(getattr(node, "lineno", None))
    return lines


def test_matrix_kernel_has_no_per_field_dispatch():
    assert _field_dispatch(_tree(SRC / "scalars" / "linalg.py")) == []


def _is_zero_reads(tree):
    """Line numbers that read a name or attribute `is_zero` (a definition
    named `is_zero` is not a read)."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == "is_zero")
                  or (isinstance(node, ast.Name) and node.id == "is_zero"))


def test_matrix_kernel_makes_no_is_zero_call():
    assert _is_zero_reads(_tree(SRC / "scalars" / "linalg.py")) == []


def _fraction_uses(tree):
    """Line numbers that import `fractions` or name `Fraction`, as a name,
    an attribute or an imported alias."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
                  or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
                  or (isinstance(node, ast.Name) and node.id == "Fraction")
                  or (isinstance(node, ast.Attribute) and node.attr == "Fraction"))


def test_only_the_field_context_names_fraction():
    offenders = {str(p.relative_to(SRC)): _fraction_uses(_tree(p))
                 for p in SRC.rglob("*.py") if p != SRC / "scalars" / "fields.py"}
    assert {k: v for k, v in offenders.items() if v} == {}
    assert _fraction_uses(_tree(SRC / "scalars" / "fields.py"))


SCRIPTS = SRC.parent.parent / "scripts"

# module-level functions that only tests call, kept on purpose, each with
# the reason it stays in the package
TEST_ONLY_ALLOWED = {
    "rep_spec": "the portable StepSpec data of a Rep, which a replayable "
                "admissible step holds; tests would otherwise copy its fields",
    "deletion_image_characterization": "names the image of a deletion functor, "
                                       "the modules that vanish at every deleted point",
}


def _exported_names():
    return {alias.asname or alias.name
            for init in (SRC / "__init__.py", SRC / "scalars" / "__init__.py")
            for node in _tree(init).body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _referenced_names(node):
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_every_module_function_is_used_outside_the_tests():
    """Each module-level function of the package is referenced, as a name or
    an attribute, by package or script code outside its own definition, so
    no helper lives in the package for the tests alone.  The public exports,
    the fixtures catalogue and `TEST_ONLY_ALLOWED` are exempt."""
    files = sorted(SRC.rglob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    refs = collections.Counter(n for p in files for n in _referenced_names(_tree(p)))
    exempt = _exported_names() | set(TEST_ONLY_ALLOWED)
    unused = sorted(f"{p.relative_to(SRC)}:{node.name}"
                    for p in MODULES if p.name != "fixtures.py"
                    for node in _tree(p).body if isinstance(node, ast.FunctionDef)
                    and node.name not in exempt
                    and refs[node.name] == _referenced_names(node).count(node.name))
    assert unused == []


def _classes_with_terms(tree):
    """Classes that keep a `terms` attribute: in `__slots__`, as a class-body
    field, or stored on `self` in a method."""
    def keeps_terms(cls):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                    and node.target.id == "terms":
                return True
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets) \
                    and any(isinstance(c, ast.Constant) and c.value == "terms"
                            for c in ast.walk(node.value)):
                return True
        return any(isinstance(node, ast.Attribute) and node.attr == "terms"
                   and isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name)
                   and node.value.id == "self" for node in ast.walk(cls))

    return [cls.name for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and keeps_terms(cls)]


def test_one_word_algebra():
    offenders = {str(p.relative_to(SRC)): _classes_with_terms(_tree(p)) for p in MODULES}
    assert {k: v for k, v in offenders.items() if v} == {"tensor.py": ["Elem"]}


_DICT_MUTATORS = ("update", "setdefault", "pop", "popitem", "clear", "__setitem__")


def _certificate_writers(tree):
    """Functions that store into some `.certificates`: a subscript store or
    delete, or a call of a mutating dict method on it."""
    def writes(node):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _DICT_MUTATORS:
            target = node.func.value
        else:
            return False
        return isinstance(target, ast.Attribute) and target.attr == "certificates"

    return sorted({fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   and any(writes(node) for node in ast.walk(fn))})


def test_one_certificate_writer():
    offenders = {str(p.relative_to(SRC)): _certificate_writers(_tree(p)) for p in MODULES}
    assert {k: v for k, v in offenders.items() if v} == {
        "interlace.py": ["certify", "inherit_certificates"]}


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _indec_iso_in_a_loop(tree):
    """Functions outside the class `IsoClassIndex` that call `_indec_iso`,
    as a name or an attribute, inside a loop or a comprehension."""
    index = {id(n) for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.name == "IsoClassIndex"
             for n in ast.walk(cls)}

    def calls(node):
        return any(isinstance(c, ast.Call) and "_indec_iso" in _referenced_names(c.func)
                   for c in ast.walk(node))

    return sorted({fn.name for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and id(fn) not in index
                   and any(isinstance(loop, _LOOPS) and calls(loop) for loop in ast.walk(fn))})


def test_one_isomorphism_class_index():
    offenders = {str(p.relative_to(SRC)): _indec_iso_in_a_loop(_tree(p)) for p in MODULES}
    assert {k: v for k, v in offenders.items() if v} == {}


def _letter_map_engines(tree):
    """Functions and methods, at any depth, outside the class `LetterMap`
    whose names mark a sparse letter-image product or a word expansion."""
    engine = {id(n) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "LetterMap" for n in ast.walk(cls)}
    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and id(node) not in engine
                  and node.name.endswith(("mat_mul", "expand", "map_elem")))


def test_one_letter_map_engine():
    offenders = {str(p.relative_to(SRC)): _letter_map_engines(_tree(p)) for p in MODULES}
    assert {k: v for k, v in offenders.items() if v} == {}
    [engine] = [cls for cls in ast.walk(_tree(SRC / "reduce.py"))
                if isinstance(cls, ast.ClassDef) and cls.name == "LetterMap"]
    assert {"_mat_mul", "expand"} <= {n.name for n in engine.body
                                     if isinstance(n, ast.FunctionDef)}


def _terms_writers(tree):
    """(writers, binders): the functions that change some `.terms` in place
    (a subscript store or delete, an augmented assignment, a call of a
    mutating dict method on it, or `add_term` into it), and those that
    assign or delete a `.terms` attribute itself."""
    def terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    def writes(node):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            return terms(node.value)
        if isinstance(node, ast.AugAssign):
            return terms(node.target)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _DICT_MUTATORS:
            return terms(node.func.value)
        if isinstance(node, ast.Call) and "add_term" in _referenced_names(node.func):
            return any(terms(arg) for arg in node.args)
        return False

    def binds(node):
        return terms(node) and isinstance(node.ctx, (ast.Store, ast.Del))

    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    return (sorted({fn.name for fn in functions if any(map(writes, ast.walk(fn)))}),
            sorted({fn.name for fn in functions if any(map(binds, ast.walk(fn)))}))


def test_no_element_terms_are_changed_in_place():
    found = {str(p.relative_to(SRC)): _terms_writers(_tree(p)) for p in SRC.rglob("*.py")}
    assert {k: w for k, (w, _) in found.items() if w} == {}
    assert {k: b for k, (_, b) in found.items() if b} == {"tensor.py": ["__init__", "nonzero"]}
