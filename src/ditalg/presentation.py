"""Presentation and report files.

A presentation file is restricted JSON: field spec, points with factors and
inverted polynomials, solid/dashed arrows, differential values and ideal
generators.  The filtration keys `w0_filtration`, `w1_filtration` and
`ideal_filtration` are accepted but not read: the filtrations are derived
from the differential (`Dit.levels`, `interlace.ideal_levels`), and emitted
files carry the least layer ones when they have more than one level.  Any
other top-level key is a parse error.  Decorated words are arrays that
alternate coefficient strings and arrow names, read right to left from the
source (paths from i to j act like b*a).  Polynomials are strings such as
"x^2-3*x+1"; all numbers are exact.

Coefficient text (word coefficients, inverted polynomials, module matrix
entries) is read by one precedence grammar, the same in every field
(`parse_poly_fraction`): `+` and `-` bind loosest, then `*` and `/`, then
a sign, then `^` with a digit exponent, applied left to right.  So `-x^2` is
-(x^2), `2*-x^2` is -2x^2, `2/3^2` is 2/9 and `x^2^3` is x^6, over Q and
over F_p alike.  Dividing by a nonzero constant scales the numerator, and
division by zero is a parse error.
"""

from __future__ import annotations

import json
import re
from typing import FrozenSet, List, Optional, Tuple

from .bigraph import Bigraph, Factor
from .interlace import CertificationError, Dit, IdealData, ascending_levels
from .scalars import Field, LocElt, LocalizedRing, Poly, field_from_name, strip_h_factors
from .tensor import Differential, Elem, Layer


class ParseError(ValueError):
    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{message}" + (f" (at {where})" if where else ""))
        self.where = where


# -- coefficient expressions ---------------------------------------------------


_TOKEN = re.compile(r"\s*([0-9]+|\S)")


def parse_poly_fraction(F: Field, s: str) -> Tuple[Poly, Poly]:
    """Parse an expression in x into (numerator, denominator) polynomials,
    by one grammar in every field:

        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := ('+' | '-') factor | power
        power  := atom ('^' digits)*
        atom   := digits | 'x' | '(' expr ')'

    Dividing by a nonzero constant scales the numerator, and dividing by a
    nonconstant polynomial multiplies the denominator, so the denominator is
    1 or has positive degree."""
    toks = _TOKEN.findall(s)
    pos = 0

    def take(*accept) -> str:
        """The next token, consumed, when `accept` is empty or holds it;
        else '' (also at the end)."""
        nonlocal pos
        if pos == len(toks) or accept and toks[pos] not in accept:
            return ""
        pos += 1
        return toks[pos - 1]

    def expr():
        num, den = term()
        while op := take("+", "-"):
            n2, d2 = term()
            num, den = num * d2 + (n2 if op == "+" else -n2) * den, den * d2
        return num, den

    def term():
        num, den = factor()
        while op := take("*", "/"):
            n2, d2 = factor()
            if op == "*":
                num, den = num * n2, den * d2
            elif n2.is_zero():
                raise ParseError("zero denominator", s)
            elif n2.is_constant():
                num = (num * d2).scale(F.inv(n2.coeff(0)))
            else:
                num, den = num * d2, den * n2
        return num, den

    def factor():
        if op := take("+", "-"):
            num, den = factor()
            return (num if op == "+" else -num), den
        num, den = atom()
        while take("^"):
            exp = take()
            if not (exp.isascii() and exp.isdigit()):
                raise ParseError("expected an integer exponent", s)
            num, den = num ** int(exp), den ** int(exp)
        return num, den

    def atom():
        tok = take()
        if tok == "(":
            out = expr()
            if not take(")"):
                raise ParseError("unbalanced parenthesis", s)
            return out
        if tok == "x":
            return Poly.x(F), Poly.one(F)
        if tok.isascii() and tok.isdigit():
            return Poly.const(F, F.from_int(int(tok))), Poly.one(F)
        raise ParseError(f"unexpected character {tok!r}", s)

    num, den = expr()
    if pos < len(toks):
        rest = s[list(_TOKEN.finditer(s))[pos].start(1):]
        raise ParseError(f"trailing input {rest!r}", s)
    return num, den


def coefficient_value(F: Field, ring: Optional[LocalizedRing], s: str, where: str = ""):
    """The value of the coefficient string `s`: a field scalar when `ring` is
    None (at a trivial point, or in a module matrix), else an element of
    `ring`.  The fraction is read in lowest terms, with a monic denominator,
    so x/x is 1.  The ParseError for a non-scalar names `where`, or else
    `s`."""
    num, den = parse_poly_fraction(F, s)
    g = num.gcd(den).scale(den.leading())
    num, den = num // g, den // g
    if ring is None:
        if num.degree > 0 or den.degree > 0:
            raise ParseError("expected a scalar, not an expression in x", where or s)
        return num.coeff(0)
    if not strip_h_factors(den, ring.h).is_constant():
        raise ParseError(f"denominator {den} is not invertible in {ring!r}", s)
    return LocElt(ring, num, 0) * ring.inv(LocElt(ring, den, 0))


# -- words and elements -----------------------------------------------------------


def _coefficient_elem(b: Bigraph, point: str, s: str) -> Elem:
    """The coefficient string `s` at `point`, as an element of the word algebra."""
    ring = b.factor_ring(point)
    value = coefficient_value(b.field, ring, s)
    return Elem.idempotent(b, point, value) if ring is None else Elem.decorated(b, point, value)


def parse_word_array(b: Bigraph, arr: List[str], where: str) -> Elem:
    """One decorated word: alternating coefficients and arrow names, read
    right to left (rightmost coefficient sits at the source point)."""
    if len(arr) % 2 == 0:
        raise ParseError("word arrays must have odd length", where)
    if len(arr) == 1:
        token = arr[0]
        if "e_" not in token:
            raise ParseError("idempotent words need the form 'coeff*e_point' or 'e_point'",
                             where)
        coeff_str, _, pt = token.rpartition("e_")
        if pt not in b.points:
            raise ParseError(f"unknown point {pt!r}", where)
        return _coefficient_elem(b, pt, coeff_str.rstrip("*").strip() or "1")
    items = list(reversed(arr))  # now source first: c0, a1, c1, a2, ...
    arrows = items[1::2]
    for name in arrows:
        if name not in b.arrows:
            raise ParseError(f"unknown arrow {name!r}", where)
    for a1, a2 in zip(arrows, arrows[1:]):
        if b.arrow(a1).target != b.arrow(a2).source:
            raise ParseError(f"arrows {a1} and {a2} do not compose", where)
    out = _coefficient_elem(b, b.arrow(arrows[0]).source, items[0])
    for name, coeff_str in zip(arrows, items[2::2]):
        out = _coefficient_elem(b, b.arrow(name).target, coeff_str) * (Elem.arrow(b, name) * out)
    return out


def parse_elem(b: Bigraph, arrs: List[List[str]], where: str) -> Elem:
    out = Elem.zero(b)
    for i, arr in enumerate(_shaped(arrs, list, where)):
        if not isinstance(arr, list) or not all(isinstance(t, str) for t in arr):
            raise ParseError("a word must be a list of strings", f"{where}[{i}]")
        out = out + parse_word_array(b, arr, f"{where}[{i}]")
    return out


def emit_key_expr(ring: Optional[LocalizedRing], key, scalar_str: str) -> str:
    a, j = key
    parts = []
    if scalar_str != "1":
        parts.append(scalar_str)
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    expr = "*".join(parts) if parts else "1"
    if j:
        h = str(ring.h).replace(" ", "")
        expr = f"({expr})/({h})^{j}" if j > 1 else f"({expr})/({h})"
    return expr


def emit_elem(b: Bigraph, elem: Elem) -> List[List[str]]:
    F = b.field
    out = []
    for w in sorted(elem.terms, key=lambda w: (w.length(), str(w))):
        c = elem.terms[w]
        scalar = F.format(c)
        if not w.arrows:
            coeff = emit_key_expr(b.factor_ring(w.start), w.coeffs[0], scalar)
            out.append([f"{coeff}*e_{w.start}" if coeff != "1" else f"e_{w.start}"])
            continue
        pts = w.path(b)
        fields = []
        for i in range(len(pts)):
            s = scalar if i == len(pts) - 1 else "1"
            fields.append(emit_key_expr(b.factor_ring(pts[i]), w.coeffs[i], s))
        # right-to-left array: c_n, a_n, ..., a_1, c_0
        arr = [fields[-1]]
        for i in range(len(w.arrows) - 1, -1, -1):
            arr.append(w.arrows[i])
            arr.append(fields[i])
        out.append(arr)
    return out


# -- presentation files --------------------------------------------------------------


_SHAPE_NAMES = {list: "a list", dict: "an object", str: "a string"}


def _shaped(value, kind, where: str):
    """`value`, when it is a `kind` (list, dict or str); else a ParseError
    that names `where`."""
    if not isinstance(value, kind):
        raise ParseError(f"expected {_SHAPE_NAMES[kind]}, got {type(value).__name__}", where)
    return value


def _required(entry: dict, key: str, where: str) -> str:
    """The string `entry[key]` of a presentation-file object at `where`."""
    if key not in entry:
        raise ParseError(f"missing {key!r}", where)
    return _shaped(entry[key], str, f"{where}.{key}")


def _entry(value, allowed: FrozenSet[str], where: str = "") -> dict:
    """`value`, when it is an object and `allowed` holds each of its keys;
    else a ParseError that names `where`, or the first unknown key in sorted
    order below it."""
    unknown = sorted(set(_shaped(value, dict, where)) - allowed)
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r}",
                         f"{where}.{unknown[0]}" if where else unknown[0])
    return value


# the keys of a presentation file, of a point and of an arrow: those
# `emit_presentation` writes, and at the top an ideal filtration, not read;
# and the keys of a module file, those `emit_module` writes
_PRESENTATION_KEYS = frozenset({"field", "name", "points", "solid_arrows", "dashed_arrows",
                                "differential", "ideal", "w0_filtration", "w1_filtration",
                                "ideal_filtration"})
_POINT_KEYS = frozenset({"name", "factor", "inverted"})
_ARROW_KEYS = frozenset({"name", "source", "target"})
_MODULE_KEYS = frozenset({"dims", "arrows", "points"})


def parse_presentation(data: dict, name: str = "") -> Dit:
    _entry(data, _PRESENTATION_KEYS)
    try:
        field = field_from_name(data["field"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad field spec: {exc}", "field")
    points = []
    for i, p in enumerate(_shaped(data.get("points", []), list, "points")):
        where = f"points[{i}]"
        pname = _required(_entry(p, _POINT_KEYS, where), "name", where)
        kind = p.get("factor", "trivial")
        if kind == "trivial":
            points.append((pname, Factor.trivial()))
        elif kind == "rational":
            inv = []
            for s in _shaped(p.get("inverted", []), list, f"{where}.inverted"):
                num, den = parse_poly_fraction(field, _shaped(s, str, f"{where}.inverted"))
                if not den.is_constant():
                    raise ParseError("inverted entries must be polynomials", where)
                if num.is_zero():
                    raise ParseError("cannot invert the zero polynomial", f"{where}.inverted")
                inv.append(num.monic())
            points.append((pname, Factor.rational(inv)))
        else:
            raise ParseError(f"unknown factor kind {kind!r}", where)

    def arrow(entry, where):
        _entry(entry, _ARROW_KEYS, where)
        return tuple(_required(entry, k, where) for k in ("name", "source", "target"))

    def arrows(key):
        return [arrow(a, f"{key}[{i}]")
                for i, a in enumerate(_shaped(data.get(key, []), list, key))]

    try:
        b = Bigraph(field, points, solid=arrows("solid_arrows"), dashed=arrows("dashed_arrows"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(exc), "arrows")
    delta_vals = {}
    for aname, arrs in _shaped(data.get("differential", {}), dict, "differential").items():
        if aname not in b.arrows:
            raise ParseError(f"differential on unknown arrow {aname!r}", "differential")
        delta_vals[aname] = parse_elem(b, arrs, f"differential[{aname}]")
    layer = Layer(b)
    try:
        delta = Differential(layer, delta_vals)
    except ValueError as exc:
        raise ParseError(str(exc), "differential")
    gens = [parse_elem(b, arrs, f"ideal[{i}]")
            for i, arrs in enumerate(_shaped(data.get("ideal", []), list, "ideal"))]
    return Dit(layer, delta, IdealData([g for g in gens if not g.is_zero()]),
               name=name or data.get("name", ""))


def _read_json(path: str) -> dict:
    """The JSON object held in the file at `path`; ParseError when the file
    cannot be read, is not JSON, or holds anything but an object."""
    try:
        with open(path, "r", encoding="utf8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", f"{path}:{exc.lineno}:{exc.colno}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc), path)
    if not isinstance(data, dict):
        raise ParseError("the top level must be a JSON object", path)
    return data


def load_presentation(path: str) -> Dit:
    data = _read_json(path)
    return parse_presentation(data, name=data.get("name", path))


def emit_presentation(dit: Dit) -> dict:
    b = dit.bigraph
    data = {"field": repr(b.field),
            "name": dit.name,
            "points": [], "solid_arrows": [], "dashed_arrows": [],
            "differential": {}, "ideal": []}
    for p in b.point_order:
        fac = b.factor(p)
        if fac.is_trivial:
            data["points"].append({"name": p, "factor": "trivial"})
        else:
            data["points"].append({"name": p, "factor": "rational",
                                   "inverted": [str(q).replace(" ", "") for q in fac.inverted]})
    for a in b.solid_arrows():
        data["solid_arrows"].append({"name": a.name, "source": a.source, "target": a.target})
    for a in b.dashed_arrows():
        data["dashed_arrows"].append({"name": a.name, "source": a.source, "target": a.target})
    for name in sorted(b.arrows):
        val = dit.delta.of_arrow(name)
        if not val.is_zero():
            data["differential"][name] = emit_elem(b, val)
    for g in dit.ideal.generators:
        data["ideal"].append(emit_elem(b, g))
    try:
        w0, w1 = (ascending_levels(levels) for levels in dit.levels)
    except CertificationError:
        w0 = w1 = ()
    if len(w0) > 1:
        data["w0_filtration"] = [sorted(s) for s in w0]
    if len(w1) > 1:
        data["w1_filtration"] = [sorted(s) for s in w1]
    return data


def save_presentation(dit: Dit, path: str):
    with open(path, "w", encoding="utf8") as fh:
        json.dump(emit_presentation(dit), fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- module files ---------------------------------------------------------------------


def parse_module(dit: Dit, data: dict, where: str = "module"):
    from .modcat import Rep
    from .scalars.linalg import Mat

    _entry(data, _MODULE_KEYS, where)
    b = dit.bigraph
    F = b.field

    def entries(key):
        return _shaped(data.get(key, {}), dict, f"{where}.{key}").items()

    dims = {}
    for p, v in entries("dims"):
        if p not in b.points:
            raise ParseError(f"unknown point {p!r}", f"{where}.dims[{p}]")
        if type(v) is not int or v < 0:
            raise ParseError(f"dimension {v!r} is not a non-negative integer", f"{where}.dims[{p}]")
        dims[p] = v
    rep = Rep(dit, {p: dims.get(p, 0) for p in b.point_order})

    def parse_matrix(rows, r, c, wh):
        if (not isinstance(rows, list) or len(rows) != r
                or any(not isinstance(row, list) or len(row) != c for row in rows)):
            raise ParseError(f"matrix must be {r}x{c}", wh)
        return Mat._owning(F, r, c, [[coefficient_value(F, None, str(e), wh) for e in row]
                                     for row in rows])

    for aname, rows in entries("arrows"):
        wh = f"{where}.arrows[{aname}]"
        a = b.arrows.get(aname)
        if a is None or a.dashed:
            raise ParseError(f"unknown solid arrow {aname!r}", wh)
        rep.arrow_ops[aname] = parse_matrix(rows, rep.dims[a.target], rep.dims[a.source], wh)
    for pname, rows in entries("points"):
        wh = f"{where}.points[{pname}]"
        if pname not in b.points or b.factor(pname).is_trivial:
            raise ParseError(f"x-action at {pname!r}, which is not a rational point", wh)
        rep.point_ops[pname] = parse_matrix(rows, rep.dims[pname], rep.dims[pname], wh)
    err = rep.validate()
    if err:
        raise ParseError(err, where)
    return rep


def load_module(dit: Dit, path: str):
    return parse_module(dit, _read_json(path), where=path)


def emit_module(rep) -> dict:
    F = rep.field
    data = {"dims": {p: n for p, n in rep.dims.items() if n},
            "arrows": {}, "points": {}}
    for a, m in rep.arrow_ops.items():
        if m.rows and m.cols:
            data["arrows"][a] = [[F.format(v) for v in row] for row in m.data]
    for p, m in rep.point_ops.items():
        if m.rows:
            data["points"][p] = [[F.format(v) for v in row] for row in m.data]
    return data


# -- report files -----------------------------------------------------------------------


def emit_report(report) -> dict:
    from .pipeline import ClassificationReport

    data = {
        "steps": [{"kind": s.functor.kind, "note": s.note} for s in report.plan.steps],
        "minimal": emit_presentation(report.minimal),
        "indecomposables": [emit_module(r) for r in report.indecomposables],
        "families": [],
        "exceptional": [emit_module(r) for r in report.exceptional],
        "notes": list(report.notes),
    }
    for fam in report.families:
        Z = fam.bimodule
        fd = {"point": fam.point,
              "inverted": [str(p).replace(" ", "") for p in fam.inverted],
              "ranks": {p: n for p, n in Z.dims.items() if n},
              "arrows": {a: [[str(e).replace(" ", "") for e in row] for row in m.data]
                         for a, m in Z.arrow_ops.items() if m.rows and m.cols},
              "x_actions": {p: [[str(e).replace(" ", "") for e in row] for row in m.data]
                            for p, m in Z.point_ops.items() if m.rows},
              "sample_specializations": [
                  {"lambda": str(k[0]), "size": k[1], "module": emit_module(img)}
                  for k, img in fam.sample_images]}
        data["families"].append(fd)
    if report.brute_residue is not None:
        data["exhaustive_residue"] = [emit_module(r) for r in report.brute_residue]
    return data


def save_report(report, path: str):
    with open(path, "w", encoding="utf8") as fh:
        json.dump(emit_report(report), fh, indent=1, sort_keys=True)
        fh.write("\n")
