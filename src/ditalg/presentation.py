"""Presentation and report files.

A presentation file is restricted JSON: field spec, points with factors and
inverted polynomials, solid/dashed arrows, differential values, ideal
generators, and optional filtrations.  Decorated words are arrays that
alternate coefficient strings and arrow names, read right to left from the
source (paths from i to j act like b*a).  Polynomials are strings such as
"x^2-3*x+1"; all numbers are exact.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from .bigraph import Bigraph, Factor
from .interlace import Dit, IdealData
from .scalars import Field, LocElt, LocalizedRing, Poly, field_from_name, strip_h_factors
from .tensor import Differential, Elem, Layer


class ParseError(ValueError):
    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{message}" + (f" (at {where})" if where else ""))
        self.where = where


# -- coefficient expressions ---------------------------------------------------


class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        c = self.peek()
        self.pos += 1
        return c


def parse_poly_fraction(F: Field, s: str) -> Tuple[Poly, Poly]:
    """Parse an expression in x into (numerator, denominator) polynomials."""
    tk = _Tok(s)

    def parse_expr():
        sign = 1
        while tk.peek() in ("+", "-"):
            if tk.take() == "-":
                sign = -sign
        num, den = parse_term()
        if sign < 0:
            num = -num
        while tk.peek() in ("+", "-"):
            op = tk.take()
            n2, d2 = parse_term()
            if op == "-":
                n2 = -n2
            num, den = num * d2 + n2 * den, den * d2
        return num, den

    def parse_term():
        num, den = parse_power()
        while tk.peek() in ("*", "/"):
            op = tk.take()
            n2, d2 = parse_power()
            if op == "*":
                num, den = num * n2, den * d2
            else:
                if n2.is_zero():
                    raise ParseError("division by zero polynomial", s)
                num, den = num * d2, den * n2
        return num, den

    def parse_power():
        num, den = parse_atom()
        while tk.peek() == "^":
            tk.take()
            exp = parse_int()
            num, den = num ** exp, den ** exp
        return num, den

    def parse_int() -> int:
        digits = ""
        while tk.peek().isdigit():
            digits += tk.take()
        if not digits:
            raise ParseError("expected an integer exponent", s)
        return int(digits)

    def parse_atom():
        c = tk.peek()
        one = Poly.one(F)
        if c == "(":
            tk.take()
            out = parse_expr()
            if tk.take() != ")":
                raise ParseError("unbalanced parenthesis", s)
            return out
        if c == "x":
            tk.take()
            return Poly.x(F), one
        if c.isdigit():
            digits = ""
            while tk.peek().isdigit():
                digits += tk.take()
            if tk.peek() == "/" and F.char == 0:
                # a/b rational literal only when the next atom is a digit
                save = tk.pos
                tk.take()
                if tk.peek().isdigit():
                    d2 = ""
                    while tk.peek().isdigit():
                        d2 += tk.take()
                    from fractions import Fraction

                    return Poly.const(F, Fraction(int(digits), int(d2))), one
                tk.pos = save
            return Poly.const(F, F.from_int(int(digits))), one
        if c == "-":
            tk.take()
            n, d = parse_atom()
            return -n, d
        raise ParseError(f"unexpected character {c!r}", s)

    num, den = parse_expr()
    if tk.peek():
        raise ParseError(f"trailing input {tk.text[tk.pos:]!r}", s)
    return num, den


def coefficient_value(F: Field, ring: Optional[LocalizedRing], s: str):
    """Parse a coefficient string into (field scalar, decoration LocElt-or-None)."""
    num, den = parse_poly_fraction(F, s)
    if ring is None:
        if num.degree > 0 or den.degree > 0:
            raise ParseError("polynomial coefficient at a trivial point", s)
        if den.is_zero() or F.is_zero(den.coeff(0)):
            raise ParseError("zero denominator", s)
        return F.div(num.coeff(0) if num.coeffs else F.zero, den.coeff(0)), None
    stripped = strip_h_factors(den, ring.h)
    if not stripped.is_constant():
        raise ParseError(f"denominator {den} is not invertible in {ring!r}", s)
    val = LocElt(ring, num, 0)
    inv = ring.inv(LocElt(ring, den, 0))
    return F.one, val * inv


# -- words and elements -----------------------------------------------------------


def parse_word_array(b: Bigraph, arr: List[str], where: str) -> Elem:
    """One decorated word: alternating coefficients and arrow names, read
    right to left (rightmost coefficient sits at the source point)."""
    F = b.field
    if len(arr) % 2 == 0:
        raise ParseError("word arrays must have odd length", where)
    if len(arr) == 1:
        token = arr[0]
        if "e_" not in token:
            raise ParseError("idempotent words need the form 'coeff*e_point' or 'e_point'",
                             where)
        coeff_str, _, pt = token.rpartition("e_")
        coeff_str = coeff_str.rstrip("*").strip() or "1"
        if pt not in b.points:
            raise ParseError(f"unknown point {pt!r}", where)
        ring = b.factor_ring(pt)
        scalar, dec = coefficient_value(F, ring, coeff_str)
        if dec is None:
            return Elem.idempotent(b, pt, scalar)
        return Elem.decorated(b, pt, dec).scale(scalar)
    items = list(reversed(arr))  # now source first: c0, a1, c1, a2, ...
    arrows = []
    for i in range(1, len(items), 2):
        name = items[i]
        if name not in b.arrows:
            raise ParseError(f"unknown arrow {name!r}", where)
        arrows.append(name)
    for i in range(len(arrows) - 1):
        if b.arrow(arrows[i]).target != b.arrow(arrows[i + 1]).source:
            raise ParseError(f"arrows {arrows[i]} and {arrows[i+1]} do not compose", where)
    pts = [b.arrow(arrows[0]).source] + [b.arrow(a).target for a in arrows]

    def decoration(i: int) -> Elem:
        coeff_str = items[2 * i]
        ring = b.factor_ring(pts[i])
        scalar, dec = coefficient_value(F, ring, coeff_str)
        if dec is None:
            return Elem.idempotent(b, pts[i], scalar)
        return Elem.decorated(b, pts[i], dec).scale(scalar)

    out = decoration(0)
    for i, name in enumerate(arrows):
        out = Elem.arrow(b, name) * out
        out = decoration(i + 1) * out
    return out


def parse_elem(b: Bigraph, arrs: List[List[str]], where: str) -> Elem:
    out = Elem.zero(b)
    for i, arr in enumerate(arrs):
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


def parse_presentation(data: dict, name: str = "") -> Dit:
    try:
        field = field_from_name(data["field"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad field spec: {exc}", "field")
    points = []
    for i, p in enumerate(data.get("points", [])):
        pname = p["name"]
        kind = p.get("factor", "trivial")
        if kind == "trivial":
            points.append((pname, Factor.trivial()))
        elif kind == "rational":
            inv = []
            for s in p.get("inverted", []):
                num, den = parse_poly_fraction(field, s)
                if not den.is_constant():
                    raise ParseError("inverted entries must be polynomials", f"points[{i}]")
                inv.append(num.monic())
            points.append((pname, Factor.rational(inv)))
        else:
            raise ParseError(f"unknown factor kind {kind!r}", f"points[{i}]")
    solid = [(a["name"], a["source"], a["target"]) for a in data.get("solid_arrows", [])]
    dashed = [(a["name"], a["source"], a["target"]) for a in data.get("dashed_arrows", [])]
    try:
        b = Bigraph(field, points, solid=solid, dashed=dashed)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(exc), "arrows")
    delta_vals = {}
    for aname, arrs in data.get("differential", {}).items():
        if aname not in b.arrows:
            raise ParseError(f"differential on unknown arrow {aname!r}", "differential")
        delta_vals[aname] = parse_elem(b, arrs, f"differential[{aname}]")
    w0 = tuple(frozenset(level) for level in data.get("w0_filtration", []))
    w1 = tuple(frozenset(level) for level in data.get("w1_filtration", []))
    layer = Layer(b, w0, w1)
    try:
        delta = Differential(layer, delta_vals)
    except ValueError as exc:
        raise ParseError(str(exc), "differential")
    gens = [parse_elem(b, arrs, f"ideal[{i}]") for i, arrs in enumerate(data.get("ideal", []))]
    filtration = None
    if "ideal_filtration" in data:
        filtration = [[parse_elem(b, arrs, "ideal_filtration") for arrs in level]
                      for level in data["ideal_filtration"]]
    return Dit(layer, delta, IdealData([g for g in gens if not g.is_zero()], filtration),
               name=name or data.get("name", ""))


def load_presentation(path: str) -> Dit:
    try:
        with open(path, "r", encoding="utf8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", f"{path}:{exc.lineno}:{exc.colno}")
    except OSError as exc:
        raise ParseError(str(exc), path)
    return parse_presentation(data, name=data.get("name", path))


def emit_presentation(dit: Dit) -> dict:
    b = dit.bigraph
    data = {"field": repr(b.field) if not repr(b.field) == "Q" else "Q",
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
    if dit.layer.w0_levels and len(dit.layer.w0_levels) > 1:
        data["w0_filtration"] = [sorted(s) for s in dit.layer.w0_levels]
    if dit.layer.w1_levels and len(dit.layer.w1_levels) > 1:
        data["w1_filtration"] = [sorted(s) for s in dit.layer.w1_levels]
    return data


def save_presentation(dit: Dit, path: str):
    with open(path, "w", encoding="utf8") as fh:
        json.dump(emit_presentation(dit), fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- module files ---------------------------------------------------------------------


def parse_module(dit: Dit, data: dict, where: str = "module"):
    from .modcat import Rep
    from .scalars.linalg import Mat

    b = dit.bigraph
    F = b.field
    dims = {p: int(v) for p, v in data.get("dims", {}).items()}
    for p in dims:
        if p not in b.points:
            raise ParseError(f"unknown point {p!r}", where)
    rep = Rep(dit, {p: dims.get(p, 0) for p in b.point_order})

    def parse_matrix(rows, r, c, wh):
        if len(rows) != r or any(len(row) != c for row in rows):
            raise ParseError(f"matrix must be {r}x{c}", wh)
        out = Mat(F, r, c)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                num, den = parse_poly_fraction(F, str(entry))
                if num.degree > 0 or den.degree > 0:
                    raise ParseError("matrix entries must be scalars", wh)
                out.data[i][j] = F.div(num.coeff(0) if num.coeffs else F.zero, den.coeff(0))
        return out

    for aname, rows in data.get("arrows", {}).items():
        a = b.arrow(aname)
        rep.arrow_ops[aname] = parse_matrix(rows, rep.dims[a.target], rep.dims[a.source],
                                            f"{where}.arrows[{aname}]")
    for pname, rows in data.get("points", {}).items():
        rep.point_ops[pname] = parse_matrix(rows, rep.dims[pname], rep.dims[pname],
                                            f"{where}.points[{pname}]")
    err = rep.validate()
    if err:
        raise ParseError(err, where)
    return rep


def load_module(dit: Dit, path: str):
    try:
        with open(path, "r", encoding="utf8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", f"{path}:{exc.lineno}:{exc.colno}")
    return parse_module(dit, data, where=path)


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


def parse_report(data: dict) -> dict:
    """Validate a report file; returns the canonical structure."""
    for key in ("steps", "minimal", "indecomposables", "families"):
        if key not in data:
            raise ParseError(f"report is missing {key!r}", "report")
    return data


def save_report(report, path: str):
    with open(path, "w", encoding="utf8") as fh:
        json.dump(emit_report(report), fh, indent=1, sort_keys=True)
        fh.write("\n")
