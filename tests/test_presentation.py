"""Coefficient text and file round trips: one grammar for coefficients in
every field, and `parse_*` reading back what `emit_*` writes."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ditalg.cli import main
from ditalg.interlace import certify
from ditalg.modcat import Rep, hom_dim
from ditalg.presentation import (
    ParseError, coefficient_value, emit_elem, emit_module, emit_presentation, parse_elem,
    parse_module, parse_poly_fraction, parse_presentation,
)
from ditalg.scalars import LocalizedRing, Poly, PrimeField, QQ
from ditalg.scalars.linalg import Mat
from ditalg.tensor import Elem, graded_component_basis

FIELDS = {"F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5), "Q": QQ}

# text -> its value over Q, ascending coefficients; over F_p the value is
# this one reduced mod p, and a parse error when p divides a denominator
READINGS = {
    "2/3^2": [Fraction(2, 9)],
    "2*-x^2": [0, 0, -2],
    "-x^2": [0, 0, -1],
    "--x": [0, 1],
    "x--1": [1, 1],
    "(x+1)^2/7": [Fraction(1, 7), Fraction(2, 7), Fraction(1, 7)],
    "x^2^3": [0, 0, 0, 0, 0, 0, 1],
    "007": [7],
    " - 3 * ( x - 1 ) ": [3, -3],
}


def _reduced(F, value):
    if F is QQ:
        return value
    p = F.p
    return [Fraction(c).numerator * pow(Fraction(c).denominator, -1, p) % p for c in value]


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("text", sorted(READINGS))
def test_a_coefficient_reads_the_same_in_every_field(field, text):
    F = FIELDS[field]
    if F is not QQ and any(Fraction(c).denominator % F.p == 0 for c in READINGS[text]):
        with pytest.raises(ParseError, match=r"^zero denominator \(at "):
            parse_poly_fraction(F, text)
        return
    num, den = parse_poly_fraction(F, text)
    assert den == Poly.one(F)
    assert num == Poly.make(F, _reduced(F, READINGS[text]))


def test_dividing_by_a_constant_keeps_q_values_canonical():
    num, den = parse_poly_fraction(QQ, "4/2")
    assert num.coeffs == (2,) and type(num.coeffs[0]) is int and den == Poly.one(QQ)
    num, den = parse_poly_fraction(QQ, "1/(x+1)")
    assert num == Poly.one(QQ) and den == Poly.from_ints(QQ, [1, 1])


def test_a_coefficient_is_read_in_lowest_terms():
    # a fraction whose factors cancel is its reduced value: a scalar at a
    # trivial point, a polynomial at k[x]; 1/x is still not in k[x]
    F = PrimeField(3)
    ring = LocalizedRing(F, ())
    assert coefficient_value(F, None, "x/x") == F.one
    assert coefficient_value(F, None, "(2*x)/x") == F.from_int(2)
    assert coefficient_value(F, None, "x/(2*x)") == F.from_int(2)
    assert coefficient_value(F, None, "0/x") == F.zero
    assert coefficient_value(F, ring, "(x^2-1)/(x-1)") == ring.from_poly(Poly.from_ints(F, [1, 1]))
    with pytest.raises(ParseError, match="is not invertible"):
        coefficient_value(F, ring, "1/x")
    with pytest.raises(ParseError, match="expected a scalar"):
        coefficient_value(F, None, "x^2/x")


PARSE_ERRORS = {
    "1/0": "zero denominator (at 1/0)",
    "x/(x-x)": "zero denominator (at x/(x-x))",
    "(x+1": "unbalanced parenthesis (at (x+1)",
    "x)": "trailing input ')' (at x))",
    "1 2": "trailing input '2' (at 1 2)",
    "x^y": "expected an integer exponent (at x^y)",
    "x^": "expected an integer exponent (at x^)",
    "x^-1": "expected an integer exponent (at x^-1)",
    "y": "unexpected character 'y' (at y)",
    "2*": "unexpected character '' (at 2*)",
    "": "unexpected character ''",
}


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("text", sorted(PARSE_ERRORS))
def test_a_malformed_coefficient_is_the_same_parse_error_in_every_field(field, text):
    with pytest.raises(ParseError) as err:
        parse_poly_fraction(FIELDS[field], text)
    assert str(err.value) == PARSE_ERRORS[text]


# t trivial, r = k[x]_h with h = x^2+x+1 (decoration keys x^0/h^j and
# x^1/h^j), s = k[x]_x, u = k[x]; delta(a) = x*w decorates a dashed arrow
def _presentation(field: str):
    return {"field": field,
            "points": [{"name": "t", "factor": "trivial"},
                       {"name": "r", "factor": "rational", "inverted": ["x^2+x+1"]},
                       {"name": "s", "factor": "rational", "inverted": ["x"]},
                       {"name": "u", "factor": "rational", "inverted": []}],
            "solid_arrows": [{"name": "a", "source": "t", "target": "r"},
                             {"name": "b", "source": "r", "target": "s"},
                             {"name": "c", "source": "s", "target": "u"}],
            "dashed_arrows": [{"name": "w", "source": "t", "target": "r"},
                              {"name": "v", "source": "t", "target": "s"}],
            "differential": {"a": [["x", "w", "1"]]},
            "ideal": []}


_DITS = {name: parse_presentation(_presentation(name)) for name in ("F2", "F3", "Q")}
_WORDS = {name: [w for p in d.bigraph.point_order for q in d.bigraph.point_order
                 for deg in (0, 1) for w in graded_component_basis(d.bigraph, p, q, deg, 3, 2)]
          for name, d in _DITS.items()}


def test_the_round_trip_words_carry_h_fraction_keys():
    b = _DITS["F3"].bigraph
    keys = {k for w in _WORDS["F3"] for k in w.coeffs}
    assert {(0, 1), (1, 1), (0, 2), (1, 2), (2, 0)} <= keys
    assert b.factor_ring("r").h.degree == 2


def _scalars(F):
    def value(n, m):
        return F.div(F.from_int(n), F.from_int(m)) if F.from_int(m) else F.from_int(n)

    return st.builds(value, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(field=st.sampled_from(sorted(_DITS)), data=st.data())
def test_an_emitted_element_reads_back_to_itself(field, data):
    d = _DITS[field]
    b, F = d.bigraph, d.field
    nonzero = _scalars(F).filter(bool)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(_WORDS[field]), nonzero), max_size=5))
    e = Elem.zero(b)
    for w, c in terms:
        e = e + Elem.from_word(b, w, c)
    assert parse_elem(b, emit_elem(b, e), "e") == e


def _module(d, draw):
    F = d.field
    b = d.bigraph
    scalar = _scalars(F)

    def matrix(r, c):
        return Mat(F, r, c, draw(st.lists(st.lists(scalar, min_size=c, max_size=c),
                                          min_size=r, max_size=r)))

    dims = {p: draw(st.integers(0, 2)) for p in b.point_order}
    M = Rep(d, dims)
    for a in b.solid_arrows():
        M.arrow_ops[a.name] = matrix(dims[a.target], dims[a.source])
    for p in ("r", "s", "u"):
        M.point_ops[p] = matrix(dims[p], dims[p])
    assume(M.validate() is None)  # h acts invertibly at r and at s
    return M


def _same_module(M, N):
    return (M.dims == N.dims
            and {a: m.data for a, m in M.arrow_ops.items()}
            == {a: m.data for a, m in N.arrow_ops.items()}
            and {p: m.data for p, m in M.point_ops.items()}
            == {p: m.data for p, m in N.point_ops.items()})


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(field=st.sampled_from(sorted(_DITS)), data=st.data())
def test_an_emitted_module_reads_back_to_itself(field, data):
    d = _DITS[field]
    M = _module(d, data.draw)
    assert _same_module(parse_module(d, json.loads(json.dumps(emit_module(M)))), M)


BAD_WORDS = {
    "even_length": (["1", "a"], "word arrays must have odd length (at e[0])"),
    "idempotent_without_point": (["1"], "idempotent words need the form"),
    "unknown_point": (["e_z"], "unknown point 'z' (at e[0])"),
    "unknown_arrow": (["1", "zz", "1"], "unknown arrow 'zz' (at e[0])"),
    "arrows_that_do_not_compose": (["1", "a", "1", "b", "1"],
                                   "arrows b and a do not compose (at e[0])"),
    "not_a_string": ([1], "a word must be a list of strings (at e[0])"),
    "denominator_outside_h": (["1/(x+1)*e_r"], "denominator x + 1 is not invertible"),
    "polynomial_at_a_trivial_point": (["x*e_t"],
                                      "expected a scalar, not an expression in x (at x)"),
}


@pytest.mark.parametrize("case", sorted(BAD_WORDS))
def test_a_malformed_word_is_a_parse_error(case):
    word, message = BAD_WORDS[case]
    with pytest.raises(ParseError) as err:
        parse_elem(_DITS["F3"].bigraph, [word], "e")
    assert str(err.value).startswith(message)


def test_an_emitted_presentation_reads_back_to_itself():
    for field, d in _DITS.items():
        data = emit_presentation(d)
        assert data["field"] == field
        assert emit_presentation(parse_presentation(data)) == data


def test_a_non_constant_x_action_entry_names_its_point():
    # an x-action entry is a scalar even at a rational point
    data = {"dims": {"r": 1}, "points": {"r": [["1/(x+1)"]]}}
    with pytest.raises(ParseError) as err:
        parse_module(_DITS["F3"], data)
    assert str(err.value) == "expected a scalar, not an expression in x (at module.points[r])"


@pytest.mark.parametrize("field", sorted(_DITS))
def test_cmd_hom_on_module_files_prints_hom_dim(tmp_path, capsys, field):
    d = parse_presentation(_presentation(field))
    certify(d)
    F = d.field
    m1, m2, m3 = (F.from_int(n) for n in (1, 2, 3))
    M = Rep(d, {"t": 1, "r": 2, "s": 1},
            arrow_ops={"a": Mat(F, 2, 1, [[m1], [m2]]), "b": Mat(F, 1, 2, [[m1, m3]])},
            point_ops={"r": Mat(F, 2, 2, [[F.zero, m1], [F.neg(m1), F.zero]]),
                       "s": Mat(F, 1, 1, [[F.neg(m1)]])})
    N = Rep(d, {"t": 1, "r": 1, "s": 1, "u": 1},
            arrow_ops={"a": Mat(F, 1, 1, [[m1]]), "b": Mat(F, 1, 1, [[m2]]),
                       "c": Mat(F, 1, 1, [[m1]])},
            point_ops={"r": Mat(F, 1, 1, [[F.zero]]), "s": Mat(F, 1, 1, [[m1]]),
                       "u": Mat(F, 1, 1, [[m3]])})
    assert M.validate() is None and N.validate() is None
    paths = {}
    for name, data in (("d", emit_presentation(d)), ("m", emit_module(M)), ("n", emit_module(N))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    for X, Y, px, py in ((M, N, "m", "n"), (N, M, "n", "m"), (M, M, "m", "m")):
        assert main(["hom", str(paths["d"]), str(paths[px]), str(paths[py])]) == 0
        assert f"dim hom = {hom_dim(d, X, Y)}" in capsys.readouterr().out
