"""Oracles for the report path: the JSON emitter and the row formatter.

The emitter is checked against ``json.dumps(..., sort_keys=True, indent=2)``,
which shares no code with it, on drawn payloads and on every corpus report.
The row formatter (sparse rows of quotient or window coordinates printed with
no polynomial built) is checked against the polynomial route and against
``ref_format``, a term-by-term formatter written here that sorts with
``monomial_sort_key`` and prints ``str`` of each coefficient.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.monomials import monomial_sort_key, window
from weiljets.poly import TruncatedPolynomial, _format_row, format_polynomial, variable_names
from weiljets.session import Report, _json, execute, parse_session, render

from conftest import algebras

SESSIONS = sorted((Path(__file__).resolve().parent.parent / "sessions").glob("*.json"))


def oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


# -- the emitter ----------------------------------------------------------------------

strings = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé€😀')))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    strings,
)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(strings, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_emitter_matches_json_dumps(payload):
    assert _json(payload, "\n") == oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [{}, [], (), "", 0, -1, 10**100, True, False, None, {"": {}}, [[], {}, ()],
     {"b": 1, "a": [True, None]}, [" ", "\ud800"]],
    ids=repr,
)
def test_emitter_edge_cases(payload):
    assert _json(payload, "\n") == oracle(payload)


@pytest.mark.parametrize("options", [{"verify_oracles": True}, {"fail_fast": True}], ids=str)
@pytest.mark.parametrize("path", SESSIONS, ids=lambda p: p.stem)
def test_corpus_reports_match_json_dumps(path, options):
    report = execute(parse_session(path.read_text()), **options)
    payload = {"exit": report.exit_status, "results": report.results}
    assert render(report) == oracle(payload) + "\n"


def test_verify_oracles_reports_are_covered():
    # The verify_oracles case above only tests the emitter on the booleans
    # it adds if some corpus session has a derive command.
    rendered = [render(execute(parse_session(p.read_text()), verify_oracles=True)) for p in SESSIONS]
    assert any('"oracle_agrees": true' in text for text in rendered)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1, 2}, b"x"], ids=repr)
def test_emitter_refuses_other_types(value):
    report = Report([{"index": 0, "op": "info", "ok": True, "result": {"v": [value]}}], 0, 0.0)
    with pytest.raises(TypeError):
        render(report)


# -- the row formatter ----------------------------------------------------------------


def ref_format(n, terms) -> str:
    """The canonical text of a polynomial given as {exponent: Fraction}."""
    names = variable_names(n)
    pieces = []
    for exp in sorted(terms, key=monomial_sort_key):
        c = terms[exp]
        factors = [name if k == 1 else f"{name}^{k}" for name, k in zip(names, exp) if k]
        mag = abs(c)
        body = " ".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        sign = "" if c > 0 else "-"
        pieces.append(f"{sign}{body}" if not pieces else f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces) or "0"


coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)


def rows(size: int):
    return st.dictionaries(st.integers(0, size - 1), coefficients, max_size=size)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_quotient_rows_format_as_their_polynomials(data):
    algebra = data.draw(algebras())
    monomials = algebra.basis_monomials
    assert list(monomials) == sorted(monomials, key=monomial_sort_key)
    row = data.draw(rows(algebra.dimension))
    text = _format_row(row, monomials)
    assert text == format_polynomial(algebra.row_polynomial(row))
    assert text == ref_format(algebra.n, {monomials[b]: c for b, c in row.items()})
    assert repr(algebra.element([row.get(b, 0) for b in range(algebra.dimension)])) == (
        f"AlgebraElement({text})"
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_window_rows_format_as_their_polynomials(data):
    n, bound = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
    exps = window(n, bound)
    row = data.draw(rows(len(exps)))
    text = _format_row(row, exps)
    assert text == format_polynomial(TruncatedPolynomial.from_sparse(n, bound, row))
    assert text == ref_format(n, {exps[k]: c for k, c in row.items()})


@pytest.mark.parametrize(
    "row, text",
    [
        ({}, "0"),
        ({0: Fraction(-3, 2)}, "-3/2"),
        ({0: Fraction(1)}, "1"),
        ({0: Fraction(-1)}, "-1"),
        ({2: Fraction(-1), 0: Fraction(7), 1: Fraction(2, 3)}, "7 + 2/3 x - y"),
        ({5: Fraction(-1), 3: Fraction(1, 2)}, "1/2 x^2 - y^2"),
    ],
)
def test_row_formatter_explicit_cases(row, text):
    assert _format_row(row, window(2, 2)) == text
