"""The elimination core of ``subspace`` against plain Fraction arithmetic, and
the work it does.

The reference below is written here with ``Fraction`` operators only and
shares no code with the package: a row update, a reduction that subtracts
until no pivot column is left, and an insertion that scales by the lead and
clears the new pivot from every stored row.  The rows are drawn with negative
entries, large denominators and entries made to cancel to zero.

The counted-work tests patch the ``Fraction`` operators: reducing against
unit rows and inserting a unit row must call none of them, and a row update
must build exactly one ``Fraction`` per entry it writes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.subspace import Echelon, _add_multiple, _reduce

WIDTH = 8
values = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**12
).filter(bool)
rows = st.dictionaries(st.integers(0, WIDTH - 1), values, max_size=WIDTH)


# -- reference ---------------------------------------------------------------------


def ref_add_multiple(target, m, row, skip, sign):
    out = dict(target)
    for c, v in row.items():
        if c != skip:
            new = out.get(c, Fraction(0)) + sign * m * v
            if new:
                out[c] = new
            else:
                out.pop(c, None)
    return out


def ref_reduce(stored, row):
    out = dict(row)
    while hit := [p for p in out if p in stored]:
        p = hit[0]
        m = out[p]
        for c, v in stored[p].items():
            new = out.get(c, Fraction(0)) - m * v
            if new:
                out[c] = new
            else:
                out.pop(c, None)
    return out


def ref_insert(stored, row):
    """(new stored rows, True), or (stored, False) if the row is dependent."""
    row = ref_reduce(stored, row)
    if not row:
        return stored, False
    pivot = min(row)
    lead = row[pivot]
    row = {c: v / lead for c, v in row.items()}
    out = {}
    for q, other in stored.items():
        c = other.get(pivot, Fraction(0))
        out[q] = {k: w for k in set(other) | set(row) if (w := other.get(k, 0) - c * row.get(k, 0))}
    out[pivot] = row
    return out, True


def assert_stored_values_are_nonzero_fractions(stored):
    assert all(type(v) is Fraction and v != 0 for r in stored.values() for v in r.values())


@st.composite
def updates(draw):
    """(target, m, row, skip, sign): the target cancels some of the row's
    entries exactly."""
    row = draw(rows)
    m = draw(values)
    sign = draw(st.sampled_from([1, -1]))
    skip = draw(st.sampled_from([-1, *row])) if row else -1
    target = draw(rows)
    for c in draw(st.lists(st.sampled_from(sorted(row)), unique=True)) if row else ():
        target[c] = -sign * m * row[c]
    return target, m, row, skip, sign


@st.composite
def echelon_inputs(draw):
    """Rows to insert, with unit rows, multiples and sums of earlier rows
    among them, so that dependent rows and unit pivots come up."""
    out = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["row", "unit", "combination"]))
        if kind == "unit":
            out.append({draw(st.integers(0, WIDTH - 1)): draw(values)})
        elif kind == "combination" and out:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            s, t = draw(values), draw(values)
            out.append(ref_add_multiple({c: s * v for c, v in a.items()}, t, b, -1, 1))
        else:
            out.append(draw(rows))
    return out


# -- oracle ------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(updates())
def test_add_multiple_matches_fraction_arithmetic(update):
    target, m, row, skip, sign = update
    expected = ref_add_multiple(target, m, row, skip, sign)
    _add_multiple(target, m, row, skip, sign)
    assert target == expected
    assert_stored_values_are_nonzero_fractions({0: target})


@settings(max_examples=100, deadline=None)
@given(echelon_inputs(), echelon_inputs())
def test_insert_and_reduce_match_fraction_arithmetic(inserted, probes):
    echelon = Echelon(WIDTH)
    stored = {}
    for row in inserted:
        stored, independent = ref_insert(stored, row)
        assert echelon.insert(dict(row)) == independent
        assert echelon.rows == stored
        assert_stored_values_are_nonzero_fractions(echelon.rows)
        assert all(r[p] == 1 for p, r in echelon.rows.items())
    for probe in probes + inserted:
        remainder = _reduce(echelon.rows, probe)
        assert remainder == ref_reduce(stored, probe)
        assert_stored_values_are_nonzero_fractions({0: remainder})
        assert not any(p in remainder for p in echelon.rows)


def test_reduce_leaves_its_input_and_the_stored_rows_alone():
    echelon = Echelon(4)
    for row in ({0: Fraction(2), 1: Fraction(-3, 5)}, {2: Fraction(7)}):
        echelon.insert(row)
    stored = {p: dict(r) for p, r in echelon.rows.items()}
    probe = {0: Fraction(1, 3), 1: Fraction(4), 2: Fraction(-1), 3: Fraction(9, 2)}
    before = dict(probe)
    assert _reduce(echelon.rows, probe) == {1: Fraction(41, 10), 3: Fraction(9, 2)}
    assert probe == before and echelon.rows == stored


# -- counted work ------------------------------------------------------------------

OPERATORS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__")


@pytest.fixture
def fraction_work(monkeypatch):
    """Counts of Fraction operator calls and of Fraction constructions."""
    counts = {"operators": 0, "built": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in OPERATORS:
        monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name), "operators"))
    monkeypatch.setattr(Fraction, "__new__", counted(Fraction.__new__, "built"))
    return counts


def test_reducing_against_unit_rows_does_no_arithmetic(fraction_work):
    units = Echelon(6)
    for c in (0, 2, 5):
        units.insert({c: Fraction(3, c + 1)})
    row = {0: Fraction(-2, 7), 1: Fraction(5, 3), 2: Fraction(11), 4: Fraction(-1, 9)}
    fraction_work.update(operators=0, built=0)
    assert _reduce(units.rows, row) == {1: Fraction(5, 3), 4: Fraction(-1, 9)}
    assert units.insert(dict(row))  # reduced to the free columns, then scaled
    assert units.insert({5: Fraction(1)}) is False
    assert fraction_work["operators"] == 0


def test_a_unit_row_back_substitutes_by_deletion(fraction_work):
    echelon = Echelon(5)
    echelon.insert({0: Fraction(1), 3: Fraction(-2, 3), 4: Fraction(5)})
    echelon.insert({1: Fraction(1), 3: Fraction(7, 11)})
    fraction_work.update(operators=0, built=0)
    assert echelon.insert({3: Fraction(-13, 17)})
    assert fraction_work["operators"] == 0
    assert echelon.rows == {
        0: {0: Fraction(1), 4: Fraction(5)},
        1: {1: Fraction(1)},
        3: {3: Fraction(1)},
    }


@pytest.mark.parametrize("sign", [1, -1])
def test_add_multiple_builds_one_fraction_per_entry_written(fraction_work, sign):
    row = {
        0: Fraction(1), 1: Fraction(-3, 4), 2: Fraction(5, 6), 3: Fraction(2), 4: Fraction(-7, 9)
    }
    m = Fraction(-2, 5)
    # Column 1 cancels, column 2 is added to, columns 3 and 4 are new, column 0
    # is skipped, and column 5 is not in the row.
    target = {1: -sign * m * row[1], 2: Fraction(1, 6), 5: Fraction(8)}
    expected = ref_add_multiple(target, m, row, 0, sign)
    fraction_work.update(operators=0, built=0)
    _add_multiple(target, m, row, 0, sign)
    assert fraction_work == {"operators": 0, "built": 3}
    assert target == expected and 1 not in target
