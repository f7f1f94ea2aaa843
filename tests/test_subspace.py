from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.errors import DimensionMismatchError
from weiljets.subspace import (
    Echelon,
    Subspace,
    preimage,
    span_coordinates,
    sparse,
)

from conftest import (
    basis,
    canonical_basis,
    contains_dense,
    is_canonical_scalar,
    membership_rows,
    nullspace,
    pivots,
    subspace_intersection,
    subspace_sum,
    zero_subspace,
)


class TestCanonicalBasis:
    def test_dependent_rows_collapse(self):
        s = canonical_basis([(1, 1), (2, 2)], 2)
        assert s.dimension == 1
        assert basis(s) == ((Fraction(1), Fraction(1)),)

    def test_empty_span(self):
        s = canonical_basis([], 3)
        assert s.dimension == 0
        assert s == zero_subspace(3)

    def test_rank_three_identity_pivots(self):
        # Hand Gaussian elimination gives rank 3; cross-check with a
        # brute-force determinant expansion.
        rows = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        assert det != 0
        s = canonical_basis(rows, 3)
        assert s.dimension == 3
        assert pivots(s) == (0, 1, 2)

    def test_idempotent(self):
        s = canonical_basis([(1, 2, 3), (0, 1, 1)], 3)
        again = canonical_basis(basis(s), 3)
        assert again == s

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            canonical_basis([(1, 2), (1, 2, 3)], 2)


class TestQueries:
    def test_intersection_of_axes_is_zero(self):
        u = canonical_basis([(1, 0)], 2)
        v = canonical_basis([(0, 1)], 2)
        assert subspace_intersection(u, v) == zero_subspace(2)

    def test_sum_spans_plane(self):
        u = canonical_basis([(1, 0)], 2)
        v = canonical_basis([(1, 1)], 2)
        assert subspace_sum(u, v).dimension == 2

    def test_intersection_solved_system(self):
        # Solving the 3x3 system by hand gives span{(1,1,1)}; brute-force
        # membership over small rational combinations agrees.
        u = canonical_basis([(1, 1, 0), (0, 0, 1)], 3)
        v = canonical_basis([(1, 1, 1)], 3)
        inter = subspace_intersection(u, v)
        assert inter == canonical_basis([(1, 1, 1)], 3)
        coeffs = [Fraction(k, 2) for k in range(-4, 5)]
        members = set()
        for a, b in product(coeffs, repeat=2):
            vec = (a, a, b)
            if contains_dense(v, vec):
                members.add(vec)
        for vec in members:
            assert contains_dense(inter, vec)

    def test_query_dispatch(self):
        u = canonical_basis([(1, 0)], 2)
        v = canonical_basis([(0, 1)], 2)
        assert subspace_sum(u, v).dimension == 2
        assert subspace_intersection(u, v) == zero_subspace(2)
        assert contains_dense(u, (2, 0)) is True
        assert u.contains_subspace(v) is False


class TestSolvers:
    def test_nullspace_of_full_rank_map_is_zero(self):
        assert nullspace([(1, 0), (0, 1)], 2) == zero_subspace(2)

    def test_nullspace_matches_annihilated_rows(self):
        k = nullspace([(1, 1, 1)], 3)
        assert k.dimension == 2
        for row in basis(k):
            assert sum(row) == 0

    def test_membership_rows_cut_out_subspace(self):
        s = canonical_basis([(1, 2, 0), (0, 0, 1)], 3)
        rows = membership_rows(s)
        for vec in basis(s):
            assert all(
                sum(a * b for a, b in zip(r, vec)) == 0 for r in rows
            )
        outside = (1, 0, 0)
        assert any(sum(a * b for a, b in zip(r, outside)) != 0 for r in rows)

    def test_preimage(self):
        # M(x, y) = (x + y, y); target = span{(1, 0)}.
        m = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
        target = canonical_basis([(1, 0)], 2)
        pre = preimage(m, target, 2)
        assert pre == canonical_basis([(1, 0)], 2)

    def test_solve_columns(self):
        cols = [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
        sol = span_coordinates(cols, 2)({0: Fraction(3), 1: Fraction(2)})
        assert sol == {0: Fraction(1), 1: Fraction(2)}
        assert span_coordinates([{}], 1)({0: Fraction(1)}) is None

    def test_invert_matrix(self):
        m = [(Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))]
        inv = inverse_by_the_solver(m)
        assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
        assert inverse_by_the_solver([(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]) is None


def inverse_by_the_solver(rows):
    """The inverse of a square row matrix through the one solver: row g is the
    coordinates of e_g over the rows; None when some e_g is outside their span."""
    n = len(rows)
    solve = span_coordinates([sparse(row, n) for row in rows], n)
    inverse = [solve({g: 1}) for g in range(n)]
    return None if None in inverse else [[row.get(j, 0) for j in range(n)] for row in inverse]


def vectors(dim=4):
    return st.tuples(*[st.integers(-5, 5) for _ in range(dim)])


@settings(max_examples=40, deadline=None)
@given(st.lists(vectors(), max_size=5), st.permutations(range(5)))
def test_canonical_basis_is_order_independent(rows, perm):
    shuffled = [rows[i] for i in perm if i < len(rows)]
    if len(shuffled) != len(rows):
        shuffled = list(reversed(rows))
    assert canonical_basis(rows, 4) == canonical_basis(shuffled, 4)


@settings(max_examples=40, deadline=None)
@given(st.lists(vectors(), max_size=4), st.lists(vectors(), max_size=4))
def test_dimension_formula(rows_u, rows_v):
    u = canonical_basis(rows_u, 4)
    v = canonical_basis(rows_v, 4)
    s = subspace_sum(u, v)
    i = subspace_intersection(u, v)
    assert s.dimension + i.dimension == u.dimension + v.dimension


class TestEchelon:
    def test_saturate_closes_under_a_shift(self):
        # e_j -> e_{j+1} on R^4 (e_3 -> 0): the closure of e_1 is span{e_1, e_2, e_3}.
        shift = [{1: Fraction(1)}, {2: Fraction(1)}, {3: Fraction(1)}, None]
        span = Echelon(4)
        span.saturate([{1: Fraction(2)}], [shift])
        assert span.subspace() == canonical_basis([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)

    def test_kernel_matches_nullspace(self):
        span = Echelon(3)
        assert span.insert({0: Fraction(1), 2: Fraction(-1)})
        assert not span.insert({0: Fraction(3), 2: Fraction(-3)})
        assert span.kernel() == nullspace([(1, 0, -1)], 3)
        assert not span.reduce({0: Fraction(2), 2: Fraction(-2)})


# -- independent oracle: sympy's DomainMatrix over QQ ----------------------------


@pytest.fixture(scope="module")
def qq():
    """(to_domain, from_domain) converting between Fraction rows and DomainMatrix."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def to_domain(rows, ncols):
        entries = [[QQ(int(a.numerator), int(a.denominator)) for a in r] for r in rows]
        return DomainMatrix(entries, (len(rows), ncols), QQ)

    def from_domain(matrix):
        return [tuple(Fraction(int(a.numerator), int(a.denominator)) for a in r) for r in matrix.to_list()]

    return to_domain, from_domain


# About half the entries are zero.
_entries = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=5))


@st.composite
def sparse_matrices(draw, square=False):
    """(column count, rows) with all-zero and duplicate rows mixed in."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(_entries, min_size=ncols, max_size=ncols)
    if square:
        return ncols, draw(st.lists(row, min_size=ncols, max_size=ncols))
    rows = draw(st.lists(row, max_size=6))
    if draw(st.booleans()):
        rows.append([Fraction(0)] * ncols)
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    return ncols, draw(st.permutations(rows))


def _oracle_rref(qq, rows, ncols):
    to_domain, from_domain = qq
    reduced, pivots = to_domain(rows, ncols).rref()
    return from_domain(reduced)[: len(pivots)], tuple(pivots)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_canonical_basis_matches_sympy_rref(qq, matrix):
    ncols, rows = matrix
    s = canonical_basis(rows, ncols)
    assert (list(basis(s)), pivots(s)) == _oracle_rref(qq, rows, ncols)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False), st.integers(0, 7))
def test_equal_spans_are_equal_and_hash_alike(matrix, rng, cut):
    ncols, rows = matrix
    s = canonical_basis(rows, ncols)
    annihilator = Echelon(ncols)
    for r in s.echelon().kernel_rows():
        annihilator.insert(r)
    # Every row dict, and the dict of rows, in another insertion order.
    scrambled = {
        p: dict(rng.sample(list(r.items()), len(r)))
        for p, r in rng.sample(list(s.rows.items()), len(s.rows))
    }
    same = [
        canonical_basis(rng.sample(rows, len(rows)), ncols),
        subspace_sum(canonical_basis(rows[:cut], ncols), canonical_basis(rows[cut:], ncols)),
        subspace_sum(s, zero_subspace(ncols)),
        annihilator.kernel(),
        Subspace(ncols, scrambled),
    ]
    for t in same:
        assert t == s and hash(t) == hash(s)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(), st.data())
def test_equality_matches_sympy_rref(qq, matrix, data):
    ncols, rows = matrix
    # Combinations of the rows span a subspace of theirs, the whole of it
    # once the rows themselves are added.
    combination = st.lists(_entries, min_size=len(rows), max_size=len(rows))
    coefficients = data.draw(st.lists(combination, max_size=4))
    other = [[sum(c * r[j] for c, r in zip(cs, rows)) for j in range(ncols)] for cs in coefficients]
    if data.draw(st.booleans()):
        other += rows
    u, v = canonical_basis(rows, ncols), canonical_basis(other, ncols)
    expected = _oracle_rref(qq, rows, ncols) == _oracle_rref(qq, other, ncols)
    assert (u == v) == expected
    if expected:
        assert hash(u) == hash(v)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_nullspace_matches_sympy(qq, matrix):
    to_domain, from_domain = qq
    ncols, rows = matrix
    kernel = from_domain(to_domain(rows, ncols).nullspace())
    expected = _oracle_rref(qq, kernel, ncols) if kernel else ([], ())
    k = nullspace(rows, ncols)
    assert (list(basis(k)), pivots(k)) == expected


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(), st.data())
def test_nullspace_with_untouched_columns_matches_sympy(qq, matrix, data):
    # A column no row touches gives the unit solution e_c, which the kernel
    # keeps as it stands; zero columns spliced in at drawn places must leave
    # the rest of the canonical form where sympy puts it.
    to_domain, from_domain = qq
    ncols, rows = matrix
    width = ncols + data.draw(st.integers(1, 4))
    kept = sorted(data.draw(st.permutations(range(width)))[:ncols])
    padded = [[Fraction(0)] * width for _ in rows]
    for old, new in enumerate(kept):
        for row, source in zip(padded, rows):
            row[new] = source[old]
    kernel = from_domain(to_domain(padded, width).nullspace())
    expected = _oracle_rref(qq, kernel, width) if kernel else ([], ())
    k = nullspace(padded, width)
    assert (list(basis(k)), pivots(k)) == expected


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(), st.data())
def test_solve_columns_matches_sympy(qq, matrix, data):
    ncols, rows = matrix
    if not rows:
        return
    target = data.draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
    columns = [{i: r[k] for i, r in enumerate(rows) if r[k]} for k in range(ncols)]
    augmented = [list(r) + [t] for r, t in zip(rows, target)]
    reduced, pivots = _oracle_rref(qq, augmented, ncols + 1)
    if ncols in pivots:
        expected = None
    else:
        expected = {p: r[ncols] for r, p in zip(reduced, pivots) if r[ncols]}
    solve = span_coordinates(columns, len(rows))
    assert solve({i: t for i, t in enumerate(target) if t}) == expected


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(square=True))
def test_invert_matrix_matches_sympy(qq, matrix):
    to_domain, from_domain = qq
    n, rows = matrix
    m = to_domain(rows, n)
    expected = [list(r) for r in from_domain(m.inv())] if m.rank() == n else None
    assert inverse_by_the_solver(rows) == expected


def test_the_solver_inserts_each_column_once(monkeypatch):
    inserted = []
    original = Echelon.insert

    def counting(self, row):
        inserted.append(row)
        return original(self, row)

    monkeypatch.setattr(Echelon, "insert", counting)
    one, two = Fraction(1), Fraction(2)
    # Column 2 is column 0 plus column 1 and column 3 is zero: both are free
    # unknowns, so every answer is zero there.
    columns = [{0: one, 1: two}, {1: one}, {0: one, 1: Fraction(3)}, {}, {2: Fraction(5)}]
    solve = span_coordinates(columns, 4)
    assert len(inserted) == len(columns)
    assert solve({0: one, 1: Fraction(3)}) == {0: one, 1: one}
    assert solve({2: one}) == {4: Fraction(1, 5)}
    assert solve({}) == {}
    assert solve({3: one}) is None
    for value in ({0: one}, {1: two, 2: one}, {0: Fraction(-1, 2), 1: one, 2: two}):
        coordinates = solve(value)
        assert not {2, 3} & set(coordinates)
        total = {}
        for k, u in coordinates.items():
            for i, c in columns[k].items():
                total[i] = total.get(i, 0) + u * c
        assert {i: c for i, c in total.items() if c} == value
    assert len(inserted) == len(columns)


# -- invariants of the stored echelon form --------------------------------------


def _rank(rows):
    """Rank by plain Gaussian elimination, independent of the package."""
    work = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col] / work[rank][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=6),
            st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4),
        )
    )
)
def test_stored_rows_are_reduced_and_exact(case):
    n, rows, probes = case
    s = canonical_basis(rows, n)  # every entry must come out as a canonical scalar
    assert all(is_canonical_scalar(a) for r in basis(s) for a in r)
    assert all(is_canonical_scalar(a) and a != 0 for r in s.rows.values() for a in r.values())
    assert list(pivots(s)) == sorted(set(pivots(s)))
    assert list(s.rows) == list(pivots(s))
    for i, (r, p) in enumerate(zip(basis(s), pivots(s))):
        assert r[p] == 1 and all(a == 0 for a in r[:p])
        assert all(other[p] == 0 for j, other in enumerate(basis(s)) if j != i)
        assert s.rows[p] == {c: a for c, a in enumerate(r) if a}
    base = _rank(rows)
    assert s.dimension == base
    for v in probes + rows[:2]:
        assert contains_dense(s, v) == (_rank(list(rows) + [v]) == base)
