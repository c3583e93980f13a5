import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivlab import linalg
from derivlab.identities import solve_all
from derivlab.linalg import (
    MAX_MODULUS,
    ResidueMatrix,
    SolutionModule,
    annihilator,
    lift_unit,
    module_equal,
    solve_homogeneous,
    xgcd,
)
from derivlab.rings import dual_numbers, matrix_ring, zmod
from oracles import (
    contains_reference,
    howell_dense_reference,
    howell_form,
    kernel_by_enumeration,
    kernel_dense_reference,
    kernel_of_rows,
    rewrite_span,
    rref_mod_p,
    span_elements,
)


def rm(m, rows):
    return ResidueMatrix.from_rows(m, rows)


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

@given(st.integers(-200, 200), st.integers(-200, 200))
def test_xgcd(a, b):
    g, s, t = xgcd(a, b)
    assert s * a + t * b == g


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 30])
def test_lift_unit_and_annihilator(n):
    import math

    for a in range(1, n):
        u = lift_unit(a, n)
        assert math.gcd(u, n) == 1
        assert (u * a) % n == math.gcd(a, n)
        x = annihilator(a, n)
        assert (x * a) % n == 0
        # x generates the full annihilator
        ann = {v for v in range(n) if (v * a) % n == 0}
        assert {(k * x) % n for k in range(n)} == ann


# ---------------------------------------------------------------------------
# Howell form
# ---------------------------------------------------------------------------

def test_howell_identity_already_canonical():
    eye = ResidueMatrix.identity(5, 3)
    assert howell_form(eye) == eye


def test_howell_single_even_row_mod6():
    # span of [2] mod 6 is {0, 2, 4}; the canonical generator is [2] itself
    h = howell_form(rm(6, [[2]]))
    assert h.to_rows() == [[2]]
    assert span_elements(h.to_rows(), 6) == {(0,), (2,), (4,)}


def test_howell_zero_matrix_empty():
    h = howell_form(rm(7, [[0, 0], [0, 0]]))
    assert h.rows == 0 and h.cols == 2


def test_howell_known_composite_case():
    h = howell_form(rm(12, [[8, 5, 5], [0, 9, 8], [0, 0, 10]]))
    assert h.to_rows() == [[4, 1, 0], [0, 3, 0], [0, 0, 1]]


small_matrix = st.integers(2, 9).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            st.lists(st.integers(0, m - 1), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
    )
)


@given(small_matrix)
@settings(max_examples=80, deadline=None)
def test_howell_idempotent(case):
    m, rows = case
    h = howell_form(rm(m, rows))
    assert howell_form(h) == h


@given(small_matrix, st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_howell_canonical_under_span_rewrites(case, seed):
    m, rows = case
    rng = random.Random(seed)
    other = rewrite_span(rows, m, rng)
    assert howell_form(rm(m, rows)) == howell_form(rm(m, other))


@given(small_matrix)
@settings(max_examples=40, deadline=None)
def test_howell_preserves_span(case):
    m, rows = case
    h = howell_form(rm(m, rows))
    assert span_elements(h.to_rows() or [[0, 0, 0]], m) == span_elements(rows, m)


@given(
    st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(
                st.lists(st.integers(0, p - 1), min_size=4, max_size=4),
                min_size=1,
                max_size=4,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_howell_is_rref_for_prime_modulus(case):
    p, rows = case
    assert howell_form(rm(p, rows)).to_rows() == rref_mod_p(rows, p)


# ---------------------------------------------------------------------------
# homogeneous solving
# ---------------------------------------------------------------------------

def test_solve_homogeneous_worked_examples():
    s = solve_homogeneous(rm(6, [[2]]))
    assert s.generators.to_rows() == [[3]]
    assert set(s.elements()) == {(0,), (3,)}

    assert solve_homogeneous(ResidueMatrix.identity(5, 2)).generators.rows == 0

    s = solve_homogeneous(rm(5, [[0]]))
    assert s.generators.to_rows() == [[1]]


def test_empty_system_conventions():
    # no equations: the full module
    s = solve_homogeneous(ResidueMatrix.zeros(6, 0, 3))
    assert s.size() == 6**3
    # no unknowns: the rank-0 zero module
    s = solve_homogeneous(ResidueMatrix.zeros(6, 2, 0))
    assert s.ambient_rank == 0 and s.size() == 1


solver_case = st.sampled_from([2, 3, 4, 5, 6, 7, 8]).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32),
    )
)


@given(solver_case)
@settings(max_examples=60, deadline=None)
def test_solve_homogeneous_matches_enumeration(case):
    m, nr, nc, seed = case
    rng = random.Random(seed)
    rows = [[rng.randrange(m) for _ in range(nc)] for _ in range(nr)]
    s = solve_homogeneous(rm(m, rows))
    assert set(s.elements()) == kernel_by_enumeration(rows, m, nc)


# ---------------------------------------------------------------------------
# modules: membership, equality, size, sums
# ---------------------------------------------------------------------------

def test_membership_examples():
    s = SolutionModule.from_rows(6, 1, [[2]])
    assert s.contains((0,))
    assert s.contains((4,))
    assert not s.contains((1,))


def test_module_equality_examples():
    s2 = SolutionModule.from_rows(6, 1, [[2]])
    s4 = SolutionModule.from_rows(6, 1, [[4]])
    s3 = SolutionModule.from_rows(6, 1, [[3]])
    assert module_equal(s2, s2)
    assert module_equal(s2, s4)
    assert not module_equal(s2, s3)
    with pytest.raises(ValueError):
        module_equal(s2, SolutionModule.from_rows(6, 2, [[1, 0]]))
    with pytest.raises(ValueError):
        module_equal(s2, SolutionModule.from_rows(5, 1, [[2]]))


@given(small_matrix)
@settings(max_examples=40, deadline=None)
def test_module_size_and_elements_agree(case):
    m, rows = case
    s = SolutionModule.from_rows(m, 3, rows)
    elems = list(s.elements())
    assert len(elems) == s.size()
    assert len(set(elems)) == s.size()
    assert set(elems) == span_elements(rows, m)


@given(small_matrix, st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_membership_agrees_with_span(case, seed):
    m, rows = case
    rng = random.Random(seed)
    s = SolutionModule.from_rows(m, 3, rows)
    span = span_elements(rows, m)
    for _ in range(10):
        v = tuple(rng.randrange(m) for _ in range(3))
        assert s.contains(v) == (v in span)
    assert s.contains(s.random_element(rng))


def test_module_sum():
    a = SolutionModule.from_rows(6, 2, [[2, 0]])
    b = SolutionModule.from_rows(6, 2, [[0, 3]])
    s = a.sum_with(b)
    pairwise = {
        tuple((x + y) % 6 for x, y in zip(u, v))
        for u in a.elements()
        for v in b.elements()
    }
    assert set(s.elements()) == pairwise
    assert s.size() == a.size() * b.size()


# ---------------------------------------------------------------------------
# seeded draws, and the module pairs that membership is tested on
# ---------------------------------------------------------------------------

@given(
    st.one_of(st.integers(2, MAX_MODULUS),
              st.sampled_from([2**k for k in range(1, 31)] + [MAX_MODULUS])),
    st.integers(0, 60),
    st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_draws_are_the_randrange_draws(n, count, seed):
    mine, theirs = random.Random(seed), random.Random(seed)
    assert linalg._draws(mine, n, count) == [theirs.randrange(n) for _ in range(count)]
    assert mine.getstate() == theirs.getstate()


def scaled(module, k):
    """The module spanned by k times each generator of ``module``."""
    rows = [[k * v for v in row] for row in module.generators.to_rows()]
    return SolutionModule.from_rows(module.modulus, module.ambient_rank, rows)


def sampling_pairs():
    """(label, source, target, whether source lies in target) over M2(Z/3),
    M2(Z/9) and M2(Z/3[eps]), with zero modules on either side.  Over Z/3
    and Z/3[eps] the modulus is 3, so every pivot is 1, and the solution
    modules over Z/9 have unit pivots too; the pairs into 3 * derivation
    give targets with pivot 3, where a vector can fail at a pivot that does
    not divide its entry."""
    out = []
    for label, ring in [("M2(Z/3)", matrix_ring(2, zmod(3))),
                        ("M2(Z/9)", matrix_ring(2, zmod(9))),
                        ("M2(Z/3[eps])", matrix_ring(2, dual_numbers(3)))]:
        jordan, deriv = solve_all("jordan", ring), solve_all("derivation", ring)
        star, gd = solve_all("star", ring), solve_all("generalized_derivation", ring)
        zero = SolutionModule.from_rows(ring.m, deriv.ambient_rank, [])
        pairs = [("jordan", jordan, "derivation", deriv, True),
                 ("derivation", deriv, "star", star, True),
                 ("star", star, "derivation", deriv, False),
                 ("generalized_derivation", gd, "derivation", deriv, False),
                 ("zero", zero, "derivation", deriv, True),
                 ("derivation", deriv, "zero", zero, False)]
        if ring.m == 9:
            deriv3 = scaled(deriv, 3)
            pairs += [("3 * jordan", scaled(jordan, 3), "3 * derivation", deriv3, True),
                      ("derivation", deriv, "3 * derivation", deriv3, False),
                      ("3 * star", scaled(star, 3), "3 * derivation", deriv3, False)]
        out += [(f"{s} in {t} @ {label}", source, target, member)
                for s, source, t, target, member in pairs]
    return out


# ---------------------------------------------------------------------------
# membership on the generators' nonzeros, against the reference that reduces
# every entry first
# ---------------------------------------------------------------------------

def unreduced_variants(vec, m, shifts):
    """``vec``, the vector shifted by shifts[k] * m in entry k, and both
    negated: one residue class mod m for each sign."""
    shifted = [v + k * m for v, k in zip(vec, shifts)]
    return [list(vec), shifted, [-v for v in vec], [-v for v in shifted]]


@given(small_matrix, st.lists(st.integers(0, 8), min_size=3, max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_contains_equals_reference_on_small_modules(case, entries, shifts, seed):
    m, rows = case
    module = SolutionModule.from_rows(m, 3, rows)
    member = module.random_element(random.Random(seed))
    other = [v % m for v in entries]
    for vec in (member, other):
        for v in unreduced_variants(vec, m, shifts):
            assert module.contains(v) == contains_reference(module, v)
    assert all(module.contains(v) for v in unreduced_variants(member, m, shifts))


def membership_pairs():
    """(label, source, target, whether source lies in target): the sampling
    pairs, among them targets with pivot 3 over Z/9, and the wide-size
    Jordan and derivation modules of M3(Z/3[eps]) (width 324)."""
    ring = matrix_ring(3, dual_numbers(3))
    deriv, jordan = solve_all("derivation", ring), solve_all("jordan", ring)
    gd = solve_all("generalized_derivation", ring)
    return sampling_pairs() + [
        ("jordan in derivation @ M3(Z/3[eps])", jordan, deriv, True),
        ("derivation in jordan @ M3(Z/3[eps])", deriv, jordan, True),
        ("generalized_derivation in derivation @ M3(Z/3[eps])", gd, deriv, False),
    ]


def test_sampling_pairs_reach_a_non_unit_pivot():
    # ``contains`` is tested on a target with pivot 3
    assert any(row[0][1] > 1 for _, _, target, _ in membership_pairs()
               for row in target.rows)


def test_contains_equals_reference_on_solution_modules():
    # vectors drawn from the source, the same bumped by one in a random
    # entry (almost always outside the target), and each shifted by
    # multiples of m and negated
    rng = random.Random(3)
    for label, source, target, member in membership_pairs():
        m, width = target.modulus, target.ambient_rank
        answers = {True: 0, False: 0}
        for _ in range(12):
            vec = list(source.random_element(rng))
            bumped = list(vec)
            bumped[rng.randrange(width)] += 1
            shifts = [rng.randint(-3, 3) for _ in range(width)]
            for v in unreduced_variants(vec, m, shifts) + unreduced_variants(bumped, m, shifts):
                got = target.contains(v)
                assert got == contains_reference(target, v), label
                answers[got] += 1
            if member:
                assert target.contains(vec), label
        assert answers[False], label
        with pytest.raises(ValueError):
            target.contains([0] * (width + 1))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_residue_matrix_round_trip():
    mats = [
        rm(6, [[1, 2, 3], [4, 5, 0]]),
        ResidueMatrix.zeros(9, 0, 4),
        ResidueMatrix.identity(3, 2),
    ]
    for mat in mats:
        assert ResidueMatrix.from_json(mat.to_json()) == mat


def test_solution_module_round_trip():
    # the JSON holds the dense generators; read back, they give the same
    # sparse rows, so the same members and size
    rng = random.Random(5)
    modules = [
        SolutionModule.from_rows(6, 2, [[2, 1], [0, 3]]),
        solve_all("star", matrix_ring(2, zmod(3))),
        solve_all("derivation", matrix_ring(2, zmod(9))),
    ]
    for s in modules:
        back = SolutionModule.from_json(s.to_json())
        assert back == s and back.size() == s.size()
        for _ in range(10):
            vec = list(s.random_element(rng))
            bumped = list(vec)
            bumped[rng.randrange(len(vec))] += 1
            for v in (vec, bumped):
                assert back.contains(v) == s.contains(v)


def test_solution_module_from_json_canonicalises_its_generators():
    # 2 * (1, 0) spans the same module as (1, 0) over Z/3, but is no Howell
    # row; read back, it is the canonical module all the same
    obj = {"modulus": 3, "ambient_rank": 2,
           "generators": {"m": 3, "rows": 1, "cols": 2, "data": [2, 0]}}
    s = SolutionModule.from_json(obj)
    assert s.size() == 3
    assert s.contains((1, 0))
    assert s == SolutionModule.from_rows(3, 2, [[1, 0]])
    for header in ({"modulus": 5}, {"ambient_rank": 3}):
        with pytest.raises(ValueError, match="does not match module header"):
            SolutionModule.from_json(dict(obj, **header))


@pytest.mark.parametrize("read, obj", [
    (ResidueMatrix.from_json, {"m": 3, "rows": 1, "cols": 2, "data": [1.5, 0]}),
    (ResidueMatrix.from_json, {"m": 3, "rows": 1, "cols": 2, "data": [True, 0]}),
    (ResidueMatrix.from_json, {"m": 3, "rows": "1", "cols": 2, "data": [1, 0]}),
    (ResidueMatrix.from_json, {"m": 3, "rows": 1, "cols": 2}),
    (SolutionModule.from_json, {"modulus": 3.0, "ambient_rank": 2,
                                "generators": {"m": 3, "rows": 1, "cols": 2, "data": [1, 0]}}),
    (SolutionModule.from_json, {"modulus": 3, "ambient_rank": 2}),
], ids=["float entry", "bool entry", "string rows", "no data", "float modulus",
        "no generators"])
def test_malformed_json_raises_value_error(read, obj):
    with pytest.raises(ValueError):
        read(obj)


def test_residue_matrix_validation():
    with pytest.raises(ValueError):
        ResidueMatrix(1, 1, 1, (0,))
    with pytest.raises(ValueError):
        ResidueMatrix(6, 1, 1, (7,))
    with pytest.raises(ValueError):
        ResidueMatrix(6, 2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        ResidueMatrix(2**31 + 1, 1, 1, (0,))


@pytest.mark.parametrize("bad", [-1, 6, 10**40, -(10**40)])
def test_residue_matrix_rejects_unreduced_entries(bad):
    # the range check reads the least and greatest entry: one bad entry
    # anywhere, reduced entries around it, still raises
    with pytest.raises(ValueError, match="reduced residues"):
        ResidueMatrix(6, 2, 3, (0, 5, 1, bad, 2, 3))
    with pytest.raises(ValueError, match="reduced residues"):
        ResidueMatrix(6, 1, 1, (bad,))
    assert ResidueMatrix(6, 2, 3, (0, 5, 1, 4, 2, 3)).entry(0, 1) == 5
    # no entries: nothing to check
    assert ResidueMatrix(6, 0, 3, ()).to_rows() == []
    assert ResidueMatrix(6, 2, 0, ()).rows == 2


# ---------------------------------------------------------------------------
# sparse elimination against the dense reference
# ---------------------------------------------------------------------------

def dense(m, width, rows):
    return ResidueMatrix(m, len(rows), width, tuple(v % m for r in rows for v in r))


# Composite moduli up to 36 (non-unit pivots, annihilator rows) and prime
# moduli (unit pivots only, no annihilator rows), widths up to 40, about 3%
# or 50% nonzero, with empty systems and zero rows.
sparse_case = st.tuples(
    st.sampled_from([3, 5, 7, 31, 4, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 36]),
    st.integers(0, 40),
    st.integers(0, 40),
    st.sampled_from([0.03, 0.5]),
    st.integers(0, 2**32),
)


def draw_rows(case):
    m, width, nrows, density, seed = case
    rng = random.Random(seed)
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.1:
            rows.append([0] * width)
        else:
            rows.append([rng.randrange(1, m) if rng.random() < density else 0
                         for _ in range(width)])
    return m, width, rows


@given(sparse_case)
@settings(max_examples=120, deadline=None)
def test_sparse_howell_equals_dense_reference(case):
    m, width, rows = draw_rows(case)
    assert howell_form(dense(m, width, rows)).to_rows() == howell_dense_reference(rows, m)


@given(sparse_case)
@settings(max_examples=120, deadline=None)
def test_sparse_kernel_equals_dense_reference(case):
    m, width, rows = draw_rows(case)
    want = kernel_dense_reference(rows, width, m)
    assert solve_homogeneous(dense(m, width, rows)).generators.to_rows() == want
    sparse = [{k: v for k, v in enumerate(r) if v} for r in rows]
    assert kernel_of_rows(m, width, sparse).generators.to_rows() == want


@given(sparse_case, st.integers(0, 2**32))
@settings(max_examples=120, deadline=None)
def test_kernel_of_any_rows_equals_two_step_reference(case, seed):
    # the kernel routine takes rows as they come, in no normal form: drawn
    # rows with some of them repeated and zero rows among them, which it
    # keeps, transposed as they are, against the reference that eliminates
    # twice
    m, width, rows = draw_rows(case)
    rng = random.Random(seed)
    rows = rows + [rng.choice(rows) for _ in range(len(rows) // 3)]
    rng.shuffle(rows)
    sparse = [{k: v for k, v in enumerate(r) if v} for r in rows]
    got = kernel_of_rows(m, width, sparse)
    assert got.generators.to_rows() == kernel_dense_reference(rows, width, m)


@given(
    st.sampled_from([4, 6, 8, 9, 12, 27]),
    st.integers(1, 12),
    st.integers(1, 16),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_column_kernel_equals_the_kernel_of_the_distinct_canonical_rows(m, width, nrows, seed):
    # a system in column form, as identity solves assemble it: repeated
    # rows, zero rows (some left out of the table, some held as entries
    # that vanish only mod m) and entries shifted by multiples of m, some
    # negative; against the dense two-step reference, which eliminates the
    # distinct rows
    rng = random.Random(seed)
    divisors = [d for d in range(1, m) if m % d == 0]
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if rows and roll < 0.25:
            rows.append(rng.choice(rows))
        elif roll < 0.4:
            rows.append([0] * width)
        else:
            rows.append([rng.choice(divisors) * rng.randrange(m) % m if rng.random() < 0.4 else 0
                         for _ in range(width)])
    columns = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v or rng.random() < 0.2:
                columns.setdefault(j, {})[i] = v + m * rng.randrange(-2, 3)
    got = linalg.column_kernel(m, width, nrows, columns)
    assert got.generators.to_rows() == kernel_dense_reference(rows, width, m)


@given(sparse_case)
@settings(max_examples=80, deadline=None)
def test_howell_from_a_start_column_keeps_the_rows_pivoted_there(case):
    # the elements vanishing before column s are spanned by the Howell rows
    # with pivot >= s; the input is left as it was, on prime moduli (where
    # a unit-1 pivot row is kept as it is) and composite ones alike
    m, width, rows = draw_rows(case)
    sparse = [{k: v for k, v in enumerate(r) if v} for r in rows if any(r)]
    before = [dict(r) for r in sparse]
    full = linalg._howell(sparse, m)
    for s in range(width + 2):
        assert linalg._howell(sparse, m, s) == [r for r in full if min(r) >= s]
    assert sparse == before


@given(
    st.sampled_from([4, 6, 8, 9, 12, 27]),
    st.integers(1, 24),
    st.integers(1, 30),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_howell_back_substitution_equals_dense_reference(m, width, nrows, per_row, seed):
    # a few nonzeros per row, each a divisor of m times a residue, so most
    # pivots are non-units and reducing a row above a pivot often brings in
    # entries under later pivots
    rng = random.Random(seed)
    divisors = [d for d in range(1, m) if m % d == 0]
    rows = []
    for _ in range(nrows):
        row = [0] * width
        for k in rng.sample(range(width), min(per_row, width)):
            row[k] = rng.choice(divisors) * rng.randrange(1, m) % m
        rows.append(row)
    sparse = [{k: v for k, v in enumerate(r) if v} for r in rows]
    before = [dict(r) for r in sparse]
    got = linalg._howell([r for r in sparse if r], m)
    assert sparse == before
    assert [[r.get(k, 0) for k in range(width)] for r in got] == howell_dense_reference(rows, m)


def test_bad_rows_fail_before_elimination(monkeypatch):
    # a short row first, in the middle and last; then a long row and a
    # sparse row with a column past the width or negative, through every
    # entry that reads rows, with elimination stubbed to fail
    def no_elimination(*args):
        raise AssertionError("elimination started")

    monkeypatch.setattr(linalg, "_howell", no_elimination)
    cases = [
        ([[1], [1, 2], [2, 2]], 0),
        ([[1, 2], [1], [2, 2]], 1),
        ([[1, 2], [2, 2], [1]], 2),
        ([[1, 2], [1, 2, 0]], 1),
        ([{0: 1}, {2: 1}], 1),
        ([{-1: 1}], 0),
    ]
    for rows, bad in cases:
        with pytest.raises(ValueError, match=f"row {bad} .*width 2"):
            SolutionModule.from_rows(3, 2, rows)
        # solve_homogeneous reads a ResidueMatrix, which refuses dense rows
        # of unequal widths before it exists
        if not isinstance(rows[0], dict):
            with pytest.raises(ValueError, match="ragged rows"):
                ResidueMatrix.from_rows(3, rows)
    # tuple rows that are not canonical: a column -1 or 2, columns out of
    # order or repeated, a residue 0 or unreduced
    for rows in ([((0, 1),), ((-1, 1),)], [((0, 1),), ((2, 1),)], [(), ((1, 1), (0, 1))],
                 [((0, 1), (0, 2))], [((1, 0),)], [((0, 1),), ((1, 3),)]):
        with pytest.raises(ValueError, match=f"row {len(rows) - 1} .*width 2"):
            SolutionModule.from_rows(3, 2, rows)
    # a residue m is not the zero row, and a column past the width is not
    # read as a module coordinate
    with pytest.raises(ValueError, match="row 0 .*width 1"):
        SolutionModule.from_rows(3, 1, [((0, 3),)])
    with pytest.raises(ValueError, match="row 0 .*width 3"):
        SolutionModule.from_rows(3, 3, [((5, 1), (0, 1))])
    # the column form, which every kernel hands the kernel step: a column
    # -1 or 2, or a row outside the system
    for columns in ({0: {0: 1}, -1: {0: 1}}, {2: {1: 1}}, {0: {2: 1}}, {1: {-1: 1}}):
        with pytest.raises(ValueError, match="outside"):
            linalg.column_kernel(3, 2, 2, columns)
    monkeypatch.undo()
    assert SolutionModule.from_rows(3, 2, [{1: 4}, [0, 0]]).generators.to_rows() == [[0, 1]]
    assert SolutionModule.from_rows(3, 2, [((1, 1),), (), ((1, 1),)]).generators.to_rows() == [[0, 1]]
    # rows 0 and 2 are (0, 1), row 1 is zero
    assert linalg.column_kernel(3, 2, 3, {1: {0: 1, 2: 1}}).generators.to_rows() == [[1, 0]]
