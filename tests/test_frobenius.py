"""Algebra axioms, morphism diagrams, tensor products, and the theta search."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frob2d.cobordism import parse_word
from frob2d.examples import (
    dual_numbers,
    extended_battery,
    ground_field,
    ground_field_extended,
    group_algebra_z2,
    group_algebra_z2_extended,
    plain_battery,
    split_pair,
    split_pair_extended,
)
from frob2d.frobenius import (
    DegenerateFormError,
    ExtendedFrobeniusAlgebra,
    FrobeniusAlgebra,
    FrobeniusMorphism,
    as_plain,
    check_extended,
    check_extended_morphism,
    check_frobenius,
    check_morphism,
    derive_comult,
    search_theta,
    tensor,
    tensor_extended,
)
from frob2d.linalg import (
    MAX_CELLS,
    BudgetError,
    Matrix,
    ShapeError,
    SingularMatrixError,
    braiding,
    compose,
    identity,
    interleaver,
    inverse,
    kron,
)
from frob2d.report import AxiomReport, CheckResult
from frob2d.tqft import evaluate

import oracles
from helpers import compare


def test_battery_passes_all_named_checks():
    for algebra in plain_battery():
        report = check_frobenius(algebra)
        assert report.passed, (algebra.name, report.failing())
        assert [c.name for c in report] == [
            "associativity",
            "unit_left",
            "unit_right",
            "coassociativity",
            "counit_left",
            "counit_right",
            "frobenius_left",
            "frobenius_right",
            "commutativity",
            "cocommutativity",
        ]


def test_extended_battery_passes():
    for algebra in extended_battery():
        assert check_frobenius(algebra.base).passed
        report = check_extended(algebra)
        assert report.passed, (algebra.name, report.failing())
        assert [c.name for c in report] == [
            "involution",
            "phi_unit",
            "phi_mult",
            "phi_counit",
            "phi_comult",
            "theta_multiplication_fixed",
            "crosscap",
            "phi_fixes_theta",
        ]


def test_ground_field_negative_point_passes():
    assert check_extended(ground_field_extended(-1)).passed


def test_derived_comult_matches_stored():
    for algebra in plain_battery():
        derived = derive_comult(algebra.mult, algebra.unit, algebra.counit)
        assert derived == algebra.comult, algebra.name


def test_derived_comult_frozen_matrices():
    d = dual_numbers()
    # Delta(1) = 1(x)x + x(x)1, Delta(x) = x(x)x, columns indexed by input
    assert derive_comult(d.mult, d.unit, d.counit) == Matrix(
        4, 2, [0, 0, 1, 0, 1, 0, 0, 1]
    )
    z = group_algebra_z2()
    assert derive_comult(z.mult, z.unit, z.counit) == Matrix(
        4, 2, [1, 0, 0, 1, 0, 1, 1, 0]
    )
    p = split_pair()
    assert derive_comult(p.mult, p.unit, p.counit) == Matrix(
        4, 2, [1, 0, 0, 0, 0, 0, 0, 1]
    )
    k = ground_field()
    assert derive_comult(k.mult, k.unit, k.counit) == Matrix(1, 1, [1])


def test_degenerate_form_rejected():
    d = dual_numbers()
    # counit picking the coefficient of 1 gives Gram [[1,0],[0,0]]
    bad_counit = Matrix(1, 2, [1, 0])
    with pytest.raises(DegenerateFormError):
        derive_comult(d.mult, d.unit, bad_counit)


def test_from_tables_derives_missing_comult():
    built = FrobeniusAlgebra.from_tables(
        "D", ("1", "x"), oracles.D_TABLES["mult"], oracles.D_TABLES["unit"],
        oracles.D_TABLES["counit"],
    )
    assert built == dual_numbers()


def test_wrong_counit_witness_location():
    d = dual_numbers()
    broken = FrobeniusAlgebra(
        name="D'",
        basis=d.basis,
        mult=d.mult,
        unit=d.unit,
        counit=Matrix(1, 2, [1, 0]),
        comult=d.comult,
    )
    report = check_frobenius(broken)
    assert not report.passed
    check = report.check("counit_left")
    assert not check.passed
    # (eps (x) id) Delta (1) = x, so the first row already differs
    assert check.witness is not None
    assert (check.witness.row, check.witness.col) == (0, 0)


def test_morphism_identity_passes():
    for algebra in plain_battery():
        f = FrobeniusMorphism(algebra, algebra, identity(algebra.dim))
        assert check_morphism(f).passed


def test_morphism_negate_x_passes_on_z2():
    z = group_algebra_z2()
    f = FrobeniusMorphism(z, z, Matrix(2, 2, [1, 0, 0, -1]))
    assert check_morphism(f).passed


def test_morphism_kill_x_fails_mult_diagram():
    z = group_algebra_z2()
    f = FrobeniusMorphism(z, z, Matrix(2, 2, [1, 0, 0, 0]))
    report = check_morphism(f)
    assert "mult" in report.failing()
    # f(x * x) = 1 but f(x) * f(x) = 0
    assert not report.check("mult").passed


def test_morphism_shape_validation():
    z = group_algebra_z2()
    k = ground_field()
    with pytest.raises(Exception):
        FrobeniusMorphism(z, k, Matrix(2, 2, [1, 0, 0, 1]))


def test_extended_morphism_phi_is_endomorphism():
    e = group_algebra_z2_extended()
    f = FrobeniusMorphism(e, e, e.involution)
    assert check_extended_morphism(f).passed


def test_extended_morphism_point_mismatch_fails_theta_only():
    plus = ground_field_extended(1)
    minus = ground_field_extended(-1)
    f = FrobeniusMorphism(plus, minus, identity(1))
    report = check_extended_morphism(f)
    assert report.failing() == ("theta",)


def test_extended_morphism_requires_extended_ends():
    z = group_algebra_z2()
    f = FrobeniusMorphism(z, z, identity(2))
    with pytest.raises(TypeError):
        check_extended_morphism(f)


def test_swap_idempotents_passes_plain_fails_extended_theta():
    p = split_pair()
    swap = Matrix(2, 2, [0, 1, 1, 0])
    assert check_morphism(FrobeniusMorphism(p, p, swap)).passed
    e = split_pair_extended()
    report = check_extended_morphism(FrobeniusMorphism(e, e, swap))
    assert report.failing() == ("theta",)


def test_tensor_with_ground_field_is_identity_on_tables():
    k = ground_field()
    for algebra in plain_battery():
        product = tensor(k, algebra)
        assert product.dim == algebra.dim
        assert product.mult == algebra.mult
        assert product.unit == algebra.unit
        assert product.counit == algebra.counit
        assert product.comult == algebra.comult


def test_tensor_closure_over_battery():
    battery = plain_battery()
    for a, b in itertools.combinations_with_replacement(battery, 2):
        product = tensor(a, b)
        assert product.dim == a.dim * b.dim
        assert check_frobenius(product).passed, (a.name, b.name)


def test_tensor_extended_closure_over_battery():
    battery = extended_battery()
    for a, b in itertools.combinations_with_replacement(battery, 2):
        product = tensor_extended(a, b)
        assert check_frobenius(product.base).passed, (a.name, b.name)
        assert check_extended(product).passed, (a.name, b.name)


def test_tensor_matches_oracle_tables():
    z, d, kxk = group_algebra_z2(), dual_numbers(), split_pair()
    zk_tables = oracles.tensor_tables(oracles.Z2_TABLES, oracles.KXK_TABLES)
    for product, expect in (
        (tensor(d, z), oracles.tensor_tables(oracles.D_TABLES, oracles.Z2_TABLES)),
        # unequal factor dimensions, so the two braidings differ
        (tensor(d, tensor(z, kxk)), oracles.tensor_tables(oracles.D_TABLES, zk_tables)),
    ):
        n = product.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert product.mult[k, i * n + j] == expect["mult"][i][j][k]
                    assert product.comult[j * n + k, i] == expect["comult"][i][j][k]
        for i in range(n):
            assert product.unit[i, 0] == expect["unit"][i]
            assert product.counit[0, i] == expect["counit"][i]


def test_tensor_extended_negative_points_cancel():
    minus = ground_field_extended(-1)
    product = tensor_extended(minus, minus)
    assert product.point == Matrix(1, 1, [1])


def test_braiding_is_frobenius_morphism_between_products():
    battery = plain_battery()
    for a, b in itertools.permutations(battery, 2):
        f = FrobeniusMorphism(tensor(a, b), tensor(b, a), braiding(a.dim, b.dim))
        assert check_morphism(f).passed, (a.name, b.name)


def test_extended_implies_phi_fixes_theta():
    for algebra in extended_battery():
        report = check_extended(algebra)
        assert report.check("phi_fixes_theta").passed


def test_derive_comult_unique_on_products():
    for a, b in itertools.combinations_with_replacement(plain_battery(), 2):
        product = tensor(a, b)
        derived = derive_comult(product.mult, product.unit, product.counit)
        assert derived == product.comult, (a.name, b.name)


def test_search_theta_ground_field():
    k = ground_field()
    hits = search_theta(k, identity(1), 1)
    assert hits == [Matrix(1, 1, [-1]), Matrix(1, 1, [1])]


def test_search_theta_dual_numbers_empty():
    assert search_theta(dual_numbers(), identity(2), 5) == []


def test_search_theta_split_pair_sign_choices():
    hits = search_theta(split_pair(), identity(2), 1)
    coords = [(p[0, 0], p[1, 0]) for p in hits]
    assert coords == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_search_theta_z2_inversion_involution():
    z = group_algebra_z2()
    phi = Matrix(2, 2, [1, 0, 0, -1])
    hits = search_theta(z, phi, 2)
    assert [(p[0, 0], p[1, 0]) for p in hits] == [(0, 0)]


def test_search_theta_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        search_theta(ground_field(), identity(1), 0)


def test_search_theta_refuses_a_grid_past_the_budget():
    # 4097**2 points is just over MAX_CELLS; 5**8, the largest grid searched
    # elsewhere, is far below it
    assert 4097**2 > MAX_CELLS > 5**8
    for bound in (2048, 10**9):
        message = (
            f"^a theta grid with bound {bound} on 2 coordinates has more than {MAX_CELLS} points$"
        )
        with pytest.raises(BudgetError, match=message):
            search_theta(split_pair(), identity(2), bound)


def test_search_theta_checks_bound_then_involution_shape():
    with pytest.raises(ValueError) as err:
        search_theta(ground_field(), identity(2), 0)
    assert not isinstance(err.value, ShapeError)
    with pytest.raises(ShapeError, match="^involution must be 2x2, got 3x3$"):
        search_theta(group_algebra_z2(), identity(3), 1)


entry_index = st.tuples(
    st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1)
)


@given(st.sampled_from(["mult", "unit", "counit", "comult"]), entry_index,
       st.integers(min_value=0, max_value=1))
@settings(max_examples=60, deadline=None)
def test_any_single_entry_bump_breaks_some_check(table_name, pair, k):
    # spot-check on the dual numbers: a +1 bump anywhere is always caught
    import copy

    tables = copy.deepcopy(oracles.D_TABLES)
    i, j = pair
    if table_name in ("mult", "comult"):
        tables[table_name][i][j][k] += 1
    else:
        tables[table_name][i] += 1
    algebra = FrobeniusAlgebra.from_tables(
        "D*", ("1", "x"), tables["mult"], tables["unit"], tables["counit"],
        tables["comult"],
    )
    report = check_frobenius(algebra)
    assert not report.passed
    assert set(report.failing()) == oracles.frobenius_failures(tables)


@given(st.sampled_from(["mult", "unit", "counit", "comult"]), entry_index,
       st.integers(min_value=0, max_value=1))
@settings(max_examples=60, deadline=None)
def test_any_single_entry_bump_breaks_some_check_kxk(table_name, pair, k):
    import copy

    tables = copy.deepcopy(oracles.KXK_TABLES)
    i, j = pair
    if table_name in ("mult", "comult"):
        tables[table_name][i][j][k] += 1
    else:
        tables[table_name][i] += 1
    algebra = FrobeniusAlgebra.from_tables(
        "KxK*", ("e1", "e2"), tables["mult"], tables["unit"], tables["counit"],
        tables["comult"],
    )
    report = check_frobenius(algebra)
    assert not report.passed
    assert set(report.failing()) == oracles.frobenius_failures(tables)


def test_algebra_equality_and_hash():
    assert dual_numbers() == dual_numbers()
    assert dual_numbers() != group_algebra_z2()
    assert len({ground_field_extended(), ground_field_extended()}) == 1
    assert ground_field_extended(1) != ground_field_extended(-1)


# -- the structure-constant checks against the dense formulas they replaced ------
#
# The reference below builds every identity-padded Kronecker layer and the
# braiding matrix, as the checks once did, and applies a map to chosen strands
# with its own list loop; each report, witnesses included, must come out
# exactly the same.


def strand_product(f, state, left, right):
    """``kron(I_left, f, I_right) . state`` by index loops over plain lists."""
    block = right * state.cols  # the cells of one middle index within a left group
    out = [0] * (left * f.rows * block)
    for group, i, j in itertools.product(range(left), range(f.rows), range(f.cols)):
        a = f[i, j]
        if not a:
            continue
        src, dst = (group * f.cols + j) * block, (group * f.rows + i) * block
        for t in range(block):
            out[dst + t] += a * state.entries[src + t]
    return Matrix(left * f.rows * right, state.cols, out)


def dense_check_frobenius(algebra):
    a = as_plain(algebra)
    n = a.dim
    i_n = identity(n)
    m, u, e, d = a.mult, a.unit, a.counit, a.comult
    c = braiding(n, n)
    dm = compose(d, m)
    return AxiomReport((
        compare("associativity", compose(m, kron(m, i_n)), compose(m, kron(i_n, m))),
        compare("unit_left", compose(m, kron(u, i_n)), i_n),
        compare("unit_right", compose(m, kron(i_n, u)), i_n),
        compare("coassociativity", strand_product(d, d, 1, n), strand_product(d, d, n, 1)),
        compare("counit_left", strand_product(e, d, 1, n), i_n),
        compare("counit_right", strand_product(e, d, n, 1), i_n),
        compare("frobenius_left", strand_product(m, kron(d, i_n), n, 1), dm),
        compare("frobenius_right", strand_product(m, kron(i_n, d), 1, n), dm),
        compare("commutativity", compose(m, c), m),
        compare("cocommutativity", compose(c, d), d),
    ))


def dense_check_morphism(f):
    a, b = as_plain(f.source), as_plain(f.target)
    ff = kron(f.matrix, f.matrix)
    return AxiomReport((
        compare("unit", compose(f.matrix, a.unit), b.unit),
        compare("mult", compose(f.matrix, a.mult), compose(b.mult, ff)),
        compare("counit", compose(b.counit, f.matrix), a.counit),
        compare("comult", compose(b.comult, f.matrix), compose(ff, a.comult)),
    ))


def dense_check_extended(algebra):
    base = algebra.base
    i_n = identity(base.dim)
    phi, theta = algebra.involution, algebra.point
    m, u, d = base.mult, base.unit, base.comult
    phi_checks = tuple(
        CheckResult("phi_" + c.name, c.passed, c.witness)
        for c in dense_check_morphism(FrobeniusMorphism(base, base, phi)).checks
    )
    times_theta = compose(m, kron(theta, i_n))
    return AxiomReport((
        compare("involution", compose(phi, phi), i_n),
        *phi_checks,
        compare("theta_multiplication_fixed", compose(phi, times_theta), times_theta),
        compare("crosscap", compose(m, kron(theta, theta)), compose(m, kron(phi, i_n), d, u)),
        compare("phi_fixes_theta", compose(phi, theta), theta),
    ))


def assert_same_report(fast, dense):
    assert fast == dense  # names, pass flags, witness row, column, lhs and rhs
    assert repr(fast) == repr(dense)  # and the witnesses' types
    assert fast.lines() == dense.lines()


def test_a_failed_check_stores_an_integral_witness_as_an_int():
    # associativity's right side at (0, 1) sums Fractions to 1
    d = dual_numbers()
    entries = list(d.mult.entries)
    entries[1] += Fraction(1, 2)
    report = check_frobenius(d.replace(mult=Matrix(d.mult.rows, d.mult.cols, entries)))
    assert repr(report.check("associativity").witness) == (
        "Witness(row=0, col=1, lhs=Fraction(1, 2), rhs=1)"
    )


def bump(matrix, rng):
    """The matrix with one random entry moved by a random nonzero rational."""
    entries = list(matrix.entries)
    entries[rng.randrange(len(entries))] += rng.choice([1, -1, 2, Fraction(1, 2)])
    return Matrix(matrix.rows, matrix.cols, entries)


def tensor_all(algebras, product=tensor):
    out = algebras[0]
    for a in algebras[1:]:
        out = product(out, a)
    return out


z2, dn, kxk = group_algebra_z2(), dual_numbers(), split_pair()
z2e, kxke = group_algebra_z2_extended(), split_pair_extended()
PLAIN = list(plain_battery()) + [
    tensor_all(factors) for factors in ([z2, kxk], [dn, z2, kxk], [z2, kxk, dn, kxk])
]
EXTENDED = list(extended_battery()) + [
    tensor_all(factors, tensor_extended)
    for factors in ([z2e, kxke], [z2e, kxke, kxke], [kxke, z2e, kxke, z2e])
]
STRUCTURE = ("mult", "unit", "counit", "comult")


@pytest.mark.parametrize("algebra", PLAIN, ids=lambda a: a.name)
def test_frobenius_checks_match_dense_reference_under_bumps(algebra):
    rng = random.Random(algebra.name)
    cases = [algebra] + [
        algebra.replace(**{name: bump(getattr(algebra, name), rng)})
        for name in STRUCTURE * (1 if algebra.dim == 16 else 3)
    ]
    assert dense_check_frobenius(algebra).passed
    for case in cases:
        assert_same_report(check_frobenius(case), dense_check_frobenius(case))


# Each check of check_frobenius is a relation of 2Cob (Kock, "Frobenius
# Algebras and 2D Topological Quantum Field Theories", 2004): its two sides
# are words, slices separated by "; ".  Evaluating them runs a plan through
# apply_steps, a different route from the check's own products.
RELATIONS = {
    "associativity": ("mult, id; mult", "id, mult; mult"),
    "unit_left": ("cup, id; mult", "id"),
    "unit_right": ("id, cup; mult", "id"),
    "coassociativity": ("comult; comult, id", "comult; id, comult"),
    "counit_left": ("comult; cap, id", "id"),
    "counit_right": ("comult; id, cap", "id"),
    "frobenius_left": ("comult, id; id, mult", "mult; comult"),
    "frobenius_right": ("id, comult; mult, id", "mult; comult"),
    "commutativity": ("swap; mult", "mult"),
    "cocommutativity": ("comult; swap", "comult"),
}


@pytest.mark.parametrize("algebra", PLAIN, ids=lambda a: a.name)
def test_relation_words_give_each_frobenius_check(algebra):
    rng = random.Random("relations " + algebra.name)
    cases = [algebra] + [
        algebra.replace(**{name: bump(getattr(algebra, name), rng)})
        for name in STRUCTURE * (1 if algebra.dim == 16 else 3)
    ]
    words = {name: [parse_word("oriented\n" + side.replace("; ", "\n")) for side in sides]
             for name, sides in RELATIONS.items()}
    failed = set()
    for case in cases:
        expect = check_frobenius(case)
        got = AxiomReport(tuple(compare(name, *(evaluate(w, case) for w in sides))
                                for name, sides in words.items()))
        assert_same_report(got, expect)
        failed.update(expect.failing())
    assert algebra.dim == 1 or failed == set(RELATIONS), failed  # every witness is compared


# The unoriented relations (Turaev & Turner, AGT 2006), each against the
# check_extended check it is: every check builds its two sides in the
# words' orientation, so the whole result, witness included, must agree.
UNORIENTED_RELATIONS = {
    "involution": ("phi; phi", "id"),
    "phi_mult": ("mult; phi", "phi, phi; mult"),
    "crosscap": ("theta, theta; mult", "cup; comult; phi, id; mult"),
    "phi_fixes_theta": ("theta; phi", "theta"),
    "theta_multiplication_fixed": ("theta, id; mult; phi", "theta, id; mult"),
}


@pytest.mark.parametrize("algebra", EXTENDED, ids=lambda a: a.name)
def test_unoriented_relation_words_give_their_extended_checks(algebra):
    rng = random.Random("unoriented relations " + algebra.name)
    base = algebra.base
    cases = [algebra]
    for _ in range(3):
        cases += [algebra.replace(base=base.replace(mult=bump(base.mult, rng)))]
        cases += [algebra.replace(**{name: bump(getattr(algebra, name), rng)})
                  for name in ("involution", "point")]
    words = {name: [parse_word("unoriented\n" + side.replace("; ", "\n")) for side in sides]
             for name, sides in UNORIENTED_RELATIONS.items()}
    failed = set()
    for case in cases:
        expect = check_extended(case)
        got = AxiomReport(tuple(compare(name, *(evaluate(w, case) for w in sides))
                                for name, sides in words.items()))
        assert_same_report(got, AxiomReport(tuple(map(expect.check, words))))
        failed.update(got.failing())
    assert failed == set(UNORIENTED_RELATIONS), failed  # every witness is compared


@pytest.mark.parametrize("algebra", EXTENDED, ids=lambda a: a.name)
def test_extended_checks_match_dense_reference_under_bumps(algebra):
    rng = random.Random(algebra.name)
    base = algebra.base
    cases = [algebra]
    for _ in range(1 if algebra.dim == 16 else 3):
        cases += [
            algebra.replace(base=base.replace(**{name: bump(getattr(base, name), rng)}))
            for name in STRUCTURE
        ]
        cases += [
            algebra.replace(**{name: bump(getattr(algebra, name), rng)})
            for name in ("involution", "point")
        ]
    assert dense_check_extended(algebra).passed
    for case in cases:
        assert_same_report(check_extended(case), dense_check_extended(case))
        if case.base is not base:
            assert_same_report(check_frobenius(case), dense_check_frobenius(case))


def random_matrix(rng, rows, cols, values=(0, 0, 1, -1, 2)):
    return Matrix(rows, cols, [rng.choice(values) for _ in range(rows * cols)])


def test_morphism_checks_match_dense_reference():
    rng = random.Random(3)
    pairs = [(a, a) for a in PLAIN] + [
        (z2, PLAIN[-3]), (PLAIN[-3], z2), (dn, PLAIN[-2]), (PLAIN[-1], kxk)
    ]
    for a, b in pairs:
        maps = [random_matrix(rng, b.dim, a.dim) for _ in range(2)]
        if a is b:
            maps += [identity(a.dim), bump(identity(a.dim), rng)]
        for g in maps:
            f = FrobeniusMorphism(a, b, g)
            assert_same_report(check_morphism(f), dense_check_morphism(f))


def traced_peak(call):
    """``call()`` and the peak bytes it allocated, with the permutation caches cleared."""
    for cached in (identity, braiding, interleaver):
        cached.cache_clear()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# A 16-dimensional algebra's padded layers had 2**20 cells, and its dense
# axiom sides 2**16; half a MiB holds neither.
NO_PADDED_LAYER = 2**19


def test_structure_checks_build_no_padded_layer():
    report, peak = traced_peak(lambda: check_frobenius(PLAIN[-1]))
    assert report.passed
    assert peak < NO_PADDED_LAYER


def test_tensor_builds_no_padded_layer():
    a, b = tensor(z2, kxk), tensor(dn, kxk)
    product, peak = traced_peak(lambda: tensor(a, b))
    # the same structure matrices as (((Z2 * KxK) * D) * KxK); only the labels nest differently
    assert product.replace(basis=PLAIN[-1].basis) == PLAIN[-1]
    assert peak < NO_PADDED_LAYER


def test_derive_comult_builds_no_padded_layer():
    algebra = PLAIN[-1]
    comult, peak = traced_peak(lambda: derive_comult(algebra.mult, algebra.unit, algebra.counit))
    assert comult == algebra.comult
    assert peak < NO_PADDED_LAYER


def brute_force_theta(algebra, involution, bound):
    grid = itertools.product(range(-bound, bound + 1), repeat=algebra.dim)
    points = [Matrix(algebra.dim, 1, coords) for coords in grid]
    return [
        p for p in points
        if check_extended(ExtendedFrobeniusAlgebra(algebra, involution, p)).passed
    ]


def random_involution(rng, n):
    """A signed involutive permutation, or a diagonal of signs in a random basis."""
    if rng.random() < 0.5:
        perm, order = list(range(n)), rng.sample(range(n), n)
        for i, j in zip(order[0::2], order[1::2]):
            if rng.random() < 0.5:
                perm[i], perm[j] = j, i
        sign = [rng.choice([1, 1, -1]) for _ in range(n)]  # one sign per orbit
        return Matrix(n, n, [
            sign[min(i, perm[i])] * int(perm[i] == j) for i in range(n) for j in range(n)
        ])
    signs = Matrix(n, n, [rng.choice([1, -1]) * int(i == j) for i in range(n) for j in range(n)])
    while True:
        basis = random_matrix(rng, n, n, values=(0, 1, -1))
        try:
            return compose(basis, signs, inverse(basis))
        except SingularMatrixError:
            continue


def test_search_theta_matches_brute_force_on_random_involutions():
    rng = random.Random(11)
    kk = tensor(kxk, kxk)
    cases = [(a, 2) for a in (z2, dn, kxk)] + [(kk, 1), (tensor(z2, kxk), 1)]
    hits = 0
    for algebra, bound in cases:
        involutions = [random_involution(rng, algebra.dim) for _ in range(6)]
        involutions += [identity(algebra.dim), random_matrix(rng, algebra.dim, algebra.dim)]
        for phi in involutions:
            found = search_theta(algebra, phi, bound)
            assert found == brute_force_theta(algebra, phi, bound)
            hits += len(found)
    assert hits  # some involutions pass the phi checks and have points


def test_search_theta_kxk_cubed_identity_involution_matches_brute_force():
    algebra = tensor_all([kxk, kxk, kxk])
    found = search_theta(algebra, identity(8), 1)
    # KxK^3 is eight idempotents with counit 1 each: theta is any sign vector
    assert [tuple(p.entries) for p in found] == list(itertools.product((-1, 1), repeat=8))
    assert found == brute_force_theta(algebra, identity(8), 1)


def in_basis(algebra, b):
    """The same algebra written in the basis given by the columns of ``b``."""
    inv = inverse(b)
    return algebra.replace(
        mult=compose(inv, algebra.mult, kron(b, b)),
        unit=compose(inv, algebra.unit),
        counit=compose(algebra.counit, b),
        comult=compose(kron(inv, inv), algebra.comult, b),
    )


def test_search_theta_matches_brute_force_in_other_bases_and_under_bumps():
    # structure constants other than 0 and 1, on algebras with points and without;
    # on D * Z2 with phi = id (x) (x -> -x), crosscap holds at nilpotent points
    # x_D (x) (p + q x_Z2) that theta_multiplication_fixed rules out
    rng = random.Random(12)
    hits = 0
    for algebra, phi, bound in ((kxk, Matrix(2, 2, [0, 1, 1, 0]), 2),
                                (tensor(kxk, kxk), braiding(2, 2), 1),
                                (tensor(dn, z2), kron(identity(2), Matrix(2, 2, [1, 0, 0, -1])), 1)):
        n = algebra.dim
        # unitriangular, so integer points stay integer points
        b = Matrix(n, n, [int(i == j) or rng.choice((0, 1, -1)) * int(i < j)
                          for i in range(n) for j in range(n)])
        moved = in_basis(algebra, b)
        cases = [moved] + [
            moved.replace(**{name: bump(getattr(moved, name), rng)})
            for name in STRUCTURE
        ]
        for case in cases:
            for involution in (identity(n), compose(inverse(b), phi, b)):
                found = search_theta(case, involution, bound)
                assert found == brute_force_theta(case, involution, bound)
                hits += len(found)
    assert hits


def split_triple():
    """K x K x K on its idempotent basis, counit summing the coordinates."""
    r = range(3)
    return FrobeniusAlgebra.from_tables(
        "KxKxK", ("e1", "e2", "e3"),
        [[[int(i == j == k) for k in r] for j in r] for i in r], [1, 1, 1], [1, 1, 1],
    )


def test_search_theta_fixes_coordinates_by_linear_rows_as_brute_force_does():
    # On K x K x K with e1 <-> e2 the points are (0, 0, +-1).  Written as
    # theta = b q, phi_fixes_theta and theta_multiplication_fixed become rows
    # in q whose last coefficient fixes a coordinate: q1 = q0 / 2 (an integer
    # only for even q0), q1 = 2 q0 (out of range at bound 1), and a basis with
    # a half in it, whose rows and structure constants hold Fractions.
    algebra, swap = split_triple(), Matrix(3, 3, [0, 1, 0, 1, 0, 0, 0, 0, 1])
    hits = 0
    for b, points, bounds in (
        ([1, -2, 0, 0, 1, -1, 1, 0, -1], [(-2, -1, -1), (2, 1, 1)], (3,)),
        ([2, -1, 0, 0, 1, -1, -1, 1, 0], [(-1, -2, -2), (1, 2, 2)], (1,)),
        ([Fraction(1, 2), -1, 0, 0, 1, -1, Fraction(1, 2), 0, 0], [(-2, -1, -1), (2, 1, 1)],
         (1,)),
    ):
        b = Matrix(3, 3, b)
        moved, phi = in_basis(algebra, b), compose(inverse(b), swap, b)
        assert [tuple(p.entries) for p in search_theta(moved, phi, 2)] == points
        for bound in bounds:
            found = search_theta(moved, phi, bound)
            assert found == brute_force_theta(moved, phi, bound)
            hits += len(found)
    # the last basis with a bumped counit, which moves crosscap's right side
    # and keeps the Fraction rows; a bumped mult, unit or comult mostly fails
    # phi's morphism checks, so it would search nothing
    case = moved.replace(counit=bump(moved.counit, random.Random(23)))
    found = search_theta(case, phi, 2)
    assert found == brute_force_theta(case, phi, 2)
    hits += len(found)
    assert hits
    # On D * Z2 with phi = id (x) (x -> -x) in this basis, the first row due
    # at q3 fixes q3 = q1 - q2 without reading q0: only later rows due at q3
    # rule out +-(1, 1, 0, 1).
    b = Matrix(4, 4, [-1, 0, 0, 1, 0, -1, 0, 1, 0, 0, -1, -1, 0, 0, -1, 0])
    moved = in_basis(tensor(dn, z2), b)
    phi = compose(inverse(b), kron(identity(2), Matrix(2, 2, [1, 0, 0, -1])), b)
    found = search_theta(moved, phi, 1)
    assert found == brute_force_theta(moved, phi, 1) == [Matrix(4, 1, [0, 0, 0, 0])]


def test_search_theta_z2_identity_tests_at_the_last_coordinate():
    # With phi = id there are no linear rows, and both crosscap forms read p[1]:
    # theta^2 = 2 / c for counit(1) = c, so p = (+-k, 0) and (0, +-k) for c = 2 / k^2
    for c, points in ((1, []), (Fraction(2, 9), [(-3, 0), (0, -3), (0, 3), (3, 0)]),
                      (Fraction(2, 25), [(-5, 0), (0, -5), (0, 5), (5, 0)])):
        algebra = FrobeniusAlgebra.from_tables("Z2", z2.basis, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                                               [1, 0], [c, 0])
        for bound in (3, 4, 5):
            found = search_theta(algebra, identity(2), bound)
            assert found == brute_force_theta(algebra, identity(2), bound)
            assert [tuple(p.entries) for p in found] == [
                p for p in points if max(map(abs, p)) <= bound]


def test_search_theta_kxk_cubed_bound_2():
    # 5**8 = 390,625 grid points; with phi = id there are no linear rows, so
    # crosscap alone prunes each coordinate to a sign
    found = search_theta(tensor_all([kxk, kxk, kxk]), identity(8), 2)
    assert [tuple(p.entries) for p in found] == list(itertools.product((-1, 1), repeat=8))


def test_search_theta_split_pair_bound_1000():
    found = search_theta(split_pair(), identity(2), 1000)
    assert [tuple(p.entries) for p in found] == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_search_theta_reads_an_extended_algebra_through_its_base():
    assert search_theta(split_pair_extended(), identity(2), 1) == search_theta(
        split_pair(), identity(2), 1)


def test_check_extended_refuses_a_plain_algebra():
    with pytest.raises(TypeError, match="^extended checks need an extended algebra$"):
        check_extended(split_pair())
