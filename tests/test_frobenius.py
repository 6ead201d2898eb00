"""Algebra axioms, morphism diagrams, tensor products, and the theta search."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    check_extended,
    check_extended_morphism,
    check_frobenius,
    check_morphism,
    derive_comult,
    search_theta,
    tensor,
    tensor_extended,
)
from frob2d.linalg import Matrix, braiding, identity

import oracles


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
