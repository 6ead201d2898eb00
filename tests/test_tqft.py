"""Evaluation functor: invariants, naturality, monoidality, multiplicativity."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from frob2d import linalg, tqft
from frob2d.cobordism import (
    GENERATORS_BY_LABEL,
    CobordismWord,
    Generator,
    WordError,
    closed_oriented_surface,
    closed_unoriented_surface,
    identity_word,
    parse_word,
    validate_word,
)
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
    FrobeniusAlgebra,
    FrobeniusMorphism,
    check_extended,
    check_extended_morphism,
    check_frobenius,
    check_morphism,
    tensor,
    tensor_extended,
)
from frob2d.linalg import BudgetError, Matrix, compose, identity, interleaver, inverse, kron
from frob2d.report import CheckResult, Witness
from frob2d.tqft import (
    ExtendedRequiredError,
    check_monoidal_naturality,
    check_multiplicativity,
    check_naturality,
    evaluate,
    invariant,
    naturality_dictionary,
    surface_invariant,
)

import oracles
from helpers import compare, random_words

CUP, CAP = Generator.CUP, Generator.CAP
MULT, COMULT = Generator.MULT, Generator.COMULT
ID, SWAP = Generator.ID, Generator.SWAP
PHI, THETA = Generator.PHI, Generator.THETA


def word(*slices, orientation="oriented"):
    return CobordismWord(orientation, tuple(tuple(s) for s in slices))


ALGEBRA_TABLES = {
    "K": oracles.K_TABLES,
    "D": oracles.D_TABLES,
    "Z2": oracles.Z2_TABLES,
    "KxK": oracles.KXK_TABLES,
}

EXT_TABLES = {
    "K": oracles.K_EXT_TABLES,
    "Z2": oracles.Z2_EXT_TABLES,
    "KxK": oracles.KXK_EXT_TABLES,
}


def test_sphere_on_dual_numbers_vanishes():
    assert evaluate(closed_oriented_surface(0), dual_numbers()) == Matrix(1, 1, [0])


def test_identity_word_evaluates_to_identity():
    for algebra in plain_battery():
        assert evaluate(identity_word(1), algebra) == identity(algebra.dim)
        assert evaluate(identity_word(2), algebra) == identity(algebra.dim ** 2)


def test_empty_word_is_scalar_identity():
    assert evaluate(word(), ground_field()) == Matrix(1, 1, [1])


def test_theta_then_cap_on_split_pair():
    w = word([THETA], [CAP], orientation="unoriented")
    assert evaluate(w, split_pair_extended()) == Matrix(1, 1, [0])


def test_oriented_genus_tables_frozen():
    expect = {
        "K": [1, 1, 1, 1],
        "D": [0, 2, 0, 0],
        "Z2": [1, 2, 4, 8],
        "KxK": [2, 2, 2, 2],
    }
    for algebra in plain_battery():
        got = [invariant(closed_oriented_surface(g), algebra) for g in range(4)]
        assert got == expect[algebra.name], algebra.name


def test_oriented_genus_tables_match_oracle():
    for algebra in plain_battery():
        tables = ALGEBRA_TABLES[algebra.name]
        for g in range(5):
            assert invariant(closed_oriented_surface(g), algebra) == (
                oracles.surface_invariant(tables, g)
            )


def test_unoriented_tables_frozen():
    expect = {
        "K": [1, 1, 1, 1],
        "Z2": [0, 0, 0, 0],
        "KxK": [0, 2, 0, 2],
    }
    for algebra in extended_battery():
        got = [
            invariant(closed_unoriented_surface(k), algebra) for k in range(1, 5)
        ]
        assert got == expect[algebra.name], algebra.name


def test_unoriented_tables_match_oracle():
    for algebra in extended_battery():
        tables = EXT_TABLES[algebra.name]
        for k in range(1, 5):
            for g in range(3):
                assert invariant(
                    closed_unoriented_surface(k, g), algebra
                ) == oracles.surface_invariant(tables, g, k)


def test_invariant_requires_closed_word():
    with pytest.raises(WordError):
        invariant(word([MULT]), dual_numbers())


def test_phi_theta_need_extended_algebra():
    w = word([THETA], [CAP], orientation="unoriented")
    with pytest.raises(ExtendedRequiredError):
        evaluate(w, split_pair())


def test_wide_source_is_refused_before_allocation():
    # an 8 -> 8 word on Z2*Z2 has a 4**8 x 4**8 answer: refused before any state
    z = group_algebra_z2()
    wide = word([MULT] * 4, [COMULT] * 4)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as refused:
            evaluate(wide, tensor(z, z))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (
        "a 65536x65536 matrix has 4294967296 cells, over the budget of 8388608"
    )
    assert peak < 2**20


def test_wide_source_word_matches_oracle_route():
    # 8 source circles on Z2*Z2, a 4 x 65536 answer: the state carries 4**8
    # nonzeros, where the dense 4**8 identity would pass the cell budget
    z = group_algebra_z2()
    labels = [["mult"] * 4, ["mult"] * 2, ["mult"]]
    got = evaluate(word([MULT] * 4, [MULT] * 2, [MULT]), tensor(z, z))
    tables = oracles.tensor_tables(oracles.Z2_TABLES, oracles.Z2_TABLES)
    expect = oracles.word_matrix(labels, tables, 8)
    assert (got.rows, got.cols) == (4, 65536)
    assert [list(got.row(i)) for i in range(got.rows)] == expect


def test_evaluation_matches_oracle_route_on_open_words():
    cases = [
        ([["cup"]], 0),
        ([["comult"]], 1),
        ([["mult"]], 2),
        ([["comult"], ["mult"]], 1),
        ([["mult"], ["comult"]], 2),
        ([["id", "cup"], ["swap"], ["mult"]], 1),
        ([["comult"], ["id", "comult"], ["swap", "id"], ["mult", "id"]], 1),
    ]
    by_name = {a.name: a for a in plain_battery()}
    gens = {g.label: g for g in Generator}
    for labels, source in cases:
        w = word(*[[gens[l] for l in s] for s in labels])
        for name, algebra in by_name.items():
            got = evaluate(w, algebra)
            expect = oracles.word_matrix(labels, ALGEBRA_TABLES[name], source)
            for i in range(got.rows):
                for j in range(got.cols):
                    assert got[i, j] == expect[i][j], (labels, name, i, j)


def test_unoriented_evaluation_matches_oracle_route():
    cases = [
        ([["theta"]], 0),
        ([["phi"]], 1),
        ([["theta", "id"], ["mult"], ["phi"]], 1),
        ([["phi"], ["comult"], ["id", "phi"], ["mult"]], 1),
    ]
    by_name = {a.name: a for a in extended_battery()}
    gens = {g.label: g for g in Generator}
    for labels, source in cases:
        w = word(*[[gens[l] for l in s] for s in labels], orientation="unoriented")
        for name, algebra in by_name.items():
            got = evaluate(w, algebra)
            expect = oracles.word_matrix(labels, EXT_TABLES[name], source)
            for i in range(got.rows):
                for j in range(got.cols):
                    assert got[i, j] == expect[i][j], (labels, name, i, j)


def assert_oracle_route(words, algebra, tables):
    for w in words:
        labels = [[g.label for g in s] for s in w.slices]
        got = evaluate(w, algebra)
        expect = oracles.word_matrix(labels, tables, w.source_arity)
        assert [list(got.row(i)) for i in range(got.rows)] == expect, labels


def test_random_words_match_oracle_route_n2():
    oriented = random_words(25, seed=21, max_strands=7)
    unoriented = random_words(25, seed=22, max_strands=7, unoriented=True)
    for algebra in plain_battery():
        if algebra.dim == 2:
            assert_oracle_route(oriented, algebra, ALGEBRA_TABLES[algebra.name])
    for algebra in (group_algebra_z2_extended(), split_pair_extended()):
        assert_oracle_route(unoriented, algebra, EXT_TABLES[algebra.name])


def test_random_words_match_oracle_route_z2_squared():
    z2, z2e = oracles.Z2_TABLES, oracles.Z2_EXT_TABLES
    assert_oracle_route(
        random_words(8, seed=23, max_strands=5),
        tensor(group_algebra_z2(), group_algebra_z2()),
        oracles.tensor_tables(z2, z2),
    )
    assert_oracle_route(
        random_words(8, seed=24, max_strands=5, unoriented=True),
        tensor_extended(group_algebra_z2_extended(), group_algebra_z2_extended()),
        oracles.tensor_tables(z2e, z2e),
    )


def narrowing_words(count, seed, unoriented=False):
    """Random words from 6 circles (every third word from 7) down to at most 2."""
    rng = random.Random(seed)
    singles = [ID, CAP] + ([PHI] if unoriented else [])
    births = [CUP] + ([THETA] if unoriented else [])
    words = []
    for index in range(count):
        width, slices = 6 + (index % 3 == 2), []
        while width > 2 or not slices:
            gens, left = [], width
            while left:
                pool = singles + ([MULT, MULT, SWAP] if left >= 2 else [])
                g = COMULT if rng.random() < 0.05 else rng.choice(pool)
                gens.append(g)
                left -= g.arity_in
            if rng.random() < 0.2:
                gens.insert(rng.randrange(len(gens) + 1), rng.choice(births))
            slices.append(gens)
            width = sum(g.arity_out for g in gens)
        words.append(word(*slices, orientation="unoriented" if unoriented else "oriented"))
    return words


def test_words_from_six_and_seven_circles_match_oracle_route_on_n4():
    # a dense 4**6 or 4**7 identity start state passes the cell budget
    z, k = group_algebra_z2(), split_pair()
    ze, ke = group_algebra_z2_extended(), split_pair_extended()
    t = oracles.tensor_tables
    sweeps = (
        (tensor(z, z), t(oracles.Z2_TABLES, oracles.Z2_TABLES), narrowing_words(3, 61)),
        (tensor(k, k), t(oracles.KXK_TABLES, oracles.KXK_TABLES), narrowing_words(3, 62)),
        (tensor_extended(ze, ke), t(oracles.Z2_EXT_TABLES, oracles.KXK_EXT_TABLES),
         narrowing_words(3, 63, unoriented=True)),
        (tensor_extended(ke, ke), t(oracles.KXK_EXT_TABLES, oracles.KXK_EXT_TABLES),
         narrowing_words(3, 64, unoriented=True)),
    )
    for algebra, tables, words in sweeps:
        assert {w.source_arity for w in words} == {6, 7}
        assert_oracle_route(words, algebra, tables)
    unoriented = {g for _, _, words in sweeps[2:] for w in words for s in w.slices for g in s}
    assert {PHI, THETA} <= unoriented


def test_swap_then_mult_equals_mult():
    for algebra in plain_battery():
        assert evaluate(word([SWAP], [MULT]), algebra) == evaluate(
            word([MULT]), algebra
        )


def test_double_swap_is_inert():
    plain = word([CUP], [COMULT], [MULT], [CAP])
    padded = word([CUP], [COMULT], [SWAP], [SWAP], [MULT], [CAP])
    for algebra in plain_battery():
        assert evaluate(plain, algebra) == evaluate(padded, algebra)


def test_crosscap_attachment_order_irrelevant():
    left = closed_unoriented_surface(2)
    right = word(
        [THETA], [ID, THETA], [MULT], [CAP], orientation="unoriented"
    )
    for algebra in extended_battery():
        assert invariant(left, algebra) == invariant(right, algebra)


def test_naturality_identity_always_passes():
    torus_halves = word([MULT], [COMULT])
    for algebra in plain_battery():
        f = FrobeniusMorphism(algebra, algebra, identity(algebra.dim))
        assert check_naturality(f, torus_halves).passed


def test_naturality_phi_on_mult():
    e = group_algebra_z2_extended()
    f = FrobeniusMorphism(e, e, e.involution)
    assert check_naturality(f, word([MULT])).passed


def test_naturality_kill_x_fails_on_mult():
    z = group_algebra_z2()
    f = FrobeniusMorphism(z, z, Matrix(2, 2, [1, 0, 0, 0]))
    report = check_naturality(f, word([MULT]))
    assert not report.passed
    witness = report.check("naturality").witness
    assert witness is not None


def test_naturality_dictionary_matches_morphism_checks():
    # the generator dictionary: each single-generator word encodes exactly
    # one morphism diagram
    z = group_algebra_z2()
    passing = FrobeniusMorphism(z, z, Matrix(2, 2, [1, 0, 0, -1]))
    failing = FrobeniusMorphism(z, z, Matrix(2, 2, [1, 0, 0, 0]))
    report = naturality_dictionary(passing)
    assert report.passed
    assert [c.name for c in report] == ["id", "cup", "cap", "mult", "comult", "swap"]
    report = naturality_dictionary(failing)
    assert set(report.failing()) == {"mult", "comult"}


def test_naturality_between_algebras_of_different_dimension():
    inclusion = FrobeniusMorphism(ground_field(), group_algebra_z2(), Matrix(2, 1, [1, 0]))
    assert naturality_dictionary(inclusion).lines() == [
        "id: pass", "cup: pass", "cap: pass", "mult: pass",
        "comult: fail at (3,0): 0 != 1", "swap: pass",
    ]
    projection = FrobeniusMorphism(split_pair(), ground_field(), Matrix(1, 2, [1, 0]))
    assert naturality_dictionary(projection).lines() == [
        "id: pass", "cup: pass", "cap: fail at (0,1): 1 != 0", "mult: pass",
        "comult: pass", "swap: pass",
    ]


def test_naturality_dictionary_extended_names():
    e = group_algebra_z2_extended()
    f = FrobeniusMorphism(e, e, e.involution)
    report = naturality_dictionary(f)
    assert [c.name for c in report] == [
        "id", "cup", "cap", "mult", "comult", "swap", "phi", "theta",
    ]
    assert report.passed


def test_naturality_dictionary_detects_theta_mismatch():
    plus = ground_field_extended(1)
    minus = ground_field_extended(-1)
    f = FrobeniusMorphism(plus, minus, identity(1))
    report = naturality_dictionary(f)
    assert report.failing() == ("theta",)


def kron_lists(a, b):
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def kron_power(f, k):
    out = [[1]]
    for _ in range(k):
        out = kron_lists(out, f)
    return out


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def dense_naturality(f, source_tables, target_tables, labels, source, target):
    """``f^(x)target . W_src`` against ``W_tgt . f^(x)source`` on nested lists."""
    lhs = matmul(kron_power(f, target), oracles.word_matrix(labels, source_tables, source))
    rhs = matmul(oracles.word_matrix(labels, target_tables, source), kron_power(f, source))
    differ = oracles.first_difference(lhs, rhs)
    return CheckResult("naturality", differ is None, differ and Witness(*differ))


def test_naturality_matches_dense_reference_on_random_open_words():
    rng = random.Random(31)
    plain = {a.name: a for a in plain_battery()}
    extended = {a.name: a for a in extended_battery()}
    sweeps = (
        (random_words(16, seed=32, max_strands=3), plain, ALGEBRA_TABLES,
         (("K", "Z2"), ("KxK", "K"), ("Z2", "KxK"), ("D", "D"))),
        (random_words(10, seed=33, max_strands=3, unoriented=True), extended, EXT_TABLES,
         (("K", "Z2"), ("KxK", "K"), ("Z2", "Z2"))),
    )
    arities, outcomes = set(), set()
    for words, algebras, tables, pairs in sweeps:
        for a, b in pairs:
            rows, cols = algebras[b].dim, algebras[a].dim
            for w in words:
                g = [[rng.choice((-1, 0, 0, 1, 1, 2, Fraction(1, 2))) for _ in range(cols)]
                     for _ in range(rows)]
                if a == b and rng.random() < 0.3:
                    g = [[int(i == j) for j in range(cols)] for i in range(rows)]
                f = FrobeniusMorphism(algebras[a], algebras[b],
                                      Matrix(rows, cols, [x for row in g for x in row]))
                labels = [[gen.label for gen in s] for s in w.slices]
                source, target = w.source_arity, w.target_arity
                expect = dense_naturality(g, tables[a], tables[b], labels, source, target)
                assert check_naturality(f, w).checks == (expect,), (labels, a, b, g)
                arities.add((source, target))
                outcomes.add(expect.passed)
    assert {s for s, _ in arities} == {t for _, t in arities} == {0, 1, 2, 3}
    assert outcomes == {True, False}


# -- algebras written in a dense Fraction basis ------------------------------------
#
# Most structure constants are Fractions and many products cancel to zero:
# the worst case for a product over nonzeros.


def in_fraction_basis(algebra, rng):
    """``(moved, b)``: the algebra in the basis of ``b``'s columns, and ``b`` itself.

    ``b`` is an algebra isomorphism from ``moved`` to ``algebra``.
    """
    base = getattr(algebra, "base", algebra)
    n = base.dim
    values = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), 2, -1)
    b = Matrix(n, n, [rng.choice(values) if i <= j else Fraction(rng.choice(values), 5)
                      for i in range(n) for j in range(n)])
    inv = inverse(b)
    moved = base.replace(
        mult=compose(inv, base.mult, kron(b, b)),
        unit=compose(inv, base.unit),
        counit=compose(base.counit, b),
        comult=compose(kron(inv, inv), base.comult, b),
    )
    if base is not algebra:
        moved = algebra.replace(base=moved, involution=compose(inv, algebra.involution, b),
                                point=compose(inv, algebra.point))
    return moved, b


def tables_of(algebra):
    """The structure-constant tables of ``oracles``, read entry by entry."""
    base = getattr(algebra, "base", algebra)
    r = range(base.dim)
    tables = {
        "mult": [[[base.mult[k, i * base.dim + j] for k in r] for j in r] for i in r],
        "unit": [base.unit[k, 0] for k in r],
        "counit": [base.counit[0, k] for k in r],
        "comult": [[[base.comult[j * base.dim + k, i] for k in r] for j in r] for i in r],
    }
    if base is not algebra:
        tables["phi"] = [[algebra.involution[j, i] for j in r] for i in r]
        tables["theta"] = [algebra.point[k, 0] for k in r]
    return tables


def test_dense_fraction_basis_matches_oracle_route():
    rng = random.Random(41)
    z2, kxk = group_algebra_z2(), split_pair()
    sweeps = (
        (z2, random_words(25, seed=42, max_strands=5)),
        (group_algebra_z2_extended(), random_words(25, seed=43, max_strands=4, unoriented=True)),
        (tensor(z2, kxk), random_words(8, seed=44, max_strands=3)),
    )
    for algebra, words in sweeps:
        moved, _ = in_fraction_basis(algebra, rng)
        assert_oracle_route(words, moved, tables_of(moved))


def test_naturality_in_a_dense_fraction_basis_matches_dense_reference():
    rng = random.Random(45)
    z2, kxk = group_algebra_z2(), split_pair()
    sweeps = (
        (z2, random_words(12, seed=46, max_strands=3)),
        (group_algebra_z2_extended(), random_words(12, seed=47, max_strands=3, unoriented=True)),
        (tensor(z2, kxk), random_words(6, seed=48, max_strands=2)),
    )
    outcomes = set()
    for algebra, words in sweeps:
        moved, b = in_fraction_basis(algebra, rng)
        n = b.rows
        g = [[rng.choice((0, 1, Fraction(-1, 3), Fraction(5, 2))) for _ in range(n)]
             for _ in range(n)]
        morphisms = (
            (FrobeniusMorphism(moved, algebra, b), tables_of(algebra)),  # an isomorphism
            (FrobeniusMorphism(moved, moved, Matrix(n, n, sum(g, []))), tables_of(moved)),
        )
        source_tables = tables_of(moved)
        for f, target_tables in morphisms:
            lists = [list(f.matrix.row(i)) for i in range(n)]
            for w in words:
                labels = [[gen.label for gen in s] for s in w.slices]
                expect = dense_naturality(lists, source_tables, target_tables, labels,
                                          w.source_arity, w.target_arity)
                assert check_naturality(f, w).checks == (expect,), (labels, n)
                outcomes.add(expect.passed)
    assert outcomes == {True, False}


def test_squares_and_checks_lay_out_no_dense_side(monkeypatch):
    # every side is a state: with linalg.dense refused, in linalg and where
    # tqft binds it, the reports come out as they do without the patch
    z2, kxk, k, dn = group_algebra_z2(), split_pair(), ground_field(), dual_numbers()
    z2e, kxke, ke = group_algebra_z2_extended(), split_pair_extended(), ground_field_extended()
    product = tensor(z2, kxk)
    rng = random.Random(91)

    def morphism(a, b):
        rows, cols = getattr(b, "base", b).dim, getattr(a, "base", a).dim
        return FrobeniusMorphism(a, b, Matrix(rows, cols, [rng.choice((0, 1, -1, Fraction(1, 2)))
                                                           for _ in range(rows * cols)]))

    same = [FrobeniusMorphism(z2, z2, Matrix(2, 2, [1, 0, 0, -1])), morphism(dn, dn)]
    mixed = [morphism(k, z2), morphism(kxk, k), morphism(z2, product)]
    extended = [FrobeniusMorphism(z2e, z2e, z2e.involution), morphism(ke, kxke),
                morphism(kxke, z2e)]
    open_words = [word([MULT], [COMULT]), word([ID, CUP], [SWAP], [MULT], [COMULT])]
    closed_words = [closed_oriented_surface(2), word([CUP], [COMULT], [SWAP], [MULT], [CAP])]
    calls = [lambda f=f, w=w: check_naturality(f, w)
             for f in same + mixed for w in open_words + closed_words]
    calls += [lambda f=f, w=w: check_naturality(f, w) for f in extended
              for w in (word([PHI], [THETA, ID], [MULT], orientation="unoriented"),
                        closed_unoriented_surface(2))]
    calls += [lambda f=f: naturality_dictionary(f) for f in same + mixed + extended]
    calls += [lambda f=f: check_morphism(f) for f in same + mixed]
    calls += [lambda f=f: check_extended_morphism(f) for f in extended]
    calls += [lambda a=a: check_extended(a)
              for a in (z2e, kxke.replace(point=Matrix(2, 1, [1, 2])))]
    calls += [lambda: check_multiplicativity(closed_oriented_surface(2), z2, kxk)]
    expect = [call() for call in calls]
    assert {report.passed for report in expect} == {True, False}
    expect = list(map(repr, expect))  # witness types included

    def refuse(state):
        raise AssertionError("a side was laid out densely")

    monkeypatch.setattr(linalg, "dense", refuse)
    monkeypatch.setattr(tqft, "dense", refuse)
    monkeypatch.setattr(tqft, "_tensor_algebras", lambda a, b: product)
    with pytest.raises(AssertionError, match="densely"):
        evaluate(open_words[0], z2)
    with pytest.raises(AssertionError, match="densely"):
        linalg.compose(z2.mult, z2.comult)
    assert [repr(call()) for call in calls] == expect


BUDGET_LINE = "a 4096x4096 matrix has 16777216 cells, over the budget of 8388608"
SIX_CIRCLES = word([SWAP] + [ID] * 4)
SIX_WITH_PHI = word([PHI] + [ID] * 5, orientation="unoriented")


@pytest.mark.parametrize("source, target, w, error, line", [
    # the source's run is refused first, then the target's
    ("Z2*Z2", "Z2", SIX_CIRCLES, BudgetError, BUDGET_LINE),
    ("Z2", "Z2*Z2", SIX_CIRCLES, BudgetError, BUDGET_LINE),
    ("Z2*Z2*Z2", "Z2*Z2", SIX_CIRCLES, BudgetError,
     "a 262144x262144 matrix has 68719476736 cells, over the budget of 8388608"),
    ("Z2*Z2", "Z2*Z2*Z2", SIX_CIRCLES, BudgetError, BUDGET_LINE),
    ("(Z2*Z2)_ext", "KxK_ext", SIX_WITH_PHI, BudgetError, BUDGET_LINE),
    ("KxK_ext", "(Z2*Z2)_ext", SIX_WITH_PHI, BudgetError, BUDGET_LINE),
    ("(Z2*Z2)_ext", "Z2", SIX_WITH_PHI, BudgetError, BUDGET_LINE),
    ("Z2", "(Z2*Z2)_ext", SIX_WITH_PHI, ExtendedRequiredError,
     "generator 'phi' needs an extended Frobenius algebra, but 'Z2' has no extended structure"),
    ("Z2", "KxK_ext", SIX_WITH_PHI, ExtendedRequiredError,
     "generator 'phi' needs an extended Frobenius algebra, but 'Z2' has no extended structure"),
    ("KxK_ext", "Z2", SIX_WITH_PHI, ExtendedRequiredError,
     "generator 'phi' needs an extended Frobenius algebra, but 'Z2' has no extended structure"),
    ("KxK", "Z2", SIX_WITH_PHI, ExtendedRequiredError,
     "generator 'phi' needs an extended Frobenius algebra, but 'KxK' has no extended structure"),
])
def test_naturality_between_dimensions_refuses_source_run_first(source, target, w, error, line):
    z2, z2e = group_algebra_z2(), group_algebra_z2_extended()
    algebras = {
        "Z2": z2, "KxK": split_pair(), "KxK_ext": split_pair_extended(),
        "Z2*Z2": tensor(z2, z2), "Z2*Z2*Z2": tensor(tensor(z2, z2), z2),
        "(Z2*Z2)_ext": tensor_extended(z2e, z2e),
    }
    a, b = algebras[source], algebras[target]
    rows, cols = getattr(b, "base", b).dim, getattr(a, "base", a).dim
    f = FrobeniusMorphism(a, b, Matrix(rows, cols, [1] * (rows * cols)))
    with pytest.raises(error) as got:
        check_naturality(f, w)
    assert str(got.value) == line


def test_monoidal_naturality_frozen_case():
    w = word([MULT], [COMULT])
    report = check_monoidal_naturality(w, dual_numbers(), group_algebra_z2())
    assert report.passed


def test_monoidal_naturality_matches_oracle_product_route():
    labels = [["mult"], ["comult"]]
    w = word([MULT], [COMULT])
    product = tensor(dual_numbers(), group_algebra_z2())
    got = evaluate(w, product)
    product_tables = oracles.tensor_tables(oracles.D_TABLES, oracles.Z2_TABLES)
    expect = oracles.word_matrix(labels, product_tables, 2)
    for i in range(got.rows):
        for j in range(got.cols):
            assert got[i, j] == expect[i][j]


def test_monoidal_naturality_closed_word_reduces_to_multiplicativity():
    torus = closed_oriented_surface(1)
    report = check_monoidal_naturality(torus, dual_numbers(), group_algebra_z2())
    assert report.passed


def test_monoidal_naturality_unoriented_pair():
    w = word([THETA], [COMULT], orientation="unoriented")
    report = check_monoidal_naturality(
        w, group_algebra_z2_extended(), split_pair_extended()
    )
    assert report.passed


def test_monoidal_naturality_on_words_from_six_circles():
    # (2 * 2)**6 columns: the dense interleaver of 4096 x 4096 passes the cell budget
    words = narrowing_words(3, 65) + narrowing_words(3, 66, unoriented=True)
    for w in words[:3]:
        assert check_monoidal_naturality(w, group_algebra_z2(), split_pair()).passed
    for w in words[3:]:
        assert check_monoidal_naturality(
            w, split_pair_extended(), group_algebra_z2_extended()
        ).passed


@pytest.mark.parametrize("cobordism, shape", [
    # (2 * 2)**12 source columns: the identity's nonzeros alone pass the budget
    (word([MULT] * 6), "4096x16777216"),
    # 30 births from one nonzero: the index tables of the target would not fit
    (word([CUP] * 30), f"{4**30}x1"),
])
def test_monoidal_naturality_is_refused_over_the_answer_budget(cobordism, shape):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"^a {shape} matrix has"):
            check_monoidal_naturality(cobordism, group_algebra_z2(), group_algebra_z2())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class Counted(dict):
    """A state's nonzeros that hold no entry but count ``count`` for a step's bound."""

    def __init__(self, count):
        super().__init__()
        self.count = count

    def __len__(self):
        return self.count


def test_a_step_is_refused_only_when_its_shape_and_nonzero_bound_pass_the_budget():
    # comult on Z2*Z2 (16x4) has 4 nonzeros in each column: 2**21 nonzeros
    # give a bound of exactly MAX_CELLS; an accepted step runs on no entry
    comult = tensor(group_algebra_z2(), group_algebra_z2()).comult
    big = 2**24
    step = [(comult, 2**10, 2**10)]  # 2**22 rows to 2**24
    assert linalg.apply_steps((2**22, big, Counted(2**21)), step) == (big, big, {})
    small = [(comult, 2**4, 2**3)]  # 2**9 rows to 2**11
    assert linalg.apply_steps((2**9, 2**12, Counted(2**30)), small) == (2**11, 2**12, {})
    with pytest.raises(BudgetError, match=f"^a {big}x{big} matrix has"):
        linalg.apply_steps((2**22, big, Counted(2**21 + 1)), step)


def test_monoidal_naturality_witness_matches_the_dense_route(monkeypatch):
    # a product with one bumped structure constant fails: the report, witness
    # included, is the one the dense interleaver and Kronecker sides give
    rng = random.Random(71)
    words = random_words(12, seed=72, max_strands=3)
    outcomes = set()
    for a, b in ((dual_numbers(), group_algebra_z2()), (split_pair(), dual_numbers())):
        product = tensor(a, b)
        for name in ("mult", "comult", "unit", "counit"):
            broken = product.replace(**{name: bumped(getattr(product, name), rng)})
            monkeypatch.setattr(tqft, "_tensor_algebras", lambda x, y: broken)
            for w in words:
                s, t = w.source_arity, w.target_arity
                lhs = compose(evaluate(w, broken), interleaver(s, a.dim, b.dim))
                rhs = compose(interleaver(t, a.dim, b.dim), kron(evaluate(w, a), evaluate(w, b)))
                expect = compare("monoidal_naturality", lhs, rhs)
                assert check_monoidal_naturality(w, a, b).checks == (expect,)
                outcomes.add(expect.passed)
    assert outcomes == {True, False}


def test_multiplicativity_torus_frozen():
    torus = closed_oriented_surface(1)
    d, z = dual_numbers(), group_algebra_z2()
    assert invariant(torus, tensor(d, z)) == 4
    assert check_multiplicativity(torus, d, z).passed


def test_multiplicativity_klein_bottle_frozen():
    klein = closed_unoriented_surface(2)
    k, p = ground_field_extended(1), split_pair_extended()
    assert invariant(klein, tensor_extended(k, p)) == 2
    assert check_multiplicativity(klein, k, p).passed


def test_multiplicativity_sphere_zero_factor():
    sphere = closed_oriented_surface(0)
    for other in plain_battery():
        report = check_multiplicativity(sphere, dual_numbers(), other)
        assert report.passed


def test_multiplicativity_refuses_an_ill_formed_word_before_its_tensor_product():
    # the tensor square of the 17-dimensional split algebra is over the budget
    n = 17
    split = [[[int(i == j == k) for k in range(n)] for j in range(n)] for i in range(n)]
    s17 = FrobeniusAlgebra.from_tables("s17", [f"e{i}" for i in range(n)], split,
                                       [1] * n, [1] * n, split)
    line = "slice 2: expects 2 input circle(s), previous slice provides 1"
    for check in (check_monoidal_naturality, check_multiplicativity):
        with pytest.raises(WordError) as refused:
            check(word([MULT], [MULT]), s17, s17)
        assert str(refused.value) == line


def word_error_sweep(rng, count):
    """Seeded label lists, mostly ill-formed: empty slices, phi/theta, misfits, several faults."""
    for _ in range(count):
        orientation = rng.choice(("oriented", "unoriented"))
        arity = rng.randint(0, 3)
        slices = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.1:
                slices.append([])
                continue
            labels, remaining = [], arity
            while remaining > 0 or not labels:
                label = rng.choice(sorted(oracles.ARITY))
                labels.append(label)
                remaining -= oracles.ARITY[label][0]
            if rng.random() < 0.3:  # one more generator: an input misfit, maybe phi/theta
                labels.insert(rng.randrange(len(labels) + 1), rng.choice(sorted(oracles.ARITY)))
            slices.append(labels)
            arity = sum(oracles.ARITY[label][1] for label in labels)
        yield orientation, slices


def test_word_errors_match_the_label_oracle_on_a_seeded_sweep():
    algebra = split_pair_extended()
    outcomes = set()
    for orientation, labels in word_error_sweep(random.Random(91), 600):
        w = word(*[[GENERATORS_BY_LABEL[t] for t in s] for s in labels],
                 orientation=orientation)
        expect = oracles.word_error(orientation, labels)
        if isinstance(expect, str):
            for call in (validate_word, lambda w: evaluate(w, algebra)):
                with pytest.raises(WordError) as refused:
                    call(w)
                assert str(refused.value) == expect, labels
            outcomes.add("empty" if expect.endswith("empty") else expect.split()[2])
        else:
            assert validate_word(w) == expect, labels
            m = evaluate(w, algebra)
            assert (m.rows, m.cols) == (2 ** expect[1], 2 ** expect[0]), labels
            outcomes.add("valid")
    assert outcomes == {"valid", "empty", "generator", "expects"}


def test_random_words_deterministic_and_valid():
    from frob2d.cobordism import validate_word

    batch1 = random_words(20, seed=99)
    batch2 = random_words(20, seed=99)
    assert batch1 == batch2
    for w in batch1:
        validate_word(w)
        assert len(w.slices) <= 6
        assert w.orientation == "oriented"
    unoriented = random_words(20, seed=7, unoriented=True)
    assert any(
        any(g in (PHI, THETA) for g in s) for w in unoriented for s in w.slices
    )
    for w in unoriented:
        validate_word(w)


def test_random_words_respect_strand_bound():
    for w in random_words(50, seed=3, max_strands=4):
        strands = w.source_arity
        for s in w.slices:
            strands = sum(g.arity_out for g in s)
            assert strands <= 4


# -- surface_invariant: matrix powers against the word route -------------------

PLAIN_PAIRS = [tensor(a, b) for a, b in itertools.combinations_with_replacement(plain_battery(), 2)]
EXTENDED_PAIRS = [
    tensor_extended(a, b)
    for a, b in itertools.combinations_with_replacement(extended_battery(), 2)
]
ALL_PLAIN = list(plain_battery()) + PLAIN_PAIRS
ALL_EXTENDED = list(extended_battery()) + EXTENDED_PAIRS


def assert_surfaces_match(algebra):
    """surface_invariant equals the invariant of the word, oriented and (if extended) not."""
    for g in range(11):
        assert surface_invariant(algebra, g) == invariant(closed_oriented_surface(g), algebra)
    if hasattr(algebra, "point"):
        for k, g in itertools.product(range(1, 7), range(5)):
            assert surface_invariant(algebra, g, k) == (
                invariant(closed_unoriented_surface(k, g), algebra)
            ), (k, g)


@pytest.mark.parametrize("algebra", ALL_PLAIN + ALL_EXTENDED, ids=lambda a: a.name)
def test_surface_invariant_matches_the_word(algebra):
    assert_surfaces_match(algebra)


def bumped(matrix, rng):
    entries = list(matrix.entries)
    entries[rng.randrange(len(entries))] += rng.choice([1, -1, 2, Fraction(1, 2)])
    return Matrix(matrix.rows, matrix.cols, entries)


def test_surface_invariant_matches_the_word_on_algebras_failing_their_axioms():
    rng = random.Random(6)
    failing = 0
    for algebra in ALL_PLAIN + ALL_EXTENDED:
        base = getattr(algebra, "base", algebra)
        cases = [algebra.replace(**{name: bumped(getattr(algebra, name), rng)})
                 for name in ("involution", "point") if hasattr(algebra, "point")]
        for name in ("mult", "unit", "counit", "comult"):
            case = base.replace(**{name: bumped(getattr(base, name), rng)})
            cases.append(algebra.replace(base=case) if base is not algebra else case)
        for case in cases:
            assert_surfaces_match(case)
            extended = hasattr(case, "point")
            failing += not (check_frobenius(case).passed
                            and (not extended or check_extended(case).passed))
    assert failing > 100


def test_surface_invariant_at_high_genus():
    assert surface_invariant(group_algebra_z2(), 100000) == 2**100000
    # the Z2 factor doubles per handle; the D factor is 0 from genus 2 on
    assert surface_invariant(tensor(group_algebra_z2(), dual_numbers()), 100000) == 0


def test_surface_invariant_refuses_answers_past_the_entry_budget():
    with pytest.raises(BudgetError, match="entry budget"):
        surface_invariant(group_algebra_z2(), 10**9)
    with pytest.raises(BudgetError, match="entry budget"):
        surface_invariant(ground_field_extended(2), 0, 10**9)
    # on KxK the cross-cap operator squares to the identity, so no entry grows
    assert surface_invariant(split_pair_extended(), 0, 10**9) == 2


def test_surface_invariant_rejects_bad_counts():
    with pytest.raises(ValueError, match="genus must be >= 0"):
        surface_invariant(group_algebra_z2(), -1)
    with pytest.raises(ValueError, match="crosscaps must be >= 0"):
        surface_invariant(group_algebra_z2_extended(), 0, -1)
    with pytest.raises(ExtendedRequiredError):
        surface_invariant(group_algebra_z2(), 0, 1)


# -- one validation and one plan per call -------------------------------------


def test_each_word_function_validates_its_word_once(monkeypatch):
    seen = []
    plan = tqft.plan_word
    monkeypatch.setattr(tqft, "plan_word", lambda w: seen.append(w) or plan(w))
    z2, kxk = group_algebra_z2(), split_pair()
    torus, pants = closed_oriented_surface(1), word([MULT], [COMULT])
    negate = FrobeniusMorphism(z2, z2, Matrix(2, 2, [1, 0, 0, -1]))
    calls = {
        "evaluate": lambda: evaluate(pants, z2),
        "invariant": lambda: invariant(torus, z2),
        "check_naturality": lambda: check_naturality(negate, pants),
        "check_monoidal_naturality": lambda: check_monoidal_naturality(pants, z2, kxk),
        "check_multiplicativity": lambda: check_multiplicativity(torus, z2, kxk),
    }
    for name, call in calls.items():
        seen.clear()
        call()
        assert len(seen) == 1, name


def test_the_plan_route_matches_the_oracle_on_a_seeded_sweep():
    # the state the plan leaves holds the word's nonzeros and no integral Fraction
    rng = random.Random(81)
    z2, kxk, kxke = group_algebra_z2(), split_pair(), split_pair_extended()
    moved, _ = in_fraction_basis(kxke, rng)
    sweeps = (
        (z2, oracles.Z2_TABLES, random_words(20, seed=82, max_strands=6)),
        (kxke, oracles.KXK_EXT_TABLES, random_words(20, seed=83, max_strands=6, unoriented=True)),
        (moved, tables_of(moved), random_words(20, seed=84, max_strands=4, unoriented=True)),
        (tensor(z2, kxk), oracles.tensor_tables(oracles.Z2_TABLES, oracles.KXK_TABLES),
         random_words(8, seed=85, max_strands=4)),
    )
    fractions = set()
    for algebra, tables, words in sweeps:
        for w in words:
            labels = [[g.label for g in s] for s in w.slices]
            rows, cols, nonzeros = tqft._run(tqft._compile(w), algebra)
            expect = oracles.word_matrix(labels, tables, w.source_arity)
            assert (rows, cols) == (len(expect), len(expect[0])), labels
            assert nonzeros == {i * cols + j: x for i, row in enumerate(expect)
                                for j, x in enumerate(row) if x}, labels
            assert all(type(x) is int or x.denominator > 1 for x in nonzeros.values())
            fractions.update(type(x) for x in nonzeros.values())
    assert fractions == {int, Fraction}


def dense_comult_algebra():
    """16 dimensions and 256 nonzeros in every column of comult (not a Frobenius algebra)."""
    n = 16
    ones = [1] * n**3
    return FrobeniusAlgebra("dense", [f"e{i}" for i in range(n)], Matrix(n, n * n, ones),
                            Matrix(n, 1, [1] * n), Matrix(1, n, [1] * n), Matrix(n * n, n, ones))


# Words from 4 circles to 1 on 16 dimensions: 16 x 65536 answers, inside the
# budget.  comult on the identity's 65536 nonzeros is a 1048576 x 65536 step
# whose bound, 65536 * 256 nonzeros, also passes the budget; phi needs an
# extended algebra.  Each error comes from the first step that raises it.
STEP_ORDER = {
    "budget first": (
        "unoriented\ncomult, id, id, id\nmult, mult, phi\nmult, id\nmult\n",
        BudgetError, "a 1048576x65536 matrix has 68719476736 cells, over the budget of 8388608",
    ),
    "phi first": (
        "unoriented\nphi, id, id, id\ncomult, id, id, id\nmult, mult, id\nmult, id\nmult\n",
        ExtendedRequiredError,
        "generator 'phi' needs an extended Frobenius algebra, "
        "but 'dense' has no extended structure",
    ),
    "malformed": (
        "unoriented\ncomult, id, id, id\nmult, mult, phi\nmult, id\nmult\nmult\n",
        WordError, "slice 5: expects 2 input circle(s), previous slice provides 1",
    ),
}


@pytest.mark.parametrize("case", sorted(STEP_ORDER))
def test_errors_come_from_the_first_step_that_raises_them(case):
    text, error, line = STEP_ORDER[case]
    lines = text.splitlines()
    w = word(*[[GENERATORS_BY_LABEL[t.strip()] for t in l.split(",")] for l in lines[1:]],
             orientation=lines[0])
    with pytest.raises(error) as raised:
        evaluate(w, dense_comult_algebra())
    assert str(raised.value) == line


def test_a_monoidal_witness_holds_an_int_for_an_integral_sum(monkeypatch):
    # one comult constant of D*D bumped by 1/2: the failing entry sums to 2
    d = dual_numbers()
    product = tensor(d, d)
    entries = list(product.comult.entries)
    entries[13] += Fraction(1, 2)
    broken = product.replace(comult=Matrix(16, 4, entries))
    monkeypatch.setattr(tqft, "_tensor_algebras", lambda x, y: broken)
    w = parse_word("oriented\ncomult, swap, cap\nmult, comult, cap\n")
    (check,) = check_monoidal_naturality(w, d, d).checks
    assert repr(check.witness) == "Witness(row=51, col=87, lhs=2, rhs=0)"
