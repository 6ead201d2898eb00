"""Exact matrix layer: frozen examples, shape errors, and algebraic laws."""

import copy
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frob2d.cobordism import CobordismWord, Generator, WordError
from frob2d.examples import dual_numbers, group_algebra_z2, group_algebra_z2_extended
from frob2d.frobenius import tensor
from frob2d.linalg import (
    MAX_CELLS,
    BudgetError,
    Matrix,
    ShapeError,
    SingularMatrixError,
    apply_steps,
    as_rational,
    braiding,
    compose,
    identity,
    interleaver,
    inverse,
    kron,
    layer_product,
)
from frob2d.report import AxiomReport, CheckResult, Witness, compare_nonzeros

import oracles
from helpers import compare

scalars = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def small_matrix(rows, cols):
    return st.lists(scalars, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: Matrix(rows, cols, xs)
    )


def test_as_rational_accepts_ints_fractions_strings():
    assert as_rational(3) == 3
    assert as_rational(Fraction(4, 2)) == 2
    assert isinstance(as_rational(Fraction(4, 2)), int)
    assert as_rational("2/3") == Fraction(2, 3)
    assert as_rational("-7") == -7


def test_as_rational_accepts_only_integer_and_p_over_q_strings():
    assert as_rational("+3/6") == Fraction(1, 2) and as_rational("-0/4") == 0
    for text in ("1.5", "1e10000000", "1E2", "1_0", " 1", "1 ", "1/-2", "1/+2", "/2", "\u0661"):
        with pytest.raises(ValueError):
            as_rational(text)
    with pytest.raises(ZeroDivisionError):
        as_rational("1/0")
    with pytest.raises(ValueError):  # past the int-conversion digit limit
        as_rational("1" * 5000)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)


class Tally(int):
    """An int subclass: a ``Matrix`` stores it as it is."""


def test_matrix_coerces_its_cells_through_as_rational_unless_all_are_ints():
    # the first bad cell raises, with as_rational's text, before the count is checked
    for cells, error, line in (
        ([1, True, 2.5], TypeError, "booleans are not rational scalars"),
        ([1, 2.5, True], TypeError, "expected an exact rational, got float: 2.5"),
        ([False], TypeError, "booleans are not rational scalars"),
        ([1, "x", True], ValueError, "not an integer or \"p/q\" string: 'x'"),
    ):
        with pytest.raises(error) as refused:
            Matrix(2, 2, cells)
        assert str(refused.value) == line
    # strings parse, an integral Fraction becomes an int, an int subclass is kept
    m = Matrix(1, 5, ["1/2", "-3", Fraction(4, 2), Tally(5), 0])
    assert m.nonzeros == {0: Fraction(1, 2), 1: -3, 2: 2, 3: 5}
    assert list(map(type, m.nonzeros.values())) == [Fraction, int, int, Tally]
    assert list(map(type, Matrix(1, 3, [0, 1, -2]).entries)) == [int, int, int]
    read = []

    def cells():
        for x in (1, 0, Fraction(1, 2), -4):
            read.append(x)
            yield x

    assert Matrix(2, 2, cells()) == Matrix(2, 2, [1, 0, Fraction(1, 2), -4])
    assert read == [1, 0, Fraction(1, 2), -4]


def test_nonzeros_are_read_only_and_copies_and_pickles_hold_their_own():
    m = Matrix(1, 2, [1, 2])
    pickled = pickle.loads(pickle.dumps(m))
    for matrix in (m, copy.copy(m), copy.deepcopy(m), pickled, Matrix._raw(1, 2, {0: 1, 1: 2})):
        with pytest.raises(TypeError):
            matrix.nonzeros[0] = 5
        with pytest.raises(TypeError):
            del matrix.nonzeros[1]
        assert matrix == m and matrix.nonzeros == {0: 1, 1: 2}
    # a copy is rebuilt from a dict of its own; a reshape shares the read-only view
    rebuild, (rows, cols, nonzeros) = m.__reduce__()
    nonzeros[0] = 5
    assert rebuild(rows, cols, nonzeros).entries == (5, 2)
    assert m.nonzeros == {0: 1, 1: 2} and m.entries == (1, 2) and pickled.entries == (1, 2)
    assert Matrix._raw(2, 1, m.nonzeros).nonzeros is m.nonzeros


def test_compose_frozen_example():
    f = Matrix(2, 2, [1, 2, 3, 4])
    g = Matrix(2, 2, [0, 1, 1, 0])
    assert compose(f, g) == Matrix(2, 2, [2, 1, 4, 3])


def test_compose_orthogonal_pairing():
    row = Matrix(1, 2, [0, 1])
    col = Matrix(2, 1, [1, 0])
    assert compose(row, col) == Matrix(1, 1, [0])


def test_compose_identity():
    assert compose(identity(2), identity(2)) == identity(2)


def test_compose_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        compose(Matrix(2, 3, [0] * 6), Matrix(2, 2, [0] * 4))
    assert "2x3" in str(err.value) and "2x2" in str(err.value)


def test_compose_is_variadic_right_to_left():
    f = Matrix(1, 2, [1, 1])
    g = Matrix(2, 2, [0, 1, 1, 0])
    h = Matrix(2, 1, [2, 3])
    assert compose(f, g, h) == compose(f, compose(g, h))


def test_kron_frozen_examples():
    assert kron(identity(2), identity(3)) == identity(6)
    m = Matrix(2, 2, [1, 2, 3, 4])
    assert kron(Matrix(1, 1, [1]), m) == m
    assert kron(Matrix(2, 2, [0, 1, 1, 0]), Matrix(1, 1, [2])) == Matrix(
        2, 2, [0, 2, 2, 0]
    )


def test_kron_index_formula():
    f = Matrix(2, 2, [1, 2, 3, 4])
    g = Matrix(2, 2, [5, 6, 7, 8])
    fg = kron(f, g)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert fg[i1 * 2 + i2, j1 * 2 + j2] == f[i1, j1] * g[i2, j2]


def test_braiding_2_2_fixes_ends_swaps_middle():
    p = braiding(2, 2)
    expect = Matrix(
        4, 4, [1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1]
    )
    assert p == expect


def test_braiding_unit_strand():
    assert braiding(1, 5) == identity(5)
    assert braiding(5, 1) == identity(5)


def test_braiding_symmetry():
    assert compose(braiding(3, 2), braiding(2, 3)) == identity(6)


def test_braiding_action_on_basis_pairs():
    a, b = 2, 3
    p = braiding(a, b)
    for i in range(a):
        for j in range(b):
            col = i * b + j
            hits = [r for r in range(a * b) if p[r, col] == 1]
            assert hits == [j * a + i]


def test_braiding_rejects_zero_dims():
    with pytest.raises(ValueError):
        braiding(0, 2)


def test_interleaver_frozen_cases():
    assert interleaver(0, 2, 3) == Matrix(1, 1, [1])
    assert interleaver(1, 2, 3) == identity(6)


def test_interleaver_2_2_2_bit_shuffle():
    p = interleaver(2, 2, 2)
    assert p.rows == p.cols == 16
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    col = ((i1 * 2 + i2) * 2 + j1) * 2 + j2
                    row = ((i1 * 2 + j1) * 2 + i2) * 2 + j2
                    assert p[row, col] == 1


def is_permutation_matrix(m):
    """Square, with exactly one 1 in each row and each column and 0 elsewhere."""
    lines = [m.row(i) for i in range(m.rows)] + [m.entries[j :: m.cols] for j in range(m.cols)]
    return m.rows == m.cols and all(sorted(line) == [0] * (m.rows - 1) + [1] for line in lines)


def test_permutation_matrix_predicate():
    assert is_permutation_matrix(braiding(2, 3))
    assert is_permutation_matrix(interleaver(2, 2, 2))
    assert not is_permutation_matrix(Matrix(2, 2, [1, 1, 0, 0]))


def test_inverse_frozen_example():
    m = Matrix(2, 2, [1, 2, 3, 4])
    assert inverse(m) == Matrix(
        2, 2, [-2, 1, Fraction(3, 2), Fraction(-1, 2)]
    )
    assert compose(m, inverse(m)) == identity(2)


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        inverse(Matrix(2, 2, [1, 2, 2, 4]))


def test_inverse_matches_the_dense_oracle_on_a_seeded_sweep():
    # n = 1 to 16 at every density; ints, negatives and Fractions; one row
    # forced to be a combination of others; and Kronecker products of 2 x 2
    # Grams, the matrices derive_comult inverts.  Equal inverses store equal
    # entry types: an integral entry as an int.
    rng = random.Random(22)
    values = (1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3))
    cases = [[]]
    for _ in range(80):
        n, zeros = rng.randint(1, 16), rng.random()
        cases.append([[0 if rng.random() < zeros else rng.choice(values) for _ in range(n)]
                      for _ in range(n)])
    for _ in range(40):
        n = rng.randint(2, 16)
        table = [[rng.choice((0,) + values) for _ in range(n)] for _ in range(n)]
        k = rng.randrange(n)
        others = rng.sample([r for r in range(n) if r != k], min(2, n - 1))
        table[k] = [sum(rng.choice(values) * table[r][j] for r in others) for j in range(n)]
        cases.append(table)
    grams = [[[2, 0], [0, 2]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [1, 1]]]
    for _ in range(60):
        table = [[1]]
        for _ in range(rng.randint(1, 4)):
            a, b, c = (rng.choice((0, 0) + values) for _ in range(3))
            gram = rng.choice(grams + [[[a, b], [b, c]]])
            table = oracles.kron(table, gram, len(table), 2)
        cases.append(table)
    singular, types = 0, set()
    for table in cases:
        n = len(table)
        expect = oracles.inverse(table)
        if expect is None:
            singular += 1
            with pytest.raises(SingularMatrixError) as refused:
                inverse(flat(n, n, table))
            assert str(refused.value) == f"singular {n}x{n} matrix"
            continue
        got, want = inverse(flat(n, n, table)), flat(n, n, expect)
        assert got == want
        assert ({k: type(x) for k, x in got.nonzeros.items()}
                == {k: type(x) for k, x in want.nonzeros.items()})
        types.update(map(type, got.nonzeros.values()))
    assert 40 < singular < len(cases) - 40 and types == {int, Fraction}


def test_matrix_requires_consistent_entry_count():
    with pytest.raises(ShapeError):
        Matrix(2, 2, [1, 2, 3])


def nested(m):
    """The rows of ``m`` as lists, for the oracles."""
    return [list(m.row(i)) for i in range(m.rows)]


def flat(rows, cols, table):
    """The ``Matrix`` of an oracle's nested-list answer."""
    return Matrix(rows, cols, [x for row in table for x in row])


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def padded(f, pad):
    """The layer ``I_left (x) f (x) I_right`` as a nested list, by ``oracles.kron``."""
    left, right = pad
    return oracles.kron(oracles.kron(eye(left), nested(f), left, f.cols), eye(right),
                        left * f.cols, right)


def padded_product(f, f_pad, g, g_pad):
    """``layer_product``'s answer from the oracles: the two padded layers multiplied."""
    cols = g_pad[0] * g.cols * g_pad[1]
    product = oracles.matmul(padded(f, f_pad), padded(g, g_pad), cols)
    return flat(len(product), cols, product)


@st.composite
def layer_pairs(draw):
    pads = st.tuples(st.integers(1, 3), st.integers(1, 3))
    f_pad, g_pad = draw(pads), draw(pads)
    f = draw(small_matrix(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    # g's padded output must be f's padded input: choose g.rows to fit when it can
    mid = f_pad[0] * f.cols * f_pad[1]
    if mid % (g_pad[0] * g_pad[1]):
        g_pad = (1, 1)
    g = draw(small_matrix(mid // (g_pad[0] * g_pad[1]), draw(st.integers(1, 3))))
    return f, f_pad, g, g_pad


@given(layer_pairs())
@example((Matrix(2, 4, [1, 0, 0, 1, 0, 1, 1, 0]), (1, 1), Matrix(2, 2, [1, 0, 0, -1]), (1, 2)))
@example((Matrix(2, 4, [1, 0, 0, 0, 0, 0, 0, 1]), (2, 1), Matrix(4, 2, [1, 0, 0, 0, 0, 0, 0, 1]),
          (1, 2)))
@example((Matrix(1, 2, [0, Fraction(1, 2)]), (1, 1), Matrix(2, 1, [3, 0]), (1, 1)))
# a map on chosen strands of a state, g_pad = (1, 1): one-column f (cup, theta),
# Fraction entries, a pad of 1 or 2 on each side
@example((Matrix(2, 1, [1, Fraction(-1, 2)]), (1, 1), identity(1), (1, 1)))
@example((Matrix(2, 1, [1, 0]), (2, 2), identity(4), (1, 1)))
@example((Matrix(1, 2, [0, 3]), (1, 1), Matrix(2, 1, [Fraction(1, 3), 5]), (1, 1)))
@settings(max_examples=80, deadline=None)
def test_layer_product_equals_product_of_padded_layers(case):
    f, f_pad, g, g_pad = case
    product, expect = layer_product(f, f_pad, g, g_pad), padded_product(f, f_pad, g, g_pad)
    assert product == expect and product.entries == expect.entries


def test_layer_product_reuses_a_memo_but_stores_none():
    f, state = Matrix(2, 2, [0, 1, 1, 0]), Matrix(2, 2, [3, 0, 0, Fraction(1, 2)])
    product = layer_product(f, (1, 1), state, (1, 1))
    # a right factor gets no column table, padded or not, and no product is laid out
    padded = layer_product(f, (2, 1), state, (2, 1))
    assert padded == Matrix._raw(4, 4, {1: Fraction(1, 2), 4: 3, 11: Fraction(1, 2), 14: 3})
    assert product == Matrix._raw(2, 2, {1: Fraction(1, 2), 2: 3})
    assert product._entries is None and padded._entries is None
    assert state._columns is None  # only a left factor keeps its column table
    assert f._column_table() == (((1, 1),), ((0, 1),))


@st.composite
def reused_left_factor(draw):
    """One f with several (f_pad, g, g_pad) that fit it: strides and pads vary."""
    f = draw(small_matrix(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    uses = []
    for _ in range(draw(st.integers(2, 4))):
        f_pad = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
        mid = f_pad[0] * f.cols * f_pad[1]
        g_pad = draw(st.sampled_from(
            [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if mid % (a * b) == 0]
        ))
        g = draw(small_matrix(mid // (g_pad[0] * g_pad[1]), draw(st.integers(1, 3))))
        uses.append((f_pad, g, g_pad))
    return f, uses


@given(reused_left_factor())
@example((Matrix(2, 2, [1, Fraction(1, 2), 0, -1]), [
    ((1, 1), Matrix(2, 1, [1, 1]), (1, 1)),  # stride 1
    ((1, 2), Matrix(4, 3, range(12)), (1, 1)),  # stride 6
    ((2, 1), Matrix(2, 2, [0, 1, 1, 0]), (2, 1)),  # stride 4, padded g
    ((1, 3), Matrix(2, 1, [1, -1]), (1, 3)),  # stride 9
]))
@settings(max_examples=40, deadline=None)
def test_one_left_factor_serves_every_pad_and_stride(case):
    # the column table is kept on f after the first call; a table that baked
    # in one call's stride or pad would break the later products
    f, uses = case
    for f_pad, g, g_pad in uses:
        assert layer_product(f, f_pad, g, g_pad) == padded_product(f, f_pad, g, g_pad)
    assert f._columns is not None


@given(layer_pairs())
@settings(max_examples=40, deadline=None)
def test_layer_product_reads_a_state_as_its_matrix(case):
    # a matrix given only by its nonzeros, in reverse order, is read as the
    # matrix its entries give, and is not laid out
    f, f_pad, g, g_pad = case
    state = Matrix._raw(g.rows, g.cols, dict(reversed(g.nonzeros.items())))
    product = layer_product(f, f_pad, state, g_pad)
    assert product == layer_product(f, f_pad, g, g_pad) == padded_product(f, f_pad, g, g_pad)
    assert state._entries is None and state._columns is None


def test_layer_product_takes_a_state_past_the_cell_budget():
    # the 4096 x 4096 identity has 4096 nonzeros; only its dense layout is refused
    n = 4096
    eye = Matrix._raw(n, n, {k * (n + 1): 1 for k in range(n)})
    assert layer_product(Matrix(1, 1, [2]), (n, 1), eye, (1, 1)) == Matrix._raw(
        n, n, {k * (n + 1): 2 for k in range(n)}
    )
    with pytest.raises(BudgetError, match=f"^a {n}x{n} matrix has"):
        eye.entries


def test_apply_steps_runs_each_step_as_its_padded_layer():
    # each matrix serves two strides, so a column table kept for one stride
    # would break the other's step
    rng = random.Random(31)
    values = (0, 0, 1, -1, 2, Fraction(1, 2))
    f = Matrix(2, 3, [rng.choice(values) for _ in range(6)])
    g = Matrix(3, 2, [rng.choice(values) for _ in range(6)])
    m = Matrix(12, 2, [rng.choice(values) for _ in range(24)])
    steps = [(f, 2, 2), (g, 1, 4), (f, 4, 1), (g, 2, 2)]
    state = apply_steps(m, steps)
    for h, left, right in steps:
        m = padded_product(h, (left, right), m, (1, 1))
    assert state == m
    with pytest.raises(ShapeError, match=r"^cannot apply 1\|2x3\|1 to 12 rows$"):
        apply_steps(Matrix._raw(12, 2, {}), [(f, 1, 1)])


def test_layer_product_rejects_mismatched_layers():
    with pytest.raises(ShapeError, match=r"1\|2x4\|1 with 3\|2x2\|1"):
        layer_product(Matrix(2, 4, [0] * 8), (1, 1), identity(2), (3, 1))


def test_negative_pads_are_refused_and_zero_pads_are_not():
    m = Matrix(2, 2, [1, 2, 3, 4])
    for f_pad, g_pad in (((-1, 1), (-1, 1)), ((1, -1), (1, 1)), ((1, 1), (1, -2)),
                         ((0, 1), (-1, 0))):
        with pytest.raises(ShapeError, match=r"^negative pad: cannot compose"):
            layer_product(m, f_pad, m, g_pad)
    # a pad of 0 is an empty layer: kron of a matrix with no rows needs one
    assert layer_product(m, (0, 1), m, (1, 0)) == Matrix(0, 0, [])
    assert kron(Matrix(0, 3, []), m) == Matrix(0, 6, [])
    assert kron(m, Matrix(2, 0, [])) == Matrix(4, 0, [])


def test_layer_product_drops_sums_that_cancel():
    # (1, -1) . (1, 1)^T and (1/2, -1/2) . (1, 1)^T are both zero
    ones = Matrix(2, 1, [1, 1])
    for row in (Matrix(1, 2, [1, -1]), Matrix(1, 2, [Fraction(1, 2), Fraction(-1, 2)])):
        assert layer_product(row, (1, 1), ones, (1, 1)).nonzeros == {}
        assert layer_product(row, (1, 2), ones, (1, 2)) == Matrix(2, 2, [0] * 4)
    f, g = Matrix(2, 2, [1, 1, 0, 2]), Matrix(2, 1, [1, -1])
    assert layer_product(f, (1, 1), g, (1, 1)).nonzeros == {1: -2}
    # some sums cancel, others do not: only the cancelled ones go, with int
    # and Fraction entries, unpadded, padded, and with g's nonzeros in either order
    half = Fraction(1, 2)
    for f, kept in (
        (Matrix(3, 2, [1, -1, 2, 1, 0, 3]), {1: 3, 2: 3}),
        (Matrix(3, 2, [half, -half, half, Fraction(1, 3), 2, -2]), {1: Fraction(5, 6)}),
        (Matrix(3, 2, [half, -half, 1, -half, -2, 2]), {1: half}),
    ):
        for g in (ones, Matrix._raw(2, 1, {1: 1, 0: 1})):
            product = layer_product(f, (1, 1), g, (1, 1))
            assert (product.rows, product.cols, product.nonzeros) == (3, 1, kept)
            assert 0 not in product.nonzeros.values()
            assert layer_product(f, (2, 1), g, (2, 1)) == Matrix._raw(6, 2, {
                **{k * 2: x for k, x in kept.items()},
                **{(k + 3) * 2 + 1: x for k, x in kept.items()},
            })


@given(small_matrix(3, 4))
@example(Matrix(2, 2, [0, Fraction(1, 2), 0, 3]))
@example(Matrix(1, 3, [0, 0, 0]))
@settings(max_examples=40, deadline=None)
def test_nonzeros_lists_the_nonzero_entries_and_leaves_equality_alone(m):
    # the twin holds the same nonzeros in reverse order and has no entries memo
    twin = Matrix._raw(m.rows, m.cols, dict(reversed(m.nonzeros.items())))
    assert m.nonzeros == {k: x for k, x in enumerate(m.entries) if x}
    assert 0 not in m.nonzeros.values()
    assert m == twin and hash(m) == hash(twin) and {m, twin} == {twin}
    assert twin._entries is None and twin.entries == m.entries
    assert twin.entries is twin.entries  # remembered


def test_a_column_memo_leaves_equality_hash_repr_copies_and_pickles_alone():
    entries = [0, Fraction(1, 2), 0, 3, 0, -1]
    m, twin = Matrix(2, 3, entries), Matrix(2, 3, entries)
    layer_product(m, (1, 1), identity(3), (1, 1))
    assert m._columns == (((1, 3),), ((0, Fraction(1, 2)),), ((1, -1),))
    assert twin._columns is None
    assert m == twin and hash(m) == hash(twin) and {m, twin} == {twin}
    assert repr(m) == repr(twin) == "Matrix(2x3 [[0, 1/2, 0], [3, 0, -1]])"
    assert pickle.dumps(m) == pickle.dumps(twin)  # memos are not pickled
    for copied in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert copied == m and copied._entries is None and copied._columns is None
        assert copied._column_table() == m._column_table()


def test_a_matrix_is_its_nonzeros():
    # an integral Fraction among the nonzeros equals, hashes and lays out as its int
    two = Matrix._raw(1, 1, {0: Fraction(2, 1)})
    assert Matrix(1, 1, [2]) == two and hash(Matrix(1, 1, [2])) == hash(two)
    assert two.entries == (2,) and type(two[0, 0]) is int and repr(two) == "Matrix(1x1 [[2]])"
    assert Matrix(1, 2, [0, 0]) != Matrix(2, 1, [0, 0]) and Matrix(2, 1, [0, 0]).nonzeros == {}


def test_a_product_past_the_budget_copies_and_pickles_without_its_entries():
    # 4096 x 4096 with 4096 nonzeros: only laying out its entries is refused
    n = 4096
    eye = Matrix._raw(n, n, {k * (n + 1): 1 for k in range(n)})
    product = layer_product(Matrix(1, 1, [Fraction(1, 2)]), (n, 1), eye, (1, 1))
    data = pickle.dumps(product)
    assert len(data) < 2**16  # the nonzeros, not 16,777,216 cells
    for copied in (copy.copy(product), copy.deepcopy(product), pickle.loads(data)):
        assert copied == product and hash(copied) == hash(product)
        assert copied._entries is None
    line = "a 4096x4096 matrix has 16777216 cells, over the budget of 8388608"
    for read in (lambda: product.entries, lambda: product.row(0), lambda: product[0, 0]):
        with pytest.raises(BudgetError) as refused:
            read()
        assert str(refused.value) == line
    assert product._entries is None and repr(product) == "Matrix(4096x4096)"


def test_layer_product_keeps_one_dict_of_the_product():
    # comult on the first of 7 circles of Z2*Z2: 4**7 -> 65,536 nonzeros.  The
    # peak is the product's dict and its keys, about 5.1 MiB; a second,
    # filtered copy of the dict held next to it peaks at about 8.3 MiB.
    comult = tensor(group_algebra_z2(), group_algebra_z2()).comult
    size = 4**7
    state = Matrix._raw(size, size, {k * (size + 1): 1 for k in range(size)})
    tracemalloc.start()
    try:
        product = layer_product(comult, (1, 4**6), state, (1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (product.rows, product.cols, len(product.nonzeros)) == (4 * size, size, 65536)
    assert peak < 6 * 2**20


zero_sums = st.sampled_from([1 + -1, Fraction(1, 2) + Fraction(-1, 2), Fraction(0)])


@st.composite
def sparse_sides(draw, shape):
    """A side as (rows, cols, {index: entry}), some zero entries kept as cancelled sums."""
    rows, cols = shape
    side = {}
    for k in draw(st.permutations(range(rows * cols))):  # in no particular order
        x = draw(st.one_of(st.just(0), scalars))
        if x or draw(st.booleans()):
            side[k] = x if x else draw(zero_sums)
    return rows, cols, side


@st.composite
def side_pairs(draw):
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    lhs = draw(sparse_sides(shape))
    kind = draw(st.sampled_from(["random", "equal", "bumped", "reshaped"]))
    if kind == "random":
        return lhs, draw(sparse_sides(shape))
    if kind == "reshaped":
        return lhs, draw(sparse_sides(draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))))
    rhs = dict(lhs[2])
    if kind == "bumped":
        k = draw(st.integers(0, shape[0] * shape[1] - 1))
        rhs[k] = rhs.get(k, 0) + draw(scalars)
    return lhs, (*shape, rhs)


def dense(side):
    rows, cols, nonzeros = side
    return Matrix(rows, cols, [nonzeros.get(k, 0) for k in range(rows * cols)])


def sparse(side):
    """The ``Matrix`` of a side, its nonzeros kept in the side's order."""
    rows, cols, nonzeros = side
    return Matrix._raw(rows, cols, {k: x for k, x in nonzeros.items() if x})


@given(side_pairs())
@example(((1, 2, {0: 1 + -1, 1: 2}), (1, 2, {1: 2})))
@example(((2, 1, {1: Fraction(1, 2) + Fraction(-1, 2)}), (2, 1, {0: 0})))
@example(((2, 2, {3: 1}), (2, 2, {0: Fraction(0), 3: 1})))
@example(((2, 2, {1: 1, 2: 5}), (2, 2, {1: 1, 2: 4})))
@example(((1, 4, {}), (2, 2, {})))
@example(((2, 2, {3: 1, 1: 2}), (2, 2, {3: 2, 1: 2, 0: 1})))
@example(((3, 3, {8: 1, 1: 1}), (3, 3, {})))  # a set of {8, 1} iterates 8 first
@example(((1, 2, {1: Fraction(3, 2) + Fraction(1, 2)}), (1, 2, {1: 1})))  # witness lhs=2, an int
@settings(max_examples=150, deadline=None)
def test_compare_nonzeros_equals_compare_on_dense_forms(pair):
    lhs, rhs = pair
    try:
        expect = compare("side", dense(lhs), dense(rhs))
    except ShapeError as err:
        with pytest.raises(ShapeError) as got:
            compare_nonzeros("side", sparse(lhs), sparse(rhs))
        assert str(got.value) == str(err)
        return
    result = compare_nonzeros("side", sparse(lhs), sparse(rhs))
    assert result == expect  # pass flag and witness row, column, lhs and rhs
    assert repr(result) == repr(expect)  # and the witness entries' types
    assert result.line() == expect.line()


def test_oversized_results_are_refused_before_allocation():
    assert 2**22 <= MAX_CELLS < 4096 * 2049 and issubclass(BudgetError, ShapeError)
    column, row = Matrix(4096, 1, [1] * 4096), Matrix(1, 2049, [1] * 2049)
    calls = [
        ("4096x4096", lambda: identity(4096)),
        ("4096x2049", lambda: compose(column, row)),
        ("4096x2049", lambda: kron(column, row)),
        ("8392704x8392704", lambda: braiding(4096, 2049)),
        ("8392704x8392704", lambda: interleaver(1, 4096, 2049)),
    ]
    for shape, call in calls:
        with pytest.raises(BudgetError, match=f"^a {shape} matrix has"):
            call()


def test_permutation_caches_are_bounded():
    for cached in (identity, braiding, interleaver):
        assert cached.cache_info().maxsize is not None


@given(small_matrix(2, 2), small_matrix(2, 2), small_matrix(2, 2))
@settings(max_examples=60, deadline=None)
def test_compose_associative(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(small_matrix(2, 2), small_matrix(2, 2), small_matrix(2, 2), small_matrix(2, 2))
@settings(max_examples=60, deadline=None)
def test_kron_interchange(f, g, fp, gp):
    assert compose(kron(f, g), kron(fp, gp)) == kron(compose(f, fp), compose(g, gp))


@given(small_matrix(3, 2), small_matrix(2, 2))
@settings(max_examples=60, deadline=None)
def test_braiding_naturality(f, g):
    # f: 2 -> 3, g: 2 -> 2; braid after mapping equals map after braiding
    lhs = compose(braiding(f.rows, g.rows), kron(f, g))
    rhs = compose(kron(g, f), braiding(f.cols, g.cols))
    assert lhs == rhs


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_braiding_is_permutation(a, b):
    assert is_permutation_matrix(braiding(a, b))
    assert compose(braiding(b, a), braiding(a, b)) == identity(a * b)


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2),
)
@settings(max_examples=20, deadline=None)
def test_interleaver_is_permutation(n, a, b):
    assert is_permutation_matrix(interleaver(n, a, b))


# -- Record: the value semantics of reports, words, algebras and morphisms ------


def test_records_compare_hash_and_print_field_by_field():
    a, b = group_algebra_z2(), group_algebra_z2()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != dual_numbers() and len({a, b, dual_numbers()}) == 2
    assert CheckResult("x", True) == CheckResult("x", True, None) != CheckResult("y", True)
    assert Witness(0, 1, 2, 3) != (0, 1, 2, 3)

    class Subclass(Witness):
        __slots__ = ()

    assert Subclass(0, 1, 2, 3) != Witness(0, 1, 2, 3)
    assert repr(Subclass(0, 1, 2, 3)).endswith("Subclass(row=0, col=1, lhs=2, rhs=3)")
    assert repr(Witness(0, 1, Fraction(1, 2), 3)) == (
        "Witness(row=0, col=1, lhs=Fraction(1, 2), rhs=3)"
    )
    assert repr(AxiomReport((CheckResult("x", True),))) == (
        "AxiomReport(checks=(CheckResult(name='x', passed=True, witness=None),))"
    )


def test_records_refuse_assignment_and_survive_copy_and_pickle():
    word = CobordismWord("oriented", ((Generator.CUP,), (Generator.CAP,)))
    for value, field in ((group_algebra_z2_extended(), "point"), (Witness(0, 0, 1, 2), "row"),
                         (word, "slices")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))


def test_record_replace_checks_the_new_value():
    z2 = group_algebra_z2()
    renamed = z2.replace(name="Z2'", basis=["e", "x"])
    assert (renamed.name, renamed.basis, z2.name) == ("Z2'", ("e", "x"), "Z2")
    assert renamed.mult is z2.mult
    with pytest.raises(ShapeError, match="mult must be 2x4, got 2x2"):
        z2.replace(mult=identity(2))
    with pytest.raises(TypeError):
        z2.replace(colour="red")
    with pytest.raises(ShapeError, match="point must be 2x1"):
        group_algebra_z2_extended().replace(point=identity(2))
    with pytest.raises(WordError):
        CobordismWord("oriented", ()).replace(orientation="sideways")


def stored_as_ints(m: Matrix) -> bool:
    """No entry of ``m`` is an integral ``Fraction``."""
    return all(type(x) is int or x.denominator > 1 for x in m.entries)


def test_products_store_an_integral_fraction_as_an_int():
    # the group algebra of Z2 in a Fraction basis: integral structure
    # constants come out of sums and products of Fractions
    mult = group_algebra_z2().mult
    half = Fraction(1, 2)
    b = Matrix(2, 2, [half, half, half, 2])
    moved = compose(inverse(b), mult, kron(b, b))
    assert moved.entries == (1, Fraction(5, 2), Fraction(5, 2), 10, 0, 0, 0, Fraction(-3, 2))
    back = compose(b, moved, kron(inverse(b), inverse(b)))
    assert back == mult
    state = Matrix._raw(1, 3, {0: Fraction(4, 2), 2: half})
    for m in (moved, back, kron(b, inverse(b)), compose(b, inverse(b)), state):
        assert stored_as_ints(m), m
    assert state.entries == (2, 0, half)


def test_compose_and_kron_match_the_oracles_on_a_seeded_sweep():
    # ints and Fractions, dimensions from 0; a sum of Fractions may be
    # integral, and the product stores it as an int
    rng = random.Random(15)
    values = (0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))

    def draw(rows, cols):
        return Matrix(rows, cols, [rng.choice(values) for _ in range(rows * cols)])

    integral_sums = empty = 0
    for _ in range(400):
        a, b, c, d = (rng.randint(0, 3) for _ in range(4))
        f, g, h = draw(a, b), draw(b, c), draw(c, d)
        expect = oracles.matmul(nested(f), nested(g), c)
        integral_sums += sum(type(x) is Fraction and x.denominator == 1
                             for row in expect for x in row)
        empty += 0 in (a, b, c, d)
        product, tensor_product = compose(f, g), kron(f, h)
        assert product == flat(a, c, expect) and stored_as_ints(product)
        assert tensor_product == flat(a * c, b * d, oracles.kron(nested(f), nested(h), b, d))
        assert stored_as_ints(tensor_product)
    assert integral_sums > 50 and empty > 50
