"""Commutative (extended) Frobenius algebras with exact axiom checking.

An algebra of dimension n is stored through four structure matrices over
the rationals:

* multiplication  n x n^2      (column ``i * n + j`` holds ``e_i * e_j``)
* unit            n x 1
* comultiplication n^2 x n
* counit          1 x n

with the basis vector ``e_i (x) e_j`` of the tensor square at flat index
``i * n + j``.  An extended algebra adds an involution ``n x n`` and a
distinguished point ``n x 1``.

The axiom checks work on the structure constants directly.  Every side
of every check is a state, ``(rows, cols, {flat index: entry})``, built by
``linalg.layer_product`` from the nonzeros of the structure matrices
(``mult . (mult (x) id)``, ``(comult (x) id) . comult``, the Frobenius
sides and theta^2), by ``linalg.apply_steps`` (both sides of
``naturality_square``, which every morphism diagram is, one step per
strand of f), or, for commutativity and cocommutativity, by
permuting the nonzeros of ``mult`` and ``comult``.  ``report.compare_nonzeros``
compares each pair.  No padded layer, braiding matrix or dense side is
built, so the cost follows the nonzeros: tensor products are almost all
zeros.  ``tensor`` and ``derive_comult`` build structure matrices with
``linalg.compose_layers``, the dense form of the same product.
"""

from __future__ import annotations

import itertools
from typing import Union

from .linalg import (
    MAX_CELLS,
    BudgetError,
    Matrix,
    Record,
    ShapeError,
    SingularMatrixError,
    apply_steps,
    braiding,
    compose,
    compose_layers,
    identity,
    inverse,
    kron,
    layer_product,
)
from .report import AxiomReport, CheckResult, compare_nonzeros


_NO_PAD = (1, 1)  # the pad of a layer with no identity strands
_set = object.__setattr__  # sets a Record's field once, in its __init__


class DegenerateFormError(ValueError):
    """The pairing counit(e_i * e_j) is singular: no comultiplication exists."""


def _expect_shape(what: str, m: Matrix, rows: int, cols: int) -> None:
    if (m.rows, m.cols) != (rows, cols):
        raise ShapeError(f"{what} must be {rows}x{cols}, got {m.rows}x{m.cols}")


class FrobeniusAlgebra(Record):
    """Commutative Frobenius algebra given by rational structure constants."""

    __slots__ = ("name", "basis", "mult", "unit", "counit", "comult")

    def __init__(
        self,
        name: str,
        basis: tuple[str, ...],
        mult: Matrix,
        unit: Matrix,
        counit: Matrix,
        comult: Matrix,
    ) -> None:
        basis = tuple(basis)
        n = len(basis)
        if n < 1:
            raise ValueError("an algebra needs at least one basis vector")
        if len(set(basis)) != n:
            raise ValueError(f"duplicate basis labels in {basis!r}")
        _expect_shape("mult", mult, n, n * n)
        _expect_shape("unit", unit, n, 1)
        _expect_shape("counit", counit, 1, n)
        _expect_shape("comult", comult, n * n, n)
        _set(self, "name", name)
        _set(self, "basis", basis)
        _set(self, "mult", mult)
        _set(self, "unit", unit)
        _set(self, "counit", counit)
        _set(self, "comult", comult)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_tables(cls, name, basis, mult, unit, counit, comult=None) -> "FrobeniusAlgebra":
        """Build an algebra from structure-constant tables.

        ``mult[i][j][k]`` is the coefficient of ``e_k`` in ``e_i * e_j`` and
        ``comult[i][j][k]`` the coefficient of ``e_j (x) e_k`` in the image
        of ``e_i``.  When ``comult`` is omitted it is derived from the
        pairing (see ``derive_comult``).
        """
        basis = tuple(basis)
        n = len(basis)
        r = range(n)
        _check_cube("mult", n, mult)
        mult_m = Matrix(n, n * n, [mult[i][j][k] for k in r for i in r for j in r])
        unit_m = _vector_matrix("unit", n, unit, column=True)
        counit_m = _vector_matrix("counit", n, counit, column=False)
        if comult is not None:
            _check_cube("comult", n, comult)
            comult_m = Matrix(n * n, n, [comult[i][j][k] for j in r for k in r for i in r])
        else:
            comult_m = derive_comult(mult_m, unit_m, counit_m)
        return cls(name, basis, mult_m, unit_m, counit_m, comult_m)


def _check_cube(what, n, table) -> None:
    if len(table) != n or any(len(plane) != n for plane in table) or any(
        len(line) != n for plane in table for line in plane
    ):
        raise ValueError(f"{what} table must be {n}x{n}x{n}")


def _vector_matrix(what, n, values, column: bool) -> Matrix:
    values = list(values)
    if len(values) != n:
        raise ValueError(f"{what} must have {n} entries, got {len(values)}")
    return Matrix(n, 1, values) if column else Matrix(1, n, values)


class ExtendedFrobeniusAlgebra(Record):
    """A Frobenius algebra together with an involution and a point."""

    __slots__ = ("base", "involution", "point")

    def __init__(self, base: FrobeniusAlgebra, involution: Matrix, point: Matrix) -> None:
        n = base.dim
        _expect_shape("involution", involution, n, n)
        _expect_shape("point", point, n, 1)
        _set(self, "base", base)
        _set(self, "involution", involution)
        _set(self, "point", point)

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def basis(self) -> tuple[str, ...]:
        return self.base.basis


AnyAlgebra = Union[FrobeniusAlgebra, ExtendedFrobeniusAlgebra]


def as_plain(algebra: AnyAlgebra) -> FrobeniusAlgebra:
    """The underlying plain Frobenius algebra (identity on plain inputs)."""
    return algebra.base if isinstance(algebra, ExtendedFrobeniusAlgebra) else algebra


class FrobeniusMorphism(Record):
    """A linear map between algebras, stored target-by-source."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: AnyAlgebra, target: AnyAlgebra, matrix: Matrix) -> None:
        _expect_shape("morphism matrix", matrix, as_plain(target).dim, as_plain(source).dim)
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "matrix", matrix)


def derive_comult(mult: Matrix, unit: Matrix, counit: Matrix) -> Matrix:
    """Reconstruct the comultiplication from multiplication, unit and counit.

    The pairing matrix g[i, j] = counit(e_i * e_j) must be invertible; its
    inverse gives the copairing c = sum c[i, j] e_i (x) e_j, and the
    comultiplication is a |-> (id (x) mult)(c (x) a).
    """
    n = mult.rows
    _expect_shape("mult", mult, n, n * n)
    _expect_shape("unit", unit, n, 1)
    _expect_shape("counit", counit, 1, n)
    pairing = compose(counit, mult)  # 1 x n^2, row-major reshape below
    gram = Matrix(n, n, pairing.entries)
    try:
        gram_inv = inverse(gram)
    except SingularMatrixError as exc:
        raise DegenerateFormError(
            "degenerate Frobenius form: the pairing counit(e_i * e_j) is singular"
        ) from exc
    copairing = Matrix(n * n, 1, gram_inv.entries)
    return compose_layers(mult, (n, 1), copairing, (1, n))


def check_frobenius(algebra: AnyAlgebra) -> AxiomReport:
    """All commutative-Frobenius axioms as named exact matrix identities."""
    a = as_plain(algebra)
    n = a.dim
    m, u, e, d = a.mult, a.unit, a.counit, a.comult
    i_n = _sparse(identity(n))
    dm = layer_product(d, _NO_PAD, m, _NO_PAD)
    # the braiding as a permutation of flat indices: x (x) y sits at y (x) x
    swap = [j * n + i for i in range(n) for j in range(n)]
    nn = n * n
    m_swapped = (n, nn, {k - k % nn + swap[k % nn]: x for k, x in m.nonzeros()})
    d_swapped = (nn, n, {swap[k // n] * n + k % n: x for k, x in d.nonzeros()})
    checks = (
        compare_nonzeros(
            "associativity",
            layer_product(m, _NO_PAD, m, (1, n)),
            layer_product(m, _NO_PAD, m, (n, 1)),
        ),
        compare_nonzeros("unit_left", layer_product(m, _NO_PAD, u, (1, n)), i_n),
        compare_nonzeros("unit_right", layer_product(m, _NO_PAD, u, (n, 1)), i_n),
        compare_nonzeros(
            "coassociativity",
            layer_product(d, (1, n), d, _NO_PAD),
            layer_product(d, (n, 1), d, _NO_PAD),
        ),
        compare_nonzeros("counit_left", layer_product(e, (1, n), d, _NO_PAD), i_n),
        compare_nonzeros("counit_right", layer_product(e, (n, 1), d, _NO_PAD), i_n),
        compare_nonzeros("frobenius_left", layer_product(m, (n, 1), d, (1, n)), dm),
        compare_nonzeros("frobenius_right", layer_product(m, (1, n), d, (n, 1)), dm),
        compare_nonzeros("commutativity", m_swapped, _sparse(m)),
        compare_nonzeros("cocommutativity", d_swapped, _sparse(d)),
    )
    return AxiomReport(checks)


def _sparse(m) -> tuple:
    """A matrix as ``(rows, cols, {flat index: entry})`` over its nonzeros; a state as it is."""
    if isinstance(m, tuple):
        return m
    return m.rows, m.cols, dict(m.nonzeros())


def naturality_square(f: Matrix, source_map, target_map, arity_in: int, arity_out: int) -> tuple:
    """The sides ``(f^(x)out . source_map, target_map . f^(x)in)`` of a naturality square.

    The maps are matrices or states and the sides are states, built by
    ``apply_steps`` one strand at a time, so no power of f is built: f
    acts on each output of ``source_map``, and f^T on each input of
    ``target_map^T``, which builds the right side transposed and keeps the
    kernel's left factor a matrix.
    """
    f_t = Matrix._raw(f.cols, f.rows, tuple(x for j in range(f.cols) for x in f.entries[j::f.cols]))
    left = apply_steps(_sparse(source_map), (
        (f, f.rows**k, f.cols ** (arity_out - 1 - k)) for k in range(arity_out)))
    right = apply_steps(_transposed(_sparse(target_map)), (
        (f_t, f.cols**k, f.rows ** (arity_in - 1 - k)) for k in range(arity_in)))
    return left, _transposed(right)


def _transposed(state: tuple) -> tuple:
    rows, cols, nonzeros = state
    return cols, rows, {k % cols * rows + k // cols: x for k, x in nonzeros.items()}


def check_morphism(f: FrobeniusMorphism) -> AxiomReport:
    """The unit, mult, counit and comult squares; counit and comult list their right side first."""
    a, b, g = as_plain(f.source), as_plain(f.target), f.matrix
    return AxiomReport((
        compare_nonzeros("unit", *naturality_square(g, a.unit, b.unit, 0, 1)),
        compare_nonzeros("mult", *naturality_square(g, a.mult, b.mult, 2, 1)),
        compare_nonzeros("counit", *reversed(naturality_square(g, a.counit, b.counit, 1, 0))),
        compare_nonzeros("comult", *reversed(naturality_square(g, a.comult, b.comult, 1, 2))),
    ))


def check_extended(algebra: ExtendedFrobeniusAlgebra) -> AxiomReport:
    """Involution and point axioms (the base axioms are checked separately).

    Named checks, in order: involution (phi . phi = id); phi_unit,
    phi_mult, phi_counit, phi_comult (phi is a Frobenius endomorphism);
    theta_multiplication_fixed (multiples of the point are fixed by phi);
    crosscap (theta^2 equals mult . (phi (x) id) . comult . unit); and the
    implied phi_fixes_theta, reported separately for diagnosis.

    Like ``check_frobenius``, every side is a state built by
    ``layer_product`` from the structure constants: multiplication by theta
    is ``mult . (theta (x) id)``, theta^2 is ``mult . (theta (x) theta)``,
    and the right-hand side of crosscap applies phi to one leg of
    ``comult . unit``.
    """
    base, phi, theta = algebra.base, algebra.involution, algebra.point
    times_theta = layer_product(base.mult, _NO_PAD, theta, (1, base.dim))
    theta_theta = layer_product(theta, (1, base.dim), theta, _NO_PAD)
    return AxiomReport((
        *_phi_checks(base, phi),
        compare_nonzeros("theta_multiplication_fixed",
                         layer_product(phi, _NO_PAD, times_theta, _NO_PAD), times_theta),
        compare_nonzeros("crosscap", layer_product(base.mult, _NO_PAD, theta_theta, _NO_PAD),
                         _crosscap_rhs(base, phi)),
        compare_nonzeros("phi_fixes_theta", layer_product(phi, _NO_PAD, theta, _NO_PAD),
                         _sparse(theta)),
    ))


def _phi_checks(base: FrobeniusAlgebra, phi: Matrix) -> tuple[CheckResult, ...]:
    """The involution and phi_* checks: the part of check_extended free of theta."""
    morphism = check_morphism(FrobeniusMorphism(base, base, phi))
    return (
        compare_nonzeros("involution", layer_product(phi, _NO_PAD, phi, _NO_PAD),
                         _sparse(identity(base.dim))),
        *(CheckResult("phi_" + c.name, c.passed, c.witness) for c in morphism.checks),
    )


def _crosscap_rhs(base: FrobeniusAlgebra, phi: Matrix) -> tuple:
    """``mult . (phi (x) id) . comult . unit``, the side of crosscap free of theta, as a state."""
    copairing = layer_product(base.comult, _NO_PAD, base.unit, _NO_PAD)
    twisted = layer_product(phi, (1, base.dim), copairing, _NO_PAD)
    return layer_product(base.mult, _NO_PAD, twisted, _NO_PAD)


def _theta_conditions(base: FrobeniusAlgebra, phi: Matrix) -> tuple[list, list]:
    """The theta checks compiled to conditions on the point's coordinates p.

    Returns ``(linear, quadratic)``.  Each linear row is a list of
    ``(k, c)`` with ``sum(c * p[k]) == 0`` required: the rows of ``phi - id``
    (phi_fixes_theta), then of ``(phi - id) . mult . (p (x) id)``
    (theta_multiplication_fixed), without zero or repeated rows.  Each
    quadratic form is ``(terms, r)`` with ``sum(x * p[k] * p[j]) == r`` over
    ``(k, j, x)`` in terms required: one per row of crosscap, over the
    nonzeros of ``mult``.
    """
    n = base.dim
    diagonal = range(0, n * n, n + 1)
    phi_minus_id = Matrix(n, n, (x - (k in diagonal) for k, x in enumerate(phi.entries)))
    pm = compose(phi_minus_id, base.mult)  # row i, column k * n + c: p[k]'s weight in row (i, c)
    rows = [phi_minus_id.row(i) for i in range(n)]
    rows += [pm.row(i)[c::n] for i in range(n) for c in range(n)]
    linear = [list(row) for row in dict.fromkeys(
        tuple((k, x) for k, x in enumerate(row) if x) for row in rows
    ) if row]
    terms = [[] for _ in range(n)]
    for index, x in base.mult.nonzeros():
        r, col = divmod(index, n * n)
        terms[r].append((*divmod(col, n), x))
    rhs = _crosscap_rhs(base, phi)[2]
    return linear, [(t, rhs.get(r, 0)) for r, t in enumerate(terms)]


def check_extended_morphism(f: FrobeniusMorphism) -> AxiomReport:
    """Frobenius-morphism diagrams plus point and involution compatibility."""
    g, source, target = f.matrix, f.source, f.target
    if not all(isinstance(x, ExtendedFrobeniusAlgebra) for x in (source, target)):
        raise TypeError("extended morphism checks need extended source and target")
    checks = check_morphism(f).checks + (
        compare_nonzeros("theta", *naturality_square(g, source.point, target.point, 0, 1)),
        compare_nonzeros("phi", *naturality_square(g, source.involution, target.involution, 1, 1)),
    )
    return AxiomReport(checks)


def tensor(a: FrobeniusAlgebra, b: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """Tensor-product Frobenius algebra on paired basis labels.

    Multiplication routes the middle factors through the braiding so the
    product of ``x1 (x) y1`` and ``x2 (x) y2`` is ``x1 x2 (x) y1 y2``; the
    comultiplication braids the two middle factors back.
    """
    na, nb = a.dim, b.dim
    return FrobeniusAlgebra(
        name=f"{a.name}*{b.name}",
        basis=tuple(f"({x},{y})" for x in a.basis for y in b.basis),
        # A.B.A.B -> A.A.B.B, then both multiplications
        mult=compose_layers(kron(a.mult, b.mult), _NO_PAD, braiding(nb, na), (na, nb)),
        unit=kron(a.unit, b.unit),
        counit=kron(a.counit, b.counit),
        comult=compose_layers(braiding(na, nb), (na, nb), kron(a.comult, b.comult), _NO_PAD),
    )


def tensor_extended(
    a: ExtendedFrobeniusAlgebra, b: ExtendedFrobeniusAlgebra
) -> ExtendedFrobeniusAlgebra:
    """Tensor product of extended algebras: involutions and points multiply."""
    return ExtendedFrobeniusAlgebra(
        tensor(a.base, b.base),
        kron(a.involution, b.involution),
        kron(a.point, b.point),
    )


def search_theta(algebra: FrobeniusAlgebra, involution: Matrix, bound: int) -> list[Matrix]:
    """All integer points in [-bound, bound]^dim that extend the algebra.

    The result is the points ``p`` for which
    ``check_extended(ExtendedFrobeniusAlgebra(algebra, involution, p))``
    passes, in lexicographic order of their coordinate tuples.  The
    involution's shape is checked once (ShapeError), and the involution and
    phi_* checks, which do not involve the point, run once: if any fails
    there are no hits.  The theta checks are then compiled once into
    conditions on the coordinates: integer rows for phi_fixes_theta and
    theta_multiplication_fixed, which are linear in the point, and one
    quadratic form per row of crosscap over the nonzeros of ``mult``.  Each
    grid point is tested with plain int and Fraction arithmetic, the linear
    rows first and stopping at the first that fails, and a ``Matrix`` is
    built only for a hit.  The search is grid-relative: an empty result only
    rules out integer points within the bound.  A grid of more than
    ``MAX_CELLS`` points raises BudgetError before the first point is tried.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    n = algebra.dim
    _expect_shape("involution", involution, n, n)
    if not all(c.passed for c in _phi_checks(algebra, involution)):
        return []
    if (2 * bound + 1) ** n > MAX_CELLS:
        raise BudgetError(f"a theta grid with bound {bound} on {n} coordinates "
                          f"has more than {MAX_CELLS} points")
    linear, quadratic = _theta_conditions(algebra, involution)
    hits = []
    for p in itertools.product(range(-bound, bound + 1), repeat=n):
        if any(sum(c * p[k] for k, c in row) for row in linear):
            continue
        if all(sum(x * p[k] * p[j] for k, j, x in terms) == r for terms, r in quadratic):
            hits.append(Matrix(n, 1, p))
    return hits
