"""Answers the benchmark checks against, computed without calling frob2d.

Algebras are plain structure-constant tables (the layout of the JSON
documents: ``mult[i][j][k]`` is the coefficient of ``e_k`` in ``e_i e_j``,
``comult[i][j][k]`` that of ``e_j (x) e_k`` in the image of ``e_i``, and
``phi[i][j]`` that of ``e_j`` in the image of ``e_i``).  Words are read only
through their generator labels.  Three routes:

* closed oriented words: Euler characteristic of every component
  (union-find over circles), then the closed form of each factor algebra,
  multiplied over the factors of a tensor product;
* open words: a list-based evaluator that applies each generator to its own
  legs of a sparse state, one source basis vector at a time;
* structure constants of tensor products as products of factor tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

FROBENIUS_CHECKS = (
    "associativity", "unit_left", "unit_right", "coassociativity", "counit_left",
    "counit_right", "frobenius_left", "frobenius_right", "commutativity", "cocommutativity",
)
EXTENDED_CHECKS = (
    "involution", "phi_unit", "phi_mult", "phi_counit", "phi_comult",
    "theta_multiplication_fixed", "crosscap", "phi_fixes_theta",
)
MORPHISM_CHECKS = ("unit", "mult", "counit", "comult")
DICTIONARY_CHECKS = ("id", "cup", "cap", "mult", "comult", "swap")
EXTENDED_DICTIONARY_CHECKS = DICTIONARY_CHECKS + ("phi", "theta")


@dataclass(frozen=True)
class Table:
    """Structure constants of a (possibly extended) algebra, plus closed forms.

    ``oriented(genus)`` and ``crosscapped(k)`` give the invariant of a
    connected closed surface; ``factors`` lists the one-factor tables a
    tensor product was built from.
    """

    name: str
    basis: tuple
    mult: list
    unit: list
    counit: list
    comult: list
    oriented: Callable[[int], Fraction]
    crosscapped: Optional[Callable[[int], Fraction]] = None
    phi: Optional[list] = None
    theta: Optional[list] = None
    factors: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def extended(self) -> bool:
        return self.phi is not None

    def plain(self) -> "Table":
        return Table(self.name, self.basis, self.mult, self.unit, self.counit,
                     self.comult, self.oriented, factors=self.factors)

    def document(self, with_comult: bool = True) -> dict:
        """The algebra as a JSON document (scalars as ints or "p/q")."""
        doc = {"name": self.name, "dim": self.dim, "basis": list(self.basis),
               "mult": _encode(self.mult), "unit": _encode(self.unit),
               "counit": _encode(self.counit)}
        if with_comult:
            doc["comult"] = _encode(self.comult)
        if self.extended:
            doc["extended"] = {"phi": _encode(self.phi), "theta": _encode(self.theta)}
        return doc


def _encode(value):
    if isinstance(value, list):
        return [_encode(x) for x in value]
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _cube(n, nonzero):
    cube = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in nonzero.items():
        cube[i][j][k] = v
    return cube


def z2() -> Table:
    """Group algebra of Z/2 on (1, x), counit(1) = 1: genus g gives 2^g."""
    mult = _cube(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1})
    comult = _cube(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1})
    return Table("Z2", ("1", "x"), mult, [1, 0], [1, 0], comult, lambda g: Fraction(2) ** g)


def z2_ext() -> Table:
    """Z2 with phi(x) = -x; the cross-cap condition forces theta = 0."""
    base = z2()
    return Table(base.name, base.basis, base.mult, base.unit, base.counit, base.comult,
                 base.oriented, lambda k: Fraction(0), [[1, 0], [0, -1]], [0, 0])


def dual_numbers() -> Table:
    """K[x]/(x^2), counit picks the x coefficient: nonzero only at genus 1."""
    mult = _cube(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    comult = _cube(2, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 1, 1): 1})
    return Table("D", ("1", "x"), mult, [1, 0], [0, 1], comult,
                 lambda g: Fraction(2 if g == 1 else 0))


def split_pair() -> Table:
    """K x K on idempotents: every closed oriented surface gives 2."""
    mult = _cube(2, {(0, 0, 0): 1, (1, 1, 1): 1})
    comult = _cube(2, {(0, 0, 0): 1, (1, 1, 1): 1})
    return Table("KxK", ("e1", "e2"), mult, [1, 1], [1, 1], comult, lambda g: Fraction(2))


def split_pair_ext() -> Table:
    """K x K with phi = id and theta = e1 - e2: k cross-caps give 1 + (-1)^k."""
    base = split_pair()
    return Table(base.name, base.basis, base.mult, base.unit, base.counit, base.comult,
                 base.oriented, lambda k: Fraction(1 + (-1) ** k), [[1, 0], [0, 1]], [1, -1])


def tensor(a: Table, b: Table) -> Table:
    """Tensor product on paired basis labels, basis index ``i * b.dim + j``."""
    na, nb = a.dim, b.dim
    n = na * nb
    idx = [(i, j) for i in range(na) for j in range(nb)]

    def cube(ca, cb):
        return [[[ca[x[0]][y[0]][z[0]] * cb[x[1]][y[1]][z[1]] for z in idx] for y in idx]
                for x in idx]

    def vec(va, vb):
        return [va[i] * vb[j] for i, j in idx]

    extended = a.extended and b.extended
    return Table(
        f"{a.name}*{b.name}",
        tuple(f"({x},{y})" for x in a.basis for y in b.basis),
        cube(a.mult, b.mult), vec(a.unit, b.unit), vec(a.counit, b.counit),
        cube(a.comult, b.comult),
        lambda g: a.oriented(g) * b.oriented(g),
        (lambda k: a.crosscapped(k) * b.crosscapped(k)) if extended else None,
        [[a.phi[x[0]][y[0]] * b.phi[x[1]][y[1]] for y in idx] for x in idx] if extended else None,
        vec(a.theta, b.theta) if extended else None,
        (a.factors or (a,)) + (b.factors or (b,)),
    )


def tensor_all(tables) -> Table:
    out = tables[0]
    for t in tables[1:]:
        out = tensor(out, t)
    return out


def kron_all(maps):
    """Kronecker product of square maps given as row lists (left factor major)."""
    out = [[1]]
    for m in maps:
        out = [[x * y for x in row_a for y in row_b] for row_a in out for row_b in m]
    return out


# -- closed words -------------------------------------------------------------


def closed_components(labels_by_slice) -> list[int]:
    """Euler characteristic of every component of a closed oriented word."""
    parent, chi = [], []

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def new():
        parent.append(len(parent))
        chi.append(1)
        return len(parent) - 1

    strands = []
    for labels in labels_by_slice:
        out, pos = [], 0
        for label in labels:
            if label == "cup":
                out.append(new())
            elif label == "cap":
                chi[find(strands[pos])] += 1
                pos += 1
            elif label == "mult":
                r, s = find(strands[pos]), find(strands[pos + 1])
                if r != s:
                    parent[s] = r
                    chi[r] += chi[s]
                chi[r] -= 1
                out.append(r)
                pos += 2
            elif label == "comult":
                r = find(strands[pos])
                chi[r] -= 1
                out += [r, r]
                pos += 1
            elif label == "swap":
                out += [strands[pos + 1], strands[pos]]
                pos += 2
            elif label == "id":
                out.append(strands[pos])
                pos += 1
            else:
                raise ValueError(f"closed-form route has no rule for {label!r}")
        strands = out
    if strands:
        raise ValueError("word is not closed")
    return [chi[r] for r in {find(c) for c in range(len(parent))}]


def closed_value(table: Table, labels_by_slice) -> Fraction:
    """Invariant of a closed word as the product of its components' closed forms."""
    value = Fraction(1)
    for chi in closed_components(labels_by_slice):
        value *= table.oriented((2 - chi) // 2)
    return value


# -- open words ---------------------------------------------------------------

_ARITY_IN = {"id": 1, "cup": 0, "cap": 1, "mult": 2, "comult": 1, "swap": 2}


def _images(table: Table, label: str, legs: tuple) -> list:
    n = range(table.dim)
    if label == "id":
        return [(legs, 1)]
    if label == "swap":
        return [((legs[1], legs[0]), 1)]
    if label == "cup":
        return [((k,), table.unit[k]) for k in n]
    if label == "cap":
        return [((), table.counit[legs[0]])]
    if label == "mult":
        return [((k,), table.mult[legs[0]][legs[1]][k]) for k in n]
    if label == "comult":
        return [((j, k), table.comult[legs[0]][j][k]) for j in n for k in n]
    raise ValueError(label)


def word_matrix(table: Table, labels_by_slice, source: int, target: int) -> list:
    """Rows of the word's matrix, n^target x n^source, by sparse leg-local steps."""
    n = table.dim
    cache = {}

    def images(label, legs):
        key = (label, legs)
        if key not in cache:
            cache[key] = [(out, v) for out, v in _images(table, label, legs) if v]
        return cache[key]

    columns = []
    for src in itertools.product(range(n), repeat=source):
        state = {src: Fraction(1)}
        for labels in labels_by_slice:
            new = {}
            for legs, coeff in state.items():
                partial = [((), coeff)]
                pos = 0
                for label in labels:
                    arity = _ARITY_IN[label]
                    here = images(label, legs[pos:pos + arity])
                    pos += arity
                    partial = [(o + out, c * v) for o, c in partial for out, v in here]
                for out, c in partial:
                    new[out] = new.get(out, 0) + c
            state = {k: v for k, v in new.items() if v}
        columns.append(state)
    rows = n ** target
    matrix = [[Fraction(0)] * len(columns) for _ in range(rows)]
    for col, state in enumerate(columns):
        for legs, v in state.items():
            matrix[sum(d * n ** (target - 1 - i) for i, d in enumerate(legs))][col] = v
    return matrix


def matmul(a: list, b: list) -> list:
    return [[sum(x * b[k][j] for k, x in enumerate(row) if x) for j in range(len(b[0]))]
            for row in a]


def naturality_holds(source_matrix: list, target_matrix: list, f: list,
                     source: int, target: int) -> bool:
    """f^(x)target . Z_target(W) == Z_source(W) . f^(x)source, f target-by-source."""
    return (matmul(kron_all([f] * target), source_matrix)
            == matmul(target_matrix, kron_all([f] * source)))


def format_scalar(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- structure matrices -------------------------------------------------------


def mult_cells(table: Table) -> list:
    """Row-major cells of the n x n^2 multiplication matrix (column i*n + j)."""
    n = table.dim
    return [table.mult[i][j][k] for k in range(n) for i in range(n) for j in range(n)]


def comult_cells(table: Table) -> list:
    """Row-major cells of the n^2 x n comultiplication matrix (row j*n + k)."""
    n = table.dim
    return [table.comult[i][j][k] for j in range(n) for k in range(n) for i in range(n)]


def same_structure(table: Table, mult, unit, counit, comult) -> bool:
    """Do the given row-major cell sequences hold exactly the table's constants?"""
    return (list(mult) == mult_cells(table) and list(unit) == list(table.unit)
            and list(counit) == list(table.counit) and list(comult) == comult_cells(table))


def factor_swap(n: int) -> list:
    """The permutation e_(i,j) -> e_(j,i) of a tensor square of dimension n^2."""
    return [[int(col == (row % n) * n + row // n) for col in range(n * n)]
            for row in range(n * n)]


def theta_hits(phi: list, bound: int) -> list[tuple]:
    """Integer points in [-bound, bound]^n that extend a product of K x K.

    Holds for a basis of orthogonal idempotents whose product is
    coordinatewise, with ``phi`` permuting that basis: the cross-cap
    condition asks theta_i^2 = 1 where phi fixes e_i and 0 elsewhere, and
    such a theta is fixed by phi.  Lexicographic order.
    """
    choices = [(-1, 1) if row[i] == 1 else (0,) for i, row in enumerate(phi)]
    return sorted(itertools.product(*choices)) if bound >= 1 else []
