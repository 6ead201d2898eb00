"""Evaluation of cobordism words against (extended) Frobenius algebras.

A word on an algebra of dimension n becomes a matrix between tensor
powers of the underlying space.  Each public word function validates its
word once and plans it (``_compile``): one step ``(generator, left,
right)`` per non-id generator, with no algebra in it, so the naturality,
monoidal and multiplicativity checks run one plan on each of their
algebras.  ``_run`` carries a state of nonzeros, ``(rows, cols, {flat
index: entry})``, from the nonzeros of the identity on the n**source basis
columns through the steps in one loop; each step applies its generator to
its own strands with ``linalg._strand_product``, the kernel that
``layer_product`` also runs, so no padded layer and no dense state is
built.  Only ``evaluate`` lays out a dense ``Matrix``, once, at the end;
the checks compare states with ``report.compare_nonzeros``.  An answer
of more than ``MAX_CELLS`` cells is refused before the run starts; a
step only when its nonzero bound and its dense shape both pass the
budget.  ``check_monoidal_naturality`` regroups the nonzeros of its two
sides by flat index, with no permutation matrix or Kronecker product.
Closed words evaluate to 1x1 matrices whose single entry is the surface
invariant.

``surface_invariant`` computes the invariant of a closed surface without
building its word.  ``closed_oriented_surface(g)`` is literally
``counit . (mult . comult)^g . unit`` and ``closed_unoriented_surface(k, g)``
is ``counit . (mult . comult)^g . L^(k-1) . theta`` with
``L = mult . (theta (x) id)``, so it takes those n x n powers by repeated
squaring.  Matrix products are exact and associative, so the value equals
``invariant`` of the word for every algebra, whether or not it passes its
axioms.  The squarings are bounded by ``linalg.MAX_ENTRY_BITS``.
``check_naturality`` passes both runs' states to ``frobenius.naturality_square``.
"""

from __future__ import annotations

from fractions import Fraction

from .cobordism import (
    UNORIENTED_ONLY,
    CobordismWord,
    Generator,
    WordError,
    validate_word,
)
from .frobenius import (
    AnyAlgebra,
    ExtendedFrobeniusAlgebra,
    FrobeniusMorphism,
    as_plain,
    naturality_square,
    tensor,
    tensor_extended,
)
from .linalg import (
    MAX_CELLS,
    MAX_ENTRY_BITS,
    BudgetError,
    Matrix,
    Rational,
    _cells,
    _strided_columns,
    _strand_product,
    as_rational,
    braiding,
    compose,
    compose_layers,
    dense,
    identity,
)
from .report import AxiomReport, compare_nonzeros


class ExtendedRequiredError(ValueError):
    """phi or theta was evaluated against a plain Frobenius algebra."""


# phi and theta live on the extended algebra, the others on its base
_STRUCTURE = {
    Generator.CUP: "unit",
    Generator.CAP: "counit",
    Generator.MULT: "mult",
    Generator.COMULT: "comult",
    Generator.PHI: "involution",
    Generator.THETA: "point",
}


def _generator_matrix(generator: Generator, algebra: AnyAlgebra) -> Matrix:
    base = as_plain(algebra)
    if generator is Generator.ID:
        return identity(base.dim)
    if generator is Generator.SWAP:
        return braiding(base.dim, base.dim)
    if generator not in UNORIENTED_ONLY:
        return getattr(base, _STRUCTURE[generator])
    if not isinstance(algebra, ExtendedFrobeniusAlgebra):
        raise ExtendedRequiredError(
            f"generator '{generator.label}' needs an extended Frobenius algebra, "
            f"but {base.name!r} has no extended structure"
        )
    return getattr(algebra, _STRUCTURE[generator])


def _compile(word: CobordismWord, closed: bool = False) -> tuple:
    """Validate a word once and plan it as ``(source, target, steps)``.

    A step ``(generator, left, right)`` is a non-id generator with ``left``
    strands before it (outputs of its slice so far) and ``right`` after it
    (inputs still to come).  One plan serves every algebra.  ``closed``
    refuses a word whose boundary is not 0 -> 0 (WordError).
    """
    source, target = validate_word(word)
    if closed and (source, target) != (0, 0):
        raise WordError(
            f"invariants need a closed word, this one has boundary {source} -> {target}"
        )
    steps = []
    for slice_ in word.slices:
        left, right = 0, sum(g.arity_in for g in slice_)
        for generator in slice_:
            right -= generator.arity_in
            if generator is not Generator.ID:
                steps.append((generator, left, right))
            left += generator.arity_out
    return source, target, steps


def _run(plan: tuple, algebra: AnyAlgebra) -> tuple:
    """The nonzeros of a planned word's matrix, as ``(rows, cols, {flat index: entry})``.

    Refuses an answer over ``MAX_CELLS`` cells first, which bounds the start
    state (the identity's n**source nonzeros), and a step only through
    ``_check_step``.  A generator's matrix is looked up at its first step,
    so errors come in step order, and kept with its column table scaled to
    each stride.  An integral ``Fraction`` in the answer is stored as an int.
    """
    source, target, steps = plan
    n = as_plain(algebra).dim
    size = n**source
    _cells(n**target, size)
    state = {k * (size + 1): 1 for k in range(size)}
    matrices, tables = {}, {}
    for generator, left, right in steps:
        stride = n**right * size
        f = matrices.get(generator)
        if f is None:
            f = matrices[generator] = _generator_matrix(generator, algebra)
        block = f.rows * stride
        if n**left * block > MAX_CELLS:
            _check_step(f, len(state), n**left * f.rows * n**right, size)
        table = tables.get((generator, stride))
        if table is None:
            table = tables[generator, stride] = _strided_columns(f, stride)
        state = _strand_product(table, f.cols, stride, block, state.items())
    if Fraction in set(map(type, state.values())):
        state = dict(zip(state, map(as_rational, state.values())))
    return n**target, size, state


def evaluate(word: CobordismWord, algebra: AnyAlgebra) -> Matrix:
    """The matrix of a word; a word with no slices is the identity on 0 circles.

    Raises BudgetError, before any state is built, when the answer has more
    than ``MAX_CELLS`` cells.
    """
    return dense(_run(_compile(word), algebra))


def _check_step(f: Matrix, nonzeros: int, rows: int, cols: int) -> None:
    """Refuse a step whose dense shape and nonzero bound both pass ``MAX_CELLS``.

    The step applies f to a state of ``nonzeros`` entries and has a
    ``rows x cols`` answer; its bound is ``nonzeros`` times the most
    nonzeros in one column of f, read from f's column table only for a
    shape over the budget.
    """
    if rows * cols > MAX_CELLS:
        fullest = max(map(len, f._column_table()), default=0)
        if nonzeros * fullest > MAX_CELLS:
            _cells(rows, cols)


def invariant(word: CobordismWord, algebra: AnyAlgebra) -> Rational:
    """Scalar value of a closed word (boundary 0 -> 0)."""
    return _run(_compile(word, closed=True), algebra)[2].get(0, 0)


def surface_invariant(algebra: AnyAlgebra, genus: int, crosscaps: int = 0) -> Rational:
    """The invariant of the closed surface with ``genus`` handles and ``crosscaps`` cross-caps.

    Equals ``invariant(closed_oriented_surface(genus), algebra)`` when
    ``crosscaps`` is 0 and ``invariant(closed_unoriented_surface(crosscaps,
    genus), algebra)`` otherwise, for every algebra.  Cross-caps need an
    extended algebra (ExtendedRequiredError).  Raises BudgetError when a
    squaring would build entries of more than ``MAX_ENTRY_BITS`` bits.
    """
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    if crosscaps < 0:
        raise ValueError(f"crosscaps must be >= 0, got {crosscaps}")
    base = as_plain(algebra)
    state = base.unit
    if crosscaps:
        theta = _generator_matrix(Generator.THETA, algebra)
        times_theta = compose_layers(base.mult, (1, 1), theta, (1, base.dim))  # L
        state = _power(times_theta, crosscaps - 1, theta)
    state = _power(compose(base.mult, base.comult), genus, state)
    return compose(base.counit, state)[0, 0]


def _power(m: Matrix, exponent: int, state: Matrix) -> Matrix:
    """``m^exponent . state`` for a square ``m``, squaring ``m`` once per exponent bit."""
    while exponent:
        if exponent & 1:
            state = compose(m, state)
        exponent >>= 1
        if exponent:
            bits = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                       for x in m.entries)
            if 2 * bits > MAX_ENTRY_BITS:
                raise BudgetError(
                    f"squaring a {m.rows}x{m.cols} matrix with {bits}-bit entries "
                    f"would pass the entry budget of {MAX_ENTRY_BITS} bits"
                )
            m = compose(m, m)
    return state


def check_naturality(morphism: FrobeniusMorphism, word: CobordismWord) -> AxiomReport:
    """Exact naturality square of a linear map against one word (see ``naturality_square``)."""
    plan = _compile(word)
    src, tgt = _run(plan, morphism.source), _run(plan, morphism.target)
    sides = naturality_square(morphism.matrix, src, tgt, *plan[:2])
    return AxiomReport((compare_nonzeros("naturality", *sides),))


def naturality_dictionary(morphism: FrobeniusMorphism) -> AxiomReport:
    """The naturality square against each generator's matrix on both ends, one named check each.

    The checks match the morphism diagrams one-for-one: cup with the unit
    diagram, cap with the counit, mult and comult with theirs, and
    phi/theta (present only when both ends are extended) with involution
    and point compatibility.  id and swap hold for every linear map.
    """
    f, a, b = morphism.matrix, morphism.source, morphism.target
    extended = isinstance(a, ExtendedFrobeniusAlgebra) and isinstance(b, ExtendedFrobeniusAlgebra)
    return AxiomReport(tuple(
        compare_nonzeros(g.label, *naturality_square(
            f, _generator_matrix(g, a), _generator_matrix(g, b), g.arity_in, g.arity_out
        ))
        for g in Generator
        if extended or g not in UNORIENTED_ONLY
    ))


def _tensor_algebras(a: AnyAlgebra, b: AnyAlgebra) -> AnyAlgebra:
    if isinstance(a, ExtendedFrobeniusAlgebra) and isinstance(b, ExtendedFrobeniusAlgebra):
        return tensor_extended(a, b)
    return tensor(as_plain(a), as_plain(b))


def check_monoidal_naturality(word: CobordismWord, a: AnyAlgebra, b: AnyAlgebra) -> AxiomReport:
    """Evaluation against a tensor product vs Kronecker of evaluations.

    The two sides act on differently grouped tensor powers.  Both are laid
    out as ``interleaver`` would match them: rows as ``(A (x) B)^(x)target``
    and columns as ``A^(x)source (x) B^(x)source``, by moving the flat
    indices of their nonzeros, and compared by ``compare_nonzeros``.
    Raises BudgetError, before any state or index table is built, when the
    evaluation against the tensor product has more than ``MAX_CELLS`` cells,
    as ``evaluate`` does.
    """
    source, target, _ = plan = _compile(word)
    na, nb = as_plain(a).dim, as_plain(b).dim
    # bounds both sides, both index tables and the split list
    _cells((na * nb) ** target, (na * nb) ** source)
    rows, cols, product = _run(plan, _tensor_algebras(a, b))
    _, a_cols, on_a = _run(plan, a)
    _, b_cols, on_b = _run(plan, b)
    # column c of the product's grouping is column split[c] of the split one
    split = [0] * cols
    col_a, col_b = _paired(source, na, nb)
    for i, x in enumerate(col_a):
        for j, y in enumerate(col_b):
            split[x + y] = i * b_cols + j
    lhs = {k - k % cols + split[k % cols]: x for k, x in product.items()}
    # the Kronecker side has at most (na * nb)**(target + source) nonzeros
    row_a, row_b = _paired(target, na, nb)
    on_a = [(row_a[k // a_cols] * cols + k % a_cols * b_cols, x) for k, x in on_a.items()]
    on_b = [(row_b[k // b_cols] * cols + k % b_cols, y) for k, y in on_b.items()]
    rhs = {i + j: x * y for i, x in on_a for j, y in on_b}
    return AxiomReport((
        compare_nonzeros("monoidal_naturality", (rows, cols, lhs), (rows, cols, rhs)),
    ))


def _paired(strands: int, na: int, nb: int) -> tuple:
    """Where the flat indices of A^(x)strands and B^(x)strands land in (A (x) B)^(x)strands.

    The pair (i, j) lands at ``on_a[i] + on_b[j]``: the digit pairs, read
    base na * nb, in the order ``interleaver`` gives them.
    """
    ab = na * nb
    on_a, on_b = [0], [0]
    for _ in range(strands):
        on_a = [x * ab + d * nb for x in on_a for d in range(na)]
        on_b = [x * ab + d for x in on_b for d in range(nb)]
    return on_a, on_b


def check_multiplicativity(word: CobordismWord, a: AnyAlgebra, b: AnyAlgebra) -> AxiomReport:
    """Closed-word invariant of a tensor product vs product of invariants."""
    product = _tensor_algebras(a, b)
    plan = _compile(word, closed=True)
    value, on_a, on_b = (_run(plan, x)[2].get(0, 0) for x in (product, a, b))
    split = on_a * on_b
    return AxiomReport(
        (compare_nonzeros("multiplicativity", (1, 1, {0: value}), (1, 1, {0: split})),)
    )

