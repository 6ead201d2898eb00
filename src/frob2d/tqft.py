"""Evaluation of cobordism words against (extended) Frobenius algebras.

A word on an algebra of dimension n becomes a matrix between tensor
powers of the underlying space.  Each public word function checks and
plans its word once, with ``cobordism.plan_word``: one step ``(generator,
left, right)`` per non-id generator, with no algebra in it, so the
naturality, monoidal and multiplicativity checks run one plan on each of
their algebras.  ``_run`` hands ``linalg.apply_steps`` the identity on the
n**source basis columns and the steps as ``(matrix, n**left, n**right)``,
each matrix looked up at its step, so no padded layer is built and every
matrix holds only its nonzeros; the checks compare them with
``report.compare_nonzeros``.  An answer of more than ``MAX_CELLS`` cells
is refused before the run starts, a step by ``apply_steps``'s budget rule.
``check_monoidal_naturality`` regroups the nonzeros of its two sides by
flat index, with no permutation matrix or Kronecker product.  Closed
words evaluate to 1x1 matrices whose single entry is the surface
invariant.

``surface_invariant`` computes the invariant of a closed surface without
building its word.  ``closed_oriented_surface(g)`` is literally
``counit . (mult . comult)^g . unit`` and ``closed_unoriented_surface(k, g)``
is ``counit . (mult . comult)^g . L^(k-1) . theta`` with
``L = mult . (theta (x) id)``, so it takes those n x n powers by repeated
squaring.  Matrix products are exact and associative, so the value equals
``invariant`` of the word for every algebra, whether or not it passes its
axioms.  The squarings are bounded by ``linalg.MAX_ENTRY_BITS``.
``check_naturality`` passes both runs' answers to ``frobenius.naturality_square``.
"""

from __future__ import annotations

from .cobordism import CobordismWord, Generator, WordError, plan_word
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
    MAX_ENTRY_BITS,
    BudgetError,
    Matrix,
    Rational,
    _cells,
    apply_steps,
    braiding,
    compose,
    identity,
    layer_product,
)
from .report import AxiomReport, compare_nonzeros


class ExtendedRequiredError(ValueError):
    """phi or theta was evaluated against a plain Frobenius algebra."""


def _generator_matrix(generator: Generator, algebra: AnyAlgebra) -> Matrix:
    base = as_plain(algebra)
    if generator.field is None:
        return identity(base.dim) if generator is Generator.ID else braiding(base.dim, base.dim)
    if generator.unoriented and not isinstance(algebra, ExtendedFrobeniusAlgebra):
        raise ExtendedRequiredError(
            f"generator '{generator.label}' needs an extended Frobenius algebra, "
            f"but {base.name!r} has no extended structure"
        )
    return getattr(algebra if generator.unoriented else base, generator.field)


def _compile(word: CobordismWord, closed: bool = False) -> tuple:
    """``plan_word``'s plan; ``closed`` refuses a boundary other than 0 -> 0 (WordError)."""
    plan = plan_word(word)
    if closed and plan[:2] != (0, 0):
        raise WordError(
            f"invariants need a closed word, this one has boundary {plan[0]} -> {plan[1]}"
        )
    return plan


def _run(plan: tuple, algebra: AnyAlgebra) -> Matrix:
    """The matrix of a planned word.

    Refuses an answer over ``MAX_CELLS`` cells first, which bounds the start
    (the identity's n**source nonzeros); ``apply_steps`` refuses a step.
    Each generator's matrix is looked up at its step, so errors come in
    step order.
    """
    source, target, steps = plan
    n = as_plain(algebra).dim
    size = n**source
    _cells(n**target, size)
    start = Matrix._raw(size, size, {k * (size + 1): 1 for k in range(size)})
    return apply_steps(start, (
        (_generator_matrix(g, algebra), n**left, n**right) for g, left, right in steps
    ))


def evaluate(word: CobordismWord, algebra: AnyAlgebra) -> Matrix:
    """The matrix of a word; a word with no slices is the identity on 0 circles.

    Raises BudgetError, before any product is built, when the answer has more
    than ``MAX_CELLS`` cells.
    """
    return _run(_compile(word), algebra)


def invariant(word: CobordismWord, algebra: AnyAlgebra) -> Rational:
    """Scalar value of a closed word (boundary 0 -> 0)."""
    return _run(_compile(word, closed=True), algebra)[0, 0]


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
        times_theta = layer_product(base.mult, (1, 1), theta, (1, base.dim))  # L
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
            bits = max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                        for x in m.nonzeros.values()), default=0)
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
        if extended or not g.unoriented
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
    Raises BudgetError, before any product or index table is built, when the
    evaluation against the tensor product has more than ``MAX_CELLS`` cells,
    as ``evaluate`` does.
    """
    source, target, _ = plan = _compile(word)
    na, nb = as_plain(a).dim, as_plain(b).dim
    # bounds both sides, both index tables and the split list
    _cells((na * nb) ** target, (na * nb) ** source)
    product, on_a, on_b = (_run(plan, x) for x in (_tensor_algebras(a, b), a, b))
    rows, cols, a_cols, b_cols = product.rows, product.cols, on_a.cols, on_b.cols
    # column c of the product's grouping is column split[c] of the split one
    split = [0] * cols
    col_a, col_b = _paired(source, na, nb)
    for i, x in enumerate(col_a):
        for j, y in enumerate(col_b):
            split[x + y] = i * b_cols + j
    lhs = {k - k % cols + split[k % cols]: x for k, x in product.nonzeros.items()}
    # the Kronecker side has at most (na * nb)**(target + source) nonzeros
    row_a, row_b = _paired(target, na, nb)
    on_a = [(row_a[k // a_cols] * cols + k % a_cols * b_cols, x)
            for k, x in on_a.nonzeros.items()]
    on_b = [(row_b[k // b_cols] * cols + k % b_cols, y) for k, y in on_b.nonzeros.items()]
    rhs = {i + j: x * y for i, x in on_a for j, y in on_b}
    return AxiomReport((compare_nonzeros(
        "monoidal_naturality", Matrix._raw(rows, cols, lhs), Matrix._raw(rows, cols, rhs)
    ),))


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
    plan = _compile(word, closed=True)
    product = _tensor_algebras(a, b)
    value, on_a, on_b = (_run(plan, x).nonzeros.get(0, 0) for x in (product, a, b))
    return AxiomReport((
        compare_nonzeros("multiplicativity", Matrix(1, 1, [value]), Matrix(1, 1, [on_a * on_b])),
    ))

