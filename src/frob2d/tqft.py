"""Evaluation of cobordism words against (extended) Frobenius algebras.

A word on an algebra of dimension n becomes a matrix between tensor
powers of the underlying space.  Evaluation starts from the identity on
the n**source basis columns and applies each non-id generator to its own
strands only (``linalg.compose_layers`` with the state as the right
factor), so no identity-padded layer is built.  The state stays a dense
``Matrix`` between slices.
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
Naturality compares the sides of ``frobenius.naturality_square``.
"""

from __future__ import annotations

import random

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
    MAX_ENTRY_BITS,
    BudgetError,
    Matrix,
    Rational,
    braiding,
    compose,
    compose_layers,
    identity,
    interleaver,
    kron,
)
from .report import AxiomReport, compare


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


def evaluate(word: CobordismWord, algebra: AnyAlgebra) -> Matrix:
    """The matrix of a word; a word with no slices is the identity on 0 circles."""
    source, _ = validate_word(word)
    n = as_plain(algebra).dim
    state = identity(n**source)
    for slice_ in word.slices:
        # left spans the outputs placed so far, right the inputs still to come
        left, right = 1, n ** sum(g.arity_in for g in slice_)
        for generator in slice_:
            right //= n**generator.arity_in
            if generator is not Generator.ID:
                f = _generator_matrix(generator, algebra)
                state = compose_layers(f, (left, right), state, (1, 1))
            left *= n**generator.arity_out
    return state


def invariant(word: CobordismWord, algebra: AnyAlgebra) -> Rational:
    """Scalar value of a closed word (boundary 0 -> 0)."""
    source, target = validate_word(word)
    if (source, target) != (0, 0):
        raise WordError(
            f"invariants need a closed word, this one has boundary {source} -> {target}"
        )
    return evaluate(word, algebra)[0, 0]


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
    source, target = validate_word(word)
    src, tgt = evaluate(word, morphism.source), evaluate(word, morphism.target)
    sides = naturality_square(morphism.matrix, src, tgt, source, target)
    return AxiomReport((compare("naturality", *sides),))


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
        compare(g.label, *naturality_square(
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

    The two sides act on differently grouped tensor powers, so source and
    target are matched through the interleaver permutations.
    """
    source, target = validate_word(word)
    na, nb = as_plain(a).dim, as_plain(b).dim
    product = _tensor_algebras(a, b)
    lhs = compose(evaluate(word, product), interleaver(source, na, nb))
    rhs = compose(interleaver(target, na, nb), kron(evaluate(word, a), evaluate(word, b)))
    return AxiomReport((compare("monoidal_naturality", lhs, rhs),))


def check_multiplicativity(word: CobordismWord, a: AnyAlgebra, b: AnyAlgebra) -> AxiomReport:
    """Closed-word invariant of a tensor product vs product of invariants."""
    value = invariant(word, _tensor_algebras(a, b))
    split = invariant(word, a) * invariant(word, b)
    return AxiomReport(
        (compare("multiplicativity", Matrix(1, 1, [value]), Matrix(1, 1, [split])),)
    )


def random_word(
    rng: random.Random,
    *,
    max_slices: int = 6,
    max_strands: int = 4,
    unoriented: bool = False,
) -> CobordismWord:
    """One valid random word; deterministic given the rng state."""
    orientation = "unoriented" if unoriented else "oriented"
    slice_count = rng.randint(1, max_slices)
    arity = rng.randint(0, max_strands)
    slices = []
    for _ in range(slice_count):
        slice_ = _random_slice(rng, arity, max_strands, unoriented)
        slices.append(slice_)
        arity = sum(g.arity_out for g in slice_)
    word = CobordismWord(orientation, tuple(slices))
    validate_word(word)
    return word


def random_words(
    count: int,
    seed: int,
    *,
    max_slices: int = 6,
    max_strands: int = 4,
    unoriented: bool = False,
) -> list[CobordismWord]:
    """Deterministic batch of valid random words for property sweeps."""
    rng = random.Random(seed)
    return [
        random_word(rng, max_slices=max_slices, max_strands=max_strands, unoriented=unoriented)
        for _ in range(count)
    ]


def _random_slice(rng, arity_in, max_strands, unoriented):
    single = [Generator.ID, Generator.CAP, Generator.COMULT]
    births = [Generator.CUP]
    if unoriented:
        single.append(Generator.PHI)
        births.append(Generator.THETA)
    for _ in range(64):
        gens = []
        remaining = arity_in
        while remaining > 0:
            if rng.random() < 0.12:
                gens.append(rng.choice(births))
            pool = single + ([Generator.MULT, Generator.SWAP] if remaining >= 2 else [])
            g = rng.choice(pool)
            gens.append(g)
            remaining -= g.arity_in
        if not gens:
            gens.append(rng.choice(births))
        if sum(g.arity_out for g in gens) <= max_strands:
            return tuple(gens)
    # Rare fallback when every draw overshot the strand bound.
    return tuple([Generator.ID] * arity_in) if arity_in else (Generator.CUP,)
