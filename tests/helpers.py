"""Test helpers that use the package: seeded random words and the dense reference comparer."""

import random

from frob2d.cobordism import CobordismWord, Generator, validate_word
from frob2d.linalg import ShapeError
from frob2d.report import CheckResult, Witness

import oracles


def compare(name, lhs, rhs):
    """One named check on two dense matrices, by ``oracles.first_difference``.

    The reference for ``report.compare_nonzeros``: the same result, witness
    included, for the dense forms of its two sides.
    """
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        raise ShapeError(
            f"check {name!r} compares {lhs.rows}x{lhs.cols} with {rhs.rows}x{rhs.cols}"
        )
    differ = oracles.first_difference(*(
        [list(m.row(i)) for i in range(m.rows)] for m in (lhs, rhs)
    ))
    return CheckResult(name, differ is None, differ and Witness(*differ))


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
