"""Words in the generators of the 2d (un)oriented cobordism categories.

A word is a sequence of slices applied source-to-target; a slice is a
left-to-right disjoint union of generators acting on the circles at that
height.  Equality is syntactic: two words are equal only when they list
the same generators in the same positions.

Generators and their circle counts (in -> out): id 1->1, cup 0->1 (disc
as a birth), cap 1->0 (disc as a death), mult 2->1 and comult 1->2 (pairs
of pants), swap 2->2, phi 1->1 (orientation-reversing cylinder) and theta
0->1 (once-punctured projective plane, a cross-cap feeding one circle).
phi and theta only occur in unoriented words.

``plan_word`` checks a word and plans it in one walk over its slices:
``validate_word`` and every word function of ``tqft`` go through it.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path

from .linalg import MAX_CELLS, BudgetError, Record


class Generator(Enum):
    """Cobordism generators with fixed input/output circle counts.

    ``field`` names the algebra attribute holding the generator's matrix
    (None for id and swap, which every algebra of a dimension shares) and
    ``unoriented`` marks phi and theta, which need an extended algebra.
    """

    ID = ("id", 1, 1, None)
    CUP = ("cup", 0, 1, "unit")
    CAP = ("cap", 1, 0, "counit")
    MULT = ("mult", 2, 1, "mult")
    COMULT = ("comult", 1, 2, "comult")
    SWAP = ("swap", 2, 2, None)
    PHI = ("phi", 1, 1, "involution", True)
    THETA = ("theta", 0, 1, "point", True)

    def __init__(self, label, arity_in, arity_out, field, unoriented=False):
        self.label = label
        self.arity_in = arity_in
        self.arity_out = arity_out
        self.field = field
        self.unoriented = unoriented


GENERATORS_BY_LABEL = {g.label: g for g in Generator}


class WordError(ValueError):
    """An ill-formed cobordism word or word file."""


class CobordismWord(Record):
    __slots__ = ("orientation", "slices")

    def __init__(self, orientation: str, slices: tuple[tuple[Generator, ...], ...]) -> None:
        if orientation not in ("oriented", "unoriented"):
            raise WordError(
                f"orientation must be 'oriented' or 'unoriented', got {orientation!r}"
            )
        slices = tuple(tuple(s) for s in slices)
        for s in slices:
            for g in s:
                if not isinstance(g, Generator):
                    raise WordError(f"not a generator: {g!r}")
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "slices", slices)

    @property
    def source_arity(self) -> int:
        return sum(g.arity_in for g in self.slices[0]) if self.slices else 0

    @property
    def target_arity(self) -> int:
        return sum(g.arity_out for g in self.slices[-1]) if self.slices else 0

    def __repr__(self) -> str:
        body = "; ".join(",".join(g.label for g in s) for s in self.slices)
        return f"CobordismWord({self.orientation}: {body or 'empty'})"


def plan_word(word: CobordismWord) -> tuple[int, int, list]:
    """Check a word's slices and plan it in one walk, as ``(source, target, steps)``.

    Checks slice interfaces and the orientation constraint; slice indices
    in error messages are 1-based.  A step ``(generator, left, right)`` is
    a non-id generator with ``left`` strands before it (outputs of its slice
    so far) and ``right`` after it (inputs still to come).  The plan holds
    no algebra, so one plan serves every algebra.
    """
    oriented = word.orientation == "oriented"
    source = target = 0
    steps = []
    for index, slice_ in enumerate(word.slices, start=1):
        if not slice_:
            raise WordError(f"slice {index} is empty")
        arity_in = 0
        for g in slice_:
            if g.unoriented and oriented:
                raise WordError(
                    f"slice {index}: generator '{g.label}' requires an unoriented word"
                )
            arity_in += g.arity_in
        if index == 1:
            source = arity_in
        elif arity_in != target:
            raise WordError(
                f"slice {index}: expects {arity_in} input circle(s), "
                f"previous slice provides {target}"
            )
        left, right = 0, arity_in
        for g in slice_:
            right -= g.arity_in
            if g is not Generator.ID:
                steps.append((g, left, right))
            left += g.arity_out
        target = left
    return source, target, steps


def validate_word(word: CobordismWord) -> tuple[int, int]:
    """Check a word (see ``plan_word``) and return its (source, target) circle counts."""
    return plan_word(word)[:2]


def compose_words(first: CobordismWord, second: CobordismWord) -> CobordismWord:
    """Concatenate words; ``first`` runs before ``second``."""
    _, ends = validate_word(first)
    starts, _ = validate_word(second)
    if ends != starts:
        raise WordError(
            f"cannot compose: first word ends on {ends} circle(s), second starts on {starts}"
        )
    orientation = (
        "oriented"
        if first.orientation == second.orientation == "oriented"
        else "unoriented"
    )
    return CobordismWord(orientation, first.slices + second.slices)


def tensor_words(left: CobordismWord, right: CobordismWord) -> CobordismWord:
    """Place two words side by side (left factors first in every slice).

    The shorter word is padded with trailing identity slices on its target
    arity so both have the same height.
    """
    _, left_target = validate_word(left)
    _, right_target = validate_word(right)
    count = max(len(left.slices), len(right.slices))
    orientation = (
        "oriented"
        if left.orientation == right.orientation == "oriented"
        else "unoriented"
    )
    padded_left = _padded(left, left_target, count)
    padded_right = _padded(right, right_target, count)
    return CobordismWord(
        orientation, tuple(a + b for a, b in zip(padded_left, padded_right))
    )


def _padded(word: CobordismWord, target: int, count: int) -> tuple:
    pad = ((Generator.ID,) * target,) * (count - len(word.slices))
    return word.slices + pad


def identity_word(circles: int, orientation: str = "oriented") -> CobordismWord:
    """The identity on the given number of circles (no slices when zero)."""
    if circles < 0:
        raise ValueError(f"circle count must be >= 0, got {circles}")
    slices = ((Generator.ID,) * circles,) if circles else ()
    return CobordismWord(orientation, slices)


def _check_slice_count(count: int) -> None:
    """Refuse a surface word of more than MAX_CELLS slices before building it."""
    if count > MAX_CELLS:
        raise BudgetError(f"a closed surface word would have more than {MAX_CELLS} slices; "
                          "tqft.surface_invariant needs no word")


def closed_oriented_surface(genus: int) -> CobordismWord:
    """Closed oriented surface: a birth, then genus handles, then a death.

    Raises BudgetError, before building, past ``MAX_CELLS`` slices.
    """
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    _check_slice_count(2 * genus + 2)
    # each kind of slice is one tuple shared by all its repeats: a pointer per slice
    handles = ((Generator.COMULT,), (Generator.MULT,)) * genus
    return CobordismWord("oriented", ((Generator.CUP,), *handles, (Generator.CAP,)))


def closed_unoriented_surface(crosscaps: int, handles: int = 0) -> CobordismWord:
    """Closed unoriented surface with the given cross-cap and handle counts.

    Cross-caps attach left-to-right, each new theta feeding the left input
    of the merge.  Raises BudgetError past ``MAX_CELLS`` slices, as
    ``closed_oriented_surface`` does.
    """
    if crosscaps < 1:
        raise ValueError(
            "crosscaps must be >= 1; use closed_oriented_surface for orientable surfaces"
        )
    if handles < 0:
        raise ValueError(f"handles must be >= 0, got {handles}")
    _check_slice_count(2 * crosscaps + 2 * handles)
    caps = ((Generator.THETA, Generator.ID), (Generator.MULT,)) * (crosscaps - 1)
    tubes = ((Generator.COMULT,), (Generator.MULT,)) * handles
    return CobordismWord("unoriented", ((Generator.THETA,), *caps, *tubes, (Generator.CAP,)))


def serialize_word(word: CobordismWord) -> str:
    """Text form: an orientation line, then one comma-separated slice per line."""
    lines = [word.orientation]
    lines.extend(", ".join(g.label for g in s) for s in word.slices)
    return "\n".join(lines) + "\n"


def parse_word(text: str) -> CobordismWord:
    """Parse the text form; '#' starts a comment and blank lines are skipped.

    The parsed word is validated before being returned.
    """
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise WordError("word text needs an orientation line ('oriented' or 'unoriented')")
    orientation = lines[0]
    if orientation not in ("oriented", "unoriented"):
        raise WordError(f"first line must be 'oriented' or 'unoriented', got {orientation!r}")
    slices = []
    for number, line in enumerate(lines[1:], start=1):
        gens = []
        for token in line.split(","):
            token = token.strip()
            if token not in GENERATORS_BY_LABEL:
                raise WordError(f"slice {number}: unknown generator {token!r}")
            gens.append(GENERATORS_BY_LABEL[token])
        slices.append(tuple(gens))
    word = CobordismWord(orientation, tuple(slices))
    validate_word(word)
    return word


def load_word(path) -> CobordismWord:
    """Read and parse a UTF-8 word text file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise WordError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_word(text)
