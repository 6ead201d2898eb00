"""Named exact identities between matrices, compared by their nonzeros, and reports."""

from __future__ import annotations

from typing import Optional

from .linalg import Matrix, Rational, Record, ShapeError, as_rational

_set = object.__setattr__  # sets a Record's field once, in its __init__


class Witness(Record):
    """First differing entry, in row-major order, of a failed identity."""

    __slots__ = ("row", "col", "lhs", "rhs")

    def __init__(self, row: int, col: int, lhs: Rational, rhs: Rational) -> None:
        _set(self, "row", row)
        _set(self, "col", col)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


class CheckResult(Record):
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: Optional[Witness] = None) -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "witness", witness)

    def line(self) -> str:
        if self.passed:
            return f"{self.name}: pass"
        if self.witness is None:
            return f"{self.name}: fail"
        w = self.witness
        return f"{self.name}: fail at ({w.row},{w.col}): {w.lhs} != {w.rhs}"


class AxiomReport(Record):
    """An ordered list of named checks; passes only if every check does."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple[CheckResult, ...]) -> None:
        _set(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self) -> bool:
        return self.passed

    def __iter__(self):
        return iter(self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def compare_nonzeros(name: str, lhs: Matrix, rhs: Matrix) -> CheckResult:
    """One named check: exact equality of two matrices of the same shape (else ShapeError).

    Only the nonzeros are read.  A failed check's witness is the first
    differing entry in row-major order, as ``entries`` holds it (an
    integral ``Fraction`` as an int).
    """
    rows, cols, left, right = lhs.rows, lhs.cols, lhs.nonzeros, rhs.nonzeros
    if (rows, cols) != (rhs.rows, rhs.cols):
        raise ShapeError(f"check {name!r} compares {rows}x{cols} with {rhs.rows}x{rhs.cols}")
    differ = [k for k in left.keys() | right.keys() if left.get(k, 0) != right.get(k, 0)]
    if not differ:
        return CheckResult(name, True)
    index = min(differ)
    lhs_entry, rhs_entry = as_rational(left.get(index, 0)), as_rational(right.get(index, 0))
    return CheckResult(name, False, Witness(index // cols, index % cols, lhs_entry, rhs_entry))
