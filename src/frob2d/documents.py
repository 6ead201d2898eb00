"""Algebra and morphism documents: JSON files with exact rationals.

An algebra document holds structure-constant tables::

    {
      "name": "D",
      "dim": 2,
      "basis": ["1", "x"],
      "mult":   [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
      "unit":   [1, 0],
      "counit": [0, 1],
      "comult": [[[0, 1], [1, 0]], [[0, 0], [0, 1]]],
      "extended": {"phi": [[1, 0], [0, -1]], "theta": [0, 0]}
    }

``mult[i][j][k]`` is the coefficient of ``e_k`` in ``e_i * e_j``,
``comult[i][j][k]`` the coefficient of ``e_j (x) e_k`` in the image of
``e_i``, and ``phi[i][j]`` the coefficient of ``e_j`` in the image of
``e_i``.  ``comult`` and ``extended`` are optional; a missing ``comult``
is derived from the pairing.  Scalars are integers, or strings "p" or
"p/q" with positive q written in ASCII digits; floats, decimals, exponents,
underscores and padded strings are rejected.

A morphism document is ``{"source": NAME, "target": NAME, "map": TABLE}``
where ``map`` is laid out target-by-source (``map[t][s]`` is the matrix
entry in row t, column s) and the names must match the algebra documents
the morphism is loaded against.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .frobenius import (
    AnyAlgebra,
    ExtendedFrobeniusAlgebra,
    FrobeniusAlgebra,
    FrobeniusMorphism,
    as_plain,
)
from .linalg import Matrix, as_rational


class DocumentError(ValueError):
    """A malformed document; the message names the offending field."""


def _scalar(value, where: str):
    if isinstance(value, bool):
        raise DocumentError(f"field '{where}': booleans are not rationals")
    if isinstance(value, float):
        raise DocumentError(f"field '{where}': floats are not exact, use integers or \"p/q\"")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return as_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"field '{where}': not a rational: {_shown(value)}") from exc
    raise DocumentError(
        f"field '{where}': expected an integer or \"p/q\" string, got {type(value).__name__}"
    )


def _shown(text: str) -> str:
    """A refused string for an error line: its repr up to 40 characters; past
    that, the repr of its longest start that prints in 42, and its length."""
    if len(text) <= 40:
        return repr(text)
    head = text[:40]
    while len(repr(head)) > 42:  # escapes such as \x00 take up to 10 characters each
        head = head[:-1]
    return f"{head!r}... ({len(text)} characters)"


def _field(data: dict, name: str):
    """data's entry under the last dotted part of name; errors name it in full."""
    key = name.rpartition(".")[2]
    if key not in data:
        raise DocumentError(f"missing field '{name}'")
    return data[key]


def _vector(data, name: str, n: int) -> list:
    value = _field(data, name)
    if not isinstance(value, list) or len(value) != n:
        raise DocumentError(f"field '{name}': expected a list of {n} rationals")
    return [_scalar(x, f"{name}[{i}]") for i, x in enumerate(value)]


def _table(value, name: str, rows: int, cols: int) -> list:
    if not isinstance(value, list) or len(value) != rows or any(
        not isinstance(r, list) or len(r) != cols for r in value
    ):
        raise DocumentError(f"field '{name}': expected a {rows}x{cols} table")
    return [
        [_scalar(x, f"{name}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(value)
    ]


def _cube(data: dict, name: str, n: int) -> list:
    value = _field(data, name)
    if not isinstance(value, list) or len(value) != n:
        raise DocumentError(f"field '{name}': expected a {n}x{n}x{n} table")
    return [_table(plane, f"{name}[{i}]", n, n) for i, plane in enumerate(value)]


def parse_algebra(data) -> AnyAlgebra:
    """Build an algebra from a decoded JSON object."""
    if not isinstance(data, dict):
        raise DocumentError("algebra document must be a JSON object")
    name = _field(data, "name")
    if not isinstance(name, str):
        raise DocumentError("field 'name': expected a string")
    dim = _field(data, "dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DocumentError("field 'dim': expected a positive integer")
    basis = _field(data, "basis")
    if (
        not isinstance(basis, list)
        or len(basis) != dim
        or any(not isinstance(x, str) for x in basis)
    ):
        raise DocumentError(f"field 'basis': expected {dim} string labels")
    if len(set(basis)) != dim:
        raise DocumentError("field 'basis': duplicate labels")
    mult = _cube(data, "mult", dim)
    unit = _vector(data, "unit", dim)
    counit = _vector(data, "counit", dim)
    comult = _cube(data, "comult", dim) if "comult" in data else None
    algebra = FrobeniusAlgebra.from_tables(name, basis, mult, unit, counit, comult)
    if "extended" not in data:
        return algebra
    block = data["extended"]
    if not isinstance(block, dict):
        raise DocumentError("field 'extended': expected an object with 'phi' and 'theta'")
    phi_table = _table(_field(block, "extended.phi"), "extended.phi", dim, dim)
    theta = _vector(block, "extended.theta", dim)
    # phi[i][j] is input-major; the matrix wants row = output component.
    phi_cells = [phi_table[i][j] for j in range(dim) for i in range(dim)]
    return ExtendedFrobeniusAlgebra(
        algebra, Matrix(dim, dim, phi_cells), Matrix(dim, 1, theta)
    )


def _read_json(path):
    """Decode a UTF-8 JSON file; any malformed content raises DocumentError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError covers bad UTF-8, bad JSON and integer literals past the
    # int-conversion digit limit; RecursionError, nesting too deep to decode.
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path}: not valid JSON: {exc}") from exc


def load_algebra(path) -> AnyAlgebra:
    """Read an algebra document from a JSON file."""
    return parse_algebra(_read_json(path))


def _encode(x):
    if isinstance(x, int):
        return x
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def algebra_document(algebra: AnyAlgebra) -> dict:
    """The JSON-ready document of an algebra, comultiplication included."""
    base = as_plain(algebra)
    n = base.dim
    doc = {
        "name": base.name,
        "dim": n,
        "basis": list(base.basis),
        "mult": [
            [[_encode(base.mult[k, i * n + j]) for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
        "unit": [_encode(base.unit[i, 0]) for i in range(n)],
        "counit": [_encode(base.counit[0, i]) for i in range(n)],
        "comult": [
            [[_encode(base.comult[j * n + k, i]) for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
    }
    if isinstance(algebra, ExtendedFrobeniusAlgebra):
        doc["extended"] = {
            "phi": [[_encode(algebra.involution[j, i]) for j in range(n)] for i in range(n)],
            "theta": [_encode(algebra.point[i, 0]) for i in range(n)],
        }
    return doc


def save_algebra(algebra: AnyAlgebra, path) -> None:
    """Write an algebra document; output is deterministic."""
    Path(path).write_text(json.dumps(algebra_document(algebra), indent=2) + "\n")


def parse_morphism(data, source: AnyAlgebra, target: AnyAlgebra) -> FrobeniusMorphism:
    """Build a morphism from a decoded JSON object against loaded algebras."""
    if not isinstance(data, dict):
        raise DocumentError("morphism document must be a JSON object")
    ends = {"source": source, "target": target}
    names = {end: _field(data, end) for end in ends}  # both present before either is matched
    for end, algebra in ends.items():
        if names[end] != as_plain(algebra).name:
            raise DocumentError(
                f"field '{end}': document names {names[end]!r} "
                f"but the loaded {end} algebra is {as_plain(algebra).name!r}"
            )
    rows, cols = as_plain(target).dim, as_plain(source).dim
    table = _table(_field(data, "map"), "map", rows, cols)
    return FrobeniusMorphism(
        source, target, Matrix(rows, cols, [x for row in table for x in row])
    )


def load_morphism(path, source: AnyAlgebra, target: AnyAlgebra) -> FrobeniusMorphism:
    """Read a morphism document from a JSON file."""
    return parse_morphism(_read_json(path), source, target)
