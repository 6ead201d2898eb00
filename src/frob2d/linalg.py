"""Exact linear algebra over the rationals: dense matrices and sparse products.

Scalars are Python ints or ``fractions.Fraction`` values and every
operation is exact.  Conventions fixed here and relied on by the whole
package:

* ``compose(f, g)`` is the matrix product ``f . g``; ``g`` acts first on
  column vectors.
* Kronecker products are row-major with the left factor major::

      kron(f, g)[i1 * g.rows + i2, j1 * g.cols + j2] = f[i1, j1] * g[i2, j2]

  so the basis vector ``e_i (x) e_j`` of a tensor-product space sits at
  flat index ``i * dim_right + j``.
* A *state* is a matrix given by its nonzeros, ``(rows, cols, {flat
  index: entry})``.  ``layer_product(f, f_pad, g, g_pad)`` multiplies two
  padded layers ``kron(identity(l), f, identity(r))`` from the nonzeros
  of ``f`` and ``g`` alone and returns the product as a state, so no
  padded layer is built and a sparse product is never laid out densely.
  Its right factor ``g`` may be a ``Matrix`` or a state.  Every product in
  the package runs one kernel, ``_strand_product`` (``f`` on the middle
  strands of ``g``, once per cell of g's pad): ``layer_product``, each
  step of a ``tqft`` word, ``compose`` (two unpadded layers) and ``kron``
  (``(I (x) g) . (f (x) I)``).  ``compose_layers`` is the product as a
  ``Matrix``, laid out by ``dense``, the one place where a state becomes a
  ``Matrix`` and an integral ``Fraction`` is stored as an int.
  ``Matrix.nonzeros()`` lists (and remembers) a matrix's nonzero entries
  for the kernel.  The left factor ``f`` is also read through a second
  memo, its column table (the ``(row, entry)`` pairs of each column),
  built once per matrix; a right factor is read as it comes and, when read
  only once, keeps no memo of either kind.  Memos are left out of ``==``,
  ``hash``, repr, copies and pickles.
* No function here allocates a matrix of more than ``MAX_CELLS`` cells:
  a larger result raises ``BudgetError`` (a ``ShapeError``) first.
  A state may stand for a matrix far larger than the budget:
  ``layer_product`` builds only nonzeros and leaves their count to its
  callers (``tqft.evaluate`` bounds its steps).
  ``MAX_ENTRY_BITS`` bounds the entries that repeated squaring may build
  (``tqft.surface_invariant``) the same way.
* ``Record`` is the immutable base of the package's value types (reports,
  words, algebras, morphisms): field-wise ``==``, ``hash`` and repr, no
  assignment, and ``replace(**changes)``.
* ``braiding(a, b)`` swaps tensor factors and ``interleaver(n, a, b)``
  regroups ``A^(x)n (x) B^(x)n`` as ``(A (x) B)^(x)n``; both are
  permutation matrices.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Rational = Union[int, Fraction]


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class BudgetError(ShapeError):
    """A result would have more than MAX_CELLS cells."""


# 64 MiB of cell pointers per matrix: twice the largest state the tests build
# (4096 x 1024), well below what exhausts a small machine.
MAX_CELLS = 2**23


def _cells(rows: int, cols: int) -> int:
    """The cell count of a rows x cols result, refused above MAX_CELLS."""
    if rows * cols > MAX_CELLS:
        raise BudgetError(
            f"a {rows}x{cols} matrix has {rows * cols} cells, "
            f"over the budget of {MAX_CELLS}"
        )
    return rows * cols


# Entries of at most about a million bits print in about two seconds; a
# squaring may double its entries' bit length, and the answer it leads to
# is at most twice the largest square.
MAX_ENTRY_BITS = 2**19


class SingularMatrixError(ValueError):
    """A square matrix with no inverse."""


# An integer or "p/q" with q > 0, in ASCII digits: no decimal point, exponent,
# underscore or surrounding space (an exponent would expand to its full integer).
_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_rational(value) -> Rational:
    """Coerce ints, Fractions and integer or "p/q" strings to an exact rational.

    Integral values come back as plain ints.  Floats are rejected: binary
    floating point would silently break exactness.  A string of another
    form, or past the int-conversion digit limit, raises ValueError; q = 0
    raises ZeroDivisionError.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        if match is None:
            raise ValueError(f"not an integer or \"p/q\" string: {value!r}")
        p, q = match.groups()
        return as_rational(Fraction(int(p), int(q or 1)))
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


class Record:
    """Base of immutable values with named fields.

    A subclass lists its fields in ``__slots__`` (after those of its bases)
    and sets each once in its ``__init__`` with ``object.__setattr__``, after
    its own checks.  Values of the same class compare and hash
    field by field, print as ``Name(field=value, ...)`` and refuse
    assignment; ``replace(**changes)`` builds a new value through
    ``__init__``, so the checks run again.
    """

    __slots__ = ()
    _names: tuple = ()  # the field names, set per subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._names = cls._names + tuple(cls.__dict__.get("__slots__", ()))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def replace(self, **changes) -> "Record":
        """A copy with the given fields changed, checked like a new value."""
        fields = dict(zip(self._names, self._fields()))
        fields.update(changes)
        return type(self)(**fields)


class Matrix:
    """Immutable dense matrix of exact rationals, stored row-major."""

    # _nonzeros and _columns are memos, filled on first use and left out
    # of ==, hash, repr, copies and pickles
    __slots__ = ("rows", "cols", "entries", "_nonzeros", "_columns")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        cells = tuple(as_rational(x) for x in entries)
        if len(cells) != rows * cols:
            raise ShapeError(
                f"a {rows}x{cols} matrix needs {rows * cols} entries, got {len(cells)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = cells
        self._nonzeros = None
        self._columns = None

    @classmethod
    def _raw(cls, rows: int, cols: int, entries: tuple) -> "Matrix":
        # Internal fast path: entries are already canonical rationals.
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._nonzeros = None
        m._columns = None
        return m

    def __getitem__(self, index: tuple) -> Rational:
        i, j = index
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def nonzeros(self) -> tuple:
        """The ``(flat index, entry)`` pairs of the nonzero entries, in row-major order."""
        if self._nonzeros is None:
            self._nonzeros = tuple((k, x) for k, x in enumerate(self.entries) if x)
        return self._nonzeros

    def _column_table(self) -> tuple:
        """Per column, the ``(row, entry)`` pairs of its nonzero entries, top to bottom."""
        if self._columns is None:
            table = [[] for _ in range(self.cols)]
            for k, x in self.nonzeros():
                table[k % self.cols].append((k // self.cols, x))
            self._columns = tuple(map(tuple, table))
        return self._columns

    def __reduce__(self):
        return type(self), (self.rows, self.cols, self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            body = ", ".join(
                "[" + ", ".join(str(x) for x in self.row(i)) + "]"
                for i in range(self.rows)
            )
            return f"Matrix({self.rows}x{self.cols} [{body}])"
        return f"Matrix({self.rows}x{self.cols})"


@lru_cache(maxsize=16)
def identity(n: int) -> Matrix:
    """The n x n identity matrix."""
    if n < 0:
        raise ShapeError(f"identity needs n >= 0, got {n}")
    cells = [0] * _cells(n, n)
    for i in range(n):
        cells[i * n + i] = 1
    return Matrix._raw(n, n, tuple(cells))


def compose(f: Matrix, g: Matrix, *rest: Matrix) -> Matrix:
    """Matrix product ``f . g`` (g acts first); extra factors keep multiplying on the right."""
    if f.cols != g.rows:
        raise ShapeError(
            f"cannot compose {f.rows}x{f.cols} with {g.rows}x{g.cols}: {f.cols} != {g.rows}"
        )
    out = compose_layers(f, (1, 1), g, (1, 1))
    return compose(out, *rest) if rest else out


def kron(f: Matrix, g: Matrix) -> Matrix:
    """Kronecker product with the left factor major (see module docstring)."""
    return compose_layers(g, (f.rows, 1), f, (1, g.cols))  # (I (x) g) . (f (x) I)


def _layer_shape(f: Matrix, f_pad: tuple, g_rows: int, g_cols: int, g_pad: tuple) -> tuple:
    """The shape of the product of two padded layers; ShapeError for a negative pad or misfit."""
    (fl, fr), (gl, gr) = f_pad, g_pad
    negative = min(fl, fr, gl, gr) < 0
    if negative or fl * f.cols * fr != gl * g_rows * gr:
        raise ShapeError(
            ("negative pad: " if negative else "")
            + f"cannot compose {fl}|{f.rows}x{f.cols}|{fr} with {gl}|{g_rows}x{g_cols}|{gr}"
        )
    return fl * f.rows * fr, gl * g_cols * gr


def layer_product(f: Matrix, f_pad: tuple, g, g_pad: tuple) -> tuple:
    """The nonzeros of ``kron(I_l, f, I_r) . kron(I_l', g, I_r')``, pads ``(l, r)``, ``(l', r')``.

    ``g`` is a ``Matrix`` or a state ``(rows, cols, {flat index: entry})``.
    Returns such a state with no zero entry: sums that cancel are dropped.
    Neither layer is built: ``_strand_product``, the kernel, reads each
    nonzero of ``g`` once per cell of its pad.  So the work is about nnz(g)
    * l' * r' * (nonzeros per column of f), the unit pad ``(1, 1)`` adding
    nothing.  A matrix ``g`` reuses its ``nonzeros()`` memo but, read once,
    is scanned without storing one.  No budget is checked here: the callers
    bound their products (``tqft`` refuses a step of an evaluation).
    """
    if isinstance(g, Matrix):
        g_rows, g_cols = g.rows, g.cols
        g_nonzeros = g._nonzeros or ((k, b) for k, b in enumerate(g.entries) if b)
    else:
        g_rows, g_cols, g_nonzeros = g[0], g[1], g[2].items()
    rows, cols = _layer_shape(f, f_pad, g_rows, g_cols, g_pad)
    fr, (gl, gr) = f_pad[1], g_pad
    stride = fr * cols
    columns = _strided_columns(f, stride)
    if gl == gr == 1:  # unpadded, g's flat index is its layer's
        return rows, cols, _strand_product(columns, f.cols, stride, f.rows * stride, g_nonzeros)
    # g's (y, x) at pad cell (left, right) sits at its spread index plus that cell's offset
    spread = [(k // g_cols * gr * cols + k % g_cols * gr, b) for k, b in g_nonzeros]
    offsets = [left * (g_rows * gr * cols + g_cols * gr) + right * (cols + 1)
               for left in range(gl) for right in range(gr)]
    return rows, cols, _strand_product(columns, f.cols, stride, f.rows * stride, spread, offsets)


def _strided_columns(f: Matrix, stride: int) -> list:
    """f's column table (a memo of f's) with its rows scaled to ``stride``."""
    return [[(row * stride, a) for row, a in column] for column in f._column_table()]


def _strand_product(columns: list, f_cols: int, stride: int, block: int, pairs,
                    offsets=(0,)) -> dict:
    """The nonzeros ``{flat index: entry}`` of ``kron(I_l, f, I_r) . g``, zeros dropped.

    ``columns`` is ``_strided_columns(f, stride)``, ``pairs`` the ``(flat
    index, entry)`` nonzeros of ``g``, read once per offset (each shifts
    them to one cell of g's pad), ``stride`` is ``r * g.cols`` and
    ``block`` is ``f.rows * stride``.  A nonzero costs one decode plus a
    walk over the column of f it feeds; the product is one dict, copied
    without zeros only when a sum cancelled.
    """
    # g's nonzero at row m = (outer, z, inner) of f's input and column c has
    # flat index K = m * cols + c; divmod(K, stride) splits it into (outer, z)
    # and q = inner * cols + c, and the product's nonzero from f's entry
    # (row, z) sits at outer * block + row * stride + q.
    out = {}
    get = out.get
    for offset in offsets:
        for k, b in pairs:
            high, q = divmod(k + offset, stride)
            outer, z = divmod(high, f_cols)
            base = outer * block + q
            for row, a in columns[z]:
                index = base + row
                out[index] = get(index, 0) + a * b
    if 0 in out.values():  # a sum cancelled
        out = {k: x for k, x in out.items() if x}
    return out


def dense(state: tuple) -> Matrix:
    """The ``Matrix`` of a state ``(rows, cols, {flat index: entry})``, refused over MAX_CELLS."""
    rows, cols, nonzeros = state
    out = [0] * _cells(rows, cols)
    items = nonzeros.items()
    if Fraction in set(map(type, nonzeros.values())):  # an integral Fraction is stored as an int
        items = ((k, as_rational(x)) for k, x in items)
    for k, x in items:
        out[k] = x
    return Matrix._raw(rows, cols, tuple(out))


def compose_layers(f: Matrix, f_pad: tuple, g: Matrix, g_pad: tuple) -> Matrix:
    """``kron(I_l, f, I_r) . kron(I_l', g, I_r')`` as a dense matrix (see ``layer_product``)."""
    _cells(*_layer_shape(f, f_pad, g.rows, g.cols, g_pad))  # refused before the product runs
    return dense(layer_product(f, f_pad, g, g_pad))


@lru_cache(maxsize=16)
def braiding(a: int, b: int) -> Matrix:
    """Permutation matrix sending x (x) y to y (x) x for dims a and b.

    Entry convention: ``braiding(a, b)[j * a + i, i * b + j] = 1``.
    """
    if a < 1 or b < 1:
        raise ValueError(f"braiding needs dimensions >= 1, got {a} and {b}")
    size = a * b
    out = [0] * _cells(size, size)
    for i in range(a):
        for j in range(b):
            out[(j * a + i) * size + (i * b + j)] = 1
    return Matrix._raw(size, size, tuple(out))


@lru_cache(maxsize=16)
def interleaver(n: int, a: int, b: int) -> Matrix:
    """Permutation regrouping ``A^(x)n (x) B^(x)n`` as ``(A (x) B)^(x)n``.

    The source index pair with digit strings (i_1..i_n) base a and
    (j_1..j_n) base b goes to the target index with digit string
    ((i_1,j_1)..(i_n,j_n)) base a*b.  Size (a*b)**n; n = 0 gives [1].
    """
    if n < 0:
        raise ValueError(f"strand count must be >= 0, got {n}")
    if a < 1 or b < 1:
        raise ValueError(f"interleaver needs dimensions >= 1, got {a} and {b}")
    size = (a * b) ** n
    bn = b**n
    ab = a * b
    out = [0] * _cells(size, size)
    for idx_a, digits_a in enumerate(itertools.product(range(a), repeat=n)):
        for idx_b, digits_b in enumerate(itertools.product(range(b), repeat=n)):
            tgt = 0
            for i, j in zip(digits_a, digits_b):
                tgt = tgt * ab + i * b + j
            out[tgt * size + idx_a * bn + idx_b] = 1
    return Matrix._raw(size, size, tuple(out))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination.

    Raises SingularMatrixError when no inverse exists.
    """
    if m.rows != m.cols:
        raise ShapeError(f"only square matrices invert, got {m.rows}x{m.cols}")
    n = m.rows
    work = [[Fraction(x) for x in m.row(i)] for i in range(n)]
    result = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(f"singular {n}x{n} matrix")
        work[col], work[pivot] = work[pivot], work[col]
        result[col], result[pivot] = result[pivot], result[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        result[col] = [x / scale for x in result[col]]
        for r in range(n):
            if r == col or not work[r][col]:
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
            result[r] = [x - factor * y for x, y in zip(result[r], result[col])]
    return Matrix(n, n, [x for row in result for x in row])

