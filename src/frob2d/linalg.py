"""Exact linear algebra over the rationals: sparse matrices and their products.

Scalars are Python ints or ``fractions.Fraction`` values and every
operation is exact.  Conventions fixed here and relied on by the whole
package:

* ``compose(f, g)`` is the matrix product ``f . g``; ``g`` acts first on
  column vectors.
* Kronecker products are row-major with the left factor major::

      kron(f, g)[i1 * g.rows + i2, j1 * g.cols + j2] = f[i1, j1] * g[i2, j2]

  so the basis vector ``e_i (x) e_j`` of a tensor-product space sits at
  flat index ``i * dim_right + j``.
* A ``Matrix`` holds its nonzeros, a read-only mapping ``{flat index:
  entry}``, and nothing else: tensor powers are almost all zeros.  Its
  row-major ``entries`` tuple is laid out only when read.  A table of
  plain ints is stored with no per-cell coercion.
  ``layer_product(f, f_pad, g, g_pad)`` multiplies two padded layers
  ``kron(identity(l), f, identity(r))`` from the nonzeros of ``f`` and
  ``g`` alone, so no padded layer is built.
  ``apply_steps(state, steps)`` applies ``kron(I_l, f, I_r)`` to a matrix
  for each step ``(f, l, r)`` in turn: the one loop for a word's steps
  (``tqft``) and a naturality square's strands (``frobenius``).  Every
  product in the package runs one kernel, ``_strand_product`` (``f`` on
  the middle strands of ``g``, once per cell of g's pad): ``layer_product``,
  ``apply_steps``, ``compose`` (two unpadded layers) and ``kron``
  (``(I (x) g) . (f (x) I)``).  The left factor ``f`` is read through its
  column table (the ``(row, entry)`` pairs of each column), built once per
  matrix.  The ``entries`` tuple and the column table are memos, left out
  of ``==``, ``hash``, repr, copies and pickles.
* No function here lays out a matrix of more than ``MAX_CELLS`` cells:
  a larger result raises ``BudgetError`` (a ``ShapeError``) first.
  ``compose``, ``kron`` and the permutations refuse such a result;
  ``layer_product`` and ``apply_steps`` build only nonzeros, so their
  answers may stand for matrices far larger than the budget, and
  ``apply_steps`` refuses a step only when its dense shape and its nonzero
  bound both pass it.  ``MAX_ENTRY_BITS`` bounds the entries that repeated
  squaring may build (``tqft.surface_invariant``) the same way.
* ``Record`` is the immutable base of the package's value types (reports,
  words, algebras, morphisms): field-wise ``==``, ``hash`` and repr, no
  assignment, and ``replace(**changes)``.
* ``braiding(a, b)`` swaps tensor factors and ``interleaver(n, a, b)``
  regroups ``A^(x)n (x) B^(x)n`` as ``(A (x) B)^(x)n``; both are
  permutation matrices.
* ``inverse`` eliminates over the nonzeros of dict rows, so inverting a
  sparse Gram matrix (``frobenius.derive_comult``) costs about as much as
  the products it feeds, not a pass over every cell per pivot.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Union

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
    """Immutable matrix of exact rationals, stored as its nonzeros ``{flat index: entry}``.

    ``nonzeros`` is a read-only view (``types.MappingProxyType``) that
    holds no zero entry; matrices may share it (``_raw``, a reshape), and a
    copy or pickle holds a dict of its own.  Cells that are all plain ints
    are stored as given; otherwise each goes through ``as_rational``.
    ``entries`` (and ``row`` and ``[i, j]``, which read it) is the
    row-major tuple of every cell, laid out on first use, refused over
    ``MAX_CELLS`` (BudgetError), with an integral ``Fraction`` as an int.
    """

    # _entries and _columns are memos, filled on first use and left out
    # of ==, hash, repr, copies and pickles
    __slots__ = ("rows", "cols", "nonzeros", "_entries", "_columns")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        cells = tuple(entries)
        if not {int}.issuperset(map(type, cells)):  # a bool, an int subclass or a non-int
            cells = tuple(map(as_rational, cells))
        if len(cells) != rows * cols:
            raise ShapeError(
                f"a {rows}x{cols} matrix needs {rows * cols} entries, got {len(cells)}"
            )
        self.rows = rows
        self.cols = cols
        self.nonzeros = MappingProxyType({k: x for k, x in enumerate(cells) if x})
        self._entries = cells
        self._columns = None

    @classmethod
    def _raw(cls, rows: int, cols: int, nonzeros: Mapping) -> "Matrix":
        # Internal fast path: nonzeros holds exact rationals and no zero, and
        # is another matrix's read-only nonzeros or a dict no one changes later.
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.nonzeros = (nonzeros if type(nonzeros) is MappingProxyType
                      else MappingProxyType(nonzeros))
        m._entries = None
        m._columns = None
        return m

    @property
    def entries(self) -> tuple:
        """Every entry, row-major (see the class docstring)."""
        if self._entries is None:
            cells = [0] * _cells(self.rows, self.cols)
            items = self.nonzeros.items()
            if Fraction in set(map(type, self.nonzeros.values())):
                items = ((k, as_rational(x)) for k, x in items)
            for k, x in items:
                cells[k] = x
            self._entries = tuple(cells)
        return self._entries

    def __getitem__(self, index: tuple) -> Rational:
        i, j = index
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def _column_table(self) -> tuple:
        """Per column, the ``(row, entry)`` pairs of its nonzero entries."""
        if self._columns is None:
            table = [[] for _ in range(self.cols)]
            for k, x in self.nonzeros.items():
                table[k % self.cols].append((k // self.cols, x))
            self._columns = tuple(map(tuple, table))
        return self._columns

    def __reduce__(self):
        return type(self)._raw, (self.rows, self.cols, dict(self.nonzeros))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.nonzeros == other.nonzeros
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, frozenset(self.nonzeros.items())))

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
    _cells(n, n)
    return Matrix._raw(n, n, {i * (n + 1): 1 for i in range(n)})


def compose(f: Matrix, g: Matrix, *rest: Matrix) -> Matrix:
    """Matrix product ``f . g`` (g acts first); extra factors keep multiplying on the right."""
    if f.cols != g.rows:
        raise ShapeError(
            f"cannot compose {f.rows}x{f.cols} with {g.rows}x{g.cols}: {f.cols} != {g.rows}"
        )
    _cells(f.rows, g.cols)
    out = layer_product(f, (1, 1), g, (1, 1))
    return compose(out, *rest) if rest else out


def kron(f: Matrix, g: Matrix) -> Matrix:
    """Kronecker product with the left factor major (see module docstring)."""
    _cells(f.rows * g.rows, f.cols * g.cols)
    return layer_product(g, (f.rows, 1), f, (1, g.cols))  # (I (x) g) . (f (x) I)


def layer_product(f: Matrix, f_pad: tuple, g: Matrix, g_pad: tuple) -> Matrix:
    """``kron(I_l, f, I_r) . kron(I_l', g, I_r')``, pads ``(l, r)`` and ``(l', r')``.

    ShapeError for a negative pad or layers that do not fit.  Sums that
    cancel are dropped.  Neither layer is built:
    ``_strand_product``, the kernel, reads each nonzero of ``g`` once per
    cell of its pad.  So the work is about nnz(g) * l' * r' * (nonzeros per
    column of f), the unit pad ``(1, 1)`` adding nothing.  No budget is
    checked here: the callers bound their products (``compose`` and
    ``kron`` refuse a result over ``MAX_CELLS`` cells, ``apply_steps`` a
    step).
    """
    (fl, fr), (gl, gr) = f_pad, g_pad
    negative = min(fl, fr, gl, gr) < 0
    if negative or fl * f.cols * fr != gl * g.rows * gr:
        raise ShapeError(
            ("negative pad: " if negative else "")
            + f"cannot compose {fl}|{f.rows}x{f.cols}|{fr} with {gl}|{g.rows}x{g.cols}|{gr}"
        )
    rows, cols = fl * f.rows * fr, gl * g.cols * gr
    stride = fr * cols
    columns = _strided_columns(f, stride)
    if gl == gr == 1:  # unpadded, g's flat index is its layer's
        spread, offsets = g.nonzeros.items(), (0,)
    else:
        # g's (y, x) at pad cell (left, right) sits at its spread index plus that cell's offset
        g_cols = g.cols
        spread = [(k // g_cols * gr * cols + k % g_cols * gr, b) for k, b in g.nonzeros.items()]
        offsets = [left * (g.rows * gr * cols + g_cols * gr) + right * (cols + 1)
                   for left in range(gl) for right in range(gr)]
    return Matrix._raw(rows, cols, _strand_product(columns, f.cols, stride, f.rows * stride,
                                                   spread, offsets))


def apply_steps(state: Matrix, steps) -> Matrix:
    """``state`` with each step ``(f, l, r)`` applied in turn as ``kron(I_l, f, I_r)``.

    The steps are read one at a time, so a lazy iterable's errors come in
    step order.  A step whose rows do not match the state's raises
    ShapeError, and one whose dense shape and nonzero bound (the state's
    nonzeros times the most nonzeros in one column of f) both pass
    ``MAX_CELLS`` raises BudgetError, before it runs.  Each f's column
    table is scaled once per stride and call.
    """
    rows, cols, nonzeros = state.rows, state.cols, state.nonzeros
    tables = {}  # (id(f), stride) -> (f, table): f is held so that its id is not reused
    for f, left, right in steps:
        if left * f.cols * right != rows:
            raise ShapeError(f"cannot apply {left}|{f.rows}x{f.cols}|{right} to {rows} rows")
        rows = left * f.rows * right
        if rows * cols > MAX_CELLS:
            fullest = max(map(len, f._column_table()), default=0)
            if len(nonzeros) * fullest > MAX_CELLS:
                _cells(rows, cols)
        stride = right * cols
        memo = tables.get((id(f), stride))
        if memo is None:
            memo = tables[id(f), stride] = f, _strided_columns(f, stride)
        nonzeros = _strand_product(memo[1], f.cols, stride, f.rows * stride, nonzeros.items())
    return Matrix._raw(rows, cols, nonzeros)


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


@lru_cache(maxsize=16)
def braiding(a: int, b: int) -> Matrix:
    """Permutation matrix sending x (x) y to y (x) x for dims a and b.

    Entry convention: ``braiding(a, b)[j * a + i, i * b + j] = 1``.
    """
    if a < 1 or b < 1:
        raise ValueError(f"braiding needs dimensions >= 1, got {a} and {b}")
    size = a * b
    _cells(size, size)
    return Matrix._raw(size, size, {(j * a + i) * size + (i * b + j): 1
                                    for i in range(a) for j in range(b)})


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
    _cells(size, size)
    out = {}
    for idx_a, digits_a in enumerate(itertools.product(range(a), repeat=n)):
        for idx_b, digits_b in enumerate(itertools.product(range(b), repeat=n)):
            tgt = 0
            for i, j in zip(digits_a, digits_b):
                tgt = tgt * ab + i * b + j
            out[tgt * size + idx_a * bn + idx_b] = 1
    return Matrix._raw(size, size, out)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the nonzeros.

    Each row of ``m`` and of the identity beside it is a dict ``{column:
    entry}``.  Column by column, the first row not yet a pivot that holds
    the column is the pivot: it is scaled to a leading 1, and every other
    row holding the column subtracts its multiple of the pivot row, over
    the pivot row's nonzeros only; entries that cancel are deleted.  So the
    work follows the nonzeros, not the n**2 cells.  An integral entry of
    the inverse is an int.  Raises SingularMatrixError when no inverse
    exists.
    """
    if m.rows != m.cols:
        raise ShapeError(f"only square matrices invert, got {m.rows}x{m.cols}")
    n = m.rows
    work = [{} for _ in range(n)]
    for k, x in m.nonzeros.items():
        i, j = divmod(k, n)
        work[i][j] = x
    result = [{i: 1} for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if col in work[r]), None)
        if pivot is None:
            raise SingularMatrixError(f"singular {n}x{n} matrix")
        work[col], work[pivot] = work[pivot], work[col]
        result[col], result[pivot] = result[pivot], result[col]
        # the pivot entry leaves its row: scaled, it would be 1, and the
        # elimination below clears the column from every other row
        row, result_row = work[col], result[col]
        scale = row.pop(col)
        if scale != 1:
            scale = 1 / Fraction(scale)
            for pivot_row in (row, result_row):
                for j, x in pivot_row.items():
                    pivot_row[j] = x * scale
        for other, other_result in zip(work, result):
            factor = other.pop(col, None)
            if factor is None:
                continue
            for target, source in ((other, row), (other_result, result_row)):
                for j, y in source.items():
                    x = target.get(j, 0) - factor * y
                    if x:
                        target[j] = x
                    else:
                        del target[j]
    return Matrix._raw(n, n, {i * n + j: as_rational(x)
                              for i, entries in enumerate(result) for j, x in entries.items()})
