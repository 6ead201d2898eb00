"""The three seeded workloads: inputs, operations and their checks.

Each workload function takes a ``random.Random`` seeded from ``--seed``
and returns the operations of one round.  Sizes are fixed per slot so that
every seed costs about the same; the seed picks generator positions, genera,
factor order, morphisms and the order of the round.  Expected answers come
from ``reference`` (never from frob2d) and are computed on first use,
outside the timed call.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from pathlib import Path

import reference as ref
from frob2d import (
    CobordismWord,
    FrobeniusAlgebra,
    FrobeniusMorphism,
    Generator,
    Matrix,
    check_extended,
    check_frobenius,
    check_morphism,
    check_naturality,
    evaluate,
    invariant,
    parse_algebra,
    search_theta,
    tensor,
    tensor_extended,
)

GENERATORS = {g.label: g for g in Generator}
ARITY_IN = {g.label: g.arity_in for g in Generator}
_UNSET = object()

# 2^g has more than 4300 digits from g = 14287 on; printing it trips
# Python's int-to-str limit, so this call crashes at the seed commit.  It
# stays in the mix and counts as failed until the program prints it.
HUGE_GENUS = (14400, 14600)


class Op:
    """One operation: ``run()`` is timed, ``check(result)`` is not."""

    __slots__ = ("kind", "run", "_expect", "_compare", "_expected")

    def __init__(self, kind, run, expect, compare=operator.eq):
        self.kind = kind
        self.run = run
        self._expect = expect
        self._compare = compare
        self._expected = _UNSET

    def check(self, result) -> bool:
        if self._expected is _UNSET:
            self._expected = self._expect()
        return self._compare(result, self._expected)


# -- shared helpers -----------------------------------------------------------


def algebra(table: ref.Table):
    """The package's algebra for a reference table, built from its document."""
    return parse_algebra(table.document())


def to_word(orientation: str, labels_by_slice) -> CobordismWord:
    return CobordismWord(orientation, tuple(tuple(GENERATORS[l] for l in s)
                                            for s in labels_by_slice))


def _at(strands: int, pos: int, label: str) -> list:
    return ["id"] * pos + [label] + ["id"] * (strands - pos - ARITY_IN[label])


def wide_labels(rng, width, rungs, source=0, target=0, swaps=0, ladder=False):
    """Births up to ``width`` strands, ``rungs`` merge/split pairs, then deaths.

    A ladder puts rung r at strand r mod (width - 1); other words place
    rungs, swaps and the open legs at seeded positions.
    """
    legs = set(rng.sample(range(width), source))
    slices = [["id" if i in legs else "cup" for i in range(width)]]
    swap_before = set(rng.sample(range(rungs), swaps))
    for r in range(rungs):
        if r in swap_before:
            slices.append(_at(width, rng.randrange(width - 1), "swap"))
        p = r % (width - 1) if ladder else rng.randrange(width - 1)
        q = r % (width - 1) if ladder else rng.randrange(width - 1)
        slices.append(_at(width, p, "mult"))
        slices.append(_at(width - 1, q, "comult"))
    legs = set(rng.sample(range(width), target))
    slices.append(["id" if i in legs else "cap" for i in range(width)])
    return slices


def matrix_rows(m: Matrix) -> list:
    return [list(m.row(i)) for i in range(m.rows)]


def expected_matrix(table, labels, source, target):
    if source == target == 0:
        return [[ref.closed_value(table, labels)]]
    return ref.word_matrix(table, labels, source, target)


def square(rows) -> Matrix:
    return Matrix(len(rows), len(rows[0]), [x for r in rows for x in r])


# -- wide_words ---------------------------------------------------------------

# (algebra, width, rungs, swaps, source, target, operation, ladder)
WIDE_SLOTS = (
    [(alg, w, w, 0, 0, 0, op, True)
     for w in (4, 5, 6, 7, 8, 9)
     for alg, op in zip(("Z2", "D", "KxK"), ("invariant", "evaluate", "naturality"))]
    + [(alg, w, w + 1, 1, 0, 0, op, False)
       for w in (4, 5, 6, 7, 8)
       for alg, op in zip(("KxK", "Z2", "D"), ("invariant", "evaluate", "naturality"))]
    + [(alg, w, w, 0, s, t, op, False)
       for alg, w, s, t, op in (
           ("Z2", 4, 1, 1, "evaluate"), ("D", 5, 2, 1, "evaluate"),
           ("KxK", 5, 1, 2, "naturality"), ("Z2", 6, 2, 2, "naturality"),
           ("D", 6, 3, 1, "evaluate"), ("KxK", 7, 2, 2, "evaluate"))]
    + [(alg, w, w, 0, 0, 0, op, ladder)
       for alg in ("Z2*Z2", "KxK*KxK")
       for w, op, ladder in ((3, "invariant", True), (4, "evaluate", True),
                             (4, "naturality", False), (5, "invariant", True),
                             (5, "evaluate", False))]
    + [(alg, w, w, 0, s, t, op, False)
       for alg, w, s, t, op in (
           ("Z2*Z2", 3, 1, 1, "naturality"), ("KxK*KxK", 4, 2, 1, "evaluate"),
           ("Z2*Z2", 4, 1, 2, "evaluate"), ("KxK*KxK", 4, 2, 2, "naturality"))]
    + [("Z2*Z2", 6, 2, 0, 0, 0, "invariant", True)]
)


def _automorphisms(name):
    """Frobenius automorphisms (target-by-source) of the wide_words algebras."""
    neg, swap, one = [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]
    return {
        "Z2": [neg], "KxK": [swap], "D": [one],
        "Z2*Z2": [ref.kron_all([neg, one]), ref.kron_all([one, neg]), ref.kron_all([neg, neg])],
        "KxK*KxK": [ref.kron_all([swap, one]), ref.kron_all([swap, swap])],
    }[name]


def wide_words(rng, ctx) -> list[Op]:
    tables = {"Z2": ref.z2(), "D": ref.dual_numbers(), "KxK": ref.split_pair()}
    algebras = {name: algebra(t) for name, t in tables.items()}
    for name in ("Z2", "KxK"):
        product = f"{name}*{name}"
        tables[product] = ref.tensor(tables[name], tables[name])
        algebras[product] = tensor(algebras[name], algebras[name])
    ops = []
    for alg, width, rungs, swaps, source, target, kind, ladder in WIDE_SLOTS:
        labels = wide_labels(rng, width, rungs, source, target, swaps, ladder)
        word, table, a = to_word("oriented", labels), tables[alg], algebras[alg]
        expected = (lambda t=table, l=labels, s=source, g=target: expected_matrix(t, l, s, g))
        if kind == "invariant":
            ops.append(Op("invariant", lambda w=word, a=a: invariant(w, a),
                          lambda e=expected: e()[0][0]))
        elif kind == "evaluate":
            ops.append(Op("evaluate", lambda w=word, a=a: evaluate(w, a), expected,
                          lambda m, rows: matrix_rows(m) == rows))
        else:
            f = rng.choice(_automorphisms(alg) + [_scalar_map(table.dim, 2)])
            morphism = FrobeniusMorphism(a, a, square(f))
            ops.append(Op(
                "naturality",
                lambda m=morphism, w=word: check_naturality(m, w).passed,
                lambda e=expected, f=f, s=source, t=target:
                    ref.naturality_holds(e(), e(), f, s, t)))
    return ops


# -- axioms -------------------------------------------------------------------

PLAIN_POWERS = (("Z2", "KxK"), ("D", "Z2"), ("KxK", "KxK"), ("D", "KxK"),
                ("Z2", "KxK", "D"), ("Z2", "Z2", "KxK"),
                ("Z2", "KxK", "D", "KxK"), ("Z2", "Z2", "KxK", "D"))
EXTENDED_POWERS = (("Z2_ext", "KxK_ext"), ("KxK_ext", "KxK_ext"),
                   ("Z2_ext", "KxK_ext", "KxK_ext"), ("KxK_ext", "Z2_ext", "KxK_ext", "Z2_ext"))
FACTOR_AUTOMORPHISMS = {"Z2": [[1, 0], [0, -1]], "KxK": [[0, 1], [1, 0]],
                        "D": [[1, 0], [0, 1]]}


def _factor_tables():
    return {"Z2": ref.z2(), "D": ref.dual_numbers(), "KxK": ref.split_pair(),
            "Z2_ext": ref.z2_ext(), "KxK_ext": ref.split_pair_ext()}


def _power(rng, names, factor_tables, factor_algebras):
    """Seeded factor order; the package builds the product, the reference too."""
    names = list(names)
    rng.shuffle(names)
    product = tensor_extended if factor_tables[names[0]].extended else tensor
    a = factor_algebras[names[0]]
    for n in names[1:]:
        a = product(a, factor_algebras[n])
    return ref.tensor_all([factor_tables[n] for n in names]), a


def _report_is(names, failing=()):
    def compare(report, _):
        return (tuple(c.name for c in report.checks) == names
                and report.failing() == tuple(failing))
    return compare


def _same_algebra(result, table) -> bool:
    return result.basis == table.basis and ref.same_structure(
        table, result.mult.entries, result.unit.entries, result.counit.entries,
        result.comult.entries)


def _scalar_map(n, c):
    return [[c * int(i == j) for j in range(n)] for i in range(n)]


def axioms(rng, ctx) -> list[Op]:
    ftables = _factor_tables()
    falgebras = {name: algebra(t) for name, t in ftables.items()}
    plain = [_power(rng, p, ftables, falgebras) for p in PLAIN_POWERS]
    extended = [_power(rng, p, ftables, falgebras) for p in EXTENDED_POWERS]
    ops = []
    # Two 16-dimensional checks (about 0.5 s each) stay within the slowest
    # tenth, so the 90th percentile falls among the three search_theta and two
    # 16-dimensional derive calls, not on the edge between cost groups.
    for _, a in plain[:7] + extended[-1:]:
        ops.append(Op("check_frobenius", lambda a=a: check_frobenius(a), lambda: None,
                      _report_is(ref.FROBENIUS_CHECKS)))
    for _, a in extended:
        ops.append(Op("check_extended", lambda a=a: check_extended(a), lambda: None,
                      _report_is(ref.EXTENDED_CHECKS)))
    for index, (table, a) in enumerate(plain[:2] + plain[4:]):
        # Products of factor automorphisms pass; twice the identity fails all four.
        if index % 2:
            f, failing = _scalar_map(table.dim, 2), ref.MORPHISM_CHECKS
        else:
            f, failing = ref.kron_all([FACTOR_AUTOMORPHISMS[x.name] for x in table.factors]), ()
        ops.append(Op("check_morphism",
                      lambda m=FrobeniusMorphism(a, a, square(f)): check_morphism(m),
                      lambda: None, _report_is(ref.MORPHISM_CHECKS, failing)))
    singles = [(ftables[n], falgebras[n]) for n in ("Z2", "D", "KxK")]
    for table, a in plain[:6]:
        btable, b = rng.choice(singles)
        ops.append(Op("tensor", lambda a=a, b=b: tensor(a, b),
                      lambda t=table, b=btable: ref.tensor(t, b), _same_algebra))
    for table, _ in plain[2:]:
        ops.append(Op(
            "derive_comult",
            lambda t=table: FrobeniusAlgebra.from_tables(t.name, t.basis, t.mult, t.unit,
                                                         t.counit),
            lambda t=table: t, _same_algebra))
    kk = tensor(falgebras["KxK"], falgebras["KxK"])
    # Involutions here are symmetric, so table and matrix layouts agree.
    for phi in (_scalar_map(4, 1), ref.factor_swap(2), ref.kron_all([[[0, 1], [1, 0]]] * 2)):
        ops.append(Op("search_theta",
                      lambda p=square(phi): [tuple(m.entries) for m in search_theta(kk, p, 2)],
                      lambda phi=phi: ref.theta_hits(phi, 2)))
    return ops


# -- cli ----------------------------------------------------------------------


def _write(path: Path, content) -> Path:
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return path


def _word_text(orientation, labels) -> str:
    return "\n".join([orientation] + [", ".join(s) for s in labels]) + "\n"


def _fractions(value):
    return [_fractions(x) for x in value] if isinstance(value, list) else Fraction(value)


def _normalized(doc: dict) -> dict:
    out = dict(doc)
    for key in ("mult", "unit", "counit", "comult"):
        out[key] = _fractions(doc[key])
    if "extended" in doc:
        out["extended"] = {k: _fractions(v) for k, v in doc["extended"].items()}
    return out


def cli(rng, ctx) -> list[Op]:
    """Subprocess calls over all six subcommands; files go to ``ctx.workdir``.

    ``ctx.run_cli(argv)`` returns (exit code, stdout lines) of one child.
    """
    work = ctx.workdir
    data = ctx.root / "src" / "frob2d" / "data"
    ft = _factor_tables()
    files = {"Z2": (data / "z2.json", ft["Z2"]), "D": (data / "dual_numbers.json", ft["D"]),
             "KxK": (data / "kxk.json", ft["KxK"]),
             "KxK_ext": (data / "kxk_ext.json", ft["KxK_ext"])}

    def power(key, names, with_comult=True):
        names = list(names)
        rng.shuffle(names)
        table = ref.tensor_all([ft[n] for n in names])
        files[key] = (_write(work / f"{key}.json", table.document(with_comult)), table)

    power("p4", ("Z2", "KxK"))
    power("p4d", ("D", "Z2"), with_comult=False)
    power("p8", ("Z2", "KxK", "KxK"))
    power("p8d", ("KxK", "D", "Z2"), with_comult=False)
    power("e4", ("Z2_ext", "KxK_ext"))
    power("e8", ("KxK_ext", "KxK_ext", "Z2_ext"))
    ops = []

    def op(kind, argv, expect, compare=operator.eq):
        argv = [str(a) for a in argv]
        ops.append(Op(kind, lambda: ctx.run_cli(argv), expect, compare))

    def passes(names):
        return lambda: (0, [f"{n}: pass" for n in names])

    for key in ("Z2", "D", "p4", "p4d", "p8", "p8d"):
        op("check", ["check", files[key][0]], passes(ref.FROBENIUS_CHECKS))
    for key in ("KxK_ext", "e4", "e8"):
        op("check", ["check", "--extended", files[key][0]],
           passes(ref.FROBENIUS_CHECKS + ref.EXTENDED_CHECKS))
    for key in ("Z2", "D", "p4", "p4d", "p8", "p8d"):
        path, table = files[key]
        g = rng.randrange(0, 40)
        op("invariant", ["invariant", path, "--genus", g],
           lambda t=table, g=g: (0, [ref.format_scalar(t.oriented(g))]))
    for key in ("KxK_ext", "e4", "e8"):
        path, table = files[key]
        k, h = rng.randrange(1, 30), rng.randrange(0, 30)
        op("invariant", ["invariant", path, "--crosscaps", k, "--genus", h],
           lambda t=table, c=k + 2 * h: (0, [ref.format_scalar(t.crosscapped(c))]))
    g = rng.randrange(*HUGE_GENUS)
    op("invariant", ["invariant", files["Z2"][0], "--genus", g], lambda g=g: (0, [str(2 ** g)]))

    words = []
    for index, (key, width, source, target) in enumerate(
            [("Z2", 5, 0, 0), ("D", 6, 0, 0), ("KxK", 5, 2, 1), ("Z2", 4, 1, 2),
             ("p4", 4, 0, 0), ("p4d", 3, 1, 1)]):
        path, table = files[key]
        labels = wide_labels(rng, width, width, source, target)
        wpath = _write(work / f"word{index}.cob", _word_text("oriented", labels))
        words.append((wpath, path, table))

        def expect(t=table, l=labels, s=source, g=target):
            rows = expected_matrix(t, l, s, g)
            return 0, [f"{len(rows)}x{len(rows[0])}"] + [
                " ".join(ref.format_scalar(x) for x in r) for r in rows]

        op("eval", ["eval", wpath, path], expect)

    def automorphism(key):
        _, table = files[key]
        rows = ref.kron_all([FACTOR_AUTOMORPHISMS[f.name] for f in table.factors or (table,)])
        doc = {"source": table.name, "target": table.name, "map": rows}
        return _write(work / f"{key}_auto.json", doc)

    op("naturality", ["naturality", data / "z2_negate_x.json", data / "z2_ext.json",
                      data / "z2_ext.json"], passes(ref.EXTENDED_DICTIONARY_CHECKS))
    op("naturality", ["naturality", automorphism("p4"), files["p4"][0], files["p4"][0]],
       passes(ref.DICTIONARY_CHECKS))
    op("naturality", ["naturality", automorphism("e4"), files["e4"][0], files["e4"][0]],
       passes(ref.EXTENDED_DICTIONARY_CHECKS))
    for (wpath, apath, _), key in zip(words[:2], ("Z2", "D")):
        op("naturality", ["naturality", "--word", wpath, automorphism(key), apath, apath],
           passes(["naturality"]))

    for index, (left, right, extended) in enumerate(
            [("Z2", "p4", False), ("KxK", "p4d", False), ("D", "KxK", False),
             ("KxK_ext", "e4", True)]):
        (lpath, ltable), (rpath, rtable) = files[left], files[right]
        out = work / f"tensor{index}.json"
        product = ref.tensor(ltable, rtable)
        if not extended:
            product = product.plain()
        op("tensor", ["tensor", lpath, rpath, "-o", out] + (["--extended"] if extended else []),
           lambda: (0, []),
           lambda got, want, out=out, t=product: got == want and _normalized(
               json.loads(out.read_text())) == _normalized(t.document()))

    kk = ref.tensor(ft["KxK"], ft["KxK"])
    swap = ref.factor_swap(2)
    swapped = ref.Table(kk.name, kk.basis, kk.mult, kk.unit, kk.counit, kk.comult,
                        kk.oriented, phi=swap, theta=[1, 0, 0, 1])
    for path, phi, bound in (
            (data / "kxk.json", _scalar_map(2, 1), 1),
            (_write(work / "kk.json", kk.document()), _scalar_map(4, 1), 2),
            (_write(work / "kk_swap.json", swapped.document()), swap, 2)):
        op("search-theta", ["search-theta", path, "--bound", bound],
           lambda phi=phi, b=bound: (0, [" ".join(str(x) for x in hit)
                                         for hit in ref.theta_hits(phi, b)]))
    return ops


WORKLOADS = {"wide_words": wide_words, "axioms": axioms, "cli": cli}
