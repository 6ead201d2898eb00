"""Command line interface.

Exit codes: 0 success, 1 a mathematical check failed, 2 malformed input.
All output is deterministic byte-for-byte for a given invocation.
"""

from __future__ import annotations

import argparse
import sys

from .cobordism import WordError, load_word
from .documents import DocumentError, load_algebra, load_morphism, save_algebra
from .frobenius import (
    DegenerateFormError,
    ExtendedFrobeniusAlgebra,
    as_plain,
    check_extended,
    check_frobenius,
    search_theta,
    tensor,
    tensor_extended,
)
from .linalg import ShapeError, identity
from .report import AxiomReport
from .tqft import (
    ExtendedRequiredError,
    check_naturality,
    evaluate,
    naturality_dictionary,
    surface_invariant,
)

OK = 0
CHECK_FAILED = 1
BAD_INPUT = 2


def _print(lines) -> None:
    """Format and print lines with no int-to-str digit limit.

    Inputs were parsed under the limit, so an over-long literal is still refused.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # 0: no limit
    try:
        for line in lines:
            print(line)
    finally:
        sys.set_int_max_str_digits(limit)


def _refused(report: AxiomReport, subject: str) -> bool:
    """True, after naming the failing checks on stderr, when the report failed."""
    if report.passed:
        return False
    failing = ", ".join(report.failing())
    print(f"error: {subject} fails axiom checks: {failing}", file=sys.stderr)
    return True


def _full_report(algebra) -> AxiomReport:
    if isinstance(algebra, ExtendedFrobeniusAlgebra):
        return AxiomReport(
            check_frobenius(algebra.base).checks + check_extended(algebra).checks
        )
    return check_frobenius(algebra)


def _require_extended(algebra, path) -> ExtendedFrobeniusAlgebra:
    if not isinstance(algebra, ExtendedFrobeniusAlgebra):
        raise DocumentError(f"{path}: no 'extended' block in the algebra document")
    return algebra


def _cmd_check(args) -> int:
    algebra = load_algebra(args.algebra)
    if args.extended:
        algebra = _require_extended(algebra, args.algebra)
    report = _full_report(algebra)
    _print(c.line() for c in report)
    return OK if report.passed else CHECK_FAILED


def _cmd_invariant(args) -> int:
    algebra = load_algebra(args.algebra)
    if args.genus < 0:
        raise DocumentError("genus must be nonnegative")
    if args.crosscaps < 0:
        raise DocumentError("crosscaps must be nonnegative")
    if args.crosscaps > 0 and not isinstance(algebra, ExtendedFrobeniusAlgebra):
        raise DocumentError("extended structure required for cross-caps")
    if _refused(_full_report(algebra), "algebra"):
        return CHECK_FAILED
    _print([surface_invariant(algebra, args.genus, args.crosscaps)])
    return OK


def _cmd_eval(args) -> int:
    algebra = load_algebra(args.algebra)
    word = load_word(args.word)
    matrix = evaluate(word, algebra)
    print(f"{matrix.rows}x{matrix.cols}")
    _print(" ".join(map(str, matrix.row(i))) for i in range(matrix.rows))
    return OK


def _cmd_tensor(args) -> int:
    paths = (args.left, args.right)
    algebras = [load_algebra(path) for path in paths]
    if args.extended:
        algebras = [_require_extended(a, path) for a, path in zip(algebras, paths)]
    else:
        algebras = [as_plain(a) for a in algebras]
    for algebra, path in zip(algebras, paths):
        if _refused(_full_report(algebra), f"{path}:"):
            return CHECK_FAILED
    product = (tensor_extended if args.extended else tensor)(*algebras)
    save_algebra(product, args.output)
    return OK


def _cmd_naturality(args) -> int:
    source = load_algebra(args.source)
    target = load_algebra(args.target)
    morphism = load_morphism(args.morphism, source, target)
    if args.word is not None:
        word = load_word(args.word)
        report = check_naturality(morphism, word)
    else:
        report = naturality_dictionary(morphism)
    _print(c.line() for c in report)
    return OK if report.passed else CHECK_FAILED


def _cmd_search_theta(args) -> int:
    algebra = load_algebra(args.algebra)
    base = as_plain(algebra)
    if args.bound < 1:
        raise DocumentError("bound must be at least 1")
    if _refused(check_frobenius(base), "algebra"):
        return CHECK_FAILED
    if args.phi is not None:
        phi_doc = load_morphism(args.phi, base, base)
        involution = phi_doc.matrix
    elif isinstance(algebra, ExtendedFrobeniusAlgebra):
        involution = algebra.involution
    else:
        involution = identity(base.dim)
    for point in search_theta(base, involution, args.bound):
        print(" ".join(str(point[i, 0]) for i in range(point.rows)))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frob2d",
        description=(
            "Exact checks and surface invariants for commutative "
            "(extended) Frobenius algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom diagrams on an algebra document")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument(
        "--extended",
        action="store_true",
        help="require and verify the extended structure",
    )
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("invariant", help="evaluate a closed surface")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("--genus", type=int, default=0, help="number of handles")
    p.add_argument(
        "--crosscaps",
        type=int,
        default=0,
        help="number of cross-caps (positive values need an extended algebra)",
    )
    p.set_defaults(handler=_cmd_invariant)

    p = sub.add_parser("eval", help="evaluate a cobordism word to a matrix")
    p.add_argument("word", help="word text file")
    p.add_argument("algebra", help="algebra JSON file")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("tensor", help="write the tensor product of two algebras")
    p.add_argument("left", help="left algebra JSON file")
    p.add_argument("right", help="right algebra JSON file")
    p.add_argument("-o", "--output", required=True, help="output JSON file")
    p.add_argument(
        "--extended",
        action="store_true",
        help="tensor the extended structures as well",
    )
    p.set_defaults(handler=_cmd_tensor)

    p = sub.add_parser(
        "naturality", help="check a morphism against the generator diagrams"
    )
    p.add_argument("morphism", help="morphism JSON file")
    p.add_argument("source", help="source algebra JSON file")
    p.add_argument("target", help="target algebra JSON file")
    p.add_argument("--word", help="check one word instead of the generator dictionary")
    p.set_defaults(handler=_cmd_naturality)

    p = sub.add_parser(
        "search-theta", help="enumerate integer theta vectors for an involution"
    )
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("--bound", type=int, required=True, help="search |entries| <= bound")
    p.add_argument("--phi", help="morphism JSON file giving the involution")
    p.set_defaults(handler=_cmd_search_theta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else BAD_INPUT
    try:
        return args.handler(args)
    except DegenerateFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (DocumentError, WordError, ShapeError, ExtendedRequiredError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
