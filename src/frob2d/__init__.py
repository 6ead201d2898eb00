"""Exact 2d TQFT evaluation against commutative (extended) Frobenius algebras.

The package verifies algebra axioms as matrix identities over the
rationals, evaluates cobordism words built from a fixed generator set,
and cross-checks the functorial properties (naturality, monoidality,
multiplicativity of closed-surface invariants) at instance level.
"""

from .cobordism import (
    CobordismWord,
    Generator,
    WordError,
    closed_oriented_surface,
    closed_unoriented_surface,
    compose_words,
    identity_word,
    load_word,
    parse_word,
    serialize_word,
    tensor_words,
    validate_word,
)
from .documents import (
    DocumentError,
    algebra_document,
    load_algebra,
    load_morphism,
    parse_algebra,
    parse_morphism,
    save_algebra,
)
from .examples import (
    dual_numbers,
    extended_battery,
    ground_field,
    ground_field_extended,
    group_algebra_z2,
    group_algebra_z2_extended,
    plain_battery,
    split_pair,
    split_pair_extended,
)
from .frobenius import (
    DegenerateFormError,
    ExtendedFrobeniusAlgebra,
    FrobeniusAlgebra,
    FrobeniusMorphism,
    as_plain,
    check_extended,
    check_extended_morphism,
    check_frobenius,
    check_morphism,
    derive_comult,
    search_theta,
    tensor,
    tensor_extended,
)
from .linalg import (
    BudgetError,
    Matrix,
    ShapeError,
    SingularMatrixError,
    as_rational,
    braiding,
    compose,
    identity,
    interleaver,
    inverse,
    kron,
    layer_product,
)
from .report import AxiomReport, CheckResult, Witness, compare_nonzeros
from .tqft import (
    ExtendedRequiredError,
    check_monoidal_naturality,
    check_multiplicativity,
    check_naturality,
    evaluate,
    invariant,
    naturality_dictionary,
    surface_invariant,
)

__version__ = "0.1.0"


def data_path(name: str):
    """Path to a bundled data file (algebra JSONs and word files)."""
    from importlib.resources import files  # here, not at import: only data_path needs it

    return files("frob2d") / "data" / name
