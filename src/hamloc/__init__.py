"""Desk-scale hammock localization of finite relative categories,
flattening back to relative categories, and DK-equivalence certificates."""

__version__ = "0.1.0"

from .errors import CompositionUnavailable, ConsistencyError, InputError
from .fincat import (
    CatFunctor,
    FiniteCategory,
    find_equivalence,
    is_isomorphism,
    subcategory_span,
    validate_category,
)
from .relcat import (
    RelativeCategory,
    RelativeFunctor,
    oracle_localized_homset,
    validate_relative,
)
from .simplicial import (
    ChainComplexReport,
    SimplicialOperator,
    TruncatedSimplicialSet,
    compose_operators,
    homology,
    nerve,
    pi0,
)
from .scat import (
    DkCertificate,
    RelativeSimplicialCategory,
    SimplicialFunctor,
    TruncatedSimplicialCategory,
    check_dk,
    homotopy_category_data,
    is_neglectable,
    promote,
)
from .hammock import (
    Hammock,
    MappingSpace,
    compose_hammocks,
    hammock_localization,
    hammock_localization_relscat,
    mapping_space,
    reduce_hammock,
)
from .flatten import Flattening, flatten, relativization_unit
from .verify import (
    Bounds,
    ExperimentReport,
    check_24i,
    check_24ii,
    check_32,
    check_roundtrip,
)
