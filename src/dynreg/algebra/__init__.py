from .core import (
    FiniteSemigroup,
    OmegaData,
    adjoin_identity,
    adjoin_zero,
    build_semigroup,
    direct_product,
    generated_subsemigroup,
    omega,
    quotient,
    restriction,
)
from .congruence import Congruence, enumerate_congruences
from .green import JStructure, green_j, local_monoids
from .rees import ZERO, ReesRepresentation, rees_decompose
from .varieties import (
    check_variety,
    definiteness_window,
    find_violation,
    nilpotency_degree,
)
from .zg import (
    FACTOR_COM,
    FACTOR_NIL1,
    ZgCertificate,
    find_zg_certificate,
    subdirect_certificate,
)

__all__ = [
    "FiniteSemigroup",
    "OmegaData",
    "Congruence",
    "JStructure",
    "ReesRepresentation",
    "ZgCertificate",
    "ZERO",
    "FACTOR_COM",
    "FACTOR_NIL1",
    "adjoin_identity",
    "adjoin_zero",
    "build_semigroup",
    "check_variety",
    "definiteness_window",
    "direct_product",
    "enumerate_congruences",
    "find_violation",
    "find_zg_certificate",
    "generated_subsemigroup",
    "green_j",
    "local_monoids",
    "nilpotency_degree",
    "omega",
    "quotient",
    "rees_decompose",
    "restriction",
    "subdirect_certificate",
]
