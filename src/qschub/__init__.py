"""Exact quantum Schubert calculus on flag varieties G/P.

Root systems, Weyl groups and parabolic quotients in exact arithmetic;
minimal q-degrees of quantum products via Pareto chain search; quantum
Chevalley multiplication; full products by one generator recursion, on
G/B from the Chevalley rows and on Grassmannians from the quantum Pieri
rows, with the rim-hook rule kept as the Grassmannian oracle.
"""

from .grassmann import (
    classical_lr,
    dual_partition,
    grassmannian_parabolic,
    min_degree_diagonal,
    monotone_chain_exists,
    parse_partition,
    partition_of_coset,
    coset_of_partition,
    qproduct_grassmann,
    qproduct_grassmann_cosets,
)
from .parabolic import Coset, ParabolicData, make_parabolic
from .quantum import (
    QClass,
    classical_chevalley,
    min_occurring_degrees,
    product_engine,
    qproduct_GB,
    quantum_chevalley,
)
from .roots import InvariantError, Root, RootSystem, build_root_system
from .weyl import (
    GroupSizeGuardError,
    WeylElem,
    bruhat_leq_W,
    from_word,
    longest_element,
    parse_word,
    reflection_of_root,
)

__version__ = "0.1.0"

__all__ = [
    "InvariantError",
    "Root",
    "RootSystem",
    "build_root_system",
    "WeylElem",
    "GroupSizeGuardError",
    "bruhat_leq_W",
    "from_word",
    "longest_element",
    "parse_word",
    "reflection_of_root",
    "Coset",
    "ParabolicData",
    "make_parabolic",
    "QClass",
    "classical_chevalley",
    "quantum_chevalley",
    "qproduct_GB",
    "product_engine",
    "min_occurring_degrees",
    "grassmannian_parabolic",
    "partition_of_coset",
    "coset_of_partition",
    "parse_partition",
    "dual_partition",
    "classical_lr",
    "qproduct_grassmann",
    "qproduct_grassmann_cosets",
    "min_degree_diagonal",
    "monotone_chain_exists",
    "__version__",
]
