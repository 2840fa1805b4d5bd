"""derivcover: exact symbolic verification of higher-order derivation classes,
additive covers of the complex numbers, and coset-freeness of power tuples.

All arithmetic is exact over the rationals; every verdict is a bit-exact
polynomial identity or comes with a rational counterexample witness.
"""

from .cosets import AffineRelation, affine_relation, coset_free_powers
from .cover import (
    CoverPoint,
    ominus,
    oplus,
    otimes,
    pi,
    psi_defines_otimes,
    rn_holds,
    rn_preservation,
    rn_reduct_check,
    scalar,
    sigma,
    sigma_ring_check,
    sigma_ring_defect,
    star,
)
from .dclass import (
    MembershipVerdict,
    default_test_set,
    dn_defect,
    find_witness,
    inductive_subsum,
    is_in_dn,
    odd_extraction_check,
    polarization_defect,
    probe_zero,
)
from .jets import JetContext, Operator, apply_operator, derive
from .parse import parse_func_list, parse_operator, parse_ratfunc
from .poly import MPoly, RatFunc, VarRegistry, mpoly_gcd

__version__ = "0.1.0"
