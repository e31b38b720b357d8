"""netpad: information-theoretically secure network communication from
pre-distributed secret bits.

Key pre-distribution schemes, XOR-sampling privacy amplification with a
one-time pad, exact rational rate formulas, achievability checkers, and
rank-based perfect-secrecy certification over GF(2).
"""

from .amplify import (
    ChannelCipherState,
    CipherText,
    decrypt,
    derive_key,
    encrypt,
)
from .gf2 import (
    BitMatrix,
    BitString,
    cross_independent,
    random_bernoulli_matrix,
    random_fixed_weight_matrix,
    sample_indices,
)
from .permutation import PermutationFamily
from .predistribution import KeyStore, SchemeSpec, generate, random_regular_groups
from .rates import (
    MaxRates,
    NetworkParams,
    capacity,
    combinational_max_rates,
    gamma,
    hybrid_max_rates,
    random_max_rates,
    scheme_max_rates,
    tradeoff_check,
)
from .secure_check import (
    RateProfile,
    SecurityVerdict,
    Status,
    check_exact,
    check_feasibility,
    check_relaxed,
    r_secrecy_w,
    r_secrecy_w_closed,
)

__all__ = [
    "BitMatrix",
    "BitString",
    "ChannelCipherState",
    "CipherText",
    "KeyStore",
    "MaxRates",
    "NetworkParams",
    "PermutationFamily",
    "RateProfile",
    "SchemeSpec",
    "SecurityVerdict",
    "Status",
    "capacity",
    "check_exact",
    "check_feasibility",
    "check_relaxed",
    "combinational_max_rates",
    "cross_independent",
    "decrypt",
    "derive_key",
    "encrypt",
    "gamma",
    "generate",
    "hybrid_max_rates",
    "r_secrecy_w",
    "r_secrecy_w_closed",
    "random_bernoulli_matrix",
    "random_fixed_weight_matrix",
    "random_max_rates",
    "random_regular_groups",
    "sample_indices",
    "scheme_max_rates",
    "tradeoff_check",
]

__version__ = "0.1.0"
