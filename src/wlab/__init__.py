"""wlab: prime-power congruence engine for the central binomial coefficient.

Verifies the harmonic-sum and Bernoulli-number congruence family for
C(2p-1, p-1) modulo p^3 through p^8, and runs the two associated prime
searches (Wolstenholme primes; residuals reaching exponent 8).
"""

from .bernoulli import (
    bernoulli_mod,
    bernoulli_mod_small,
    exact_bernoulli,
    kummer_alternating_check,
    kummer_reduce,
)
from .congruence import (
    CheckContext,
    binom_central_int,
    check_theorem_main,
    registry_names,
    run_suite,
)
from .modring import is_prime
from .report import CongruenceReport
from .search import (
    Checkpoint,
    SearchHit,
    SearchTask,
    mod_p8_indicator,
    primes_in,
    resume,
    run_search,
    wolstenholme_indicator,
)
from .sums import half_range_moments

__version__ = "0.1.0"
