"""wlab: prime-power congruence engine for the central binomial coefficient.

Verifies the harmonic-sum and Bernoulli-number congruence family for
C(2p-1, p-1) modulo p^3 through p^8, and runs the two associated prime
searches (Wolstenholme primes; residuals reaching exponent 8).
"""

from .bernoulli import (
    BernoulliResidue,
    ExactBernoulli,
    bernoulli_mod,
    bernoulli_mod_small,
    exact_bernoulli,
    kummer_alternating_check,
    kummer_reduce,
    vsc_denominator,
)
from .congruence import (
    CheckContext,
    binom_central,
    binom_exact_oracle,
    check_theorem_main,
    registry_names,
    run_suite,
)
from .modring import PrimePowerRing, Residue, inv, is_prime, ring_new
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
from .sums import SumTable, build_sum_table

__version__ = "0.1.0"
