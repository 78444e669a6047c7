"""wlab: prime-power congruence engine for the central binomial coefficient.

Verifies the harmonic-sum and Bernoulli-number congruence family for
C(2p-1, p-1) modulo p^3 through p^8, and runs the two associated prime
searches (Wolstenholme primes; residuals reaching exponent 8).

The top level exports the four library entry points; everything else
(``CheckContext``, ``run_search``, ``is_prime``, ...) is imported from its
module, so ``import wlab`` loads no search code.
"""

from .bernoulli import bernoulli_mod
from .congruence import binom_central_int, run_suite
from .sums import half_range_moments

__all__ = ["bernoulli_mod", "binom_central_int", "half_range_moments", "run_suite"]
__version__ = "0.1.0"
