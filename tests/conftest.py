import pytest

from wlab.congruence import CheckContext
from wlab.search import primes_in

SWEEP_HI = 10_000


@pytest.fixture(scope="session")
def sweep_contexts():
    """Shared per-prime evaluation contexts for the 11..10^4 sweep.

    Each context makes its one O(p) pass as it is built, here, so every
    criterion reuses the same sums and products.  The rows the criteria run
    read up to R_3 (cor1.4-r3) and no Bernoulli residue.
    """
    return {p: CheckContext(p, 8, bernoulli_reads=(), harmonic_order=3) for p in primes_in(11, SWEEP_HI)}
