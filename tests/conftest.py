import pytest

from wlab.congruence import CheckContext
from wlab.search import primes_in

SWEEP_HI = 10_000


@pytest.fixture(scope="session")
def sweep_contexts():
    """Shared per-prime evaluation contexts for the 11..10^4 sweep.

    Contexts are lazy; the first criterion that touches them pays for the
    O(p) pass, later criteria reuse the cached sums and products.  The rows
    the criteria run read up to R_3 (cor1.4-r3).
    """
    return {p: CheckContext(p, 8, harmonic_order=3) for p in primes_in(11, SWEEP_HI)}
