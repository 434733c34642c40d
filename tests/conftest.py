import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hypothesis import settings

settings.register_profile("suite", max_examples=100, deadline=None, derandomize=True)
# CI runs some properties once more under --hypothesis-profile=deep (see tests.yml)
settings.register_profile("deep", max_examples=2000, deadline=None, derandomize=True)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def divisors_from_factors(primes):
    """Ascending divisors of the product of ``primes`` (repeats allowed), built
    from a literal factorization, independent of karith."""
    divs = {1}
    for p in primes:
        divs |= {d * p for d in divs}
    return sorted(divs)
