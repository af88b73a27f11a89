"""Each route's stated memory against what it allocates.

Every multimode route records in memory_bytes the bytes it checked against
reduced_density.MEMORY_BUDGET_BYTES, written from the dtypes and shapes it
allocates.  The tracemalloc peak of building a route and evaluating two gts
must stay within them; on an instance of ten megabytes or more they must
also be within twice the peak, so that the statement is neither an
undercount nor vacuous."""

import tracemalloc

import numpy as np
import pytest

from tcmsim import ExactEvolver, coherent_field, custom_field, fock_field
from tcmsim.closed_form import ConsistentBlocks, ProductLiteral
from tcmsim.symmetric import SymmetricLiteralEvaluator

GTS = np.array([0.5, 1.5])
FIVE_EQUAL = [0.4472135954999579] * 5
COMPLEX = [0.6, 0.5j, 0.4 + 0.3j, 0.3, 0.2j, 0.1]

CASES = {
    "product-literal": lambda: ProductLiteral([coherent_field(2.0), fock_field(1)]),
    "product-literal-complex": lambda: ProductLiteral(
        [custom_field(COMPLEX), coherent_field(3.0), fock_field(0)]),
    "consistent-blocks": lambda: ConsistentBlocks([coherent_field(5.0)] * 2),
    "consistent-blocks-m4": lambda: ConsistentBlocks([coherent_field(0.02)] * 4),
    "oracle": lambda: ExactEvolver([coherent_field(5.0)] * 2),
    "oracle-one-mode": lambda: ExactEvolver([coherent_field(30.0)]),
    "symmetric": lambda: SymmetricLiteralEvaluator(coherent_field(15.0, 4.0, 1e-6), 6),
    "symmetric-complex": lambda: SymmetricLiteralEvaluator(custom_field(COMPLEX), 8),
}
# instances of ten megabytes or more
LARGE = {
    "product-literal-large": lambda: ProductLiteral(
        [coherent_field(400.0), coherent_field(401.0)]),
    "consistent-blocks-large": lambda: ConsistentBlocks([coherent_field(150.0)] * 2),
    "oracle-large": lambda: ExactEvolver([coherent_field(25.0)] * 2),
    "symmetric-large": lambda: SymmetricLiteralEvaluator(custom_field(FIVE_EQUAL), 40),
}


def traced_peak(build):
    """The route build() returns and the tracemalloc peak of building it
    and evaluating GTS."""
    tracemalloc.start()
    try:
        route = build()
        if isinstance(route, ExactEvolver):
            route.densities(GTS)
        else:
            route.raw_densities(GTS)
        return route, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [*CASES.values(), *LARGE.values()],
                         ids=[*CASES, *LARGE])
def test_route_peak_stays_within_its_stated_bytes(build):
    route, peak = traced_peak(build)
    assert peak <= route.memory_bytes


@pytest.mark.parametrize("build", LARGE.values(), ids=LARGE)
def test_stated_bytes_are_within_twice_the_peak_of_a_large_instance(build):
    route, peak = traced_peak(build)
    assert peak >= 10_000_000
    assert route.memory_bytes <= 2 * peak
