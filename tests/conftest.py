"""Shared test helpers: finite-difference oracles, catalog shortcuts and model germs."""

import numpy as np
import pytest

# contract.py is a helper module, not a test module: rewrite its asserts too.
pytest.register_assert_rewrite("contract")

# Central-difference stencils, 4th-order accurate, for derivative orders 1-4.
FD_STENCILS = {
    1: ([-2, -1, 1, 2], [1 / 12, -8 / 12, 8 / 12, -1 / 12]),
    2: ([-2, -1, 0, 1, 2], [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12]),
    3: ([-3, -2, -1, 1, 2, 3], [1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8]),
    4: ([-3, -2, -1, 0, 1, 2, 3], [-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6]),
}

# Step sizes chosen so that rounding noise (eps / h^order) stays below the
# comparison tolerances; a single 1e-4 step would drown orders 3 and 4.
FD_STEPS = {1: 1e-4, 2: 1e-4, 3: 5e-3, 4: 1e-2}


def finite_difference(f, t0: float, order: int) -> float:
    offsets, weights = FD_STENCILS[order]
    h = FD_STEPS[order]
    return sum(w * f(t0 + o * h) for o, w in zip(offsets, weights)) / h**order


# Two model cusps and two model inflections, the second of each after the
# reparametrization t + t^2/3, a linear map of determinant 1 and a shift.
MODEL_GERMS = [
    "(t^2, t^3 + t^5)",
    "(2*(t + t^2/3)^2 + (t + t^2/3)^3 - 0.5*(t + t^2/3)^5 + 1,"
    " 3*(t + t^2/3)^2 + 2*(t + t^2/3)^3 - (t + t^2/3)^5 - 2)",
    "(t, t^3 + t^4)",
    "(2*(t + t^2/3) + (t + t^2/3)^3 + 0.7*(t + t^2/3)^4 + 1,"
    " 3*(t + t^2/3) + 2*(t + t^2/3)^3 + 1.4*(t + t^2/3)^4 - 2)",
]


@pytest.fixture
def rng():
    return np.random.default_rng(0)
