import math

import numpy as np
import pytest

from cuspkit.affine import profile_A_cusp, profile_A_inflection
from cuspkit.dsl import CurveSpec, catalog_lookup
from cuspkit.euclidean import CuspProfiler, profile_g
from cuspkit.profiles import SEED_NODES


def cycloid_t_of_tau(taus, a):
    """Closed-form inverse of tau = sqrt(8a) sin(t/4) on the cycloid."""
    return 4.0 * np.arcsin(taus / math.sqrt(8.0 * a))


# -- inversion accuracy -----------------------------------------------------------

GRIDS = {
    "two_points": np.array([-0.5, 1.2]),
    "seed_size": np.linspace(-1.0, 1.5, SEED_NODES),
    "seed_size_plus_one": np.linspace(-1.0, 1.5, SEED_NODES + 1),
    "symmetric_4001": np.linspace(-2.0, 2.0, 4001),
    "one_sided_right": np.linspace(0.0, 2.0, 1001),
    "one_sided_left": np.linspace(-2.0, -0.1, 1000),
    "without_zero": np.linspace(-1.3, 1.7, 1000),
    "constant": np.full(100, 0.7),
    "descending": np.linspace(2.0, -1.0, 500),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("a", [0.5, 1.0])
def test_inversion_matches_cycloid_closed_form(name, a):
    grid = GRIDS[name] * math.sqrt(a)
    t = CuspProfiler(catalog_lookup("cycloid", {"a": a})).t_of_tau(grid)
    np.testing.assert_allclose(t, cycloid_t_of_tau(grid, a), rtol=0.0, atol=1e-12)
    assert np.all(t[grid == 0.0] == 0.0)


def test_inversion_past_next_singular_point_raises_value_error():
    # [g', g''] vanishes again at t = -pi/2, where tau34 = -0.985: the grid
    # reaches past it.
    curve = catalog_lookup("skew_cycloid", {"a": 1.0})
    with pytest.raises(ValueError, match="did not converge.*next singular point"):
        profile_A_inflection(curve, np.linspace(-1.5, 0.0, 4001))


# -- cost guard -------------------------------------------------------------------

# One 4001-point profile may use at most four 64-node quadrature passes over
# the grid, counted as curve-derivative nodes (inversion plus evaluation).
COST_CASES = {
    "inflection_skew_cycloid": (profile_A_inflection, "skew_cycloid", (-0.75, 1.5)),
    "affine_cusp_cycloid": (profile_A_cusp, "cycloid", (-0.7, 0.7)),
    "affine_cusp_canonical_cusp": (profile_A_cusp, "canonical_cusp", (-1.5, 1.5)),
    "euclid_cusp_cycloid": (profile_g, "cycloid", (-2.5, 2.5)),
}


@pytest.mark.parametrize("case", sorted(COST_CASES))
def test_profile_node_budget(case, monkeypatch):
    fn, name, (left, right) = COST_CASES[case]
    curve = catalog_lookup(name, {"a": 1.0})
    n = 4001
    nodes = 0
    original = CurveSpec.derivatives_at

    def counted(self, ts, max_order):
        nonlocal nodes
        nodes += np.size(ts)
        return original(self, ts, max_order)

    monkeypatch.setattr(CurveSpec, "derivatives_at", counted)
    fn(curve, np.linspace(left, right, n))
    assert nodes <= 4 * 64 * n
