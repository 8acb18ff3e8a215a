import numpy as np
import pytest

from cuspkit.synthesis import synthesize_euclidean_cusp


@pytest.mark.parametrize("method", ["frame", "quadrature"])
@pytest.mark.parametrize("f", [1.0, lambda t: 1.0 + 0.3 * t - 0.2 * t**2])
def test_euclidean_roundtrip_both_signs(method, f):
    res = synthesize_euclidean_cusp(f, 0.5, method=method)
    assert np.all(np.sign(res.arclength) == np.sign(res.taus))
    tau_n = res.tau_normalized()
    target = np.asarray(res.input_profile(tau_n))
    assert np.max(np.abs(res.profile_recomputed() - target)) < 1e-10
