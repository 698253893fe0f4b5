"""Quantizer unit tests with hand-computed recursion oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdlowrank import sigma_delta as sdq

# fixed examples, so the suite stays deterministic from run to run
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def test_alphabet_values_one_bit():
    a = sdq.build_alphabet(1, 0.5)
    assert np.array_equal(a.values, [-0.25, 0.25])
    assert a.max_level == 0.25


def test_alphabet_values_two_levels_unit_step():
    a = sdq.build_alphabet(2, 1.0)
    assert np.array_equal(a.values, [-1.5, -0.5, 0.5, 1.5])
    assert a.max_level == 1.5


def test_alphabet_rejects_bad_args():
    with pytest.raises(ValueError):
        sdq.build_alphabet(0, 0.5)
    with pytest.raises(ValueError):
        sdq.build_alphabet(2, 0.0)


def test_scalar_quantize_nearest():
    a = sdq.build_alphabet(2, 0.5)  # levels -0.75 -0.25 0.25 0.75
    assert sdq.scalar_quantize(0.3, a) == 0.25
    assert sdq.scalar_quantize(-0.6, a) == -0.75
    assert sdq.scalar_quantize(0.74, a) == 0.75


def test_scalar_quantize_tie_goes_to_larger():
    a = sdq.build_alphabet(2, 0.5)
    assert sdq.scalar_quantize(0.0, a) == 0.25
    assert sdq.scalar_quantize(0.5, a) == 0.75
    assert sdq.scalar_quantize(-0.5, a) == -0.25


def test_scalar_quantize_saturates_out_of_range():
    a = sdq.build_alphabet(1, 0.5)
    assert sdq.scalar_quantize(7.0, a) == 0.25
    assert sdq.scalar_quantize(-7.0, a) == -0.25


def test_scalar_quantize_monotone():
    a = sdq.build_alphabet(3, 0.5)
    zs = np.linspace(-2, 2, 801)
    qs = [sdq.scalar_quantize(z, a) for z in zs]
    assert all(b >= a_ for a_, b in zip(qs, qs[1:]))


def test_required_levels_frozen_values():
    assert sdq.required_levels(1.0, 0.5, 2) == 9
    assert sdq.required_levels(0.0, 0.5, 1) == 3
    assert sdq.required_levels(0.9, 0.5, 3) == 13


def test_first_order_recursion_oracle():
    # v1 = 0.3 -> q 0.25, u 0.05; v2 = 0.3 + 0.05 -> q 0.25, u 0.10
    scheme = sdq.default_scheme(1, sdq.build_alphabet(1, 0.5))
    run = sdq.quantize([0.3, 0.3], scheme)
    assert np.allclose(run.output, [0.25, 0.25], atol=1e-15)
    assert np.allclose(run.state, [0.05, 0.10], atol=1e-15)
    assert not run.overflow


def test_second_order_recursion_oracle():
    # v = y_i + 2 u_{i-1} - u_{i-2}; ties resolve to the larger level
    scheme = sdq.default_scheme(2, sdq.build_alphabet(9, 0.5))
    run = sdq.quantize([0.5, -0.25, 0.75], scheme)
    assert np.array_equal(run.output, [0.75, -0.75, 1.25])
    assert np.allclose(run.state, [-0.25, 0.0, -0.25], atol=1e-15)


def test_quantize_input_validation():
    scheme = sdq.default_scheme(1, sdq.build_alphabet(1, 0.5))
    with pytest.raises(ValueError):
        sdq.quantize([], scheme)
    with pytest.raises(ValueError):
        sdq.quantize([0.1, np.nan], scheme)
    with pytest.raises(ValueError):
        sdq.quantize(np.zeros((2, 2)), scheme)


def test_stability_certified_range(rng):
    """With the required level count the state never leaves [-beta/2, beta/2]."""
    beta = 0.5
    for r in (1, 2, 3):
        L = sdq.required_levels(0.9, beta, r)
        scheme = sdq.default_scheme(r, sdq.build_alphabet(L, beta))
        for _ in range(60):
            y = rng.uniform(-0.9, 0.9, 96)
            run = sdq.quantize(y, scheme)
            assert not run.overflow
            assert np.max(np.abs(run.state)) <= beta / 2


# beta is dyadic (k / 16) so the levels (j + 1/2) beta and their gaps are
# exact in float64; at other steps the stored gaps differ from beta by an
# ulp and the exact comparison with beta / 2 can flag a state on the bound
@PROPERTY
@given(
    r=st.integers(1, 4),
    k=st.integers(1, 64),
    mu=st.floats(0.0, 10.0),
    m=st.integers(1, 256),
    seed=st.integers(0, 2**32 - 1),
)
def test_quantizer_certified_range_dyadic_steps(r, k, mu, m, seed):
    beta = k / 16
    y = np.random.default_rng(seed).uniform(-mu, mu, m)
    scheme = sdq.default_scheme(r, sdq.build_alphabet(sdq.required_levels(mu, beta, r), beta))
    run = sdq.quantize(y, scheme)
    assert np.max(np.abs(run.state)) <= beta / 2
    assert not run.overflow
    assert sdq.state_residual(run, r) <= 1e-9 * max(1.0, float(np.max(np.abs(y))))


def test_overflow_flag_set_when_alphabet_too_small(rng):
    # one-bit alphabet with a second-order scheme on near-unit inputs
    scheme = sdq.default_scheme(2, sdq.build_alphabet(1, 0.5))
    flagged = 0
    for _ in range(20):
        run = sdq.quantize(rng.uniform(-0.9, 0.9, 64), scheme)
        assert run.overflow == (np.max(np.abs(run.state)) > scheme.stability_constant)
        flagged += run.overflow
    assert flagged > 0


def test_state_residual_small_across_orders(rng):
    for r in (1, 2, 3):
        L = sdq.required_levels(1.0, 0.5, r)
        scheme = sdq.default_scheme(r, sdq.build_alphabet(L, 0.5))
        for _ in range(10):
            run = sdq.quantize(rng.uniform(-1, 1, 200), scheme)
            assert sdq.state_residual(run, r) <= 1e-9


def test_state_residual_detects_corruption(rng):
    scheme = sdq.default_scheme(2, sdq.build_alphabet(9, 0.5))
    run = sdq.quantize(rng.uniform(-1, 1, 50), scheme)
    bad = sdq.QuantizationRun(
        input=run.input, output=run.output, state=run.state + 0.5, overflow=False
    )
    assert sdq.state_residual(bad, 2) > 0.1


def test_scheme_validation():
    a = sdq.build_alphabet(1, 0.5)
    with pytest.raises(ValueError):
        sdq.SigmaDeltaScheme(order=0, alphabet=a, stability_constant=0.25)
    for gamma in (0.0, -0.25):
        with pytest.raises(ValueError):
            sdq.SigmaDeltaScheme(order=1, alphabet=a, stability_constant=gamma)


def test_required_levels_tracks_input_bound():
    # larger certified range needs at least as many levels
    prev = 0
    for mu in (0.1, 0.5, 1.0, 2.0, 5.0):
        L = sdq.required_levels(mu, 0.5, 2)
        assert L >= prev
        prev = L
    with pytest.raises(ValueError):
        sdq.required_levels(-1.0, 0.5, 1)
