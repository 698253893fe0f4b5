"""Quantizer unit tests with hand-computed recursion oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdlowrank import sigma_delta as sdq

from oracles import alphabet_levels, reference_quantize, scalar_quantize

# fixed examples, so the suite stays deterministic from run to run
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _quantized_levels(alphabet):
    # at order 1 a level input leaves zero state, so quantize returns it
    return sdq.quantize(alphabet_levels(alphabet), sdq.default_scheme(1, alphabet)).output


def test_alphabet_values_one_bit():
    a = sdq.build_alphabet(1, 0.5)
    assert np.array_equal(alphabet_levels(a), [-0.25, 0.25])
    assert np.array_equal(_quantized_levels(a), [-0.25, 0.25])
    assert a.max_level == 0.25


def test_alphabet_values_two_levels_unit_step():
    a = sdq.build_alphabet(2, 1.0)
    assert np.array_equal(alphabet_levels(a), [-1.5, -0.5, 0.5, 1.5])
    assert np.array_equal(_quantized_levels(a), [-1.5, -0.5, 0.5, 1.5])
    assert a.max_level == 1.5


def test_alphabet_rejects_bad_args():
    with pytest.raises(ValueError):
        sdq.build_alphabet(0, 0.5)
    with pytest.raises(ValueError):
        sdq.build_alphabet(2, 0.0)


def test_scalar_quantize_nearest():
    a = sdq.build_alphabet(2, 0.5)  # levels -0.75 -0.25 0.25 0.75
    assert scalar_quantize(0.3, a) == 0.25
    assert scalar_quantize(-0.6, a) == -0.75
    assert scalar_quantize(0.74, a) == 0.75


def test_scalar_quantize_tie_goes_to_larger():
    a = sdq.build_alphabet(2, 0.5)
    assert scalar_quantize(0.0, a) == 0.25
    assert scalar_quantize(0.5, a) == 0.75
    assert scalar_quantize(-0.5, a) == -0.25


def test_scalar_quantize_saturates_out_of_range():
    a = sdq.build_alphabet(1, 0.5)
    assert scalar_quantize(7.0, a) == 0.25
    assert scalar_quantize(-7.0, a) == -0.25


def test_scalar_quantize_monotone():
    a = sdq.build_alphabet(3, 0.5)
    zs = np.linspace(-2, 2, 801)
    qs = [scalar_quantize(z, a) for z in zs]
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


# any step beta = k / d: the stored levels (j + 1/2) beta and their gaps
# are exact only at dyadic beta (d = 16), where the state must stay within
# beta / 2 exactly; elsewhere a state on the bound can read an ulp above
# it, and the overflow flag must not count that as leaving it.  Inputs on
# the half-step grid put states on the bound.
@PROPERTY
@given(
    r=st.integers(1, 4),
    k=st.integers(1, 64),
    d=st.sampled_from([16, 3, 10, 100]),
    mu=st.floats(0.0, 10.0),
    m=st.integers(1, 256),
    seed=st.integers(0, 2**32 - 1),
    on_grid=st.booleans(),
)
# zero input at beta = 0.01: the state reads -0.005000000000000001
@example(r=4, k=1, d=100, mu=0.0, m=2, seed=0, on_grid=False)
def test_quantizer_certified_range_any_step(r, k, d, mu, m, seed, on_grid):
    beta = k / d
    y = np.random.default_rng(seed).uniform(-mu, mu, m)
    if on_grid:
        y = np.clip(np.round(y / (beta / 2)) * (beta / 2), -mu, mu)
    scheme = sdq.default_scheme(r, sdq.build_alphabet(sdq.required_levels(mu, beta, r), beta))
    run = sdq.quantize(y, scheme)
    ulp_slack = 0.0 if d == 16 else 4 * np.finfo(float).eps * scheme.alphabet.max_level
    assert np.max(np.abs(run.state)) <= beta / 2 + ulp_slack
    assert not run.overflow
    assert sdq.state_residual(run, r) <= 1e-9 * max(1.0, float(np.max(np.abs(y))))


# quantize does scalar_quantize's nearest-level search inline on Python
# floats; it must reproduce the per-sample scalar_quantize loop bit for
# bit, at dyadic and non-dyadic steps, on the half-step grid (exact ties)
# and past the alphabet's range
@PROPERTY
@given(
    r=st.integers(1, 4),
    k=st.integers(1, 64),
    d=st.sampled_from([16, 3, 10, 100]),
    levels=st.integers(1, 40),
    certified=st.booleans(),
    mu=st.floats(0.0, 50.0),
    m=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    on_grid=st.booleans(),
)
@example(r=2, k=8, d=16, levels=3, certified=False, mu=2.0, m=64, seed=0, on_grid=True)
def test_quantize_matches_scalar_reference_bit_for_bit(
    r, k, d, levels, certified, mu, m, seed, on_grid
):
    beta = k / d
    y = np.random.default_rng(seed).uniform(-mu, mu, m)
    if on_grid:
        y = np.round(y / (beta / 2)) * (beta / 2)
    if certified:
        levels = sdq.required_levels(mu, beta, r)
    scheme = sdq.default_scheme(r, sdq.build_alphabet(levels, beta))
    run = sdq.quantize(y, scheme)
    q, u, overflow = reference_quantize(y, scheme)
    assert run.output.tobytes() == q.tobytes()
    assert run.state.tobytes() == u.tobytes()
    assert run.overflow == overflow


def test_quantize_matches_reference_on_a_diverging_run():
    # a one-bit alphabet at order 4 on a constant far outside its range:
    # the state grows like i^4 but stays finite
    scheme = sdq.default_scheme(4, sdq.build_alphabet(1, 0.5))
    y = np.full(2000, 100.0)
    run = sdq.quantize(y, scheme)
    q, u, overflow = reference_quantize(y, scheme)
    assert run.output.tobytes() == q.tobytes()
    assert run.state.tobytes() == u.tobytes()
    assert run.overflow and overflow
    assert 6.6e13 < np.max(np.abs(run.state)) < 6.7e13


def test_quantize_rejects_a_feedback_value_that_leaves_the_floats():
    # inputs near the largest double: the fourth-order feedback overflows
    scheme = sdq.default_scheme(4, sdq.build_alphabet(1, 1.0))
    y = np.full(50, 1e307)
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        reference_quantize(y, scheme)
    with pytest.raises(ValueError):
        sdq.quantize(y, scheme)


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
