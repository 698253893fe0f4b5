"""Sign-matrix sketching of quantized measurements and rate accounting."""

import numpy as np
import pytest

from sdlowrank import encoding
from sdlowrank import noise_shaping
from sdlowrank import recovery
from sdlowrank import sensing
from sdlowrank import sigma_delta


def invpow(v, r):
    out = np.array(v, dtype=float)
    for _ in range(r):
        out = np.cumsum(out)
    return out


def test_draw_encoder_shape_and_support():
    enc = encoding.draw_encoder(12, 40, seed=3)
    assert isinstance(enc, np.ndarray) and enc.dtype == np.float64
    assert enc.shape == (12, 40)
    assert set(np.unique(enc)) == {-1.0, 1.0}


def test_draw_encoder_deterministic():
    a = encoding.draw_encoder(8, 30, seed=11)
    b = encoding.draw_encoder(8, 30, seed=11)
    c = encoding.draw_encoder(8, 30, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_encoder_is_one_int_draw_of_signs():
    rng = np.random.default_rng(5)
    want = rng.integers(0, 2, size=(17, 41)).astype(float) * 2.0 - 1.0
    assert np.array_equal(encoding.draw_encoder(17, 41, seed=5), want)


def test_draw_encoder_rejects_bad_dims():
    with pytest.raises(ValueError):
        encoding.draw_encoder(0, 10)
    with pytest.raises(ValueError):
        encoding.draw_encoder(11, 10)


def test_rate_bits_nominal_frozen_example():
    # 8 * 2 * log2(3 * 16) = 16 * log2(48) = 89.36..., ceil 90
    assert encoding.rate_bits_nominal(8, 2, 3.0, 16) == 90


def test_rate_bits_plotted_matches_formula():
    assert encoding.rate_bits_plotted(8, 2, 16) == int(np.ceil(16 * np.log(16)))
    assert encoding.rate_bits_plotted(80, 3, 640) == int(
        np.ceil(80 * 3 * np.log(640))
    )


def test_rate_monotone_in_every_argument():
    base = encoding.rate_bits_nominal(16, 2, 1.75, 64)
    assert encoding.rate_bits_nominal(32, 2, 1.75, 64) > base
    assert encoding.rate_bits_nominal(16, 3, 1.75, 64) > base
    assert encoding.rate_bits_nominal(16, 2, 3.5, 64) > base
    assert encoding.rate_bits_nominal(16, 2, 1.75, 128) > base


def test_rate_at_least_one_bit():
    # any usable alphabet has alpha * m >= 2, so log2 >= 1 and the rate
    # is at least L_enc * r
    for L_enc, r, alpha, m in ((1, 1, 0.25, 8), (4, 2, 0.25, 16), (80, 3, 1.75, 640)):
        assert alpha * m >= 2
        assert encoding.rate_bits_nominal(L_enc, r, alpha, m) >= L_enc * r


def test_encode_payload_matches_direct_path():
    rng = np.random.default_rng(5)
    m, r = 96, 2
    enc = encoding.draw_encoder(24, m, seed=7)
    q = rng.choice([-0.75, -0.25, 0.25, 0.75], size=m)
    out = encoding.encode(q, r, enc, alphabet_max=0.75)
    assert out.payload.shape == (24,)
    assert np.allclose(out.payload, enc @ invpow(q, r), atol=1e-9)
    assert out.rate_bits == encoding.rate_bits_nominal(24, r, 0.75, m)


def test_encode_is_linear_in_the_input():
    rng = np.random.default_rng(8)
    enc = encoding.draw_encoder(16, 64, seed=1)
    q1 = rng.uniform(-1, 1, 64)
    q2 = rng.uniform(-1, 1, 64)
    p1 = encoding.encode(q1, 2, enc, 1.0).payload
    p2 = encoding.encode(q2, 2, enc, 1.0).payload
    p12 = encoding.encode(q1 + q2, 2, enc, 1.0).payload
    assert np.allclose(p12, p1 + p2, atol=1e-8)


def test_encode_rejects_wrong_length():
    enc = encoding.draw_encoder(8, 32, seed=0)
    with pytest.raises(ValueError):
        encoding.encode(np.zeros(31), 1, enc, 1.0)


def test_sketched_state_within_decoder_radius():
    # the decoder ball radius 3 m gamma must cover ||B u||; with
    # ||B|| <= sqrt(L) + 2 sqrt(m) <= 3 sqrt(m), which holds with high
    # probability, and ||u|| <= gamma sqrt(m), it does on every draw here
    beta = 0.5
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        r = 1 + seed % 3
        m = 160
        y = rng.uniform(-1, 1, m)
        L = sigma_delta.required_levels(np.max(np.abs(y)), beta, r)
        scheme = sigma_delta.default_scheme(r, sigma_delta.build_alphabet(L, beta))
        run = sigma_delta.quantize(y, scheme)
        assert not run.overflow
        enc = encoding.draw_encoder(80, m, seed=seed)
        gamma = beta / 2
        sketched = enc @ invpow(y - run.output, r)
        # D^{-r}(y - q) is the state sequence itself, up to rounding
        assert np.allclose(invpow(y - run.output, r), run.state, atol=1e-8)
        assert np.linalg.norm(sketched) <= 3 * m * gamma


def test_recover_encoded_smoke():
    rng = np.random.default_rng(31)
    n, m, r = 4, 64, 1
    op = sensing.draw_operator(m, n, n, seed=17)
    X = sensing.gaussian_rank_k(rng, n, n, 1)
    y = sensing.apply(op, X)
    beta = 0.5
    L = sigma_delta.required_levels(np.max(np.abs(y)), beta, r)
    scheme = sigma_delta.default_scheme(r, sigma_delta.build_alphabet(L, beta))
    run = sigma_delta.quantize(y, scheme)
    enc = encoding.draw_encoder(32, m, seed=23)
    problem = recovery.RecoveryProblem(
        operator=op, quantized=run.output, order=r, gamma=beta / 2, encoder=enc,
    )
    sol = recovery.recover(problem)
    assert sol.converged
    assert sol.feasibility.ok
