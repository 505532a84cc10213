import logging
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelalign import autodiff as ad
from labelalign import spectral
from labelalign.autodiff import Tensor, backward
from labelalign.spectral import SpectralError, gate_weights, spectral_filter, thin_svd

from conftest import numeric_grad, rel_err


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


@dataclass
class Gate:
    """A learnable ``k_hat`` whose weights go through the whole
    sigmoid -> gate chain, so ``k_hat.grad`` checks all of it."""

    k_hat: Tensor
    beta: float

    def weights(self, r):
        return gate_weights(ad.sigmoid(self.k_hat), self.beta, r)


def gate_for(k, beta, grad=True):
    """Gate whose normalized cut equals the given k value."""
    return Gate(k_hat=t64(np.log(k / (1.0 - k)), grad=grad), beta=beta)


def complement(w):
    """``1 - w`` on the tape: the weights that keep the trailing spectrum."""
    return ad.sub(np.ones((), w.dtype), w)


def gate_filter(phi, gate, side, mode="projected"):
    """The filter with the gate's weights ``w`` (``top``) or ``1 - w`` (``bottom``)."""
    w = gate.weights(min(phi.shape))
    return spectral_filter(phi, w if side == "top" else complement(w), mode)


def weights_oracle(k_hat, beta, r):
    # independent direct formula
    k = 1.0 / (1.0 + np.exp(-k_hat))
    i = np.arange(1, r + 1)
    return 1.0 / (1.0 + np.exp(beta * (i - k * r)))


def random_matrix_with_spectrum(rng, n, d, spectrum):
    u, _ = np.linalg.qr(rng.standard_normal((n, min(n, d))))
    v, _ = np.linalg.qr(rng.standard_normal((d, min(n, d))))
    return (u * np.asarray(spectrum)) @ v.T


# ---------------------------------------------------------------------------
# thin_svd
# ---------------------------------------------------------------------------


def test_thin_svd_diagonal_case():
    f = thin_svd(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(f.sigma, [3.0, 2.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(f.u), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(np.abs(f.v), np.eye(3), atol=1e-12)


def test_thin_svd_identity():
    f = thin_svd(np.eye(4))
    np.testing.assert_allclose(f.sigma, np.ones(4), atol=1e-14)


@pytest.mark.parametrize("shape", [(128, 128), (40, 17), (17, 40)])
def test_thin_svd_reconstruction_and_orthonormality(shape):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(shape)
    f = thin_svd(a)
    r = min(shape)
    assert f.u.shape == (shape[0], r) and f.v.shape == (shape[1], r)
    assert np.abs(f.u.T @ f.u - np.eye(r)).max() <= 1e-10
    assert np.abs(f.v.T @ f.v - np.eye(r)).max() <= 1e-10
    assert (np.diff(f.sigma) <= 0).all() and (f.sigma >= 0).all()
    assert np.linalg.norm(f.reconstruct() - a) <= 1e-10 * np.linalg.norm(a)


def test_thin_svd_float32_tolerances():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((64, 32)).astype(np.float32)
    f = thin_svd(a)
    r = 32
    assert np.abs(f.u.T @ f.u - np.eye(r, dtype=np.float32)).max() <= 1e-6
    assert np.abs(f.v.T @ f.v - np.eye(r, dtype=np.float32)).max() <= 1e-6
    assert np.linalg.norm(f.reconstruct() - a) <= 1e-5 * np.linalg.norm(a)


def test_thin_svd_rejects_non_finite():
    bad = np.ones((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(SpectralError, match="non-finite"):
        thin_svd(bad)


def test_thin_svd_deterministic():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((12, 7))
    f1 = thin_svd(a)
    f2 = thin_svd(a.copy())
    np.testing.assert_array_equal(f1.u, f2.u)
    np.testing.assert_array_equal(f1.sigma, f2.sigma)
    np.testing.assert_array_equal(f1.v, f2.v)


# ---------------------------------------------------------------------------
# gate weights
# ---------------------------------------------------------------------------


def test_gate_midpoint_is_half():
    # k*r = 5 with r = 10: the weight at index 5 is exactly 0.5
    for beta in (0.5, 5.0, 1e4):
        w = gate_for(0.5, beta).weights(10)  # k*r = 5
        assert w.data[4] == 0.5


def test_gate_hard_cut_vector():
    gate = gate_for(0.55, beta=1e4)
    w = gate.weights(10)
    expected = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0], dtype=np.float64)
    np.testing.assert_allclose(w.data, expected, atol=1e-9)


def test_gate_low_k_hat_limit_small_and_monotone():
    # k -> 0 pushes the cut below index 1, so w_i -> sigmoid(-beta * i)
    beta = 5.0
    w = Gate(k_hat=t64(-30.0, grad=True), beta=beta).weights(8).data
    assert w.max() <= 1.0 / (1.0 + np.exp(beta)) + 1e-12
    assert (np.diff(w) <= 0).all()


def test_gate_matches_direct_formula():
    rng = np.random.default_rng(10)
    for _ in range(10):
        k_hat = rng.uniform(-3, 3)
        beta = rng.uniform(0.5, 20)
        r = int(rng.integers(2, 40))
        w = Gate(k_hat=t64(k_hat, grad=True), beta=beta).weights(r)
        np.testing.assert_allclose(w.data, weights_oracle(k_hat, beta, r), atol=1e-12)


@given(
    st.floats(-3, 3),
    st.floats(0.05, 1.0),
    st.integers(2, 30),
)
@settings(max_examples=50, deadline=None)
def test_gate_strictly_decreasing_in_open_interval(k_hat, beta, r):
    # far from float saturation: arguments stay within +-30
    w = Gate(k_hat=t64(k_hat, grad=True), beta=beta).weights(r).data
    assert (np.diff(w) < 0).all()
    assert (w > 0).all() and (w < 1).all()


def test_gate_k_stays_in_unit_interval():
    for k_hat in (-1e6, -5.0, 0.0, 5.0, 1e6):
        k = float(ad.sigmoid(t64(k_hat)).data)
        assert 0.0 <= k <= 1.0
        if abs(k_hat) < 20:
            assert 0.0 < k < 1.0


def test_gate_rejects_bad_sharpness():
    with pytest.raises(SpectralError):
        gate_weights(t64(0.5), 0.0, 4)


# ---------------------------------------------------------------------------
# filter forward
# ---------------------------------------------------------------------------


def test_complementarity_on_random_inputs():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n, d = int(rng.integers(3, 24)), int(rng.integers(3, 24))
        phi = t64(rng.standard_normal((n, d)))
        gate = gate_for(rng.uniform(0.1, 0.9), beta=rng.uniform(0.5, 50))
        top = gate_filter(phi, gate, "top")
        bottom = gate_filter(phi, gate, "bottom")
        assert rel_err(top.data + bottom.data, phi.data) <= 1e-6


def test_all_ones_gate_returns_input():
    rng = np.random.default_rng(12)
    phi = t64(rng.standard_normal((9, 6)))
    w = t64(np.ones(6))
    out = spectral_filter(phi, w)
    assert rel_err(out.data, phi.data) <= 1e-6
    bottom = spectral_filter(phi, complement(w))
    assert np.abs(bottom.data).max() <= 1e-12


def test_saturated_k_hat_gates_all_but_last_index():
    # sigmoid saturates to k == 1.0, so the cut sits exactly on the last
    # index: weights are 1 everywhere except w_r == 0.5, and the filter
    # differs from the input by half the smallest spectral component.
    rng = np.random.default_rng(13)
    phi_arr = rng.standard_normal((10, 6))
    gate = Gate(k_hat=t64(100.0, grad=True), beta=1e4)
    w = gate.weights(6).data
    np.testing.assert_allclose(w[:-1], np.ones(5), atol=1e-12)
    assert w[-1] == 0.5
    out = gate_filter(t64(phi_arr), gate, "top")
    sigma_min = thin_svd(phi_arr).sigma[-1]
    assert np.linalg.norm(out.data - phi_arr) <= 0.5 * sigma_min + 1e-9


def test_hard_gate_matches_exact_rank_truncation():
    rng = np.random.default_rng(14)
    for n, d, m in [(12, 8, 3), (8, 12, 5), (10, 10, 4)]:
        phi_arr = rng.standard_normal((n, d))
        r = min(n, d)
        gate = gate_for((m + 0.5) / r, beta=1e4)
        top = gate_filter(t64(phi_arr), gate, "top")
        # oracle: plain numpy truncation, independent of the filter path
        u, s, vt = np.linalg.svd(phi_arr, full_matrices=False)
        truncated = (u[:, :m] * s[:m]) @ vt[:m]
        assert rel_err(top.data, truncated) <= 1e-4


def test_forward_identical_across_gradient_modes():
    rng = np.random.default_rng(15)
    phi_arr = rng.standard_normal((7, 9))
    gate = gate_for(0.4, beta=8.0)
    for side in ("top", "bottom"):
        a = gate_filter(t64(phi_arr, grad=True), gate, side, "projected")
        b = gate_filter(t64(phi_arr, grad=True), gate, side, "full")
        assert rel_err(a.data, b.data) <= 1e-6
        np.testing.assert_array_equal(a.data, b.data)


def test_filter_rejects_bad_arguments():
    phi = t64(np.ones((3, 3)))
    gate = gate_for(0.5, beta=5.0)
    with pytest.raises(SpectralError):
        gate_filter(phi, gate, "top", "half")
    with pytest.raises(SpectralError):
        spectral_filter(phi, t64(np.ones(5)))


@pytest.mark.parametrize("mode", ["projected", "full"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_filter_keeps_its_bits_when_singular_pairs_flip_sign(monkeypatch, mode, dtype):
    # thin_svd returns LAPACK's signs; the filter pairs u_i with v_i (and v_i
    # with itself) everywhere, so negating a pair changes no output bit
    rng = np.random.default_rng(23)
    phi0 = rng.standard_normal((12, 7)).astype(dtype)
    w0 = rng.uniform(0.0, 1.0, 7).astype(dtype)
    upstream = Tensor(rng.standard_normal((12, 7)).astype(dtype))

    def run():
        phi, w = Tensor(phi0, requires_grad=True), Tensor(w0, requires_grad=True)
        out = spectral_filter(phi, w, mode)
        backward(ad.tsum(ad.mul(out, upstream)))
        return out.data.tobytes(), phi.grad.tobytes(), w.grad.tobytes()

    kept = run()
    real = spectral.thin_svd

    def flipped(phi):
        factors = real(phi)
        flip = np.arange(len(factors.sigma)) % 3 != 1
        factors.u[:, flip] *= -1  # in place, so the arrays keep their layout
        factors.v[:, flip] *= -1
        return factors

    monkeypatch.setattr(spectral, "thin_svd", flipped)
    assert run() == kept


# ---------------------------------------------------------------------------
# gradients: projected mode against the frozen-projection oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("side", ["top", "bottom"])
@pytest.mark.parametrize("shape", [(8, 6), (6, 8), (7, 7)])
def test_projected_gradient_wrt_phi(side, shape):
    rng = np.random.default_rng(16)
    phi0 = rng.standard_normal(shape)
    factors = thin_svd(phi0)
    gate = gate_for(0.45, beta=6.0)
    w0 = weights_oracle(float(gate.k_hat.data), 6.0, len(factors.sigma))
    w_applied = w0 if side == "top" else 1.0 - w0
    proj = (factors.v * w_applied) @ factors.v.T

    phi = t64(phi0, grad=True)
    out = gate_filter(phi, gate, side, "projected")
    backward(ad.tsum(ad.mul(out, out)))

    def frozen(arr):
        filtered = arr @ proj
        return float((filtered * filtered).sum())

    numeric = numeric_grad(frozen, [phi0])[0]
    assert rel_err(phi.grad, numeric) < 1e-3


@pytest.mark.parametrize("side", ["top", "bottom"])
def test_projected_gradient_wrt_k_hat(side):
    rng = np.random.default_rng(17)
    phi0 = rng.standard_normal((9, 5))
    factors = thin_svd(phi0)
    beta = 4.0
    gate = gate_for(0.5, beta=beta)
    k_hat0 = float(gate.k_hat.data)

    out = gate_filter(t64(phi0), gate, side, "projected")
    backward(ad.tsum(ad.mul(out, out)))

    def frozen(k_hat_arr):
        w = weights_oracle(float(k_hat_arr), beta, len(factors.sigma))
        wa = w if side == "top" else 1.0 - w
        filtered = (factors.u * (wa * factors.sigma)) @ factors.v.T
        return float((filtered * filtered).sum())

    numeric = numeric_grad(frozen, [np.asarray(k_hat0)])[0]
    assert rel_err(gate.k_hat.grad, numeric) < 1e-3


# ---------------------------------------------------------------------------
# gradients: full mode against true finite differences (gap-separated spectra)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("side", ["top", "bottom"])
@pytest.mark.parametrize("shape", [(5, 5), (8, 5), (5, 8)])
def test_full_gradient_wrt_phi(side, shape):
    rng = np.random.default_rng(18)
    spectrum = np.array([3.0, 2.4, 1.8, 1.3, 0.9])  # gaps >= 0.4
    phi0 = random_matrix_with_spectrum(rng, shape[0], shape[1], spectrum)
    beta = 5.0
    gate = gate_for(0.5, beta=beta)
    k_hat0 = float(gate.k_hat.data)

    phi = t64(phi0, grad=True)
    out = gate_filter(phi, gate, side, "full")
    backward(ad.tsum(ad.mul(out, out)))

    def true_loss(arr):
        f = thin_svd(arr)
        w = weights_oracle(k_hat0, beta, len(f.sigma))
        wa = w if side == "top" else 1.0 - w
        filtered = (f.u * (wa * f.sigma)) @ f.v.T
        return float((filtered * filtered).sum())

    numeric = numeric_grad(true_loss, [phi0], eps=1e-6)[0]
    assert rel_err(phi.grad, numeric) < 1e-3


def test_full_gradient_wrt_k_hat():
    rng = np.random.default_rng(19)
    spectrum = np.array([2.5, 1.9, 1.2, 0.6])
    phi0 = random_matrix_with_spectrum(rng, 7, 4, spectrum)
    beta = 3.0
    gate = gate_for(0.6, beta=beta)
    k_hat0 = float(gate.k_hat.data)

    out = gate_filter(t64(phi0), gate, "top", "full")
    backward(ad.tsum(ad.mul(out, out)))

    def true_loss(k_hat_arr):
        f = thin_svd(phi0)
        w = weights_oracle(float(k_hat_arr), beta, len(f.sigma))
        filtered = (f.u * (w * f.sigma)) @ f.v.T
        return float((filtered * filtered).sum())

    numeric = numeric_grad(true_loss, [np.asarray(k_hat0)])[0]
    assert rel_err(gate.k_hat.grad, numeric) < 1e-3


def test_full_mode_degenerate_spectrum_warns_and_stays_finite(caplog):
    rng = np.random.default_rng(20)
    spectrum = np.array([2.0, 1.0, 1.0, 0.5])  # repeated singular value
    phi0 = random_matrix_with_spectrum(rng, 6, 4, spectrum)
    phi = t64(phi0, grad=True)
    gate = gate_for(0.5, beta=5.0)
    with caplog.at_level(logging.WARNING, logger="labelalign.spectral"):
        out = gate_filter(phi, gate, "top", "full")
        backward(ad.tsum(ad.mul(out, out)))
    assert any("degenerate spectrum" in m for m in caplog.messages)
    assert np.isfinite(phi.grad).all()


def test_gradients_deterministic_across_runs():
    rng_data = np.random.default_rng(21).standard_normal((10, 6))

    def run():
        phi = t64(rng_data, grad=True)
        gate = gate_for(0.4, beta=7.0)
        out = gate_filter(phi, gate, "top", "projected")
        backward(ad.tsum(ad.mul(out, out)))
        return phi.grad.copy(), gate.k_hat.grad.copy()

    g1, k1 = run()
    g2, k2 = run()
    np.testing.assert_array_equal(g1, g2)
    np.testing.assert_array_equal(k1, k2)
