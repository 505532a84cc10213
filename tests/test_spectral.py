import logging

import numpy as np
import pytest

from labelalign import autodiff as ad
from labelalign import spectral
from labelalign.autodiff import Tensor, backward
from labelalign.spectral import SpectralError, gate_weights, spectral_filter, thin_svd

from conftest import numeric_grad, rel_err


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def cut_filter(phi, cut, side, mode="projected"):
    """The filter with the weights that keep the leading ``cut`` directions
    (``top``) or the rest (``bottom``), the split ``dla_loss`` makes."""
    w = gate_weights(cut, min(phi.shape), phi.data.dtype)
    return spectral_filter(phi, w if side == "top" else 1 - w, mode)


def cut_weights(cut, r, side):
    # independent direct formula
    top = (np.arange(r) < cut).astype(np.float64)
    return top if side == "top" else 1.0 - top


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


def test_gate_keeps_the_leading_cut_indices():
    for dtype in (np.float32, np.float64):
        w = gate_weights(3, 7, dtype)
        assert w.dtype == dtype
        assert w.tolist() == [1, 1, 1, 0, 0, 0, 0]
        assert (1 - w).dtype == dtype and (1 - w).tolist() == [0, 0, 0, 1, 1, 1, 1]
    # a cut of 0 or r keeps nothing or everything
    assert gate_weights(0, 4, np.float64).tolist() == [0, 0, 0, 0]
    assert gate_weights(4, 4, np.float64).tolist() == [1, 1, 1, 1]


def test_gate_rejects_a_cut_outside_the_spectrum():
    with pytest.raises(SpectralError, match="the cut 5 lies outside the spectrum's 0..4 indices"):
        gate_weights(5, 4, np.float64)
    with pytest.raises(SpectralError):
        gate_weights(-1, 4, np.float64)


# ---------------------------------------------------------------------------
# filter forward
# ---------------------------------------------------------------------------


def test_complementarity_on_random_inputs():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n, d = int(rng.integers(3, 24)), int(rng.integers(3, 24))
        phi = t64(rng.standard_normal((n, d)))
        cut = int(rng.integers(0, min(n, d) + 1))
        top = cut_filter(phi, cut, "top")
        bottom = cut_filter(phi, cut, "bottom")
        assert rel_err(top.data + bottom.data, phi.data) <= 1e-6


def test_all_ones_gate_returns_input():
    rng = np.random.default_rng(12)
    phi = t64(rng.standard_normal((9, 6)))
    w = np.ones(6)
    out = spectral_filter(phi, w)
    assert rel_err(out.data, phi.data) <= 1e-6
    bottom = spectral_filter(phi, 1 - w)
    assert np.abs(bottom.data).max() <= 1e-12


def test_hard_gate_matches_exact_rank_truncation():
    rng = np.random.default_rng(14)
    for n, d, m in [(12, 8, 3), (8, 12, 5), (10, 10, 4)]:
        phi_arr = rng.standard_normal((n, d))
        top = cut_filter(t64(phi_arr), m, "top")
        bottom = cut_filter(t64(phi_arr), m, "bottom")
        # oracle: plain numpy truncation, independent of the filter path
        u, s, vt = np.linalg.svd(phi_arr, full_matrices=False)
        assert rel_err(top.data, (u[:, :m] * s[:m]) @ vt[:m]) <= 1e-10
        assert rel_err(bottom.data, (u[:, m:] * s[m:]) @ vt[m:]) <= 1e-10


def test_forward_identical_across_gradient_modes():
    rng = np.random.default_rng(15)
    phi_arr = rng.standard_normal((7, 9))
    for side in ("top", "bottom"):
        a = cut_filter(t64(phi_arr, grad=True), 3, side, "projected")
        b = cut_filter(t64(phi_arr, grad=True), 3, side, "full")
        np.testing.assert_array_equal(a.data, b.data)


def test_filter_rejects_bad_arguments():
    phi = t64(np.ones((3, 3)))
    with pytest.raises(SpectralError):
        cut_filter(phi, 1, "top", "half")
    with pytest.raises(SpectralError):
        spectral_filter(phi, np.ones(5))


@pytest.mark.parametrize("mode", ["projected", "full"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_filter_keeps_its_bits_when_singular_pairs_flip_sign(monkeypatch, mode, dtype):
    # thin_svd returns LAPACK's signs; the filter pairs u_i with v_i (and v_i
    # with itself) everywhere, so negating a pair changes no output bit
    rng = np.random.default_rng(23)
    phi0 = rng.standard_normal((12, 7)).astype(dtype)
    w = rng.uniform(0.0, 1.0, 7).astype(dtype)
    upstream = Tensor(rng.standard_normal((12, 7)).astype(dtype))

    def run():
        phi = Tensor(phi0, requires_grad=True)
        out = spectral_filter(phi, w, mode)
        backward(ad.tsum(ad.mul(out, upstream)))
        return out.data.tobytes(), phi.grad.tobytes()

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
    proj = (factors.v * cut_weights(3, len(factors.sigma), side)) @ factors.v.T

    phi = t64(phi0, grad=True)
    out = cut_filter(phi, 3, side, "projected")
    backward(ad.tsum(ad.mul(out, out)))

    def frozen(arr):
        filtered = arr @ proj
        return float((filtered * filtered).sum())

    numeric = numeric_grad(frozen, [phi0])[0]
    assert rel_err(phi.grad, numeric) < 1e-3


# ---------------------------------------------------------------------------
# gradients: full mode against true finite differences (gap-separated spectra)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("side", ["top", "bottom"])
@pytest.mark.parametrize("shape", [(5, 5), (8, 5), (5, 8)])
def test_full_gradient_wrt_phi(side, shape):
    rng = np.random.default_rng(18)
    spectrum = np.array([3.0, 2.4, 1.8, 1.3, 0.9])  # gaps >= 0.4
    phi0 = random_matrix_with_spectrum(rng, shape[0], shape[1], spectrum)

    phi = t64(phi0, grad=True)
    out = cut_filter(phi, 2, side, "full")
    backward(ad.tsum(ad.mul(out, out)))

    def true_loss(arr):
        f = thin_svd(arr)
        filtered = (f.u * (cut_weights(2, len(f.sigma), side) * f.sigma)) @ f.v.T
        return float((filtered * filtered).sum())

    numeric = numeric_grad(true_loss, [phi0], eps=1e-6)[0]
    assert rel_err(phi.grad, numeric) < 1e-3


def test_full_mode_degenerate_spectrum_is_counted_and_stays_finite(caplog):
    rng = np.random.default_rng(20)
    spectrum = np.array([2.0, 1.0, 1.0, 0.5])  # repeated singular value
    phi0 = random_matrix_with_spectrum(rng, 6, 4, spectrum)
    phi = t64(phi0, grad=True)
    before = spectral.clamped_terms
    with caplog.at_level(logging.DEBUG, logger="labelalign.spectral"):
        out = cut_filter(phi, 2, "top", "full")
        backward(ad.tsum(ad.mul(out, out)))
    # the repeated pair clamps both of its cross terms; a backward pass logs
    # them at DEBUG, and ``train`` reports a run's clamps at WARNING
    assert spectral.clamped_terms - before == 2
    assert [r.levelname for r in caplog.records] == ["DEBUG"]
    assert "2 cross-term denominators clamped (min gap " in caplog.messages[0]
    assert np.isfinite(phi.grad).all()


def test_gradients_deterministic_across_runs():
    rng_data = np.random.default_rng(21).standard_normal((10, 6))

    def run():
        phi = t64(rng_data, grad=True)
        out = cut_filter(phi, 3, "top", "projected")
        backward(ad.tsum(ad.mul(out, out)))
        return phi.grad.copy()

    np.testing.assert_array_equal(run(), run())
