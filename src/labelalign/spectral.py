"""Thin SVD, the hard split of a spectrum at a cut, and the spectral filter.

A feature matrix ``phi`` (n x d) factors as ``U diag(sigma) V^T`` with
``r = min(n, d)``.  :func:`gate_weights` gives the 0/1 weights
``w_i = [i < cut]`` over spectrum indices ``i = 0..r-1``, and
:func:`spectral_filter` applies the weights it is given: it reconstructs
``U diag(w * sigma) V^T``.  Passing ``w`` keeps the leading ``cut``
directions, passing ``1 - w`` keeps the rest, and the two filters sum back
to the reconstruction of ``phi``.  The weights are constants: no gradient
flows to them.

Gradients w.r.t. ``phi`` come in two flavours:

* ``projected`` (default): the factors are treated as constants and the
  gradient flows through the algebraically equal projection
  ``phi @ V diag(w) V^T``.
* ``full``: additionally differentiates through the factors themselves with
  the standard SVD differential; cross-singular-value denominators
  ``sigma_j^2 - sigma_i^2`` are clamped in magnitude to avoid blowups on
  (near-)repeated singular values.  Each clamped term adds one to
  :data:`clamped_terms`, which ``train`` reads after each step's walks to
  report a run's clamps on this module's logger: one warning at the first
  clamping step and one total at the end, not one line per filter backward.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _accumulate, _make

logger = logging.getLogger(__name__)

GRADIENT_MODES = ("projected", "full")

# relative clamp for 1/(sigma_j^2 - sigma_i^2) in full mode
_DENOM_CLAMP_REL = 1e-6

# cross-term denominators clamped by full-mode backward passes since import
clamped_terms = 0


class SpectralError(Exception):
    pass


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD triple: ``u`` (n x r), ``sigma`` (r,) nonincreasing, ``v`` (d x r)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def thin_svd(phi) -> SvdFactors:
    """Thin SVD of a real matrix.

    The sign of each singular pair ``(u_i, v_i)`` is LAPACK's.  Nothing
    depends on it: the filter and both its gradient modes use a pair only in
    products that hold both of its vectors, or one of them twice, so negating
    a pair changes no bit of their results (IEEE negation is exact).
    """
    a = phi.data if isinstance(phi, Tensor) else np.asarray(phi)
    if a.ndim != 2:
        raise SpectralError(f"thin_svd expects a matrix, got shape {a.shape}")
    n, d = a.shape
    if n < 1 or d < 1:
        raise SpectralError(f"thin_svd needs nonempty extents, got {a.shape}")
    if not np.isfinite(a).all():
        raise SpectralError("thin_svd input contains non-finite entries")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(
            "SVD failed to converge: shape "
            f"{a.shape}, frobenius norm {np.linalg.norm(a):.6g}, "
            f"max |entry| {np.abs(a).max():.6g}"
        ) from exc
    return SvdFactors(u=u, sigma=s, v=vt.T)


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def gate_weights(cut: int, r: int, dtype) -> np.ndarray:
    """0/1 weights over spectrum indices ``0..r-1`` that keep the leading
    ``cut`` of them; ``1 - w`` keeps the rest."""
    if not 0 <= cut <= r:
        raise SpectralError(f"the cut {cut} lies outside the spectrum's 0..{r} indices")
    return (np.arange(r) < cut).astype(dtype)


# ---------------------------------------------------------------------------
# SVD differential (full mode)
# ---------------------------------------------------------------------------


def _svd_backward(u, s, v, du, ds, dv):
    """Gradient w.r.t. the decomposed matrix given factor gradients.

    Standard thin-SVD differential with clamped cross terms, counted in
    :data:`clamped_terms`.
    """
    global clamped_terms
    n, r = u.shape
    d = v.shape[0]
    s2 = s * s
    smax2 = s2[0] if s2.size and s2[0] > 0 else 1.0
    diff = s2[None, :] - s2[:, None]
    tau = _DENOM_CLAMP_REL * smax2
    clamped = np.abs(diff) < tau
    n_small = int(np.count_nonzero(clamped) - np.count_nonzero(clamped.diagonal()))
    if n_small:
        clamped_terms += n_small
        if logger.isEnabledFor(logging.DEBUG):
            gaps = np.abs(diff)
            np.fill_diagonal(gaps, np.inf)
            logger.debug(
                "clamped cross terms: %d cross-term denominators clamped (min gap %.3g)",
                n_small,
                float(gaps.min()),
            )
    f = 1.0 / np.where(clamped, np.where(diff < 0, -tau, tau), diff)
    np.fill_diagonal(f, 0.0)

    utdu = u.T @ du
    vtdv = v.T @ dv
    bracket = np.zeros((r, r), dtype=u.dtype)
    bracket[np.diag_indices(r)] = ds
    bracket += (f * (utdu - utdu.T)) * s[None, :]
    bracket += s[:, None] * (f * (vtdv - vtdv.T))
    da = u @ bracket @ v.T
    # r = min(n, d), so at most one of the two tails is nonempty
    s_floor = np.maximum(s, 1e-12 * np.sqrt(smax2))
    if n > r:
        da += (du - u @ utdu) / s_floor[None, :] @ v.T
    if d > r:
        da += (u / s_floor[None, :]) @ (dv - v @ vtdv).T
    return da


# ---------------------------------------------------------------------------
# the filter itself
# ---------------------------------------------------------------------------


def spectral_filter(phi: Tensor, w: np.ndarray, mode: str = "projected") -> Tensor:
    """Weighted spectral reconstruction ``U diag(w * sigma) V^T`` of ``phi``.

    ``w`` is an array of length ``min(phi.shape)``: :func:`gate_weights`
    keeps the leading spectrum, and ``1 - w`` the trailing one.
    """
    if mode not in GRADIENT_MODES:
        raise SpectralError(f"unknown gradient mode '{mode}'")
    factors = thin_svd(phi)
    u, s, v = factors.u, factors.sigma, factors.v
    if w.shape != s.shape:
        raise SpectralError(
            f"gate weights shape {w.shape} does not match spectrum length {s.shape[0]}"
        )
    s_used = w * s

    def backward(out):
        g = out.grad
        if mode == "projected":
            _accumulate(phi, g @ ((v * w) @ v.T))
        else:
            du = g @ (v * s_used)
            dv = g.T @ (u * s_used)
            ds = w * np.diagonal(u.T @ g @ v)
            _accumulate(phi, _svd_backward(u, s, v, du, ds, dv))

    return _make((u * s_used) @ v.T, (phi,), backward)
