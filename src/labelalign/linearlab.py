"""Linear-regression laboratory for the label-alignment identities.

On synthetic problems with exact, controllable alignment rank the plain
least-squares objective, its decomposition in the singular basis, the
domain-adaptation surrogate and the hard-gated matrix forms must all agree.
This module generates such problems, evaluates every objective form at
64-bit, and checks the pairwise identities across sizes and seeds.

The matrix forms run training's own filter, :func:`spectral.spectral_filter`,
with training's own split: the 0/1 weights ``w_i = [i < k]`` of
:func:`spectral.gate_weights` on the source and ``1 - w`` on the target.  So
the identity suite checks the filter and the exact split the deep objective
uses, not the objective built on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .spectral import SvdFactors, gate_weights, spectral_filter

FORMS = ("full", "decomposed", "uda", "combined", "matrix_top", "matrix_bottom")


class LinearLabError(Exception):
    pass


@dataclass
class LinearProblem:
    """Synthetic source/target pair with known alignment rank.

    Each domain keeps its construction factors: orthonormal ``u`` (n x d) and
    ``v`` (d x d) and a strictly decreasing positive spectrum, with
    ``phi = source.reconstruct()`` and ``phi_tilde = target.reconstruct()``.
    ``y`` is built from the first ``k_star`` columns of ``source.u`` (plus
    optional noise).
    """

    phi: np.ndarray
    y: np.ndarray
    phi_tilde: np.ndarray
    k_star: int
    noise: float
    source: SvdFactors
    target: SvdFactors

    @property
    def d(self) -> int:
        return self.phi.shape[1]


def _random_factors(rng, n: int, d: int) -> SvdFactors:
    u, _ = np.linalg.qr(rng.standard_normal((n, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return SvdFactors(u=u, sigma=2.0 * 0.8 ** np.arange(d), v=v)


def gen_synthetic(n: int, d: int, k_star: int, noise: float = 0.0, seed: int = 0) -> LinearProblem:
    if not 1 <= k_star <= d:
        raise LinearLabError(f"k_star must satisfy 1 <= k_star <= d, got {k_star} with d={d}")
    if d > n:
        raise LinearLabError(f"the lab requires d <= n, got d={d}, n={n}")
    if not 0 <= noise < np.inf:
        raise LinearLabError(f"noise must be finite and nonnegative, got {noise}")
    rng = np.random.Generator(np.random.PCG64(seed))
    source = _random_factors(rng, n, d)
    coeff = rng.uniform(0.5, 1.5, size=k_star) * rng.choice([-1.0, 1.0], size=k_star)
    y = source.u[:, :k_star] @ coeff
    if noise > 0:
        y = y + noise * rng.standard_normal(n)
    target = _random_factors(rng, n, d)
    return LinearProblem(
        phi=source.reconstruct(),
        y=y,
        phi_tilde=target.reconstruct(),
        k_star=k_star,
        noise=noise,
        source=source,
        target=target,
    )


# ---------------------------------------------------------------------------
# objective forms
# ---------------------------------------------------------------------------


def _terms(problem: LinearProblem, w: np.ndarray, k: int):
    src, tgt = problem.source, problem.target
    wv = src.v.T @ w
    yu = src.u.T @ problem.y
    wvt = tgt.v.T @ w
    fit_top = float(np.sum((src.sigma[:k] * wv[:k] - yu[:k]) ** 2))
    trail_src = float(np.sum((src.sigma[k:] * wv[k:]) ** 2))
    trail_tgt = float(np.sum((tgt.sigma[k:] * wvt[k:]) ** 2))
    return fit_top, trail_src, trail_tgt, yu


def _hard_filter(phi: np.ndarray, k: int, top: bool) -> np.ndarray:
    """``spectral_filter`` of ``phi`` at float64 with training's split at
    ``k``: the leading ``k`` directions (``top``), or the rest."""
    w = gate_weights(k, min(phi.shape), np.float64)
    return spectral_filter(Tensor(phi), w if top else 1 - w).data


def _squared_residual(filtered: np.ndarray, w: np.ndarray, y) -> float:
    """``||filtered @ w - y||^2``: a matrix form from its hard-filtered matrix."""
    return float(np.sum((filtered @ w - y) ** 2))


def linear_objective(problem: LinearProblem, w: np.ndarray, k: int, form: str) -> float:
    """Evaluate one objective form at 64-bit.

    ``full``          plain least squares on the source.
    ``decomposed``    top-k fit plus trailing suppression in the singular basis.
    ``uda``           full source loss, minus the source trailing term, plus the
                      target trailing term (same cut index for both domains).
    ``combined``      top-k source fit plus the target trailing term.
    ``matrix_top``    least squares against the hard-gated top filter of the
                      source.
    ``matrix_bottom`` squared output norm of the hard-gated bottom filter of
                      the target.
    """
    if form not in FORMS:
        raise LinearLabError(f"unknown objective form '{form}' (expected one of {FORMS})")
    if not 0 <= k <= problem.d:
        raise LinearLabError(f"k must lie in [0, {problem.d}], got {k}")
    w = np.asarray(w, dtype=np.float64)
    if form == "full":
        return float(np.sum((problem.phi @ w - problem.y) ** 2))
    if form == "matrix_top":
        return _squared_residual(_hard_filter(problem.phi, k, top=True), w, problem.y)
    if form == "matrix_bottom":
        return _squared_residual(_hard_filter(problem.phi_tilde, k, top=False), w, 0.0)
    fit_top, trail_src, trail_tgt, _ = _terms(problem, w, k)
    if form == "decomposed":
        return fit_top + trail_src
    if form == "uda":
        return linear_objective(problem, w, k, "full") - trail_src + trail_tgt
    return fit_top + trail_tgt  # combined


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def solve_linear_uda(problem: LinearProblem, k: int) -> np.ndarray:
    """The exact minimiser of the ``combined`` objective.

    That objective is the squared residual of one stacked linear system:
    the source rows ``diag(sigma_:k) V_:k^T w = (U^T y)_:k`` over the target
    rows ``diag(sigma~_k:) V~_k:^T w = 0``; one least-squares solve gives its
    minimum-norm minimiser.
    """
    if not 0 <= k <= problem.d:
        raise LinearLabError(f"k must lie in [0, {problem.d}], got {k}")
    src, tgt = problem.source, problem.target
    rows = np.vstack([src.sigma[:k, None] * src.v[:, :k].T, tgt.sigma[k:, None] * tgt.v[:, k:].T])
    rhs = np.concatenate([src.u[:, :k].T @ problem.y, np.zeros(problem.d - k)])
    return np.linalg.lstsq(rows, rhs, rcond=None)[0]


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@dataclass
class ResidualRow:
    n: int
    d: int
    k_star: int
    seed: int
    pair: str
    residual: float
    bound: float
    ok: bool


def _relative(a: float, b: float) -> float:
    denom = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / denom


def identity_suite(
    sizes=((64, 16),),
    k_star: int = 4,
    seeds: int = 20,
    noise: float = 0.0,
    draws: int = 100,
    tol: float = 1e-8,
) -> list[ResidualRow]:
    """Check every identity pair on random weights across sizes and seeds.

    With noise the exact identities no longer hold; the full/decomposed and
    uda/combined pairs are then checked against the bound implied by the
    dropped alignment mass, and rows report that bound instead.  The top
    filter drops exactly that mass, so ``matrix_top`` is checked against the
    top sum plus it; the bottom pair stays exact.  Each problem's two hard
    filters are built once and shared by all its draws.
    """
    if seeds < 1:
        raise LinearLabError(f"the suite needs seeds >= 1, got {seeds}")
    rows: list[ResidualRow] = []
    for n, d in sizes:
        k = min(k_star, d)
        for seed in range(seeds):
            problem = gen_synthetic(n, d, k, noise=noise, seed=seed)
            top = _hard_filter(problem.phi, k, top=True)
            bottom = _hard_filter(problem.phi_tilde, k, top=False)
            rng = np.random.Generator(np.random.PCG64(seed + 7919))
            worst: dict[str, tuple[float, float]] = {}
            for _ in range(draws):
                w = rng.standard_normal(d)
                full = linear_objective(problem, w, k, "full")
                dec = linear_objective(problem, w, k, "decomposed")
                uda = linear_objective(problem, w, k, "uda")
                comb = linear_objective(problem, w, k, "combined")
                mt = _squared_residual(top, w, problem.y)
                mb = _squared_residual(bottom, w, 0.0)
                fit_top, trail_src, trail_tgt, yu = _terms(problem, w, k)
                if noise == 0.0:
                    checks = {
                        "full=decomposed": (_relative(full, dec), tol),
                        "uda=combined": (_relative(uda, comb), tol),
                        "top-sum=matrix_top": (_relative(fit_top, mt), tol),
                        "trail-sum=matrix_bottom": (_relative(trail_tgt, mb), tol),
                    }
                else:
                    dropped_mid = float(np.sum(yu[k:] ** 2))
                    perp = problem.y - problem.source.u @ yu
                    dropped = dropped_mid + float(np.sum(perp**2))
                    bound = dropped + 2.0 * np.sqrt(trail_src * dropped_mid) + 1e-8
                    # uda - combined carries exactly the same dropped mass as
                    # full - decomposed, so both get the bounded-residual check;
                    # the top filter drops exactly ||y - U_k U_k^T y||^2
                    checks = {
                        "full~decomposed": (abs(full - dec), bound),
                        "uda~combined": (abs(uda - comb), bound),
                        "top-sum+dropped=matrix_top": (_relative(fit_top + dropped, mt), tol),
                        "trail-sum=matrix_bottom": (_relative(trail_tgt, mb), tol),
                    }
                for pair, (res, bnd) in checks.items():
                    cur = worst.get(pair)
                    if cur is None or res > cur[0]:
                        worst[pair] = (res, bnd)
            for pair, (res, bnd) in worst.items():
                rows.append(
                    ResidualRow(
                        n=n, d=d, k_star=k, seed=seed, pair=pair,
                        residual=res, bound=bnd, ok=res <= bnd,
                    )
                )
    return rows
