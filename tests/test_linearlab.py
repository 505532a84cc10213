import numpy as np
import pytest

from labelalign import linearlab
from labelalign.autodiff import Tensor
from labelalign.linearlab import (
    FORMS,
    LinearLabError,
    gen_synthetic,
    identity_suite,
    linear_objective,
    solve_linear_uda,
)

from conftest import rel_err


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_full_rank_alignment_leaves_no_zero_constraint():
    p = gen_synthetic(20, 6, k_star=6, seed=0)
    yu = p.source.u.T @ p.y
    assert (np.abs(yu) > 1e-3).all()


def test_rank_one_alignment():
    p = gen_synthetic(20, 6, k_star=1, seed=1)
    yu = p.source.u.T @ p.y
    assert abs(yu[0]) > 0.1
    assert np.abs(yu[1:]).max() <= 1e-10


def test_generation_is_deterministic():
    a = gen_synthetic(16, 5, 2, noise=0.1, seed=42)
    b = gen_synthetic(16, 5, 2, noise=0.1, seed=42)
    np.testing.assert_array_equal(a.phi, b.phi)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.phi_tilde, b.phi_tilde)


def test_generation_validates_ranks():
    with pytest.raises(LinearLabError):
        gen_synthetic(10, 4, k_star=5)
    with pytest.raises(LinearLabError):
        gen_synthetic(10, 4, k_star=0)
    with pytest.raises(LinearLabError):
        gen_synthetic(4, 10, k_star=2)
    for noise in (-0.1, float("nan"), float("inf")):
        with pytest.raises(LinearLabError, match="noise must be finite and nonnegative"):
            gen_synthetic(10, 4, 2, noise=noise)


def test_factors_are_a_valid_svd():
    p = gen_synthetic(32, 8, 3, seed=5)
    for f, phi in ((p.source, p.phi), (p.target, p.phi_tilde)):
        assert np.abs(f.u.T @ f.u - np.eye(8)).max() < 1e-12
        assert np.abs(f.v.T @ f.v - np.eye(8)).max() < 1e-12
        assert (np.diff(f.sigma) < 0).all() and (f.sigma > 0).all()
        np.testing.assert_allclose((f.u * f.sigma) @ f.v.T, phi, atol=1e-12)


# ---------------------------------------------------------------------------
# objective forms
# ---------------------------------------------------------------------------


def test_zero_weights_values():
    p = gen_synthetic(24, 6, 2, seed=2)
    w = np.zeros(6)
    assert abs(linear_objective(p, w, 2, "full") - float(p.y @ p.y)) < 1e-12
    assert linear_objective(p, w, 2, "matrix_bottom") == 0.0


def test_unknown_form_rejected():
    p = gen_synthetic(12, 4, 2)
    with pytest.raises(LinearLabError, match="unknown objective form"):
        linear_objective(p, np.zeros(4), 2, "eq1")
    with pytest.raises(LinearLabError, match="k must lie"):
        linear_objective(p, np.zeros(4), 9, "full")


def test_full_equals_decomposed_under_exact_alignment():
    p = gen_synthetic(40, 10, k_star=4, noise=0.0, seed=3)
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = rng.standard_normal(10)
        a = linear_objective(p, w, 4, "full")
        b = linear_objective(p, w, 4, "decomposed")
        assert rel_err(a, b) <= 1e-8


def test_uda_equals_combined_under_exact_alignment():
    p = gen_synthetic(40, 10, k_star=4, noise=0.0, seed=4)
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = rng.standard_normal(10)
        a = linear_objective(p, w, 4, "uda")
        b = linear_objective(p, w, 4, "combined")
        assert rel_err(a, b) <= 1e-8


def test_matrix_forms_match_sums():
    p = gen_synthetic(32, 8, k_star=3, noise=0.0, seed=5)
    src, tgt = p.source, p.target
    yu = src.u.T @ p.y
    rng = np.random.default_rng(5)
    # k = 0 and k = d are the all-zero and all-one hard gates
    for k in (0, 3, 8):
        for _ in range(50):
            w = rng.standard_normal(8)
            wv = src.v.T @ w
            # y lies in span(u): the top filter drops exactly its mass past k
            top_sum = float(np.sum((src.sigma[:k] * wv[:k] - yu[:k]) ** 2) + np.sum(yu[k:] ** 2))
            wvt = tgt.v.T @ w
            bottom_sum = float(np.sum((tgt.sigma[k:] * wvt[k:]) ** 2))
            assert rel_err(top_sum, linear_objective(p, w, k, "matrix_top")) <= 1e-8
            assert rel_err(bottom_sum, linear_objective(p, w, k, "matrix_bottom")) <= 1e-8


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_zero_labels_keep_zero_weights():
    p = gen_synthetic(16, 4, 2, seed=6)
    p.y[:] = 0.0
    w = solve_linear_uda(p, 2)
    assert np.linalg.norm(w) <= 1e-12
    assert linear_objective(p, w, 2, "combined") <= 1e-24


def test_solution_satisfies_first_order_optimality():
    p = gen_synthetic(48, 12, 5, seed=7)
    w = solve_linear_uda(p, 5)
    # independent check: numeric gradient of the combined objective
    eps = 1e-7
    for i in range(0, 12, 3):
        delta = np.zeros(12)
        delta[i] = eps
        hi = linear_objective(p, w + delta, 5, "combined")
        lo = linear_objective(p, w - delta, 5, "combined")
        assert abs((hi - lo) / (2 * eps)) < 1e-4


@pytest.mark.parametrize("n, d, k", [(64, 16, 4), (48, 12, 5), (20, 6, 0), (20, 6, 6)])
def test_noisy_combined_objective_is_solved_to_zero(n, d, k):
    # d equations in d unknowns: k source rows over d - k target rows, full
    # rank, so even noisy labels leave no residual
    p = gen_synthetic(n, d, max(k, 1), noise=0.05, seed=11)
    w = solve_linear_uda(p, k)
    assert w.shape == (d,)
    assert linear_objective(p, w, k, "combined") <= 1e-20 * max(1.0, float(p.y @ p.y))


def test_solver_matches_random_restart_search():
    scipy_opt = pytest.importorskip("scipy.optimize")
    p = gen_synthetic(12, 4, 2, seed=8)
    w = solve_linear_uda(p, 2)
    rng = np.random.default_rng(8)
    best = np.inf
    for _ in range(64):
        start = rng.standard_normal(4) * 2.0
        res = scipy_opt.minimize(
            lambda v: linear_objective(p, v, 2, "combined"),
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000},
        )
        best = min(best, float(res.fun))
    assert linear_objective(p, w, 2, "combined") <= best + 1e-12


def test_solver_rejects_a_cut_outside_the_spectrum():
    p = gen_synthetic(16, 4, 2, seed=10)
    for k in (-1, 5):
        with pytest.raises(LinearLabError, match="k must lie"):
            solve_linear_uda(p, k)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def test_identity_suite_all_ok_without_noise():
    rows = identity_suite(sizes=((32, 8), (64, 16)), k_star=4, seeds=5, draws=20)
    assert rows
    assert all(r.ok for r in rows)
    assert all(r.residual <= 1e-8 for r in rows)
    pairs = {r.pair for r in rows}
    assert pairs == {
        "full=decomposed",
        "uda=combined",
        "top-sum=matrix_top",
        "trail-sum=matrix_bottom",
    }


def test_identity_suite_noise_mode_uses_bounds():
    rows = identity_suite(sizes=((32, 8),), k_star=3, seeds=5, noise=0.1, draws=20)
    assert all(r.ok for r in rows)
    assert any("~" in r.pair for r in rows)
    # the top filter drops exactly the noise mass, so its pair stays exact
    top = [r.residual for r in rows if r.pair == "top-sum+dropped=matrix_top"]
    assert len(top) == 5 and max(top) <= 1e-8


def test_identity_suite_catches_a_filter_with_swapped_sides(monkeypatch):
    # the mutant applies the complement of the weights it is given
    real = linearlab.spectral_filter
    monkeypatch.setattr(
        linearlab, "spectral_filter", lambda phi, w, *rest: real(phi, Tensor(1.0 - w.data), *rest)
    )
    top_pair = {0.0: "top-sum=matrix_top", 0.05: "top-sum+dropped=matrix_top"}
    for noise, top in top_pair.items():
        rows = identity_suite(sizes=((32, 8),), k_star=3, seeds=3, noise=noise, draws=5)
        assert {r.pair for r in rows if not r.ok} == {top, "trail-sum=matrix_bottom"}
        assert min(r.residual for r in rows if not r.ok) > 0.1


def test_identity_suite_rejects_wide_problems():
    with pytest.raises(LinearLabError):
        identity_suite(sizes=((8, 32),))


def test_forms_constant_is_public():
    assert FORMS == ("full", "decomposed", "uda", "combined", "matrix_top", "matrix_bottom")
