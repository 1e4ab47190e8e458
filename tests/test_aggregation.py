"""Aggregation rules against independent numerical-minimization oracles."""
import numpy as np
import pytest
from scipy.optimize import minimize

from fedcox.aggregation import (
    AggregationMethod,
    aggregate,
    aggregate_fedavg,
    aggregate_kl,
    aggregate_mmd,
    aggregate_w2,
)
from fedcox.numerics import DiagGaussian, kl_diag, w2_diag


def gaussians(means, variances):
    means = np.atleast_2d(np.asarray(means, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    return [DiagGaussian(m, v) for m, v in zip(means, variances)]


def minimize_summed_divergence(phis, divergence):
    """L-BFGS minimization of sum_c D(q_c || N(mu, sigma^2)) over (mu, log var)."""
    dim = phis[0].dim

    def objective(x):
        p = DiagGaussian(x[:dim], np.exp(x[dim:]))
        return sum(divergence(q, p) for q in phis)

    x0 = np.concatenate([np.mean([q.mean for q in phis], axis=0), np.zeros(dim)])
    result = minimize(objective, x0, method="L-BFGS-B",
                      options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 2000})
    return DiagGaussian(result.x[:dim], np.exp(result.x[dim:]))


def random_instance(rng, dim):
    n_clients = int(rng.integers(2, 11))
    means = rng.normal(scale=2.0, size=(n_clients, dim))
    variances = rng.uniform(0.1, 4.0, size=(n_clients, dim))
    return gaussians(means, variances)


class TestFedAvg:
    def test_single_client_identity(self):
        phi = DiagGaussian(np.array([1.0, -2.0]), np.array([0.5, 3.0]))
        out = aggregate_fedavg([phi])
        np.testing.assert_array_equal(out.mean, phi.mean)
        np.testing.assert_array_equal(out.var, phi.var)

    def test_two_client_arithmetic(self):
        phis = gaussians([[0.0], [2.0]], [[1.0], [1.0]])
        out = aggregate_fedavg(phis)
        assert out.mean[0] == pytest.approx(1.0)
        assert out.var[0] == pytest.approx(1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        phis = random_instance(rng, 3)
        out1 = aggregate_fedavg(phis)
        out2 = aggregate_fedavg(phis[::-1])
        np.testing.assert_allclose(out1.mean, out2.mean, rtol=1e-14)
        np.testing.assert_allclose(out1.var, out2.var, rtol=1e-14)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_fedavg([])


class TestKl:
    def test_single_client_identity(self):
        phi = DiagGaussian(np.array([0.7]), np.array([1.3]))
        out = aggregate_kl([phi])
        np.testing.assert_allclose(out.mean, phi.mean, rtol=1e-14)
        np.testing.assert_allclose(out.var, phi.var, rtol=1e-12)

    def test_two_client_fixture(self):
        # mu = 1, var = ((1+0-1) + (1+4-1)) / 2 = 2; cross-checked against
        # a numerical minimizer of the summed KL.
        phis = gaussians([[0.0], [2.0]], [[1.0], [1.0]])
        out = aggregate_kl(phis)
        assert out.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert out.var[0] == pytest.approx(2.0, abs=1e-12)
        oracle = minimize_summed_divergence(phis, kl_diag)
        assert oracle.mean[0] == pytest.approx(1.0, abs=1e-6)
        assert oracle.var[0] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("kind", ["kl", "mmd"])
    def test_large_means_accepted(self, kind):
        # The moment form loses digits here; MMD warm-starts from KL.
        phis = gaussians([[-64.6], [-65.2]], [[0.26], [0.62]])
        out = aggregate(AggregationMethod(kind), phis)
        assert np.all(np.isfinite(out.mean)) and np.all(out.var > 0)
        if kind == "kl":
            assert out.var[0] == pytest.approx(0.53, rel=1e-9)

    def test_matches_numerical_minimizer(self):
        rng = np.random.default_rng(1)
        for dim in (1, 5):
            phis = random_instance(rng, dim)
            closed = aggregate_kl(phis)
            oracle = minimize_summed_divergence(phis, kl_diag)
            np.testing.assert_allclose(closed.mean, oracle.mean, atol=1e-6)
            np.testing.assert_allclose(closed.var, oracle.var, atol=1e-6)

    def test_variance_identity_vs_fedavg(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            phis = random_instance(rng, 4)
            means = np.stack([p.mean for p in phis])
            got = aggregate_kl(phis).var - aggregate_fedavg(phis).var
            np.testing.assert_allclose(got, means.var(axis=0), atol=1e-12)

    def test_never_below_fedavg_variance(self):
        rng = np.random.default_rng(3)
        phis = random_instance(rng, 3)
        assert np.all(aggregate_kl(phis).var >= aggregate_fedavg(phis).var - 1e-15)


class TestW2:
    def test_single_client_identity(self):
        phi = DiagGaussian(np.array([0.3, 0.4]), np.array([2.0, 0.25]))
        out = aggregate_w2([phi])
        np.testing.assert_allclose(out.mean, phi.mean, rtol=1e-14)
        np.testing.assert_allclose(out.var, phi.var, rtol=1e-12)

    def test_two_client_fixture(self):
        # stds {1, 3} average to 2, so var = 4; KL on the same input gives 5.
        phis = gaussians([[0.0], [0.0]], [[1.0], [9.0]])
        out = aggregate_w2(phis)
        assert out.mean[0] == pytest.approx(0.0, abs=1e-14)
        assert out.var[0] == pytest.approx(4.0, rel=1e-12)
        assert aggregate_kl(phis).var[0] == pytest.approx(5.0, rel=1e-12)
        oracle = minimize_summed_divergence(phis, lambda q, p: w2_diag(q, p) ** 2)
        assert oracle.mean[0] == pytest.approx(0.0, abs=1e-6)
        assert oracle.var[0] == pytest.approx(4.0, abs=1e-5)

    def test_matches_numerical_minimizer(self):
        rng = np.random.default_rng(4)
        for dim in (1, 5):
            phis = random_instance(rng, dim)
            closed = aggregate_w2(phis)
            oracle = minimize_summed_divergence(
                phis, lambda q, p: w2_diag(q, p) ** 2
            )
            np.testing.assert_allclose(closed.mean, oracle.mean, atol=1e-6)
            np.testing.assert_allclose(closed.var, oracle.var, atol=1e-6)

    def test_identical_clients(self):
        phi = DiagGaussian(np.array([1.0]), np.array([2.0]))
        out = aggregate_w2([phi, phi, phi])
        np.testing.assert_allclose(out.mean, phi.mean, rtol=1e-14)
        np.testing.assert_allclose(out.var, phi.var, rtol=1e-12)

    def test_variance_ordering(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            phis = random_instance(rng, 3)
            v_avg = aggregate_fedavg(phis).var
            v_kl = aggregate_kl(phis).var
            v_w2 = aggregate_w2(phis).var
            assert np.all(v_kl >= v_avg - 1e-12)
            assert np.all(v_w2 <= v_kl + 1e-12)


def mmd_grid_search(phis, delta, mu_range, sigma_range, step=1e-3):
    """Dense 2-D grid search over (mu, sigma) for 1-D client sets."""
    means = np.array([p.mean[0] for p in phis])
    variances = np.array([p.var[0] for p in phis])
    mus = np.arange(mu_range[0], mu_range[1] + step, step)
    sigmas = np.arange(sigma_range[0], sigma_range[1] + step, step)
    mu_grid, sigma_grid = np.meshgrid(mus, sigmas, indexing="ij")
    var_grid = sigma_grid**2
    d2 = delta * delta
    total = len(phis) / np.sqrt(d2 + 4.0 * var_grid)
    for r, dv in zip(means, variances):
        s = d2 + 2.0 * dv + 2.0 * var_grid
        total -= 2.0 * np.exp(-((r - mu_grid) ** 2) / s) / np.sqrt(s)
    idx = np.unravel_index(np.argmin(total), total.shape)
    return float(mu_grid[idx]), float(var_grid[idx])


class TestMmd:
    def test_single_client_recovers_phi(self):
        phi = DiagGaussian(np.array([0.8]), np.array([1.7]))
        method = AggregationMethod("mmd", mmd_delta=1.0, mmd_steps=3000,
                                   mmd_eta=5e-2)
        out = aggregate_mmd([phi], method)
        assert out.mean[0] == pytest.approx(0.8, abs=1e-3)
        assert out.var[0] == pytest.approx(1.7, abs=1e-3)

    def test_matches_grid_search(self):
        phis = gaussians([[-1.0], [1.0]], [[1.0], [1.0]])
        method = AggregationMethod("mmd", mmd_delta=1.0, mmd_steps=2000,
                                   mmd_eta=2e-2)
        out = aggregate_mmd(phis, method)
        mu_star, var_star = mmd_grid_search(
            phis, 1.0, (-2.0, 2.0), (0.05, 3.0)
        )
        assert out.mean[0] == pytest.approx(mu_star, abs=1e-3)
        assert np.sqrt(out.var[0]) == pytest.approx(np.sqrt(var_star), abs=2e-3)

    def test_symmetric_inputs_centered(self):
        phis = gaussians([[-1.5], [1.5]], [[0.8], [0.8]])
        method = AggregationMethod("mmd", mmd_delta=1.0)
        out = aggregate_mmd(phis, method)
        assert abs(out.mean[0]) < 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        phis = random_instance(rng, 2)
        method = AggregationMethod("mmd", mmd_delta=1.0)
        a = aggregate_mmd(phis, method)
        b = aggregate_mmd(phis[::-1], method)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.var, b.var, atol=1e-12)

    def test_dimensions_optimized_independently(self):
        rng = np.random.default_rng(8)
        phis = random_instance(rng, 3)
        method = AggregationMethod("mmd", mmd_delta=1.0)
        joint = aggregate_mmd(phis, method)
        for d in range(3):
            marginals = [DiagGaussian(p.mean[d:d + 1], p.var[d:d + 1])
                         for p in phis]
            single = aggregate_mmd(marginals, method)
            assert single.mean[0] == pytest.approx(joint.mean[d], abs=1e-10)
            assert single.var[0] == pytest.approx(joint.var[d], abs=1e-10)


class TestMethodValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown aggregation"):
            AggregationMethod("median")

    def test_mmd_fields_only_for_mmd(self):
        with pytest.raises(ValueError):
            AggregationMethod("kl", mmd_delta=1.0)

    def test_mmd_defaults_filled(self):
        m = AggregationMethod("mmd")
        assert m.mmd_delta == 1.0 and m.mmd_steps == 500 and m.mmd_eta == 1e-2

    def test_dispatch(self):
        phis = gaussians([[0.0], [2.0]], [[1.0], [1.0]])
        assert aggregate(AggregationMethod("kl"), phis).var[0] == pytest.approx(2.0)
        assert aggregate(AggregationMethod("fedavg"), phis).var[0] == pytest.approx(1.0)

    def test_closed_forms_beat_a_million_perturbations(self):
        # Vectorized batch forms of the two divergences, evaluated over
        # 1e6 perturbations of the returned optimum (scale 1e-2).
        rng = np.random.default_rng(7)
        phis = random_instance(rng, 5)
        means = np.stack([p.mean for p in phis])  # (C, 5)
        variances = np.stack([p.var for p in phis])

        def batch_kl(mu, var):
            # sum_c KL(q_c || N(mu, var)) for mu/var of shape (B, 5)
            ratio = variances[None] / var[:, None]
            quad = (means[None] - mu[:, None]) ** 2 / var[:, None]
            return 0.5 * np.sum(ratio + quad - 1.0 - np.log(ratio), axis=(1, 2))

        def batch_w2sq(mu, var):
            dm = means[None] - mu[:, None]
            ds = np.sqrt(variances)[None] - np.sqrt(var)[:, None]
            return np.sum(dm * dm + ds * ds, axis=(1, 2))

        for rule, batch in [(aggregate_kl, batch_kl), (aggregate_w2, batch_w2sq)]:
            theta = rule(phis)
            base = batch(theta.mean[None], theta.var[None])[0]
            best = np.inf
            for _ in range(10):  # 10 chunks of 1e5 perturbations
                mu = theta.mean + rng.normal(scale=1e-2, size=(100_000, 5))
                var = theta.var * np.exp(rng.normal(scale=1e-2, size=(100_000, 5)))
                best = min(best, float(batch(mu, var).min()))
            assert best >= base - 1e-10
