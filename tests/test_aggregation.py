"""Aggregation rules against independent numerical-minimization oracles."""
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from fedcox.aggregation import (
    _VAR_FLOOR,
    AggregationMethod,
    _mmd_gradient,
    _mmd_point,
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


def _mmd_objective(mu, var, means, variances, delta):
    """Summed per-client MMD terms that depend on the prior, per dimension."""
    d2 = delta * delta
    prior_self = 1.0 / np.sqrt(d2 + 4.0 * var)  # (D,)
    s = d2 + 2.0 * variances + 2.0 * var  # (C, D)
    cross = np.exp(-((means - mu) ** 2) / s) / np.sqrt(s)
    return means.shape[0] * prior_self - 2.0 * cross.sum(axis=0)


def _mmd_reference_gradient(mu, var, means, variances, delta):
    """Gradient of :func:`_mmd_objective` w.r.t. (mu, var), per dimension."""
    d2 = delta * delta
    diff = means - mu  # (C, D)
    s = d2 + 2.0 * variances + 2.0 * var
    e = np.exp(-(diff**2) / s)
    g_mu = -(4.0 * diff * e * s**-1.5).sum(axis=0)
    g_var = (
        -2.0 * means.shape[0] * (d2 + 4.0 * var) ** -1.5
        + (e * (2.0 * s**-1.5 - 4.0 * diff**2 * s**-2.5)).sum(axis=0)
    )
    return g_mu, g_var


def reference_mmd(phis, method):
    """The MMD loop as first written: objective and gradient evaluated
    separately, the gradient recomputing the accepted trial's terms.

    Returns the aggregate and the number of (step, dimension) halvings.
    """
    means = np.stack([p.mean for p in phis])
    variances = np.stack([p.var for p in phis])
    delta = method.mmd_delta
    warm = aggregate_kl(phis)
    mu, logv = warm.mean.copy(), np.log(warm.var)
    obj = _mmd_objective(mu, np.exp(logv), means, variances, delta)
    best_mu, best_logv, best_obj = mu.copy(), logv.copy(), obj.copy()
    step = np.full(mu.shape, method.mmd_eta)
    halvings = 0
    for _ in range(method.mmd_steps):
        var = np.exp(logv)
        g_mu, g_var = _mmd_reference_gradient(mu, var, means, variances, delta)
        g_logv = g_var * var
        trial_mu = mu - step * g_mu
        trial_logv = logv - step * g_logv
        trial_obj = _mmd_objective(
            trial_mu, np.exp(trial_logv), means, variances, delta
        )
        worse = trial_obj > obj
        halvings += int(worse.sum())
        step = np.where(worse, 0.5 * step, step)
        mu = np.where(worse, mu, trial_mu)
        logv = np.where(worse, logv, trial_logv)
        obj = np.where(worse, obj, trial_obj)
        improved = obj < best_obj
        best_mu = np.where(improved, mu, best_mu)
        best_logv = np.where(improved, logv, best_logv)
        best_obj = np.where(improved, obj, best_obj)
    return DiagGaussian(best_mu, np.exp(best_logv)), halvings


class TestMmdBitIdentity:
    """The one-evaluation loop against :func:`reference_mmd`, byte for byte."""

    @staticmethod
    def records(n_clients, scale, seed=0, dim=330):
        rng = np.random.default_rng(seed)
        means = rng.normal(scale=scale, size=(n_clients, dim))
        variances = rng.uniform(0.01, 2.0, size=(n_clients, dim))
        return gaussians(means, variances)

    @staticmethod
    def assert_bytes_equal(phis, method):
        want, halvings = reference_mmd(phis, method)
        got = aggregate_mmd(phis, method)
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.var.tobytes() == want.var.tobytes()
        return halvings

    @pytest.mark.parametrize("n_clients", [1, 3, 8])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 8.0, 60.0])
    def test_default_knobs(self, n_clients, scale):
        phis = self.records(n_clients, scale, seed=n_clients)
        self.assert_bytes_equal(phis, AggregationMethod("mmd"))

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_step_halving(self, scale):
        phis = self.records(8, scale, seed=11)
        method = AggregationMethod("mmd", mmd_delta=0.3, mmd_steps=100,
                                   mmd_eta=1.0)
        halvings = self.assert_bytes_equal(phis, method)
        # Halving fires in some dimensions but not all, step after step.
        assert 100 < halvings < 100 * 330

    @pytest.mark.parametrize("steps", [0, 1])
    def test_zero_and_one_step(self, steps):
        # AggregationMethod requires a positive count, so 0 comes this way.
        method = SimpleNamespace(kind="mmd", mmd_delta=1.0, mmd_steps=steps,
                                 mmd_eta=1e-2)
        self.assert_bytes_equal(self.records(3, 1.0), method)

    def test_numpy_scalar_knobs(self):
        method = AggregationMethod("mmd", mmd_delta=np.float64(0.5),
                                   mmd_steps=np.int64(40),
                                   mmd_eta=np.float32(0.3))
        self.assert_bytes_equal(self.records(3, 1.0, seed=5), method)


def test_mmd_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    means = rng.normal(size=(4, 6))
    variances = rng.uniform(0.1, 2.0, size=(4, 6))
    mu, var = rng.normal(size=6), rng.uniform(0.2, 1.5, size=6)
    delta = 0.7
    d2 = delta * delta
    base = d2 + 2.0 * variances

    def objective(m, v):
        return _mmd_point(m, v, means, base, d2)[0]

    g_mu, g_var = _mmd_gradient(_mmd_point(mu, var, means, base, d2)[1])
    h = 1e-6
    fd_mu = (objective(mu + h, var) - objective(mu - h, var)) / (2 * h)
    fd_var = (objective(mu, var + h) - objective(mu, var - h)) / (2 * h)
    np.testing.assert_allclose(g_mu, fd_mu, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(g_var, fd_var, rtol=1e-6, atol=1e-8)


class TestMmdNonFinite:
    # The warm start's second moment overflows: (1e308)**2 is inf.
    OVERFLOW = gaussians([[1e308, 0.5], [-1e308, 0.5]], [[1.0, 1.0], [1.0, 1.0]])

    def test_overflowing_warm_start_raises(self):
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                      match="warm start"):
            aggregate(AggregationMethod("mmd"), self.OVERFLOW)

    def test_overflowing_step_raises(self):
        # A step of 1e308 sends mu to infinity; the next gradient is NaN.
        phis = gaussians([[0.0], [1.0], [3.0]], [[1.0], [1.0], [1.0]])
        method = AggregationMethod("mmd", mmd_eta=1e308, mmd_steps=50)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                      match="became non-finite"):
            aggregate(method, phis)


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


@pytest.mark.parametrize("kind", ["fedavg", "kl", "w2", "mmd"])
def test_collapsed_clients_get_the_variance_floor(kind, caplog):
    phis = gaussians([[0.3, -1.0]] * 3, [[1e-300, 1e-300]] * 3)
    with caplog.at_level("WARNING"):
        out = aggregate(AggregationMethod(kind), phis)
    np.testing.assert_array_equal(out.var, _VAR_FLOOR)
    assert any(f"{kind} aggregation variance clamped" in r.getMessage()
               for r in caplog.records)
    # Each rule's warning names that rule only.
    others = [k for k in ("fedavg", "kl", "w2", "mmd") if k != kind]
    assert not any(k in r.getMessage() for r in caplog.records for k in others)


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

    def test_numpy_scalars_accepted(self):
        m = AggregationMethod("mmd", mmd_delta=np.float64(0.5),
                              mmd_steps=np.int64(5), mmd_eta=np.float32(0.01))
        assert m.mmd_steps == 5

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
