"""Client-side inference tests: moments, coordinate updates, bound, gradients."""
import copy
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit, roots_hermite

import fedcox.client as cl
from fedcox.dataio import EventSequence
from fedcox.kernel import (
    EncoderSpec,
    KernelParams,
    init_kernel_params,
    kernel_matrix,
)
from fedcox.numerics import DiagGaussian, kl_diag, solve_with, trapezoid_grid

SPEC = EncoderSpec(hidden_dim=2, output_dim=2, t_norm=1.0)
DIM = SPEC.n_params


def make_state(rng, n_seqs=3, max_events=5, n_inducing=4, n_grid=17,
               nu=None, m=None, spec=SPEC):
    """Randomized but internally consistent client state."""
    grid = trapezoid_grid(1.0, n_grid)
    seqs = []
    for _ in range(n_seqs):
        n = int(rng.integers(1, max_events + 1))
        seqs.append(EventSequence(times=np.sort(rng.uniform(0, 1, n)), horizon=1.0))
    n_events = sum(len(s) for s in seqs)
    phi = DiagGaussian(rng.standard_normal(spec.n_params) * 0.4,
                       np.exp(rng.standard_normal(spec.n_params) * 0.3))
    z = np.linspace(0.08, 0.92, n_inducing)
    a = rng.standard_normal((n_inducing, n_inducing)) * 0.3
    return cl.ClientState(
        id=0,
        train_seqs=seqs,
        grid=grid,
        spec=spec,
        m=float(rng.uniform(2.0, 10.0)) if m is None else m,
        nu=float(rng.normal(scale=0.4)) if nu is None else nu,
        phi=phi,
        q_u=cl.InducingPosterior(
            locations=z,
            mean=rng.standard_normal(n_inducing),
            cov=a @ a.T + 0.5 * np.eye(n_inducing),
        ),
        pg=rng.uniform(0.1, 2.0, n_events),
        latent_rate=rng.uniform(0.0, 5.0, n_grid),
        latent_c=rng.uniform(0.0, 2.0, n_grid),
    )


def random_theta(rng, spec=SPEC):
    return DiagGaussian(rng.standard_normal(spec.n_params) * 0.3,
                        np.exp(rng.standard_normal(spec.n_params) * 0.2))


def saturated_kernel_state(q_mean, q_var, m):
    """M = 1, huge length scale: posterior mean/var pinned everywhere."""
    spec = SPEC
    packed = np.zeros(spec.n_params)
    packed[-1] = 30.0  # log_l
    grid = trapezoid_grid(1.0, 5)
    return cl.ClientState(
        id=0,
        train_seqs=[],
        grid=grid,
        spec=spec,
        m=m,
        nu=0.0,
        phi=DiagGaussian(packed, np.full(spec.n_params, 1e-12)),
        q_u=cl.InducingPosterior(
            locations=np.array([0.5]),
            mean=np.array([q_mean]),
            cov=np.array([[q_var]]),
        ),
        pg=np.empty(0),
        latent_rate=np.zeros(5),
        latent_c=np.zeros(5),
    )


class TestPosteriorMoments:
    def test_prior_reproduced_at_inducing_points(self):
        rng = np.random.default_rng(0)
        st = make_state(rng, nu=0.7)
        w = st.phi.mean
        z = st.q_u.locations
        k_zz = kernel_matrix(z, z, KernelParams(w, st.spec))
        st.q_u = cl.InducingPosterior(
            locations=z, mean=np.full(z.size, st.nu), cov=k_zz
        )
        mean, var = cl.posterior_f_moments(st, w, z)
        np.testing.assert_allclose(mean, st.nu, atol=1e-7)
        np.testing.assert_allclose(var, np.diag(k_zz), rtol=1e-6)

    def test_scalar_hand_oracle(self):
        # One inducing point: every quantity is scalar arithmetic.
        rng = np.random.default_rng(1)
        st = make_state(rng, n_inducing=1, nu=0.3)
        st.q_u = cl.InducingPosterior(
            locations=np.array([0.5]), mean=np.array([1.2]),
            cov=np.array([[0.6]]),
        )
        w = st.phi.mean
        t = 0.27
        k11 = kernel_matrix([0.5], [0.5], KernelParams(w, st.spec))[0, 0]
        kt1 = kernel_matrix([t], [0.5], KernelParams(w, st.spec))[0, 0]
        expected_mean = st.nu + kt1 / k11 * (1.2 - st.nu)
        expected_var = k11 - kt1**2 / k11 + kt1**2 * 0.6 / k11**2
        # k(t, t) = k(z, z) because the diagonal is constant r
        mean, var = cl.posterior_f_moments(st, w, [t])
        assert mean[0] == pytest.approx(expected_mean, rel=1e-8)
        assert var[0] == pytest.approx(expected_var, rel=1e-6)

    def test_second_moment_dominates_square(self):
        rng = np.random.default_rng(2)
        st = make_state(rng)
        times = rng.uniform(0, 1, 11)
        mean, var = cl.posterior_f_moments(st, st.phi.mean, times)
        assert np.all(var >= 0)
        assert np.all(mean**2 + var >= mean**2)

    def test_mixture_over_samples(self):
        rng = np.random.default_rng(3)
        st = make_state(rng)
        w2 = cl.draw_w_samples(st.phi, 2, 99)
        times = np.array([0.2, 0.8])
        m1, v1 = cl.posterior_f_moments(st, w2[0], times)
        m2, v2 = cl.posterior_f_moments(st, w2[1], times)
        mm, vm = cl.posterior_f_moments(st, w2, times)
        np.testing.assert_allclose(mm, 0.5 * (m1 + m2), rtol=1e-12)
        second = 0.5 * (v1 + m1**2 + v2 + m2**2)
        np.testing.assert_allclose(vm + mm**2, second, rtol=1e-10)


class TestUpdatePg:
    def test_unit_moments(self):
        st = saturated_kernel_state(0.0, 1.0, 2.0)
        st.events = np.array([0.5])
        st.seq_slices = [slice(0, 1)]
        st.pg = np.ones(1)
        cl.update_pg(st, cl.sample_blocks(st, st.phi.mean))
        assert st.pg[0] == pytest.approx(1.0, rel=1e-6)

    def test_mean_three_var_four(self):
        st = saturated_kernel_state(3.0, 4.0, 2.0)
        st.events = np.array([0.5])
        st.seq_slices = [slice(0, 1)]
        st.pg = np.ones(1)
        cl.update_pg(st, cl.sample_blocks(st, st.phi.mean))
        assert st.pg[0] == pytest.approx(math.sqrt(13.0), rel=1e-6)

    def test_bound_never_decreases(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            st = make_state(np.random.default_rng(100 + trial))
            theta = random_theta(rng)
            w = cl.draw_w_samples(st.phi, 2, 55)
            before = cl.elbo(st, theta, 2, 55)
            cl.update_pg(st, cl.sample_blocks(st, w))
            after = cl.elbo(st, theta, 2, 55)
            assert after >= before - 1e-6 * abs(before)


class TestUpdateLatentPp:
    def test_half_m_at_zero_function(self):
        st = saturated_kernel_state(0.0, 1e-14, 1.0)
        cl.update_latent_pp(st, cl.sample_blocks(st, st.phi.mean))
        np.testing.assert_allclose(st.latent_rate, 0.5, rtol=1e-6)

    def test_vanishes_for_large_function(self):
        st = saturated_kernel_state(60.0, 1e-14, 1.0)
        cl.update_latent_pp(st, cl.sample_blocks(st, st.phi.mean))
        assert np.all(st.latent_rate < 1e-12)

    @pytest.mark.parametrize("q_mean, m, limit", [
        (70.0, 1.0, -cl._LOG_RATE_CLAMP),  # log rate about -70
        (0.0, math.exp(62.0), cl._LOG_RATE_CLAMP),  # about 62 - log 2
    ], ids=["low", "high"])
    def test_log_rate_clamped_past_the_limit(self, q_mean, m, limit):
        st = saturated_kernel_state(q_mean, 1e-14, m)
        nodes = st.grid.size
        cl.update_latent_pp(st, cl.sample_blocks(st, st.phi.mean))
        assert st.diagnostics["log_rate_clamped"] == nodes
        assert np.all(st.latent_rate == math.exp(limit))
        # Every refresh adds its clipped nodes to the count.
        cl.update_latent_pp(st, cl.sample_blocks(st, st.phi.mean))
        assert st.diagnostics["log_rate_clamped"] == 2 * nodes

    @pytest.mark.parametrize("q_mean, m", [
        (59.0, 1.0),  # log rate about -59
        (0.0, math.exp(60.0)),  # about 60 - log 2
    ], ids=["low", "high"])
    def test_nothing_recorded_under_the_limit(self, q_mean, m):
        st = saturated_kernel_state(q_mean, 1e-14, m)
        cl.update_latent_pp(st, cl.sample_blocks(st, st.phi.mean))
        assert "log_rate_clamped" not in st.diagnostics
        rate = st.latent_rate
        assert np.all((rate > math.exp(-cl._LOG_RATE_CLAMP))
                      & (rate < math.exp(cl._LOG_RATE_CLAMP)))

    def test_bound_never_decreases(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            st = make_state(np.random.default_rng(200 + trial))
            theta = random_theta(rng)
            w = cl.draw_w_samples(st.phi, 2, 66)
            before = cl.elbo(st, theta, 2, 66)
            cl.update_latent_pp(st, cl.sample_blocks(st, w))
            after = cl.elbo(st, theta, 2, 66)
            assert after >= before - 1e-6 * abs(before)


class TestUpdateInducing:
    def test_no_data_returns_prior(self):
        rng = np.random.default_rng(6)
        st = make_state(rng, nu=0.4)
        st.events = np.empty(0)
        st.seq_slices = []
        st.pg = np.empty(0)
        st.latent_rate = np.zeros(st.grid.size)
        w = st.phi.mean
        cl.update_inducing(st, cl.sample_blocks(st, w))
        z = st.q_u.locations
        k_zz = kernel_matrix(z, z, KernelParams(w, st.spec))
        np.testing.assert_allclose(st.q_u.mean, st.nu, atol=1e-8)
        np.testing.assert_allclose(st.q_u.cov, k_zz, rtol=1e-5, atol=1e-8)

    def test_single_event_scalar_closed_form(self):
        st = saturated_kernel_state(0.0, 1.0, 2.0)
        st.events = np.array([0.5])
        st.seq_slices = [slice(0, 1)]
        st.pg = np.array([0.9])
        st.latent_rate = np.zeros(st.grid.size)
        w = st.phi.mean
        r = math.exp(0.0)
        omega = math.tanh(0.45) / (2 * 0.9)
        precision = omega + 1.0 / r
        cl.update_inducing(st, cl.sample_blocks(st, w))
        assert st.q_u.cov[0, 0] == pytest.approx(1.0 / precision, rel=1e-6)
        assert st.q_u.mean[0] == pytest.approx(0.5 / precision, rel=1e-6)

    def test_bound_never_decreases(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            st = make_state(np.random.default_rng(300 + trial))
            theta = random_theta(rng)
            w = cl.draw_w_samples(st.phi, 2, 77)
            before = cl.elbo(st, theta, 2, 77)
            cl.update_inducing(st, cl.sample_blocks(st, w))
            after = cl.elbo(st, theta, 2, 77)
            assert after >= before - 1e-6 * abs(before)


class TestUpdateScale:
    def test_empirical_rate_with_no_thinning(self):
        rng = np.random.default_rng(8)
        st = make_state(rng)
        st.latent_rate = np.zeros(st.grid.size)
        n = st.events.size
        cl.update_scale(st)
        assert st.m == pytest.approx(n / (st.n_seqs * st.grid.horizon), rel=1e-12)

    def test_pure_latent_mass(self):
        st = saturated_kernel_state(0.0, 1.0, 1.0)
        st.events = np.empty(0)
        st.seq_slices = [slice(0, 0)]
        st.latent_rate = np.full(st.grid.size, 5.0)  # integral = 5
        cl.update_scale(st)
        assert st.m == pytest.approx(5.0, rel=1e-12)

    def test_bound_never_decreases(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            st = make_state(np.random.default_rng(400 + trial))
            theta = random_theta(rng)
            before = cl.elbo(st, theta, 2, 88)
            cl.update_scale(st)
            after = cl.elbo(st, theta, 2, 88)
            assert after >= before - 1e-9 * abs(before)


def reference_elbo(state, theta, noise_seed):
    """Straight-line recomputation of every bound term, one w sample.

    Deliberately reimplements the formulas with plain loops, numpy
    inverses and explicit quadrature sums.  The inducing gram gets the
    same diagonal jitter the production path would use, so agreement
    probes the algebra rather than conditioning policy.
    """
    from fedcox.numerics import chol_factor_jittered

    rng = np.random.default_rng(noise_seed)
    eps = rng.standard_normal((1, state.phi.dim))
    w = state.phi.mean + np.sqrt(state.phi.var) * eps[0]

    z = state.q_u.locations
    k_zz = kernel_matrix(z, z, KernelParams(w, state.spec))
    _, jitter = chol_factor_jittered(k_zz, baseline=True)
    k_zz = k_zz + jitter * np.eye(z.size)
    k_inv = np.linalg.inv(k_zz)
    r = kernel_matrix([0.1], [0.1], KernelParams(w, state.spec))[0, 0]
    mu_u, cov_u = state.q_u.mean, state.q_u.cov
    nu = state.nu

    def moments(t):
        k_t = kernel_matrix([t], z, KernelParams(w, state.spec))[0]
        mean = nu + k_t @ k_inv @ (mu_u - nu)
        var = r - k_t @ k_inv @ k_t + k_t @ k_inv @ cov_u @ k_inv @ k_t
        return mean, var

    def omega(c):
        return 0.25 if c < 1e-8 else math.tanh(c / 2) / (2 * c)

    total = 0.0
    for i, t in enumerate(state.events):
        mean, var = moments(t)
        c = state.pg[i]
        total += (
            math.log(state.m)
            + mean / 2.0
            - omega(c) * (var + mean**2 - c * c) / 2.0
            - math.log(2.0 * math.cosh(c / 2.0))
        )
    n_seq = state.n_seqs
    for q, t in enumerate(state.grid.nodes):
        lam = state.latent_rate[q]
        if lam <= 0:
            continue
        mean, var = moments(t)
        c = state.latent_c[q]
        integrand = lam * (
            math.log(state.m)
            - mean / 2.0
            - omega(c) * (var + mean**2 - c * c) / 2.0
            - math.log(2.0 * math.cosh(c / 2.0))
            - math.log(lam)
            + 1.0
        )
        total += n_seq * state.grid.weights[q] * integrand
    total -= n_seq * state.m * state.grid.horizon

    # KL(q(u) || p(u | w))
    a = mu_u - nu
    kl_u = 0.5 * (
        np.linalg.slogdet(k_zz)[1]
        - np.linalg.slogdet(cov_u)[1]
        + np.trace(k_inv @ cov_u)
        + a @ k_inv @ a
        - z.size
    )
    total -= kl_u

    # KL(q_phi || p_theta)
    kl_w = 0.5 * np.sum(
        (state.phi.var + (state.phi.mean - theta.mean) ** 2) / theta.var
        - 1.0
        + np.log(theta.var / state.phi.var)
    )
    return total - kl_w


class TestElbo:
    def test_divergence_term_vanishes_at_broadcast(self):
        # The bound depends on theta only through -KL(phi || theta), which
        # is zero at theta = phi.
        rng = np.random.default_rng(10)
        st = make_state(rng)
        theta = random_theta(rng)
        at_phi = DiagGaussian(st.phi.mean.copy(), st.phi.var.copy())
        assert kl_diag(st.phi, theta) > 1.0
        assert (cl.elbo(st, theta, 2, 123) + kl_diag(st.phi, theta)
                == pytest.approx(cl.elbo(st, at_phi, 2, 123), rel=1e-12))

    def test_matches_straight_line_reference(self):
        # Micro instance: 1 event, M = 2, Q = 5, one w sample.
        rng = np.random.default_rng(11)
        st = make_state(rng, n_seqs=1, max_events=1, n_inducing=2, n_grid=5)
        theta = random_theta(rng)
        got = cl.elbo(st, theta, 1, 321)
        want = reference_elbo(st, theta, 321)
        assert got == pytest.approx(want, rel=1e-9)

    def test_reference_agreement_on_random_instances(self):
        # A short length-scale keeps the inducing gram well conditioned;
        # random nets can otherwise collapse the embeddings and make the
        # gram numerically rank-one, where solver roundoff (not the
        # formulas under test) dominates any comparison.
        for trial in range(8):
            rng = np.random.default_rng(500 + trial)
            st = make_state(rng)
            mean = st.phi.mean.copy()
            var = st.phi.var.copy()
            mean[-2] = 0.0
            mean[-1] = -2.0
            var[-2:] = 0.01
            st.phi = DiagGaussian(mean, var)
            theta = random_theta(rng)
            got = cl.elbo(st, theta, 1, trial)
            want = reference_elbo(st, theta, trial)
            assert got == pytest.approx(want, rel=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        st = make_state(rng)
        theta = random_theta(rng)
        assert cl.elbo(st, theta, 3, 7) == cl.elbo(st, theta, 3, 7)
        assert cl.elbo(st, theta, 3, 7) != cl.elbo(st, theta, 3, 8)

    def test_elbo_is_negative_full_objective(self):
        rng = np.random.default_rng(14)
        st = make_state(rng)
        theta = random_theta(rng)
        assert cl.elbo(st, theta, 2, 5) == -cl.local_objective(st, theta, None, 2, 5)

    def test_full_batch_equals_no_batch(self):
        rng = np.random.default_rng(15)
        st = make_state(rng)
        theta = random_theta(rng)
        full = np.arange(st.n_seqs)
        assert (cl.local_objective(st, theta, full, 2, 6)
                == cl.local_objective(st, theta, None, 2, 6))


class TestMfviSweepMonotonicity:
    def test_sweep_never_decreases_bound(self):
        worst = 0.0
        for trial in range(25):
            rng = np.random.default_rng(1000 + trial)
            st = make_state(rng, n_seqs=3, max_events=7, n_inducing=5, n_grid=21)
            theta = random_theta(rng)
            blocks = cl.sample_blocks(st, cl.draw_w_samples(st.phi, 2, 4242))
            values = [cl.elbo(st, theta, 2, 4242)]
            for update in (cl.update_pg, cl.update_latent_pp, cl.update_inducing):
                update(st, blocks)
                values.append(cl.elbo(st, theta, 2, 4242))
            cl.update_scale(st)
            values.append(cl.elbo(st, theta, 2, 4242))
            drops = np.diff(values) / np.maximum(np.abs(values[:-1]), 1.0)
            worst = min(worst, float(drops.min()))
        assert worst >= -1e-9


class TestSharedSweepBlocks:
    def test_cached_kzz_inverse_is_identity_solve(self):
        rng = np.random.default_rng(30)
        st = make_state(rng, n_inducing=7)
        for row in cl.draw_w_samples(st.phi, 3, 5):
            blocks = cl._InducingBlocks(st, row)
            np.testing.assert_array_equal(
                blocks.kzz_inv, solve_with(blocks.factor, np.eye(7))
            )
            assert blocks.kzz_inv is blocks.kzz_inv

    def test_kernel_matrix_equals_inducing_gram(self):
        # kernel.rbf_block builds both.  At this length scale ell ** 2 and
        # ell * ell differ by one ulp, so two formulas would move bits.
        spec = EncoderSpec(hidden_dim=4, output_dim=3, t_norm=1.0)
        st = make_state(np.random.default_rng(31), n_inducing=9, spec=spec)
        w = init_kernel_params(spec, 3)
        w[-1] = -0.2638
        ell = math.exp(w[-1])
        assert ell ** 2 != ell * ell
        z = st.q_u.locations
        assert (kernel_matrix(z, z, KernelParams(w, spec)).tobytes()
                == cl._InducingBlocks(st, w).k_zz.tobytes())

    def test_shared_sweep_bit_identical_to_unshared(self):
        for trial in range(6):
            rng = np.random.default_rng(3000 + trial)
            # Random event counts (3 to 27) vary where the grid rows start.
            st = make_state(rng, n_seqs=3, max_events=9, n_inducing=6,
                            n_grid=19)
            w = cl.draw_w_samples(st.phi, 3, trial)
            plain, shared_st = copy.deepcopy(st), copy.deepcopy(st)
            for update in (cl.update_pg, cl.update_latent_pp,
                           cl.update_inducing):
                update(plain, cl.sample_blocks(plain, w))
            blocks = cl.sample_blocks(shared_st, w)
            for update in (cl.update_pg, cl.update_latent_pp,
                           cl.update_inducing):
                update(shared_st, blocks)
            np.testing.assert_array_equal(shared_st.pg, plain.pg)
            np.testing.assert_array_equal(shared_st.latent_rate, plain.latent_rate)
            np.testing.assert_array_equal(shared_st.latent_c, plain.latent_c)
            np.testing.assert_array_equal(shared_st.q_u.mean, plain.q_u.mean)
            np.testing.assert_array_equal(shared_st.q_u.cov, plain.q_u.cov)


class TestObjectiveGradient:
    def test_samples_do_not_stack_in_memory(self):
        # One sample's inducing blocks and (times x inducing) blocks are
        # alive at a time, so four samples peak about where one does.
        spec = EncoderSpec(hidden_dim=32, output_dim=8, t_norm=1.0)
        st = make_state(np.random.default_rng(0), n_seqs=8, max_events=40,
                        n_inducing=50, n_grid=150, spec=spec)
        theta = random_theta(np.random.default_rng(1), spec)
        peaks = {}
        for n_samples in (1, 4):
            cl.local_objective_grad(st, theta, None, n_samples, 3)
            tracemalloc.start()
            try:
                cl.local_objective_grad(st, theta, None, n_samples, 3)
                peaks[n_samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] < 1.05 * peaks[1]

    def test_kl_gradient_zero_at_prior_match(self):
        # No data terms and phi = theta: the divergence gradient w.r.t. the
        # mean must vanish.
        rng = np.random.default_rng(13)
        st = make_state(rng, nu=0.0)
        st.events = np.empty(0)
        st.seq_slices = [slice(0, 0)]
        st.pg = np.empty(0)
        st.latent_rate = np.zeros(st.grid.size)
        theta = DiagGaussian(st.phi.mean.copy(), st.phi.var.copy())
        g_mean, _ = cl.local_objective_grad(st, theta, None, 1, 3)
        # remove the augmented-likelihood part by recomputing it alone:
        # with no events and zero latent rate only KL(q(u)||p(u|w)) remains,
        # so compare against a state whose divergence term is shifted.
        theta2 = DiagGaussian(st.phi.mean + 0.5, st.phi.var.copy())
        g_mean2, _ = cl.local_objective_grad(st, theta2, None, 1, 3)
        kl_part = g_mean2 - g_mean  # isolates the divergence contribution
        np.testing.assert_allclose(kl_part, -0.5 / theta.var, rtol=1e-10)

    def test_matches_finite_differences(self):
        failures = 0
        for trial in range(8):
            rng = np.random.default_rng(2000 + trial)
            st = make_state(rng, n_seqs=3, max_events=4, n_inducing=3, n_grid=9)
            theta = random_theta(rng)
            batch = np.array([0, 2])
            g_mean, g_logv = cl.local_objective_grad(st, theta, batch, 2, trial)
            phi0 = st.phi
            m0, v0 = phi0.mean.copy(), np.log(phi0.var.copy())
            h = 1e-5

            def value(mean_vec, logv_vec):
                st.phi = DiagGaussian(mean_vec, np.exp(logv_vec))
                out = cl.local_objective(st, theta, batch, 2, trial)
                st.phi = phi0
                return out

            fd_mean = np.zeros(DIM)
            fd_logv = np.zeros(DIM)
            for d in range(DIM):
                up, down = m0.copy(), m0.copy()
                up[d] += h
                down[d] -= h
                fd_mean[d] = (value(up, v0) - value(down, v0)) / (2 * h)
                up, down = v0.copy(), v0.copy()
                up[d] += h
                down[d] -= h
                fd_logv[d] = (value(m0, up) - value(m0, down)) / (2 * h)
            scale = max(np.max(np.abs(fd_mean)), np.max(np.abs(fd_logv)), 1e-8)
            err = max(np.max(np.abs(g_mean - fd_mean)),
                      np.max(np.abs(g_logv - fd_logv)))
            if err > 1e-3 * scale:
                failures += 1
        assert failures == 0

    def test_log_variance_gradient_nonzero(self):
        rng = np.random.default_rng(14)
        st = make_state(rng)
        theta = random_theta(rng)
        _, g_logv = cl.local_objective_grad(st, theta, None, 2, 5)
        assert np.all(np.isfinite(g_logv))
        assert np.any(np.abs(g_logv) > 1e-12)

    def test_rejects_empty_batch(self):
        rng = np.random.default_rng(15)
        st = make_state(rng)
        theta = random_theta(rng)
        with pytest.raises(ValueError):
            cl.local_objective_grad(st, theta, np.array([], dtype=int), 1, 0)


class TestClientUpdate:
    def test_zero_step_keeps_phi_updates_blocks(self):
        rng = np.random.default_rng(16)
        st = make_state(rng)
        theta = random_theta(rng)
        phi_before = st.phi
        pg_before = st.pg.copy()
        cl.client_update(st, theta, epochs=1, batch_size=2, eta=0.0, seed=9,
                         n_w_samples=2)
        assert np.array_equal(st.phi.mean, phi_before.mean)
        assert np.array_equal(st.phi.var, phi_before.var)
        assert not np.array_equal(st.pg, pg_before)

    def test_bit_identical_given_seed(self):
        rng = np.random.default_rng(17)
        st = make_state(rng)
        theta = random_theta(rng)
        st_a = copy.deepcopy(st)
        st_b = copy.deepcopy(st)
        phi_a = cl.client_update(st_a, theta, 2, 2, 0.01, seed=77, n_w_samples=2)
        phi_b = cl.client_update(st_b, theta, 2, 2, 0.01, seed=77, n_w_samples=2)
        assert np.array_equal(phi_a.mean, phi_b.mean)
        assert np.array_equal(phi_a.var, phi_b.var)
        assert st_a.m == st_b.m
        np.testing.assert_array_equal(st_a.q_u.mean, st_b.q_u.mean)

    def test_seed_changes_result(self):
        rng = np.random.default_rng(18)
        st = make_state(rng)
        theta = random_theta(rng)
        phi_a = cl.client_update(copy.deepcopy(st), theta, 2, 2, 0.01, seed=1,
                                 n_w_samples=2)
        phi_b = cl.client_update(copy.deepcopy(st), theta, 2, 2, 0.01, seed=2,
                                 n_w_samples=2)
        assert not np.array_equal(phi_a.mean, phi_b.mean)

    def test_variances_stay_positive(self):
        rng = np.random.default_rng(19)
        st = make_state(rng)
        theta = random_theta(rng)
        cl.client_update(st, theta, 3, 1, 0.05, seed=5, n_w_samples=2)
        assert np.all(st.phi.var > 0)

    # (seed, n_w_samples, batch_size) -> SHA-256 of phi, q(u) and m after
    # one two-epoch update, and float.hex of the bound after it.  Training
    # amplifies last-bit changes, so a rewrite of the bound, its gradient
    # or the sweep that moves any float is a change of results.
    PINS = {
        (7001, 1, 2): (
            "ddabbc08245004e137cff9936e3cae7b3169523688686a90be0c8593d082921a",
            "-0x1.e13bf74e23cb3p+8",
        ),
        (7002, 3, 99): (
            "85e48bafd0eca07aaea25712155317e15d835ce43fd46809e42a9d6ccf533cbc",
            "-0x1.6d9daef288289p+10",
        ),
    }

    @pytest.mark.parametrize("key", sorted(PINS), ids=["S1-minibatch", "S3-full"])
    def test_floats_pinned(self, key):
        seed, n_samples, batch_size = key
        rng = np.random.default_rng(seed)
        st = make_state(rng, n_seqs=5, max_events=6, n_inducing=5, n_grid=21)
        theta = random_theta(rng)
        cl.client_update(st, theta, 2, batch_size, 0.02, seed=11,
                         n_w_samples=n_samples)
        parts = (st.phi.mean, st.phi.var, st.q_u.mean, st.q_u.cov,
                 np.float64(st.m))
        digest = hashlib.sha256(
            b"".join(np.asarray(p).tobytes() for p in parts)
        ).hexdigest()
        assert (digest, cl.elbo(st, theta, n_samples, 13).hex()) == self.PINS[key]

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(20)
        st = make_state(rng)
        theta = random_theta(rng)
        with pytest.raises(ValueError):
            cl.client_update(st, theta, 0, 1, 0.1, seed=0, n_w_samples=2)
        with pytest.raises(ValueError):
            cl.client_update(st, theta, 1, 0, 0.1, seed=0, n_w_samples=2)


def _sha256(*parts):
    return hashlib.sha256(
        b"".join(np.asarray(p).tobytes() for p in parts)
    ).hexdigest()


class TestSampleAveragesPinned:
    """Each reader of the S-sample average, pinned at S = 3 on one step.

    ``test_floats_pinned`` sees these only through two whole updates; here
    each is pinned on its own (float.hex or SHA-256), so a rewrite of an
    average that moves any bit fails on the reader it moved.
    """

    @staticmethod
    def state(seed):
        rng = np.random.default_rng(seed)
        st = make_state(rng, n_seqs=5, max_events=6, n_inducing=5, n_grid=21)
        return st, random_theta(rng)

    def test_elbo(self):
        st, theta = self.state(8101)
        assert cl.elbo(st, theta, 3, 31).hex() == "-0x1.d8b8b06aef065p+23"

    def test_objective_grad_on_a_batch(self):
        st, theta = self.state(8102)
        assert _sha256(*cl.local_objective_grad(st, theta, [3, 0], 3, 32)) == (
            "9158b7b9cc176c3c6d89962c3f14e57c6fa7799ebbb9300bb32b50f3a59c433c"
        )

    def test_update_inducing(self):
        st, _ = self.state(8103)
        q = cl.update_inducing(st, cl.sample_blocks(
            st, cl.draw_w_samples(st.phi, 3, 33)
        ))
        assert _sha256(q.mean, q.cov) == (
            "dfb0bc177926644dab716907eb49e8ae60e6b841a9f904eb5f5e2fa364152eeb"
        )

    def test_posterior_f_moments(self):
        st, _ = self.state(8104)
        moments = cl.posterior_f_moments(
            st, cl.draw_w_samples(st.phi, 3, 34), np.linspace(0, 1, 7)
        )
        assert _sha256(*moments) == (
            "745bea69903cfd9dd53be062a778c1213f2ed8a7abb4fe9ebf6a75f5a593ca17"
        )


class TestTestLoglik:
    def test_saturated_intensity(self):
        st = saturated_kernel_state(60.0, 1e-12, m=7.0)
        seqs = [EventSequence(times=np.array([0.2, 0.5, 0.9]), horizon=1.0)]
        got = cl.test_loglik(st, seqs, (0.0, 1.0))
        assert got == pytest.approx(3 * math.log(7.0) - 7.0, rel=1e-9)

    def test_zero_events_is_negative_integral(self):
        rng = np.random.default_rng(21)
        st = make_state(rng)
        seqs = [EventSequence(times=np.empty(0), horizon=1.0)]
        got = cl.test_loglik(st, seqs, (0.0, 1.0))
        grid = np.linspace(0.0, 1.0, cl.HELDOUT_QUAD_NODES)
        lam = cl.intensity(st, grid)
        assert got == pytest.approx(-np.trapezoid(lam, grid), rel=1e-12)
        assert got <= 0

    def test_matches_monte_carlo_sigmoid_expectation(self):
        rng = np.random.default_rng(22)
        st = make_state(rng)
        t = np.array([0.37])
        mean, var = cl.posterior_f_moments(st, st.phi.mean, t)
        n = 100_000
        draws = expit(mean[0] + math.sqrt(var[0]) * rng.standard_normal(n))
        se = draws.std(ddof=1) / math.sqrt(n)
        lam = cl.intensity(st, t)[0]
        assert abs(lam - st.m * draws.mean()) < 3 * st.m * se

    def test_event_outside_interval_rejected(self):
        rng = np.random.default_rng(23)
        st = make_state(rng)
        seqs = [EventSequence(times=np.array([0.9]), horizon=1.0)]
        with pytest.raises(ValueError):
            cl.test_loglik(st, seqs, (0.0, 0.5))

    def test_batched_matches_per_sequence_sum(self):
        for trial in range(4):
            rng = np.random.default_rng(40 + trial)
            st = make_state(rng)
            # A short length scale keeps Kzz well conditioned (condition
            # number <= 1e5 here); near-singular grams amplify the last-bit
            # differences between row batches far beyond 1e-12.
            mean = st.phi.mean.copy()
            mean[-1] = -3.0
            st.phi = DiagGaussian(mean, st.phi.var)
            seqs = [
                EventSequence(times=np.sort(rng.uniform(0.2, 0.9, n)), horizon=1.0)
                for n in (3, 0, 7, 1, 4)
            ]
            grid = np.linspace(0.2, 0.9, cl.HELDOUT_QUAD_NODES)
            integral = float(np.trapezoid(cl.intensity(st, grid), grid))
            total = 0.0
            for seq in seqs:
                if seq.times.size:
                    total += float(np.sum(np.log(cl.intensity(st, seq.times))))
                total -= integral
            got = cl.test_loglik(st, seqs, (0.2, 0.9))
            assert got == pytest.approx(total / len(seqs), rel=1e-12)

    def test_later_sequence_outside_interval_rejected(self):
        rng = np.random.default_rng(26)
        st = make_state(rng)
        seqs = [
            EventSequence(times=np.array([0.1, 0.3]), horizon=1.0),
            EventSequence(times=np.empty(0), horizon=1.0),
            EventSequence(times=np.array([0.2, 0.6]), horizon=1.0),
        ]
        with pytest.raises(ValueError, match="outside"):
            cl.test_loglik(st, seqs, (0.0, 0.5))

    def test_interval_validation(self):
        rng = np.random.default_rng(24)
        st = make_state(rng)
        with pytest.raises(ValueError):
            cl.test_loglik(st, [], (0.5, 0.5))


class TestInitClient:
    def test_initial_blocks(self):
        rng = np.random.default_rng(25)
        seqs = [
            EventSequence(times=np.sort(rng.uniform(0, 1, 6)), horizon=1.0),
            EventSequence(times=np.empty(0), horizon=1.0),
            EventSequence(times=np.sort(rng.uniform(0, 1, 4)), horizon=1.0),
        ]
        theta = random_theta(rng)
        grid = trapezoid_grid(1.0, 11)
        z = np.linspace(0.1, 0.9, 3)
        gram = kernel_matrix(z, z, KernelParams(theta.mean, SPEC))
        st = cl.init_client(4, seqs, theta, SPEC, z, grid, gram)
        assert st.m == pytest.approx(2 * 10 / (3 * 1.0))
        np.testing.assert_array_equal(st.phi.mean, theta.mean)
        assert st.q_u.cov is gram
        np.testing.assert_array_equal(st.q_u.mean, np.zeros(3))
        assert st.nu == 0.0
        np.testing.assert_array_equal(st.pg, np.ones(10))
        np.testing.assert_allclose(st.latent_rate, st.m / 2)
        # The sequences are held once: flat events and one slice each.
        assert st.n_seqs == 3
        np.testing.assert_array_equal(
            st.events, np.concatenate([seq.times for seq in seqs])
        )
        assert [s.stop - s.start for s in st.seq_slices] == [6, 0, 4]
        assert not hasattr(st, "train_seqs")

    def test_rejects_no_sequences(self):
        # With no sequences there is no event rate, and update_scale would
        # divide by zero in the first client_update.
        theta = random_theta(np.random.default_rng(27))
        z = np.linspace(0.1, 0.9, 3)
        gram = kernel_matrix(z, z, KernelParams(theta.mean, SPEC))
        with pytest.raises(ValueError, match="no training sequences for client 5"):
            cl.init_client(5, [], theta, SPEC, z, trapezoid_grid(1.0, 11), gram)


def test_gauss_hermite_table_is_scipys():
    nodes, weights = roots_hermite(cl.GAUSS_HERMITE_ORDER)
    assert cl._GH_NODES.tobytes() == nodes.tobytes()
    assert cl._GH_WEIGHTS.tobytes() == (weights / math.sqrt(math.pi)).tobytes()
