"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The statistical-training criteria (8 and 9) are the slow
ones; the whole module stays within the stated runtime budgets.
"""
import copy
import math

import numpy as np
import pytest
import yaml
from scipy.optimize import minimize
from scipy.special import expit

import fedcox.client as cl
from fedcox.aggregation import (
    AggregationMethod,
    aggregate_fedavg,
    aggregate_kl,
    aggregate_mmd,
    aggregate_w2,
)
from fedcox.cli import main as cli_main
from fedcox.dataio import EventSequence, RbfSpec, simulate_client, simulate_sgcp
from fedcox.kernel import EncoderSpec
from fedcox.numerics import DiagGaussian, kl_diag, mmd_rbf, pg_mean, trapezoid_grid, w2_diag
from fedcox.orchestrator import FedConfig, run_training, sample_participants


def report(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    assert passed, line


# ----------------------------------------------------------------------
# 1. Closed-form aggregation vs independent numerical minimization
# ----------------------------------------------------------------------

def _minimize_divergence(phis, divergence, x0):
    dim = phis[0].dim

    def objective(x):
        p = DiagGaussian(x[:dim], np.exp(x[dim:]))
        return sum(divergence(q, p) for q in phis)

    res = minimize(objective, x0, method="L-BFGS-B",
                   options={"ftol": 1e-16, "gtol": 1e-13, "maxiter": 3000})
    return res.x[:dim], np.exp(res.x[dim:])


def test_criterion_01_aggregation_oracle_equivalence():
    rng = np.random.default_rng(10)
    worst = 0.0
    for i in range(200):
        dim = 1 if i % 2 == 0 else 5
        n_clients = int(rng.integers(2, 11))
        phis = [
            DiagGaussian(rng.normal(scale=1.5, size=dim),
                         rng.uniform(0.2, 3.0, dim))
            for _ in range(n_clients)
        ]
        x0 = np.concatenate(
            [np.mean([q.mean for q in phis], axis=0), np.zeros(dim)]
        )
        kl_closed = aggregate_kl(phis)
        mu, var = _minimize_divergence(phis, kl_diag, x0)
        worst = max(worst,
                    float(np.max(np.abs(kl_closed.mean - mu))),
                    float(np.max(np.abs(kl_closed.var - var))))
        w2_closed = aggregate_w2(phis)
        mu, var = _minimize_divergence(
            phis, lambda q, p: w2_diag(q, p) ** 2, x0
        )
        worst = max(worst,
                    float(np.max(np.abs(w2_closed.mean - mu))),
                    float(np.max(np.abs(w2_closed.var - var))))
    report(1, worst <= 1e-6,
           f"200 instances, worst coordinate gap {worst:.2e} (tol 1e-6)")


# ----------------------------------------------------------------------
# 2. KL-vs-FedAvg variance identity
# ----------------------------------------------------------------------

def test_criterion_02_variance_identity():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 8))
        n_clients = int(rng.integers(2, 12))
        phis = [
            DiagGaussian(rng.normal(scale=2.0, size=dim),
                         rng.uniform(0.1, 4.0, dim))
            for _ in range(n_clients)
        ]
        means = np.stack([p.mean for p in phis])
        gap = aggregate_kl(phis).var - aggregate_fedavg(phis).var
        worst = max(worst, float(np.max(np.abs(gap - means.var(axis=0)))))
    report(2, worst <= 1e-12,
           f"100 instances, worst identity gap {worst:.2e} (tol 1e-12)")


# ----------------------------------------------------------------------
# 3. MMD closed forms vs Monte Carlo and a grid-search oracle
# ----------------------------------------------------------------------

def _mmd_grid_search(phis, delta, step=1e-3):
    means = np.array([p.mean[0] for p in phis])
    variances = np.array([p.var[0] for p in phis])
    mus = np.arange(means.min() - 0.5, means.max() + 0.5 + step, step)
    sigmas = np.arange(0.05, 3.0 + step, step)
    mu_grid, sigma_grid = np.meshgrid(mus, sigmas, indexing="ij")
    var_grid = sigma_grid**2
    d2 = delta * delta
    total = len(phis) / np.sqrt(d2 + 4.0 * var_grid)
    for r, dv in zip(means, variances):
        s = d2 + 2.0 * dv + 2.0 * var_grid
        total -= 2.0 * np.exp(-((r - mu_grid) ** 2) / s) / np.sqrt(s)
    idx = np.unravel_index(np.argmin(total), total.shape)
    return float(mu_grid[idx]), float(var_grid[idx])


def test_criterion_03_mmd_closed_forms():
    rng = np.random.default_rng(30)
    n = 1_000_000
    cross_ok = True
    mmd_ok = True
    for _ in range(20):
        mu1, mu2 = rng.normal(scale=1.5, size=2)
        v1, v2 = rng.uniform(0.2, 2.5, size=2)
        delta = float(rng.uniform(0.4, 2.0))
        x1 = rng.normal(mu1, math.sqrt(v1), n)
        x2 = rng.normal(mu2, math.sqrt(v2), n)
        # cross-term formula
        vals = np.exp(-((x1 - x2) ** 2) / delta**2)
        est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
        d2 = delta * delta
        s = d2 + 2 * v1 + 2 * v2
        analytic = math.exp(-((mu1 - mu2) ** 2) / s) / math.sqrt(s) * delta
        cross_ok &= abs(analytic - est) < 3 * se
        # full MMD value via paired self-samples
        y1 = rng.normal(mu1, math.sqrt(v1), n)
        y2 = rng.normal(mu2, math.sqrt(v2), n)
        self1 = np.exp(-((x1 - y1) ** 2) / d2)
        self2 = np.exp(-((x2 - y2) ** 2) / d2)
        cross = np.exp(-((x1 - x2) ** 2) / d2)
        est_mmd = self1.mean() + self2.mean() - 2 * cross.mean()
        se_mmd = math.sqrt(
            self1.var(ddof=1) / n + self2.var(ddof=1) / n
            + 4 * cross.var(ddof=1) / n
        )
        got = mmd_rbf(DiagGaussian([mu1], [v1]), DiagGaussian([mu2], [v2]),
                      delta)
        mmd_ok &= abs(got - est_mmd) < 3 * se_mmd

    fixtures = [
        ([-1.0, 1.0], [1.0, 1.0]),
        ([0.0, 2.0], [0.5, 1.5]),
        ([0.3, -0.7, 1.1], [1.0, 0.4, 2.0]),
        ([0.0, 0.0], [0.2, 2.2]),
        ([-0.5, 0.9], [1.3, 0.6]),
    ]
    agg_worst = 0.0
    for means, variances in fixtures:
        phis = [DiagGaussian([m], [v]) for m, v in zip(means, variances)]
        method = AggregationMethod("mmd", mmd_delta=1.0, mmd_steps=3000,
                                   mmd_eta=2e-2)
        out = aggregate_mmd(phis, method)
        mu_star, var_star = _mmd_grid_search(phis, 1.0)
        agg_worst = max(
            agg_worst,
            abs(out.mean[0] - mu_star),
            abs(math.sqrt(out.var[0]) - math.sqrt(var_star)),
        )
    report(
        3,
        cross_ok and mmd_ok and agg_worst <= 2e-3,
        "cross-term & MMD within 3 SE on 20 instances; "
        f"grid-search gap {agg_worst:.2e} on 5 fixtures (grid step 1e-3)",
    )


# ----------------------------------------------------------------------
# 4. Polya-Gamma moment branch behavior
# ----------------------------------------------------------------------

def test_criterion_04_pg_moment():
    exact_zero = pg_mean(0.0) == 0.25
    eps = 1e-9
    below = pg_mean(1e-4 * (1 - eps))
    above = pg_mean(1e-4 * (1 + eps))
    series_limit = all(abs(pg_mean(c) - 0.25) < 1e-9
                       for c in (0.0, 1e-8, 1e-6))
    report(
        4,
        exact_zero and abs(below - above) < 1e-10 and series_limit,
        f"pg(0)={pg_mean(0.0)}, branch discontinuity {abs(below - above):.1e}",
    )


# ----------------------------------------------------------------------
# 5 & 6. Mean-field monotonicity and reparameterized gradient checks
# ----------------------------------------------------------------------

MICRO_SPEC = EncoderSpec(hidden_dim=2, output_dim=2, t_norm=1.0)


def micro_state(rng, conditioned=False):
    """Random micro-instance (n <= 20 events, M <= 8, Q <= 50).

    With ``conditioned=True`` the kernel scale/length-scale stay in a
    well-conditioned band and one coordinate sweep aligns the variational
    blocks with the kernel, mirroring states the optimizer actually
    visits; unconstrained draws can park the inducing gram at numerical
    rank one, where finite differences of the rational K(w)^-1 terms stop
    being meaningful at any step size.
    """
    n_grid = int(rng.integers(10, 51))
    n_ind = int(rng.integers(2, 9))
    n_seqs = int(rng.integers(1, 4))
    grid = trapezoid_grid(1.0, n_grid)
    seqs = []
    remaining = int(rng.integers(1, 21))
    for k in range(n_seqs):
        take = remaining if k == n_seqs - 1 else int(rng.integers(0, remaining + 1))
        remaining -= take
        seqs.append(EventSequence(times=np.sort(rng.uniform(0, 1, take)),
                                  horizon=1.0))
    n_events = sum(len(s) for s in seqs)
    a = rng.standard_normal((n_ind, n_ind)) * 0.3
    dim = MICRO_SPEC.n_params
    phi_mean = rng.standard_normal(dim) * 0.4
    phi_var = np.exp(rng.standard_normal(dim) * 0.3)
    if conditioned:
        phi_mean[-2] = rng.uniform(-0.5, 0.5)
        phi_mean[-1] = rng.uniform(-2.0, -0.8)
        phi_var[-2:] = rng.uniform(0.005, 0.05, 2)
    state = cl.ClientState(
        id=0, train_seqs=seqs, grid=grid, spec=MICRO_SPEC,
        m=float(rng.uniform(2.0, 30.0)),
        nu=float(rng.normal(scale=0.3)),
        phi=DiagGaussian(phi_mean, phi_var),
        q_u=cl.InducingPosterior(
            locations=np.sort(rng.uniform(0.02, 0.98, n_ind)),
            mean=rng.standard_normal(n_ind),
            cov=a @ a.T + 0.4 * np.eye(n_ind),
        ),
        pg=rng.uniform(0.05, 2.5, n_events),
        latent_rate=rng.uniform(0.0, 8.0, n_grid),
        latent_c=rng.uniform(0.0, 2.5, n_grid),
    )
    if conditioned:
        blocks = cl.sample_blocks(state, cl.draw_w_samples(
            state.phi, 2, int(rng.integers(1 << 30))
        ))
        cl.update_pg(state, blocks)
        cl.update_latent_pp(state, blocks)
        cl.update_inducing(state, blocks)
        cl.update_scale(state)
    return state


def micro_theta(rng):
    dim = MICRO_SPEC.n_params
    return DiagGaussian(rng.standard_normal(dim) * 0.3,
                        np.exp(rng.standard_normal(dim) * 0.2))


def test_criterion_05_mfvi_monotonicity():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(5000 + trial)
        st = micro_state(rng)
        theta = micro_theta(rng)
        seed = 7000 + trial
        blocks = cl.sample_blocks(st, cl.draw_w_samples(st.phi, 2, seed))
        values = [cl.elbo(st, theta, 2, seed)]
        cl.update_pg(st, blocks)
        values.append(cl.elbo(st, theta, 2, seed))
        cl.update_latent_pp(st, blocks)
        values.append(cl.elbo(st, theta, 2, seed))
        cl.update_inducing(st, blocks)
        values.append(cl.elbo(st, theta, 2, seed))
        cl.update_scale(st)
        values.append(cl.elbo(st, theta, 2, seed))
        values = np.asarray(values)
        rel = np.diff(values) / np.maximum(np.abs(values[:-1]), 1.0)
        sweep_rel = (values[-1] - values[0]) / max(abs(values[0]), 1.0)
        worst = min(worst, float(rel.min()), float(sweep_rel))
    report(5, worst >= -1e-4,
           f"50 micro-instances, worst relative bound change {worst:.2e} "
           "(tolerance -1e-4)")


def test_criterion_06_reparameterized_gradient():
    worst = 0.0
    dim = MICRO_SPEC.n_params
    for trial in range(50):
        rng = np.random.default_rng(6000 + trial)
        st = micro_state(rng, conditioned=True)
        theta = micro_theta(rng)
        batch = None if st.n_seqs == 1 else np.arange(st.n_seqs - 1)
        seed = trial
        g_mean, g_logv = cl.local_objective_grad(st, theta, batch, 2, seed)
        phi0 = st.phi
        m0, v0 = phi0.mean.copy(), np.log(phi0.var.copy())
        # Step 5e-5: large enough that the objective's cancellation noise
        # (~1e-8 relative, from near-pinned posterior variances) stays
        # below the FD signal, small enough for negligible truncation.
        h = 5e-5

        def value(mean_vec, logv_vec):
            st.phi = DiagGaussian(mean_vec, np.exp(logv_vec))
            out = cl.local_objective(st, theta, batch, 2, seed)
            st.phi = phi0
            return out

        fd_mean = np.zeros(dim)
        fd_logv = np.zeros(dim)
        for d in range(dim):
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
                  np.max(np.abs(g_logv - fd_logv))) / scale
        worst = max(worst, err)
    report(6, worst <= 1e-3,
           f"50 micro-instances, worst relative gradient error {worst:.2e} "
           "(tolerance 1e-3)")


# ----------------------------------------------------------------------
# 7. Thinning sampler consistency and superposition
# ----------------------------------------------------------------------

def test_criterion_07_thinning_consistency():
    m, horizon, reps = 20.0, 1.0, 5000
    f = lambda t: 2.0 * np.sin(2.0 * np.pi * np.asarray(t) / horizon)
    edges = np.linspace(0.0, horizon, 9)
    hist = np.zeros(edges.size - 1)
    for seed in range(reps):
        seq, _ = simulate_sgcp(m, f, horizon, seed)
        hist += np.histogram(seq.times, bins=edges)[0]
    fine = np.linspace(0, horizon, 4001)
    lam_fine = m * expit(f(fine))
    expected = np.array([
        np.trapezoid(lam_fine[(fine >= lo) & (fine <= hi)],
                     fine[(fine >= lo) & (fine <= hi)])
        for lo, hi in zip(edges[:-1], edges[1:])
    ]) * reps
    bins_ok = np.all(np.abs(hist - expected) < 4 * np.sqrt(expected))
    worst_z = float(np.max(np.abs(hist - expected) / np.sqrt(expected)))

    mu = 7.0
    rng = np.random.default_rng(7777)
    merged = np.empty(2000)
    direct = np.empty(2000)
    from fedcox.dataio import superpose
    for i in range(2000):
        a = EventSequence(times=np.sort(rng.uniform(0, 1, rng.poisson(mu))),
                          horizon=1.0)
        b = EventSequence(times=np.sort(rng.uniform(0, 1, rng.poisson(mu))),
                          horizon=1.0)
        merged[i] = len(superpose(a, b))
        direct[i] = rng.poisson(2 * mu)
    se = math.sqrt(merged.var(ddof=1) / 2000 + direct.var(ddof=1) / 2000)
    z_super = abs(merged.mean() - direct.mean()) / se
    report(7, bins_ok and z_super < 3,
           f"bin max |z| {worst_z:.2f} (<4); superposition |z| {z_super:.2f} (<3)")


# ----------------------------------------------------------------------
# 8. Synthetic recovery vs homogeneous-Poisson baseline
# ----------------------------------------------------------------------

RECOVERY_CONFIG = dict(
    n_clients=1, participants_per_round=1, rounds=80, local_epochs=5,
    batch_size=4, step_size=0.02, aggregation=AggregationMethod("kl"),
    n_inducing=50, quad_nodes=150, n_w_samples=4, hidden_dim=32, embed_dim=8,
)


def _recovery_run(data_seed, kernel_pair):
    variance, inv_length = kernel_pair
    truth = RbfSpec(variance=variance, length_scale=1.0 / inv_length)
    seqs, (grid, lam_true) = simulate_client(50.0, truth, 1.0, 12,
                                             seed=data_seed)
    train, test = seqs[:8], seqs[8:]
    n_train = sum(len(s) for s in train)
    lam_hp = n_train / (len(train) * 1.0)
    rmse_hp = float(np.sqrt(np.mean((lam_hp - lam_true) ** 2)))
    counts = np.array([len(s) for s in test], dtype=float)
    ll_hp = float(np.mean(counts * math.log(lam_hp) - lam_hp))
    config = FedConfig(seed=3, **RECOVERY_CONFIG)
    _, _, clients = run_training(config, [train], 1.0, [test],
                                 eval_interval=(0.0, 1.0))
    state = clients[0]
    lam_hat = cl.intensity(state, grid)
    rmse = float(np.sqrt(np.mean((lam_hat - lam_true) ** 2)))
    ll = cl.test_loglik(state, test, (0.0, 1.0))
    return rmse < rmse_hp, ll > ll_hp, rmse, rmse_hp, ll, ll_hp


@pytest.mark.slow
def test_criterion_08_synthetic_recovery():
    pairs = [[1.5, 10.0], [2.0, 8.0]]
    rows = []
    rmse_wins = 0
    ll_wins = 0
    for i, data_seed in enumerate((101, 202, 303, 404, 505)):
        ok_r, ok_l, rmse, rmse_hp, ll, ll_hp = _recovery_run(
            data_seed, pairs[i % 2]
        )
        rmse_wins += ok_r
        ll_wins += ok_l
        rows.append(f"seed {data_seed}: rmse {rmse:.2f}/{rmse_hp:.2f}"
                    f"{'+' if ok_r else '-'} loglik {ll:.2f}/{ll_hp:.2f}"
                    f"{'+' if ok_l else '-'}")
    report(8, rmse_wins >= 4 and ll_wins >= 4,
           f"rmse wins {rmse_wins}/5, loglik wins {ll_wins}/5 | " + "; ".join(rows))


# ----------------------------------------------------------------------
# 9. Aggregation ordering on a 4-client federated synthetic setup
# ----------------------------------------------------------------------

ORDERING_CONFIG = dict(
    n_clients=4, participants_per_round=4, rounds=30, local_epochs=5,
    batch_size=3, step_size=0.02, n_inducing=50, quad_nodes=150,
    n_w_samples=2, hidden_dim=32, embed_dim=8,
)


def _ordering_loglik(kind, seed):
    truth = RbfSpec(variance=1.5, length_scale=0.1)
    train_sets, test_sets = [], []
    for c in range(4):
        seqs, _ = simulate_client(50.0, truth, 1.0, 9, seed=seed * 1000 + c)
        train_sets.append(seqs[:6])
        test_sets.append(seqs[6:])
    config = FedConfig(seed=seed, aggregation=AggregationMethod(kind),
                       **ORDERING_CONFIG)
    _, _, clients = run_training(config, train_sets, 1.0, test_sets,
                                 eval_interval=(0.0, 1.0))
    return float(np.mean([
        cl.test_loglik(state, tests, (0.0, 1.0))
        for state, tests in zip(clients, test_sets)
    ]))


@pytest.mark.slow
def test_criterion_09_aggregation_ordering():
    seeds = (1, 2, 3, 4, 5)
    means = {}
    for kind in ("fedavg", "kl", "w2"):
        means[kind] = float(np.mean([_ordering_loglik(kind, s) for s in seeds]))
    kl_ok = means["kl"] >= means["fedavg"] - 0.05
    w2_ok = means["w2"] >= means["fedavg"] - 0.05
    detail = (f"fedavg {means['fedavg']:.4f}, kl {means['kl']:.4f}, "
              f"w2 {means['w2']:.4f} (tolerance -0.05; soft criterion)")
    report(9, kl_ok and w2_ok, detail)


# ----------------------------------------------------------------------
# 10. Protocol determinism, isolation, straggling
# ----------------------------------------------------------------------

def test_criterion_10_protocol_determinism(tmp_path):
    config = {
        "seed": 11, "clients": 3, "participants": 2, "rounds": 4,
        "local_epochs": 1, "batch_size": 2, "step_size": 0.01,
        "straggle_period": 4, "n_inducing": 4, "quad_nodes": 9,
        "n_w_samples": 2, "hidden_dim": 2, "embed_dim": 2,
        "generate": {"m": 15.0, "horizon": 1.0, "train_seqs": 2,
                     "test_seqs": 1},
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    data_dir = tmp_path / "data"
    assert cli_main(["generate", "--config", str(cfg_path),
                     "--out", str(data_dir)]) == 0
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    for csv in (csv_a, csv_b):
        assert cli_main(["train", "--config", str(cfg_path),
                         "--data", str(data_dir), "--metrics", str(csv)]) == 0
    byte_equal = csv_a.read_bytes() == csv_b.read_bytes()

    # straggle window spanning the whole run: one frozen participant set
    rows = csv_a.read_text().strip().splitlines()[1:]
    participant_column = {row.split(",")[1] for row in rows}
    frozen = len(participant_column) == 1

    # non-participant isolation at the protocol level
    from fedcox.orchestrator import build_clients, run_round
    from fedcox.cli import fed_config, load_config as load_cfg
    cfg = load_cfg(str(cfg_path))
    cfg["participants"] = 1
    fc = fed_config(cfg)
    rng = np.random.default_rng(0)
    train_sets = [
        [EventSequence(times=np.sort(rng.uniform(0, 1, 4)), horizon=1.0)]
        for _ in range(3)
    ]
    server, clients = build_clients(fc, train_sets, 1.0)
    before = [copy.deepcopy(c) for c in clients]
    server, metrics = run_round(server, clients, fc)
    isolated = True
    for cid in range(3):
        if cid in metrics.participant_ids:
            continue
        a, b = clients[cid], before[cid]
        isolated &= (
            np.array_equal(a.phi.mean, b.phi.mean)
            and np.array_equal(a.phi.var, b.phi.var)
            and np.array_equal(a.pg, b.pg)
            and np.array_equal(a.latent_rate, b.latent_rate)
            and np.array_equal(a.q_u.mean, b.q_u.mean)
            and np.array_equal(a.q_u.cov, b.q_u.cov)
            and a.m == b.m
        )

    # frozen participant draw is stable across invocations
    stable = all(
        sample_participants(j, fc) == sample_participants(j, fc)
        for j in range(4)
    )
    report(10, byte_equal and frozen and isolated and stable,
           f"csv byte-equal={byte_equal}, frozen set={frozen}, "
           f"isolation={isolated}, stable draw={stable}")
