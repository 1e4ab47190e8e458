"""Round protocol tests: sampling, isolation, determinism, aggregation."""
import copy

import numpy as np
import pytest

import fedcox.client as cl
from fedcox.aggregation import AggregationMethod
from fedcox.dataio import EventSequence
from fedcox.kernel import (
    EncoderSpec,
    KernelParams,
    init_kernel_params,
    kernel_matrix,
)
from fedcox.numerics import DiagGaussian
from fedcox.orchestrator import (
    ClientPayload,
    FedConfig,
    RoundError,
    build_clients,
    run_round,
    run_training,
    sample_participants,
)


def tiny_config(**kw):
    base = dict(
        n_clients=3,
        participants_per_round=2,
        rounds=2,
        local_epochs=1,
        batch_size=2,
        step_size=0.01,
        straggle_period=1,
        aggregation=AggregationMethod("kl"),
        seed=42,
        n_inducing=3,
        quad_nodes=9,
        n_w_samples=2,
        hidden_dim=2,
        embed_dim=2,
    )
    base.update(kw)
    return FedConfig(**base)


def tiny_dataset(rng, n_clients, n_seqs=2, horizon=1.0):
    out = []
    for _ in range(n_clients):
        seqs = []
        for _ in range(n_seqs):
            n = int(rng.integers(2, 6))
            seqs.append(
                EventSequence(times=np.sort(rng.uniform(0, horizon, n)),
                              horizon=horizon)
            )
        out.append(seqs)
    return out


def states_equal(a, b):
    return (
        np.array_equal(a.phi.mean, b.phi.mean)
        and np.array_equal(a.phi.var, b.phi.var)
        and np.array_equal(a.pg, b.pg)
        and np.array_equal(a.latent_rate, b.latent_rate)
        and np.array_equal(a.q_u.mean, b.q_u.mean)
        and np.array_equal(a.q_u.cov, b.q_u.cov)
        and a.m == b.m
        and np.array_equal(a.events, b.events)
        and a.seq_slices == b.seq_slices
    )


class TestSampleParticipants:
    def test_size_and_range(self):
        config = tiny_config(n_clients=10, participants_per_round=4)
        ids = sample_participants(0, config)
        assert len(ids) == 4
        assert len(set(ids)) == 4
        assert all(0 <= i < 10 for i in ids)

    def test_straggle_period_freezes_set(self):
        config = tiny_config(n_clients=10, participants_per_round=3,
                             straggle_period=5)
        sets = [sample_participants(j, config) for j in range(10)]
        assert all(s == sets[0] for s in sets[:5])
        assert all(s == sets[5] for s in sets[5:])

    def test_whole_run_frozen_when_period_is_rounds(self):
        config = tiny_config(n_clients=8, participants_per_round=3,
                             rounds=6, straggle_period=6)
        sets = {sample_participants(j, config) for j in range(6)}
        assert len(sets) == 1

    def test_fresh_draw_every_round(self):
        config = tiny_config(n_clients=30, participants_per_round=5,
                             straggle_period=1)
        sets = {sample_participants(j, config) for j in range(12)}
        assert len(sets) > 1  # equal only by chance, overwhelmingly unlikely

    def test_stable_across_invocations(self):
        config = tiny_config(n_clients=12, participants_per_round=4)
        assert sample_participants(3, config) == sample_participants(3, config)

    def test_depends_on_seed(self):
        a = sample_participants(0, tiny_config(n_clients=30,
                                               participants_per_round=5, seed=1))
        b = sample_participants(0, tiny_config(n_clients=30,
                                               participants_per_round=5, seed=2))
        assert a != b


class TestConfigValidation:
    def test_participants_bounded_by_clients(self):
        with pytest.raises(ValueError):
            tiny_config(n_clients=2, participants_per_round=3)

    def test_numpy_scalars_accepted(self):
        config = tiny_config(n_clients=np.int64(3), rounds=np.int32(2),
                             step_size=np.float32(0.01), seed=np.int64(4),
                             eval_all=np.bool_(True))
        assert config.rounds == 2

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            tiny_config(local_epochs=0)
        with pytest.raises(ValueError):
            tiny_config(straggle_period=0)
        with pytest.raises(ValueError):
            tiny_config(step_size=-0.1)

    def test_negative_seed_rejected(self):
        # Caught at construction, not by numpy inside the prior's init.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            tiny_config(seed=-1)
        assert tiny_config(seed=0).seed == 0

    def test_aggregation_must_be_a_method(self):
        # Caught at construction, not as an AttributeError in round 0.
        with pytest.raises(TypeError, match="aggregation"):
            tiny_config(aggregation="kl")


class TestRunRound:
    def test_single_client_aggregation_identity(self):
        rng = np.random.default_rng(0)
        for kind in ("fedavg", "kl", "w2"):
            config = tiny_config(
                n_clients=1, participants_per_round=1,
                aggregation=AggregationMethod(kind),
            )
            server, clients = build_clients(config, tiny_dataset(rng, 1), 1.0)
            server, _ = run_round(server, clients, config)
            np.testing.assert_allclose(server.theta.mean, clients[0].phi.mean,
                                       rtol=1e-12)
            np.testing.assert_allclose(server.theta.var, clients[0].phi.var,
                                       rtol=1e-9)

    def test_zero_step_fixed_point(self):
        rng = np.random.default_rng(1)
        for kind in ("fedavg", "kl", "w2"):
            config = tiny_config(step_size=0.0,
                                 aggregation=AggregationMethod(kind))
            server, clients = build_clients(config, tiny_dataset(rng, 3), 1.0)
            theta0 = server.theta
            server, _ = run_round(server, clients, config)
            np.testing.assert_allclose(server.theta.mean, theta0.mean,
                                       atol=1e-12)
            np.testing.assert_allclose(server.theta.var, theta0.var, rtol=1e-9)

    def test_non_participant_isolation(self):
        rng = np.random.default_rng(2)
        config = tiny_config(n_clients=3, participants_per_round=1)
        server, clients = build_clients(config, tiny_dataset(rng, 3), 1.0)
        snapshot = [copy.deepcopy(c) for c in clients]
        server, metrics = run_round(server, clients, config)
        for cid in range(3):
            if cid in metrics.participant_ids:
                assert not states_equal(clients[cid], snapshot[cid])
            else:
                assert states_equal(clients[cid], snapshot[cid])

    def test_client_failure_aborts_round(self, monkeypatch):
        rng = np.random.default_rng(3)
        config = tiny_config(n_clients=3, participants_per_round=2)
        server, clients = build_clients(config, tiny_dataset(rng, 3), 1.0)
        theta0 = server.theta
        snapshot = [copy.deepcopy(c) for c in clients]
        victim = sample_participants(0, config)[0]

        real = cl.client_update

        def exploding(state, *args, **kwargs):
            if state.id == victim:
                raise FloatingPointError("synthetic blow-up")
            return real(state, *args, **kwargs)

        monkeypatch.setattr("fedcox.orchestrator.cl.client_update", exploding)
        with pytest.raises(RoundError, match=f"client {victim}"):
            run_round(server, clients, config)
        assert server.theta is theta0
        assert server.round == 0
        for cid in range(3):
            assert states_equal(clients[cid], snapshot[cid])

    def test_test_sets_without_interval_rejected_before_any_update(
            self, monkeypatch):
        rng = np.random.default_rng(3)
        config = tiny_config(n_clients=3, participants_per_round=2)
        server, clients = build_clients(config, tiny_dataset(rng, 3), 1.0)
        theta0 = server.theta
        snapshot = [copy.deepcopy(c) for c in clients]
        updated = []
        real = cl.client_update

        def spy(state, *args, **kwargs):
            updated.append(state.id)
            return real(state, *args, **kwargs)

        monkeypatch.setattr("fedcox.orchestrator.cl.client_update", spy)
        with pytest.raises(ValueError, match="eval_interval"):
            run_round(server, clients, config, tiny_dataset(rng, 3))
        assert updated == []
        assert server.theta is theta0
        assert server.round == 0
        for cid in range(3):
            assert states_equal(clients[cid], snapshot[cid])

    @pytest.mark.parametrize("n_test_sets", [1, 4])
    def test_test_sets_not_one_per_client_rejected_before_any_update(
            self, monkeypatch, n_test_sets):
        rng = np.random.default_rng(4)
        config = tiny_config(n_clients=2, participants_per_round=2)
        server, clients = build_clients(config, tiny_dataset(rng, 2), 1.0)
        theta0 = server.theta
        snapshot = [copy.deepcopy(c) for c in clients]
        updated = []
        real = cl.client_update

        def spy(state, *args, **kwargs):
            updated.append(state.id)
            return real(state, *args, **kwargs)

        monkeypatch.setattr("fedcox.orchestrator.cl.client_update", spy)
        with pytest.raises(ValueError,
                           match=f"{n_test_sets} test sets for 2 clients"):
            run_round(server, clients, config,
                      tiny_dataset(rng, n_test_sets), (0.0, 1.0))
        assert updated == []
        assert server.theta is theta0
        assert server.round == 0
        for cid in range(2):
            assert states_equal(clients[cid], snapshot[cid])

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failure_names_client_that_is_not_first(self, monkeypatch,
                                                    n_workers):
        rng = np.random.default_rng(3)
        config = tiny_config(n_clients=3, participants_per_round=2,
                             n_workers=n_workers)
        server, clients = build_clients(config, tiny_dataset(rng, 3), 1.0)
        first, victim = sample_participants(0, config)

        real = cl.client_update

        def exploding(state, *args, **kwargs):
            if state.id == victim:
                raise FloatingPointError("synthetic blow-up")
            return real(state, *args, **kwargs)

        monkeypatch.setattr("fedcox.orchestrator.cl.client_update", exploding)
        with pytest.raises(RoundError, match=f"client {victim} failed"):
            run_round(server, clients, config)
        assert server.round == 0

    def test_aggregation_failure_aborts_round(self, monkeypatch):
        rng = np.random.default_rng(3)
        config = tiny_config(n_clients=3, participants_per_round=2)
        server, clients = build_clients(config, tiny_dataset(rng, 3), 1.0)
        theta0 = server.theta
        snapshot = [copy.deepcopy(c) for c in clients]

        def failing(method, records):
            raise FloatingPointError("synthetic aggregation blow-up")

        monkeypatch.setattr("fedcox.orchestrator.aggregate", failing)
        with pytest.raises(RoundError, match="kl aggregation failed"):
            run_round(server, clients, config)
        assert server.theta is theta0
        assert server.round == 0
        for cid in range(3):
            assert states_equal(clients[cid], snapshot[cid])

    def test_non_finite_mmd_aborts_round(self, monkeypatch):
        # Uploads whose moment warm start overflows: (1e308)**2 is inf.
        rng = np.random.default_rng(3)
        config = tiny_config(n_clients=3, participants_per_round=2,
                             aggregation=AggregationMethod("mmd"))
        server, clients = build_clients(config, tiny_dataset(rng, 3), 1.0)
        theta0 = server.theta
        snapshot = [copy.deepcopy(c) for c in clients]
        first = sample_participants(0, config)[0]

        def overflowing(state, *args, **kwargs):
            sign = 1.0 if state.id == first else -1.0
            return DiagGaussian(np.full(state.phi.dim, sign * 1e308),
                                state.phi.var)

        monkeypatch.setattr("fedcox.orchestrator.cl.client_update", overflowing)
        with np.errstate(all="ignore"), pytest.raises(
            RoundError, match="mmd aggregation failed: MMD objective"
        ):
            run_round(server, clients, config)
        assert server.theta is theta0
        assert server.round == 0
        for cid in range(3):
            assert states_equal(clients[cid], snapshot[cid])

    def test_non_finite_kernel_gram_aborts_round(self):
        # log_r = 800 overflows r to inf: the inducing gram is non-finite.
        rng = np.random.default_rng(3)
        config = tiny_config(n_clients=3, participants_per_round=2)
        server, clients = build_clients(config, tiny_dataset(rng, 3), 1.0)
        victim = sample_participants(0, config)[-1]
        mean = clients[victim].phi.mean.copy()
        mean[-2] = 800.0
        clients[victim].phi = DiagGaussian(mean, clients[victim].phi.var)
        theta0 = server.theta
        snapshot = [copy.deepcopy(c) for c in clients]
        with np.errstate(all="ignore"), pytest.raises(
            RoundError,
            match=f"client {victim} failed: client {victim} inducing gram",
        ):
            run_round(server, clients, config)
        assert server.theta is theta0
        assert server.round == 0
        for cid in range(3):
            assert states_equal(clients[cid], snapshot[cid])

    def test_metrics_shape(self):
        rng = np.random.default_rng(4)
        config = tiny_config()
        server, clients = build_clients(config, tiny_dataset(rng, 3), 1.0)
        tests = tiny_dataset(rng, 3, n_seqs=1)
        server, metrics = run_round(server, clients, config, tests, (0.0, 1.0))
        assert metrics.round == 0
        assert len(metrics.participant_ids) == 2
        assert len(metrics.per_client_loglik) == 2
        assert np.isfinite(metrics.mean_test_loglik)
        assert np.isfinite(metrics.mean_elbo)
        assert server.round == 1


class TestRunTraining:
    def test_zero_rounds(self):
        rng = np.random.default_rng(5)
        config = tiny_config(rounds=0)
        history, server, clients = run_training(
            config, tiny_dataset(rng, 3), 1.0
        )
        assert history == []
        assert server.round == 0

    def test_run_twice_identical_metrics(self):
        rng = np.random.default_rng(6)
        data = tiny_dataset(rng, 3)
        tests = tiny_dataset(rng, 3, n_seqs=1)
        config = tiny_config(rounds=3)
        h1, s1, _ = run_training(config, data, 1.0, tests)
        h2, s2, _ = run_training(config, data, 1.0, tests)
        for a, b in zip(h1, h2):
            assert a.participant_ids == b.participant_ids
            assert a.mean_test_loglik == b.mean_test_loglik
            assert a.mean_elbo == b.mean_elbo
            assert a.per_client_loglik == b.per_client_loglik
        np.testing.assert_array_equal(s1.theta.mean, s2.theta.mean)
        np.testing.assert_array_equal(s1.theta.var, s2.theta.var)

    def test_prefix_property(self):
        rng = np.random.default_rng(7)
        data = tiny_dataset(rng, 3)
        short = run_training(tiny_config(rounds=2), data, 1.0)[0]
        long = run_training(tiny_config(rounds=4), data, 1.0)[0]
        for a, b in zip(short, long[:2]):
            assert a.participant_ids == b.participant_ids
            assert a.mean_elbo == b.mean_elbo

    def test_on_round_callback_streams(self):
        rng = np.random.default_rng(8)
        seen = []
        run_training(tiny_config(rounds=3), tiny_dataset(rng, 3), 1.0,
                     on_round=seen.append)
        assert [m.round for m in seen] == [0, 1, 2]

    def test_dataset_size_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            run_training(tiny_config(), tiny_dataset(rng, 2), 1.0)


class TestBuildClients:
    def test_prior_is_the_kernel_init_with_unit_variances(self):
        rng = np.random.default_rng(14)
        config = tiny_config(n_clients=3, hidden_dim=3, embed_dim=2)
        server, clients = build_clients(config, tiny_dataset(rng, 3, 2, 2.5),
                                        2.5)
        spec = EncoderSpec(hidden_dim=3, output_dim=2, t_norm=2.5)
        theta = DiagGaussian(init_kernel_params(spec, config.seed),
                             np.ones(spec.n_params))
        assert server.round == 0
        assert server.theta.mean.tobytes() == theta.mean.tobytes()
        assert server.theta.var.tobytes() == theta.var.tobytes()
        for c in clients:
            assert c.spec == spec
            assert c.phi.mean.tobytes() == theta.mean.tobytes()
            assert c.phi.var.tobytes() == theta.var.tobytes()

    def test_each_client_owns_the_prior_gram(self):
        rng = np.random.default_rng(15)
        config = tiny_config(n_clients=3)
        server, clients = build_clients(config, tiny_dataset(rng, 3), 1.0)
        z = clients[0].q_u.locations
        gram = kernel_matrix(
            z, z, KernelParams(server.theta.mean, clients[0].spec)
        )
        for c in clients:
            assert c.q_u.cov.tobytes() == gram.tobytes()
        clients[0].q_u.cov[0, 0] += 1.0
        for c in clients[1:]:
            assert c.q_u.cov.tobytes() == gram.tobytes()

    def test_clients_equal_init_client(self):
        rng = np.random.default_rng(16)
        data = tiny_dataset(rng, 3)
        config = tiny_config(n_clients=3)
        server, clients = build_clients(config, data, 1.0)
        for cid, c in enumerate(clients):
            z = c.q_u.locations
            gram = kernel_matrix(z, z, KernelParams(server.theta.mean, c.spec))
            fresh = cl.init_client(cid, data[cid], server.theta, c.spec, z,
                                   c.grid, gram)
            assert states_equal(c, fresh)
            assert c.q_u.cov.tobytes() == fresh.q_u.cov.tobytes()

    def test_clone_equals_and_shares_no_array(self):
        rng = np.random.default_rng(17)
        _, clients = build_clients(tiny_config(n_clients=3),
                                   tiny_dataset(rng, 3), 1.0)

        def arrays(st):
            return [st.events, st.pg, st.latent_rate, st.latent_c,
                    st.phi.mean, st.phi.var, st.q_u.locations, st.q_u.mean,
                    st.q_u.cov, st.grid.nodes, st.grid.weights]

        for c in clients:
            clone = cl.clone_state(c)
            assert states_equal(clone, c)
            assert clone.n_seqs == c.n_seqs == 2
            for a, b in zip(arrays(clone), arrays(c)):
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("empty", [[1], [0, 2]])
    def test_client_without_training_sequences_rejected(self, empty):
        rng = np.random.default_rng(18)
        data = tiny_dataset(rng, 3)
        for cid in empty:
            data[cid] = []
        names = ", ".join(map(str, empty))
        with pytest.raises(ValueError,
                           match=f"no training sequences for client {names}$"):
            run_training(tiny_config(n_clients=3), data, 1.0)


class TestPrivacyBoundary:
    def test_payload_carries_only_variational_record(self):
        fields = set(ClientPayload.__dataclass_fields__)
        assert fields == {"client_id", "phi", "elbo", "test_loglik"}


class TestEvalAll:
    def test_full_population_evaluation(self):
        rng = np.random.default_rng(10)
        data = tiny_dataset(rng, 3)
        tests = tiny_dataset(rng, 3, n_seqs=1)
        config = tiny_config(n_clients=3, participants_per_round=1,
                             eval_all=True)
        server, clients = build_clients(config, data, 1.0)
        server, metrics = run_round(server, clients, config, tests, (0.0, 1.0))
        # participant payload list stays at S, but the mean covers everyone
        assert len(metrics.per_client_loglik) == 1
        assert np.isfinite(metrics.mean_test_loglik)

    def test_each_client_scored_once_per_round(self, monkeypatch):
        rng = np.random.default_rng(12)
        data = tiny_dataset(rng, 4)
        tests = tiny_dataset(rng, 4, n_seqs=1)
        config = tiny_config(n_clients=4, participants_per_round=2,
                             eval_all=True)
        original = cl.test_loglik
        scored = []

        def counting(state, *args, **kwargs):
            scored.append(state.id)
            return original(state, *args, **kwargs)

        monkeypatch.setattr("fedcox.orchestrator.cl.test_loglik", counting)
        history, _, clients = run_training(config, data, 1.0, tests)
        # Round 0 scores every client; later rounds score only the new
        # states of their participants and reuse every other score.
        expected = list(range(4))
        for r in range(1, config.rounds):
            expected += sample_participants(r, config)
        assert sorted(scored) == sorted(expected)
        # Participants' upload scores equal a rescoring of their new states.
        assert history[-1].mean_test_loglik == np.mean(
            [original(c, tests[c.id], (0.0, 1.0)) for c in clients]
        )

    def test_reused_scores_equal_rescoring(self):
        # Every round's mean equals the one from rescoring every client.
        rng = np.random.default_rng(14)
        data = tiny_dataset(rng, 4)
        tests = tiny_dataset(rng, 4, n_seqs=1)
        tests[3] = []
        config = tiny_config(n_clients=4, participants_per_round=2, rounds=5,
                             straggle_period=2, eval_all=True)
        history, _, _ = run_training(config, data, 1.0, tests)
        server, clients = build_clients(config, data, 1.0)
        for metrics in history:
            server, fresh = run_round(server, clients, config, tests,
                                      (0.0, 1.0))
            assert fresh.mean_test_loglik == metrics.mean_test_loglik
            np.testing.assert_array_equal(fresh.per_client_loglik,
                                          metrics.per_client_loglik)

    def test_failed_round_leaves_scores_untouched(self, monkeypatch):
        rng = np.random.default_rng(10)
        data = tiny_dataset(rng, 3)
        tests = tiny_dataset(rng, 3, n_seqs=1)
        config = tiny_config(n_clients=3, participants_per_round=1,
                             eval_all=True)
        server, clients = build_clients(config, data, 1.0)
        participant, = sample_participants(0, config)
        reused, victim = sorted(set(range(3)) - {participant})
        scores = {reused: -1.5}
        original = cl.test_loglik
        called = []

        def failing(state, *args, **kwargs):
            called.append(state.id)
            if state.id == victim:
                raise ValueError("synthetic evaluation blow-up")
            return original(state, *args, **kwargs)

        monkeypatch.setattr("fedcox.orchestrator.cl.test_loglik", failing)
        with pytest.raises(RoundError, match=f"evaluating client {victim}"):
            run_round(server, clients, config, tests, (0.0, 1.0), scores)
        assert scores == {reused: -1.5}
        assert reused not in called
        monkeypatch.setattr("fedcox.orchestrator.cl.test_loglik", original)
        _, metrics = run_round(server, clients, config, tests, (0.0, 1.0),
                               scores)
        assert set(scores) == {0, 1, 2} and scores[reused] == -1.5
        assert scores[participant] == metrics.per_client_loglik[0]

    @pytest.mark.parametrize("eval_all", [False, True])
    def test_clients_without_test_sequences(self, eval_all):
        rng = np.random.default_rng(13)
        data = tiny_dataset(rng, 3)
        tests = tiny_dataset(rng, 3, n_seqs=1)
        config = tiny_config(n_clients=3, participants_per_round=2,
                             eval_all=eval_all)
        participants = sample_participants(0, config)
        empty = participants[0]
        tests[empty] = []
        server, clients = build_clients(config, data, 1.0)
        server, metrics = run_round(server, clients, config, tests, (0.0, 1.0))
        assert np.isnan(metrics.per_client_loglik[0])
        covered = [c for c in (range(3) if eval_all else participants)
                   if c != empty]
        assert metrics.mean_test_loglik == np.mean(
            [cl.test_loglik(clients[c], tests[c], (0.0, 1.0)) for c in covered]
        )
        # With no test sequences anywhere there is nothing to average.
        _, metrics = run_round(server, clients, config, [[], [], []],
                               (0.0, 1.0))
        assert np.isnan(metrics.mean_test_loglik)

    def test_evaluation_failure_aborts_round(self, monkeypatch):
        rng = np.random.default_rng(10)
        data = tiny_dataset(rng, 3)
        tests = tiny_dataset(rng, 3, n_seqs=1)
        config = tiny_config(n_clients=3, participants_per_round=1,
                             eval_all=True)
        server, clients = build_clients(config, data, 1.0)
        theta0 = server.theta
        snapshot = [copy.deepcopy(c) for c in clients]
        victim = min(set(range(3)) - set(sample_participants(0, config)))
        original = cl.test_loglik

        def failing(state, *args, **kwargs):
            if state.id == victim:
                raise ValueError("synthetic evaluation blow-up")
            return original(state, *args, **kwargs)

        monkeypatch.setattr("fedcox.orchestrator.cl.test_loglik", failing)
        with pytest.raises(RoundError, match=f"evaluating client {victim}"):
            run_round(server, clients, config, tests, (0.0, 1.0))
        assert server.theta is theta0
        assert server.round == 0
        for cid in range(3):
            assert states_equal(clients[cid], snapshot[cid])


class TestShippedDefaults:
    def test_default_configuration_accepted(self):
        config = FedConfig()
        assert config.n_clients == 20
        assert config.participants_per_round == 10
        assert config.rounds == 100
        assert config.local_epochs == 5


class TestWorkerPool:
    def test_parallel_workers_match_sequential(self):
        rng = np.random.default_rng(11)
        data = tiny_dataset(rng, 3)
        tests = tiny_dataset(rng, 3, n_seqs=1)
        seq_run = run_training(tiny_config(rounds=2, n_workers=1), data, 1.0,
                               tests)
        par_run = run_training(tiny_config(rounds=2, n_workers=3), data, 1.0,
                               tests)
        for a, b in zip(seq_run[0], par_run[0]):
            assert a.participant_ids == b.participant_ids
            assert a.per_client_loglik == b.per_client_loglik
            assert a.mean_elbo == b.mean_elbo
        np.testing.assert_array_equal(seq_run[1].theta.mean,
                                      par_run[1].theta.mean)


class TestEventFreeClient:
    def test_client_without_events_trains(self):
        rng = np.random.default_rng(12)
        data = tiny_dataset(rng, 2)
        data[0] = [EventSequence(times=np.empty(0), horizon=1.0)
                   for _ in range(2)]
        config = tiny_config(n_clients=2, participants_per_round=2, rounds=1)
        history, server, clients = run_training(config, data, 1.0)
        assert np.all(np.isfinite(server.theta.mean))
        assert clients[0].m > 0
