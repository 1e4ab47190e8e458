"""Data generation, ingestion, splitting and partitioning tests."""
import json
import math

import numpy as np
import pytest
from scipy.special import expit

from fedcox import dataio
from fedcox.dataio import (
    EventSequence,
    RbfSpec,
    load_jsonl,
    normalize_and_split,
    partition_heterogeneous,
    save_jsonl,
    simulate_client,
    simulate_sgcp,
    superpose,
)
from fedcox.kernel import EncoderSpec, init_kernel_params


class TestEventSequence:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EventSequence(times=np.array([0.5, 0.1]), horizon=1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EventSequence(times=np.array([0.5, 1.5]), horizon=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EventSequence(times=np.array([0.1, bad]), horizon=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EventSequence(times=np.array([0.1, 0.2]), horizon=bad)

    def test_marks_length_checked(self):
        with pytest.raises(ValueError):
            EventSequence(times=np.array([0.1, 0.2]), horizon=1.0,
                          marks=np.array([1]))


class TestSimulateSgcp:
    def test_saturated_high_keeps_everything(self):
        m, horizon = 40.0, 1.0
        counts = []
        for seed in range(200):
            seq, _ = simulate_sgcp(m, None, horizon, seed,
                                   f_override=lambda t: np.full(len(t), 60.0))
            counts.append(len(seq))
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(mean - m * horizon) < 4 * se

    def test_saturated_low_keeps_nothing(self):
        seq, (grid, lam) = simulate_sgcp(
            30.0, None, 1.0, 0, f_override=lambda t: np.full(len(t), -60.0)
        )
        assert len(seq) == 0
        assert np.all(lam < 1e-20)

    def test_ground_truth_grid_shape(self):
        seq, (grid, lam) = simulate_sgcp(
            20.0, RbfSpec(1.5, 0.1), 1.0, 3
        )
        assert grid.shape == lam.shape == (512,)
        assert np.all(lam >= 0) and np.all(lam <= 20.0)
        assert np.all(seq.times >= 0) and np.all(seq.times <= 1.0)

    def test_mean_count_consistency(self):
        # Empirical mean count over replicates matches mean integrated
        # intensity within Monte-Carlo error.
        m, horizon = 50.0, 1.0
        kernel = RbfSpec(1.5, 0.1)
        counts, integrals = [], []
        for seed in range(2000):
            seq, (grid, lam) = simulate_sgcp(m, kernel, horizon, seed)
            counts.append(len(seq))
            integrals.append(np.trapezoid(lam, grid))
        counts = np.asarray(counts, dtype=float)
        integrals = np.asarray(integrals)
        diff = counts - integrals
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(diff.mean()) < 3 * se

    def test_determinism(self):
        a, _ = simulate_sgcp(25.0, RbfSpec(1.0, 0.2), 1.0, 11)
        b, _ = simulate_sgcp(25.0, RbfSpec(1.0, 0.2), 1.0, 11)
        np.testing.assert_array_equal(a.times, b.times)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            simulate_sgcp(0.0, RbfSpec(1.0, 0.1), 1.0, 0)

    @pytest.mark.parametrize("m, horizon", [(math.inf, 1.0), (25.0, math.nan)])
    def test_rejects_non_finite_rate(self, m, horizon):
        with pytest.raises(ValueError, match="finite"):
            simulate_sgcp(m, RbfSpec(1.0, 0.1), horizon, 0)

    def test_thinning_intensity_histogram(self):
        # Fixed f(t) = 2 sin(2 pi t / T): per-bin counts match the target
        # intensity within 4-sigma Poisson bars.
        m, horizon, reps = 20.0, 1.0, 5000
        f = lambda t: 2.0 * np.sin(2.0 * np.pi * np.asarray(t) / horizon)
        edges = np.linspace(0.0, horizon, 9)
        hist = np.zeros(edges.size - 1)
        for seed in range(reps):
            seq, _ = simulate_sgcp(m, None, horizon, seed, f_override=f)
            hist += np.histogram(seq.times, bins=edges)[0]
        centers = 0.5 * (edges[:-1] + edges[1:])
        # expected bin mass: integral of m sigmoid(f) over the bin
        fine = np.linspace(0, horizon, 4001)
        lam_fine = m * expit(f(fine))
        expected = np.array([
            np.trapezoid(
                lam_fine[(fine >= lo) & (fine <= hi)],
                fine[(fine >= lo) & (fine <= hi)],
            )
            for lo, hi in zip(edges[:-1], edges[1:])
        ]) * reps
        sigma = np.sqrt(expected)
        assert np.all(np.abs(hist - expected) < 4 * sigma), (
            (hist - expected) / sigma
        )


class TestSimulateClient:
    def test_sequences_share_intensity(self):
        seqs, (grid, lam) = simulate_client(50.0, RbfSpec(1.5, 0.1), 1.0, 6, 5)
        assert len(seqs) == 6
        # counts should scatter around the common integral
        integral = np.trapezoid(lam, grid)
        counts = np.array([len(s) for s in seqs], dtype=float)
        assert abs(counts.mean() - integral) < 5 * math.sqrt(integral / 6)

    def test_determinism(self):
        a, _ = simulate_client(30.0, RbfSpec(2.0, 0.125), 1.0, 3, 9)
        b, _ = simulate_client(30.0, RbfSpec(2.0, 0.125), 1.0, 3, 9)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.times, sb.times)

    def test_single_sequence_is_simulate_sgcp(self):
        kernel = RbfSpec(1.5, 0.1)
        seq, (grid, lam) = simulate_sgcp(40.0, kernel, 1.0, 17, nu=0.3)
        seqs, (grid_c, lam_c) = simulate_client(40.0, kernel, 1.0, 1, 17, nu=0.3)
        assert np.array_equal(seq.times, seqs[0].times)
        assert np.array_equal(grid, grid_c) and np.array_equal(lam, lam_c)

    def test_rejects_deep_kernel(self):
        # The ground truth is a plain RBF SGCP; a (params, EncoderSpec)
        # pair is not a kernel the simulator draws from.
        spec = EncoderSpec(hidden_dim=2, output_dim=2)
        kernel = (init_kernel_params(spec, 0), spec)
        with pytest.raises(TypeError):
            simulate_client(20.0, kernel, 1.0, 2, 0)
        with pytest.raises(TypeError):
            simulate_sgcp(20.0, kernel, 1.0, 0)

    def test_equal_spec_reuses_cached_factor(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return factor_fn(*args, **kwargs)

        factor_fn = dataio.chol_factor_jittered
        monkeypatch.setattr(dataio, "chol_factor_jittered", counting)
        dataio._grid_and_factor.cache_clear()
        _, (grid_a, lam_a) = simulate_client(30.0, RbfSpec(2.0, 0.125), 1.0, 2, 4)
        _, (grid_b, lam_b) = simulate_client(30.0, RbfSpec(2.0, 0.125), 1.0, 2, 5)
        assert calls == [("ground-truth gram",)]
        assert grid_a is grid_b
        assert not np.array_equal(lam_a, lam_b)


class TestGridResolution:
    """The ground-truth grid must resolve the kernel: length >= 2 spacings."""

    SPACING = 7.5 / (dataio.GROUND_TRUTH_GRID - 1)

    def test_rejects_kernel_below_two_spacings(self):
        kernel = RbfSpec(1.0, 1.999 * self.SPACING)
        with pytest.raises(ValueError, match="grid spacings"):
            simulate_client(20.0, kernel, 7.5, 2, 0)
        with pytest.raises(ValueError, match="grid spacings"):
            simulate_sgcp(20.0, kernel, 7.5, 0)

    def test_accepts_kernel_above_two_spacings(self):
        kernel = RbfSpec(1.0, 2.001 * self.SPACING)
        seqs, (grid, lam) = simulate_client(2.0, kernel, 7.5, 2, 0)
        assert len(seqs) == 2 and lam.shape == grid.shape
        seq, _ = simulate_sgcp(2.0, kernel, 7.5, 0)
        assert np.all(seq.times <= 7.5)

    def test_one_grid_solve_per_client(self, monkeypatch):
        calls = []

        def counting(factor, b):
            calls.append(np.shape(b))
            return solve(factor, b)

        solve = dataio.solve_with
        monkeypatch.setattr(dataio, "solve_with", counting)
        seqs, _ = simulate_client(50.0, RbfSpec(1.5, 0.1), 1.0, 4, 3)
        assert all(len(s) > 0 for s in seqs)
        # One solve of f_grid - nu, then one per sequence's candidates.
        assert len(calls) == 4 + 1
        assert calls[0] == (dataio.GROUND_TRUTH_GRID,)

    @pytest.mark.parametrize("horizon", [1.0, 7.5])
    def test_residual_variance_negligible_at_every_accepted_length(self,
                                                                   horizon):
        # Independent per-point residuals drop their correlation, which is
        # harmless only while the grid pins f.  With unit draws and a zero
        # mean, _conditional_draw returns the conditional std, which must
        # stay under 1% of the prior std between nodes.
        class UnitNormals:
            def standard_normal(self, n):
                return np.ones(n)

        spacing = horizon / (dataio.GROUND_TRUTH_GRID - 1)
        cand = np.linspace(0.0, horizon, 8 * (dataio.GROUND_TRUTH_GRID - 1) + 1)
        for length in np.geomspace(2.0 * spacing, 100.0 * horizon, 7):
            kernel = RbfSpec(1.5, length)
            grid, factor = dataio._grid_and_factor(kernel, horizon)
            std = dataio._conditional_draw(
                kernel, cand, grid, np.zeros(grid.size), factor, 0.0,
                UnitNormals(),
            )
            assert np.max(std**2) <= 1e-4 * kernel.variance, length


class TestSuperpose:
    def test_empty_b_returns_a(self):
        a = EventSequence(times=np.array([0.1, 0.4]), horizon=1.0)
        b = EventSequence(times=np.empty(0), horizon=1.0)
        merged = superpose(a, b)
        np.testing.assert_array_equal(merged.times, a.times)

    def test_counts_add(self):
        a = EventSequence(times=np.array([0.1, 0.4]), horizon=1.0)
        b = EventSequence(times=np.array([0.2, 0.3, 0.9]), horizon=1.0)
        assert len(superpose(a, b)) == 5

    def test_horizon_mismatch(self):
        a = EventSequence(times=np.array([0.1]), horizon=1.0)
        b = EventSequence(times=np.array([0.1]), horizon=2.0)
        with pytest.raises(ValueError):
            superpose(a, b)

    def test_superposition_statistics(self):
        # Two independent rate-mu processes merged vs one rate-2mu process:
        # two-sample mean test on counts at 3 sigma.
        mu, horizon, reps = 7.0, 1.0, 2000
        rng = np.random.default_rng(42)
        merged_counts = np.empty(reps)
        direct_counts = np.empty(reps)
        for i in range(reps):
            a = EventSequence(
                times=np.sort(rng.uniform(0, horizon, rng.poisson(mu))),
                horizon=horizon,
            )
            b = EventSequence(
                times=np.sort(rng.uniform(0, horizon, rng.poisson(mu))),
                horizon=horizon,
            )
            merged_counts[i] = len(superpose(a, b))
            direct_counts[i] = rng.poisson(2 * mu)
        se = math.sqrt(
            merged_counts.var(ddof=1) / reps + direct_counts.var(ddof=1) / reps
        )
        assert abs(merged_counts.mean() - direct_counts.mean()) < 3 * se


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        seqs = [
            EventSequence(times=np.array([0.1, 0.5]), horizon=1.0),
            EventSequence(times=np.array([0.2]), horizon=1.0,
                          marks=np.array([3])),
        ]
        save_jsonl(seqs, path)
        loaded = load_jsonl(path)
        assert len(loaded) == 2
        np.testing.assert_allclose(loaded[0].times, [0.1, 0.5])
        assert loaded[1].marks is not None and loaded[1].marks[0] == 3

    def test_basic_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text('{"times": [0.1, 0.5], "horizon": 1.0}\n')
        seqs = load_jsonl(path)
        assert len(seqs) == 1 and len(seqs[0]) == 2

    def test_unsorted_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"times": [0.5, 0.1]}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_jsonl(path)

    def test_marks_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        path.write_text(
            '{"times": [0.1], "horizon": 1.0}\n'
            '{"times": [0.1, 0.2], "marks": [1], "horizon": 1.0}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(path)

    @pytest.mark.parametrize("record", [
        '{"times": [0.1, NaN], "horizon": 1.0}',
        '{"times": [0.1, Infinity]}',
        '{"times": [-Infinity, 0.1], "horizon": 1.0}',
        '{"times": [0.1, 0.5], "horizon": Infinity}',
        '{"times": [], "horizon": NaN}',
    ])
    def test_non_finite_values_name_line(self, tmp_path, record):
        path = tmp_path / "nonfinite.jsonl"
        path.write_text('{"times": [0.1], "horizon": 1.0}\n' + record + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(path)

    @pytest.mark.parametrize("record", [
        '{"times": ["x"], "horizon": 1.0}',
        '{"times": 0.5, "horizon": 1.0}',
        '{"times": [0.1, 0.2], "marks": [1.5, 2.7], "horizon": 1.0}',
        '{"times": [0.1, 0.2], "marks": [[1], [2, 3]], "horizon": 1.0}',
        '5',
        'null',
        '{"times": [0.1], "horizon": [1]}',
        '{"times": [0.1], "horizon": true}',
        '{"times": [0.1, true], "horizon": 1.0}',
        '{"times": [0.1], "marks": [1180591620717411303424], "horizon": 1.0}',
    ], ids=["non-numeric-times", "scalar-times", "fractional-marks",
            "ragged-marks", "number-record", "null-record", "list-horizon",
            "bool-horizon", "bool-times", "mark-beyond-int64"])
    def test_malformed_record_names_line(self, tmp_path, record):
        path = tmp_path / "malformed.jsonl"
        path.write_text('{"times": [0.1], "horizon": 1.0}\n' + record + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(path)

    def test_integral_float_marks_accepted(self, tmp_path):
        path = tmp_path / "marks.jsonl"
        path.write_text('{"times": [0.1, 0.2], "marks": [1.0, 2], "horizon": 1.0}\n')
        np.testing.assert_array_equal(load_jsonl(path)[0].marks, [1, 2])

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with caplog.at_level("WARNING"):
            seqs = load_jsonl(path)
        assert seqs == []
        assert any("no sequences" in r.message for r in caplog.records)

    def test_default_horizon_is_max_time(self, tmp_path):
        path = tmp_path / "nohorizon.jsonl"
        path.write_text('{"times": [0.25, 2.5]}\n')
        assert load_jsonl(path)[0].horizon == 2.5


class TestNormalizeAndSplit:
    def test_threshold_arithmetic(self):
        seq = EventSequence(times=np.array([0.0, 50.0, 100.0]), horizon=100.0)
        split = normalize_and_split([seq])
        np.testing.assert_allclose(split.train[0].times, [0.0, 50.0])
        assert len(split.val[0]) == 0
        np.testing.assert_allclose(split.test[0].times, [100.0])

    def test_rescaling(self):
        seq = EventSequence(times=np.array([5.0]), horizon=10.0)
        split = normalize_and_split([seq])
        assert split.train[0].times[0] == pytest.approx(50.0)

    def test_boundary_membership(self):
        seq = EventSequence(times=np.array([60.0, 80.0, 80.000001]),
                            horizon=100.0)
        split = normalize_and_split([seq])
        assert 60.0 in split.train[0].times
        assert 80.0 in split.val[0].times
        assert len(split.test[0]) == 1

    def test_idempotent(self):
        seq = EventSequence(times=np.array([10.0, 70.0, 90.0]), horizon=100.0)
        once = normalize_and_split([seq])
        again = normalize_and_split(
            [EventSequence(times=np.concatenate([
                once.train[0].times, once.val[0].times, once.test[0].times
            ]), horizon=100.0)]
        )
        np.testing.assert_allclose(again.train[0].times, once.train[0].times)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            normalize_and_split([])

    def test_every_event_in_exactly_one_split(self):
        rng = np.random.default_rng(8)
        seqs = [
            EventSequence(times=np.sort(rng.uniform(0, 100, 40)), horizon=100.0)
            for _ in range(5)
        ]
        split = normalize_and_split(seqs)
        for i, seq in enumerate(seqs):
            total = len(split.train[i]) + len(split.val[i]) + len(split.test[i])
            assert total == len(seq)


def marked_sequences(rng, n_seqs, n_types):
    seqs = []
    for _ in range(n_seqs):
        n = int(rng.integers(5, 15))
        times = np.sort(rng.uniform(0, 100, n))
        marks = rng.integers(0, n_types, n)
        seqs.append(EventSequence(times=times, horizon=100.0, marks=marks))
    return seqs


class TestPartitionHeterogeneous:
    def test_k_equal_to_types_rejected(self):
        rng = np.random.default_rng(9)
        seqs = marked_sequences(rng, 4, 4)
        with pytest.raises(ValueError):
            partition_heterogeneous(seqs, 4, 4, 2, 0)

    def test_clients_see_only_their_types(self):
        rng = np.random.default_rng(10)
        seqs = marked_sequences(rng, 10, 4)
        plan = partition_heterogeneous(seqs, 4, 2, 2, 7)
        for cid in range(2):
            assert len(plan.assignments[cid]) == 2
            for seq in plan.client_seqs[cid]:
                if len(seq):
                    assert set(seq.marks.tolist()) <= set(plan.assignments[cid])

    def test_equal_sequence_counts(self):
        rng = np.random.default_rng(11)
        seqs = marked_sequences(rng, 11, 5)
        plan = partition_heterogeneous(seqs, 5, 2, 3, 1)
        counts = [len(plan.client_seqs[c]) for c in range(3)]
        assert max(counts) - min(counts) <= 1

    def test_requires_marks(self):
        seqs = [EventSequence(times=np.array([1.0]), horizon=100.0)]
        with pytest.raises(ValueError):
            partition_heterogeneous(seqs, 3, 1, 1, 0)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        seqs = marked_sequences(rng, 8, 4)
        p1 = partition_heterogeneous(seqs, 4, 2, 2, 123)
        p2 = partition_heterogeneous(seqs, 4, 2, 2, 123)
        assert p1.assignments == p2.assignments
        for c in range(2):
            for a, b in zip(p1.client_seqs[c], p2.client_seqs[c]):
                np.testing.assert_array_equal(a.times, b.times)
