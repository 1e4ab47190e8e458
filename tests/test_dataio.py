"""Data generation, ingestion, splitting and partitioning tests."""
import hashlib
import json
import math
import tracemalloc

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

    @pytest.mark.parametrize("bad", [
        [1.5, 2.0], [True, 0], ["1", "2"], np.array([True, False]),
        [math.nan, 1.0], [math.inf, 1.0], [1e30, 1.0],
        np.array([2**63], dtype=np.uint64)[[0, 0]],
    ], ids=["fractional", "bool-in-ints", "strings", "bool-array", "nan",
            "inf", "past-int64", "uint64-past-int64"])
    def test_rejects_non_integer_marks(self, bad):
        with pytest.raises(ValueError, match="marks must be integers"):
            EventSequence(times=np.array([0.1, 0.2]), horizon=1.0, marks=bad)

    @pytest.mark.parametrize("good", [
        [1, 2], [1.0, 2.0], np.array([1, 2], dtype=np.uint8),
    ], ids=["ints", "integral-floats", "uint8"])
    def test_integer_marks_stored_as_int64(self, good):
        seq = EventSequence(times=np.array([0.1, 0.2]), horizon=1.0, marks=good)
        assert seq.marks.dtype == np.int64
        np.testing.assert_array_equal(seq.marks, [1, 2])


# Times that only the trusted path could let through.
BAD_TIMES = {
    "unsorted": ([0.5, 0.1], "nondecreasing"),
    "nan": ([0.1, math.nan], "finite"),
    "above-horizon": ([0.5, 1.5], "within"),
    "negative": ([-0.5, 0.5], "within"),
}


class TestPublicPathsCheck:
    """Skipping the checks is for rescaled cuts only.

    Direct construction is covered by :class:`TestEventSequence`.
    """

    @pytest.mark.parametrize("name", sorted(BAD_TIMES))
    def test_load_jsonl_names_the_line(self, tmp_path, name):
        times, message = BAD_TIMES[name]
        path = tmp_path / "bad.jsonl"
        good = '{"times": [0.1], "marks": [0], "horizon": 1.0}\n'
        path.write_text(good * 2 + json.dumps(
            {"times": times, "marks": [0, 1], "horizon": 1.0}
        ) + "\n")
        with pytest.raises(ValueError, match=f"line 3: .*{message}"):
            load_jsonl(path)

    def test_superpose_result_checked(self, monkeypatch):
        a = EventSequence(times=np.array([0.2]), horizon=1.0)
        checked = []
        post_init = EventSequence.__post_init__

        def counted(seq):
            checked.append(seq)
            post_init(seq)

        monkeypatch.setattr(EventSequence, "__post_init__", counted)
        merged = superpose(a, a)
        assert checked == [merged]


class TestTrustedCuts:
    def test_cuts_are_not_checked_again(self, monkeypatch):
        rng = np.random.default_rng(3)
        seqs = random_marked(rng, 8, 4)
        counts = []
        post_init = EventSequence.__post_init__

        def counted(seq):
            counts.append(1)
            post_init(seq)

        monkeypatch.setattr(EventSequence, "__post_init__", counted)
        partition_heterogeneous(seqs, 4, 2, 3, 0)
        normalize_and_split(seqs)
        assert counts == []

    def test_cuts_are_valid_sequences(self):
        # Re-checking every cut through the public constructor passes and
        # changes no byte.
        rng = np.random.default_rng(4)
        seqs = random_marked(rng, 20, 4) + [
            marked([1.0, 44.265431030687196], [0, 1], 44.265431030687196),
        ]
        split = normalize_and_split(seqs)
        plan = partition_heterogeneous(seqs, 4, 3, 2, 1)
        cuts = split.train + split.val + split.test + [
            seq for part in (plan.train, plan.test) for c in part
            for seq in part[c]
        ]
        for cut in cuts:
            again = EventSequence(times=cut.times, horizon=cut.horizon,
                                  marks=cut.marks)
            assert_same_sequences([cut], [again])
            assert type(cut.horizon) is float

    def test_rescaling_ties_warned_once_per_sequence(self, caplog):
        # Two adjacent floats that rescaling by 100 / 3 makes equal.
        times = [0.4800900450225113, 0.48009004502251135]
        assert times[0] * (100.0 / 3.0) == times[1] * (100.0 / 3.0)
        with caplog.at_level("WARNING"):
            # Equal times in different sequences are no tie.  Whatever the
            # deal order, two of the three 1.5s end up next to each other.
            seqs = [marked(times, [0, 1], 3.0), marked([1.5], [0], 3.0),
                    marked([], [], 3.0), marked([1.5], [1], 3.0),
                    marked([1.5], [0], 3.0)]
            assert not caplog.records
            normalize_and_split(seqs)
            partition_heterogeneous(seqs, 2, 1, 2, 0)
        messages = [r.getMessage() for r in caplog.records]
        assert messages == ["rescaled sequence contains tied event times"] * 2


def sine_f(t):
    """A fixed f for the thinning sampler: 2 sin(2 pi t)."""
    return 2.0 * np.sin(2.0 * np.pi * np.asarray(t))


class TestSimulateSgcp:
    def test_saturated_high_keeps_everything(self):
        m, horizon = 40.0, 1.0
        counts = []
        for seed in range(200):
            seq, _ = simulate_sgcp(m, lambda t: np.full(len(t), 60.0),
                                   horizon, seed)
            counts.append(len(seq))
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(mean - m * horizon) < 4 * se

    def test_saturated_low_keeps_nothing(self):
        seq, (grid, lam) = simulate_sgcp(
            30.0, lambda t: np.full(len(t), -60.0), 1.0, 0
        )
        assert len(seq) == 0
        assert np.all(lam < 1e-20)

    def test_ground_truth_grid_shape(self):
        seq, (grid, lam) = simulate_sgcp(20.0, sine_f, 1.0, 3)
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
            (seq,), (grid, lam) = simulate_client(m, kernel, horizon, 1, seed)
            counts.append(len(seq))
            integrals.append(np.trapezoid(lam, grid))
        counts = np.asarray(counts, dtype=float)
        integrals = np.asarray(integrals)
        diff = counts - integrals
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(diff.mean()) < 3 * se

    def test_determinism(self):
        a, _ = simulate_sgcp(25.0, sine_f, 1.0, 11)
        b, _ = simulate_sgcp(25.0, sine_f, 1.0, 11)
        np.testing.assert_array_equal(a.times, b.times)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            simulate_sgcp(0.0, sine_f, 1.0, 0)

    @pytest.mark.parametrize("m, horizon", [(math.inf, 1.0), (25.0, math.nan)])
    def test_rejects_non_finite_rate(self, m, horizon):
        with pytest.raises(ValueError, match="finite"):
            simulate_sgcp(m, sine_f, horizon, 0)

    def test_thinning_intensity_histogram(self):
        # Fixed f(t) = 2 sin(2 pi t / T): per-bin counts match the target
        # intensity within 4-sigma Poisson bars.
        m, horizon, reps = 20.0, 1.0, 5000
        f = lambda t: 2.0 * np.sin(2.0 * np.pi * np.asarray(t) / horizon)
        edges = np.linspace(0.0, horizon, 9)
        hist = np.zeros(edges.size - 1)
        for seed in range(reps):
            seq, _ = simulate_sgcp(m, f, horizon, seed)
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

    def test_rejects_deep_kernel(self):
        # The ground truth is a plain RBF SGCP; a (params, EncoderSpec)
        # pair is not a kernel the simulator draws from.
        spec = EncoderSpec(hidden_dim=2, output_dim=2, t_norm=1.0)
        kernel = (init_kernel_params(spec, 0), spec)
        with pytest.raises(TypeError):
            simulate_client(20.0, kernel, 1.0, 2, 0)

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

    def test_cache_miss_peak_memory(self):
        # The gram and one copy being factored, then the factor and U: about
        # two 512x512 arrays at a time, not four.
        gram_bytes = dataio.GROUND_TRUTH_GRID**2 * 8
        dataio._grid_and_factor.cache_clear()
        tracemalloc.start()
        try:
            dataio._grid_and_factor(RbfSpec(1.5, 0.1), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * gram_bytes

    def test_gram_equals_one_expression(self):
        rng = np.random.default_rng(2)
        kernel = RbfSpec(1.7, 0.3)
        a, b = rng.uniform(0, 2, 40), rng.uniform(0, 2, 25)
        want = kernel.variance * np.exp(
            -0.5 * (a[:, None] - b[None, :]) ** 2 / kernel.length_scale**2
        )
        assert kernel.gram(a, b).tobytes() == want.tobytes()


def draw_digest(seqs, truth, intensity=True):
    """SHA-256 of each sequence's length and times, the grid, then intensity."""
    h = hashlib.sha256()
    for seq in seqs:
        h.update(np.int64(len(seq)).tobytes())
        h.update(seq.times.tobytes())
    grid, lam = truth
    h.update(grid.tobytes())
    if intensity:
        h.update(lam.tobytes())
    return h.hexdigest()


class TestGeneratedDataPinned:
    """Simulated sequences and intensities are fixed bytes for each seed.

    Two digests per draw.  The first covers the sequences and the grid
    only.  It was recorded with a two-sweep solve for the conditional
    variance and scipy's ``expit``, and it has not changed since, so it
    also shows that the one-sweep form and ``numerics.expit``, which both
    round differently, keep every draw.  The second adds the ground-truth
    intensity.  It was re-recorded when ``numerics.expit`` replaced scipy's:
    numpy's vectorized ``exp`` moved 36 of the 2048 intensity entries here,
    each by at most 2 ulp.
    """

    @pytest.mark.parametrize("args, kwargs, events, full", [
        ((50.0, RbfSpec(1.5, 0.1), 1.0, 12, 3), {},
         "aeeba7b936468280122368c0a5127a1e5177e1129befd3f77719c11754610cc3",
         "73fdfa9653abb122dce5adc09ad3aeb4528f088277c86036fc0dbc036f0226c7"),
        ((50.0, RbfSpec(2.0, 0.125), 1.0, 12, 4), {},
         "88c9e04c4b3c71a7e779ee49e95e2deec75feb169410d3de6eed36fe09a3488a",
         "b23ae57fce230654e9767c2f0a509104e2a7d195ecd2d6bad7d93276229c9ad7"),
        ((20.0, RbfSpec(1.5, 0.5), 7.5, 6, 5), {"nu": 0.3},
         "ba2db4c832651f234eb3449e5b4e69cf672780783af05850dd9c7e1952845f43",
         "694883e0630fbf0cb48402c82d27faf19e3f501f721d76a67fe83a0134d82f17"),
    ], ids=["criterion-8-a", "criterion-8-b", "nu-horizon-7.5"])
    def test_simulate_client(self, args, kwargs, events, full):
        seqs, truth = simulate_client(*args, **kwargs)
        assert draw_digest(seqs, truth, intensity=False) == events
        assert draw_digest(seqs, truth) == full

    def test_simulate_sgcp(self):
        # One GP draw, once recorded through simulate_sgcp's GP path.
        (seq,), truth = simulate_client(50.0, RbfSpec(1.5, 0.1), 1.0, 1, 6)
        assert len(seq) == 31
        assert draw_digest([seq], truth, intensity=False) == (
            "3f16e3342703c8545c32bee1ba7a282dbd0a67f795ec8dd99f54148b7f57e253"
        )
        assert draw_digest([seq], truth) == (
            "72fa16550256cbc229dbeb3652f61fa4e043456f2bd3f6a41a52ff60f2161aae"
        )


class TestRbfSpec:
    @pytest.mark.parametrize("variance, length", [
        (np.nan, 0.1), (1.0, np.nan), (np.inf, 0.1), (1.0, 0.0),
    ])
    def test_rejects_bad_kernel(self, variance, length):
        with pytest.raises(ValueError):
            RbfSpec(variance, length)


class TestGridResolution:
    """The ground-truth grid must resolve the kernel: length >= 2 spacings."""

    SPACING = 7.5 / (dataio.GROUND_TRUTH_GRID - 1)

    def test_rejects_kernel_below_two_spacings(self):
        kernel = RbfSpec(1.0, 1.999 * self.SPACING)
        with pytest.raises(ValueError, match="grid spacings"):
            simulate_client(20.0, kernel, 7.5, 2, 0)

    def test_accepts_kernel_above_two_spacings(self):
        kernel = RbfSpec(1.0, 2.001 * self.SPACING)
        seqs, (grid, lam) = simulate_client(2.0, kernel, 7.5, 2, 0)
        assert len(seqs) == 2 and lam.shape == grid.shape

    def test_one_grid_solve_per_client(self, monkeypatch):
        solves, half_solves = [], []

        def counting(calls, fn):
            def wrapped(factor, b, *args, **kwargs):
                calls.append(np.shape(b))
                return fn(factor, b, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(dataio, "solve_with",
                            counting(solves, dataio.solve_with))
        monkeypatch.setattr(dataio, "half_solve_with",
                            counting(half_solves, dataio.half_solve_with))
        seqs, _ = simulate_client(50.0, RbfSpec(1.5, 0.1), 1.0, 4, 3)
        assert all(len(s) > 0 for s in seqs)
        # One full solve of f_grid - nu, then one triangular sweep per
        # sequence's candidates.
        assert solves == [(dataio.GROUND_TRUTH_GRID,)]
        assert len(half_solves) == 4
        assert all(shape[0] == dataio.GROUND_TRUTH_GRID and shape[1] > 0
                   for shape in half_solves)

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

    @pytest.mark.parametrize("record, named", [
        ('{"times": ["x"], "horizon": 1.0}', "times"),
        ('{"times": 0.5, "horizon": 1.0}', "times"),
        ('{"times": [0.1, 0.2], "marks": [1.5, 2.7], "horizon": 1.0}', "marks"),
        ('{"times": [0.1, 0.2], "marks": [[1], [2, 3]], "horizon": 1.0}',
         "marks"),
        ('5', "JSON object"),
        ('null', "JSON object"),
        ('{"times": [0.1], "horizon": [1]}', "horizon"),
        ('{"times": [0.1], "horizon": true}', "horizon"),
        ('{"times": [0.1, true], "horizon": 1.0}', "times"),
        ('{"times": [0.1], "marks": [1180591620717411303424], "horizon": 1.0}',
         "marks"),
        ('{"times": [0.1, 0.2], "marks": [true, 0], "horizon": 1.0}', "marks"),
        ('{"times": [0.1, 0.2], "marks": "12", "horizon": 1.0}', "marks"),
    ], ids=["non-numeric-times", "scalar-times", "fractional-marks",
            "ragged-marks", "number-record", "null-record", "list-horizon",
            "bool-horizon", "bool-times", "mark-beyond-int64", "bool-marks",
            "string-marks"])
    def test_malformed_record_names_line(self, tmp_path, record, named):
        path = tmp_path / "malformed.jsonl"
        path.write_text('{"times": [0.1], "horizon": 1.0}\n' + record + "\n")
        with pytest.raises(ValueError, match="line 2") as err:
            load_jsonl(path)
        assert named in str(err.value)

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

    def test_event_at_the_horizon_is_at_100(self):
        # The scale 100 / h rounds so that h * (100 / h) exceeds 100; a
        # sequence whose horizon defaults to its last time hits this.
        h = 44.265431030687196
        assert h * (100.0 / h) > 100.0
        seq = EventSequence(times=np.array([1.0, h]), horizon=h,
                            marks=np.array([0, 0]))
        assert normalize_and_split([seq]).test[0].times.tolist() == [100.0]
        plan = partition_heterogeneous([seq] * 8, 2, 1, 8, 0)
        tests = [s.times.tolist() for c in range(8) for s in plan.test[c]]
        assert [100.0] in tests and all(t in ([], [100.0]) for t in tests)

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

    def test_subnormal_horizon_rejected(self):
        # 100 / 1e-310 overflows; the times would become NaN and inf.
        seq = EventSequence(times=np.array([0.0, 5e-311, 1e-310]),
                            horizon=1e-310)
        with pytest.raises(ValueError, match="horizon 1e-310 is too small"):
            normalize_and_split([seq])

    def test_smallest_rescalable_horizon(self):
        h = 5.57e-307  # 100 / h is just under the largest float
        seq = EventSequence(times=np.array([0.0, 0.5 * h, h]), horizon=h)
        split = normalize_and_split([seq])
        assert split.train[0].times.tolist() == [0.0, 50.0]
        assert split.test[0].times.tolist() == [100.0]

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


def reference_split(seqs):
    """``normalize_and_split`` as it was before the one-pass partition."""
    if not seqs:
        raise ValueError("cannot split an empty dataset")
    lo, hi = 0.6 * 100.0, 0.8 * 100.0
    train, val, test = [], [], []
    for seq in seqs:
        times = seq.times * (100.0 / seq.horizon)
        for part, mask in ((train, times <= lo),
                           (val, (times > lo) & (times <= hi)),
                           (test, times > hi)):
            part.append(EventSequence(
                times=times[mask], horizon=100.0,
                marks=None if seq.marks is None else seq.marks[mask],
            ))
    return train, val, test


def reference_partition(seqs, n_types, k, n_clients, seed):
    """``partition_heterogeneous`` as it was, on already split sequences.

    Returns ``(assignments, client_seqs)``.
    """
    if k >= n_types:
        raise ValueError(f"k must be < number of event types ({k} >= {n_types})")
    if any(seq.marks is None for seq in seqs):
        raise ValueError("heterogeneous partitioning requires marked sequences")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A27]))
    assignments = {
        c: tuple(sorted(rng.choice(n_types, size=k, replace=False).tolist()))
        for c in range(n_clients)
    }
    order = rng.permutation(len(seqs))
    client_seqs = {c: [] for c in range(n_clients)}
    for pos, seq_idx in enumerate(order):
        c = pos % n_clients
        seq = seqs[seq_idx]
        mask = np.isin(seq.marks, assignments[c])
        client_seqs[c].append(
            EventSequence(
                times=seq.times[mask], horizon=seq.horizon, marks=seq.marks[mask]
            )
        )
    return assignments, client_seqs


def reference_plan(seqs, n_types, k, n_clients, seed):
    """Split first, then partition the train and the test part apart."""
    train, _, test = reference_split(seqs)
    assignments, train_seqs = reference_partition(train, n_types, k,
                                                  n_clients, seed)
    _, test_seqs = reference_partition(test, n_types, k, n_clients, seed)
    return assignments, train_seqs, test_seqs


def assert_same_sequences(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.horizon == b.horizon
        assert a.times.dtype == b.times.dtype
        assert a.times.tobytes() == b.times.tobytes()
        assert (a.marks is None) == (b.marks is None)
        if a.marks is not None:
            assert a.marks.dtype == b.marks.dtype
            assert a.marks.tobytes() == b.marks.tobytes()


def assert_matches_reference(seqs, n_types, k, n_clients, seed):
    plan = partition_heterogeneous(seqs, n_types, k, n_clients, seed)
    assignments, train, test = reference_plan(seqs, n_types, k, n_clients,
                                              seed)
    assert plan.assignments == assignments
    assert set(plan.train) == set(plan.test) == set(range(n_clients))
    for c in range(n_clients):
        assert_same_sequences(plan.train[c], train[c])
        assert_same_sequences(plan.test[c], test[c])
    return plan


def marked(times, marks, horizon):
    return EventSequence(times=np.asarray(times, dtype=np.float64),
                         horizon=horizon, marks=np.asarray(marks))


def random_marked(rng, n_seqs, n_types, low=0, high=None):
    """Marked sequences of random length, horizon, ties and marks."""
    high = n_types if high is None else high
    seqs = []
    for _ in range(n_seqs):
        horizon = float(rng.choice([100.0, rng.uniform(0.5, 500.0)]))
        n = int(rng.integers(0, 30))
        times = np.sort(rng.uniform(0.0, horizon, n))
        if n > 3:
            times[1] = times[2]  # a tie
        seqs.append(marked(times, rng.integers(low, high, n), horizon))
    return seqs


class TestNormalizeAndSplitOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng([seed, 41])
        seqs = random_marked(rng, 6, 5)
        seqs.append(EventSequence(times=np.array([0.0, 30.0, 30.0, 40.0, 50.0]),
                                  horizon=50.0))
        split = normalize_and_split(seqs)
        for got, want in zip((split.train, split.val, split.test),
                             reference_split(seqs)):
            assert_same_sequences(got, want)


class TestPartitionOracle:
    """The one pass equals splitting first, then partitioning each part."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_marked_data(self, seed):
        rng = np.random.default_rng([seed, 77])
        n_types = int(rng.integers(2, 8))
        k = int(rng.integers(1, n_types))
        n_clients = int(rng.integers(1, 9))
        seqs = random_marked(rng, int(rng.integers(1, 25)), n_types)
        assert_matches_reference(seqs, n_types, k, n_clients, seed)

    @pytest.mark.parametrize("horizon", [100.0, 50.0, 250.0])
    def test_events_on_the_boundaries(self, horizon):
        scale = horizon / 100.0
        times = scale * np.array([0.0, 59.999, 60.0, 60.001, 79.999, 80.0,
                                  80.001, 100.0])
        seqs = [marked(times, [0, 1, 0, 1, 0, 1, 0, 1], horizon)
                for _ in range(3)]
        plan = assert_matches_reference(seqs, 2, 1, 2, 5)
        if horizon == 100.0:
            kept = np.concatenate([s.times for c in plan.train
                                   for s in plan.train[c]])
            assert 60.0 in kept and 80.0 not in kept

    def test_tied_times_and_empty_sequences(self):
        seqs = [
            marked([10.0, 10.0, 10.0, 90.0, 90.0], [0, 1, 2, 0, 1], 100.0),
            marked([], [], 100.0),
            marked([], [], 7.0),
            marked([3.0, 3.0, 6.0, 6.0], [2, 2, 1, 0], 6.0),
        ]
        assert_matches_reference(seqs, 3, 2, 2, 11)

    def test_client_without_events_of_its_types(self):
        # Every mark is 0, so a client without type 0 gets only empty
        # sequences; six clients outnumber the three sequences.
        seqs = [marked([10.0, 50.0, 90.0], [0, 0, 0], 100.0) for _ in range(3)]
        plan = assert_matches_reference(seqs, 4, 1, 6, 3)
        counts = [len(plan.train[c]) for c in range(6)]
        assert counts == [len(plan.test[c]) for c in range(6)]
        assert sorted(counts) == [0, 0, 0, 1, 1, 1]
        assert any(0 not in plan.assignments[c] and plan.train[c]
                   for c in range(6))

    @pytest.mark.parametrize("seed", range(5))
    def test_all_but_one_type_and_other_horizons(self, seed):
        rng = np.random.default_rng([seed, 5])
        seqs = random_marked(rng, 12, 5) + [
            marked(np.sort(rng.uniform(0, h, 20)), rng.integers(0, 5, 20), h)
            for h in (0.3, 1.0, 37.5, 1e4)
        ]
        assert_matches_reference(seqs, 5, 4, 3, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_marks_outside_the_types_are_dropped(self, seed):
        rng = np.random.default_rng([seed, 9])
        n_types = 4
        seqs = random_marked(rng, 10, n_types, low=-1, high=n_types + 4)
        seqs.append(marked([1.0, 70.0, 99.0], [-1, n_types + 3, n_types + 3],
                           100.0))
        plan = assert_matches_reference(seqs, n_types, 3, 3, seed)
        for part in (plan.train, plan.test):
            for c in range(3):
                for seq in part[c]:
                    assert ((seq.marks >= 0) & (seq.marks < n_types)).all()

    @pytest.mark.parametrize("args, message", [
        (([], 2, 2, 1, 0), "empty dataset"),
        (([], 2, 1, 1, 0), "empty dataset"),
        (([EventSequence(times=np.array([1.0]), horizon=2.0)], 2, 2, 1, 0),
         "k must be <"),
        (([EventSequence(times=np.array([1.0]), horizon=2.0)], 3, 1, 1, 0),
         "marked sequences"),
    ], ids=["empty-before-k", "empty", "k-before-marks", "unmarked"])
    def test_same_errors_in_the_same_order(self, args, message):
        with pytest.raises(ValueError, match=message) as want:
            reference_plan(*args)
        with pytest.raises(ValueError) as got:
            partition_heterogeneous(*args)
        assert str(got.value) == str(want.value)


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
            for part in (plan.train, plan.test):
                for seq in part[cid]:
                    if len(seq):
                        assert (set(seq.marks.tolist())
                                <= set(plan.assignments[cid]))

    def test_parts_hold_their_windows(self):
        rng = np.random.default_rng(13)
        seqs = marked_sequences(rng, 10, 3)
        plan = partition_heterogeneous(seqs, 3, 2, 2, 4)
        for cid in range(2):
            for seq in plan.train[cid]:
                assert seq.horizon == 100.0 and (seq.times <= 60.0).all()
            for seq in plan.test[cid]:
                assert seq.horizon == 100.0 and (seq.times > 80.0).all()

    def test_equal_sequence_counts(self):
        rng = np.random.default_rng(11)
        seqs = marked_sequences(rng, 11, 5)
        plan = partition_heterogeneous(seqs, 5, 2, 3, 1)
        for part in (plan.train, plan.test):
            counts = [len(part[c]) for c in range(3)]
            assert max(counts) - min(counts) <= 1
        assert counts == [len(plan.train[c]) for c in range(3)]

    def test_requires_marks(self):
        seqs = [EventSequence(times=np.array([1.0]), horizon=100.0)]
        with pytest.raises(ValueError):
            partition_heterogeneous(seqs, 3, 1, 1, 0)

    def test_subnormal_horizon_rejected(self):
        seq = marked([0.0, 5e-311, 1e-310], [0, 1, 1], 1e-310)
        with pytest.raises(ValueError, match="horizon 1e-310 is too small"):
            partition_heterogeneous([seq], 2, 1, 1, 0)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        seqs = marked_sequences(rng, 8, 4)
        p1 = partition_heterogeneous(seqs, 4, 2, 2, 123)
        p2 = partition_heterogeneous(seqs, 4, 2, 2, 123)
        assert p1.assignments == p2.assignments
        for c in range(2):
            for part in ("train", "test"):
                assert_same_sequences(getattr(p1, part)[c],
                                      getattr(p2, part)[c])
