"""Oracle and property tests for the foundational numerics."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtrtrs
from scipy.special import expit as scipy_expit

from fedcox.numerics import (
    DiagGaussian,
    FactorizationError,
    QuadratureGrid,
    check_setting,
    chol_factor_jittered,
    expit,
    half_solve_with,
    kl_diag,
    mmd_rbf,
    pg_mean,
    solve_with,
    trapezoid_grid,
    w2_diag,
)


def gaussian_1d(mean, var):
    return DiagGaussian(np.array([mean]), np.array([var]))


def kl_by_integration(mq, vq, mp, vp, n=200_001, width=14.0):
    """Numerical integral of q log(q/p) over a wide grid around q."""
    s = math.sqrt(vq)
    x = np.linspace(mq - width * s, mq + width * s, n)
    log_q = -0.5 * (x - mq) ** 2 / vq - 0.5 * math.log(2 * math.pi * vq)
    log_p = -0.5 * (x - mp) ** 2 / vp - 0.5 * math.log(2 * math.pi * vp)
    return float(np.trapezoid(np.exp(log_q) * (log_q - log_p), x))


def w2_by_inverse_cdf(mq, vq, mp, vp, n=400_001):
    """1-D optimal transport cost via inverse-CDF quadrature."""
    from scipy.stats import norm

    u = (np.arange(n) + 0.5) / n
    qq = norm.ppf(u, loc=mq, scale=math.sqrt(vq))
    qp = norm.ppf(u, loc=mp, scale=math.sqrt(vp))
    return math.sqrt(float(np.mean((qq - qp) ** 2)))


class TestDiagGaussian:
    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DiagGaussian(np.zeros(3), np.ones(2))

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            DiagGaussian(np.zeros(2), np.array([1.0, 0.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DiagGaussian(np.array([np.nan]), np.ones(1))


class TestKlDiag:
    def test_identical_distributions(self):
        rng = np.random.default_rng(0)
        q = DiagGaussian(rng.standard_normal(5), rng.uniform(0.5, 2.0, 5))
        assert kl_diag(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_shift(self):
        # Frozen from the integration oracle; analytic value is 1/2.
        q, p = gaussian_1d(0.0, 1.0), gaussian_1d(1.0, 1.0)
        assert kl_diag(q, p) == pytest.approx(0.5, abs=1e-9)
        assert kl_by_integration(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-6)

    def test_variance_mismatch(self):
        q, p = gaussian_1d(0.0, 2.0), gaussian_1d(0.0, 1.0)
        expected = 0.5 * (2.0 - 1.0 - math.log(2.0))
        assert expected == pytest.approx(0.15342640972, abs=1e-9)
        assert kl_diag(q, p) == pytest.approx(expected, rel=1e-12)
        assert kl_by_integration(0.0, 2.0, 0.0, 1.0) == pytest.approx(
            expected, abs=1e-6
        )

    def test_matches_integration_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            mq, mp = rng.normal(size=2)
            vq, vp = rng.uniform(0.3, 3.0, size=2)
            got = kl_diag(gaussian_1d(mq, vq), gaussian_1d(mp, vp))
            assert got == pytest.approx(
                kl_by_integration(mq, vq, mp, vp), abs=1e-5
            )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            kl_diag(DiagGaussian(np.zeros(2), np.ones(2)),
                    DiagGaussian(np.zeros(3), np.ones(3)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        q = DiagGaussian(rng.normal(size=d), rng.uniform(0.2, 4.0, d))
        p = DiagGaussian(rng.normal(size=d), rng.uniform(0.2, 4.0, d))
        value = kl_diag(q, p)
        assert value >= -1e-10
        if value < 1e-10:
            np.testing.assert_allclose(q.mean, p.mean, atol=1e-4)
            np.testing.assert_allclose(q.var, p.var, atol=1e-4)
        assert kl_diag(q, q) <= 1e-10


class TestW2Diag:
    def test_identical(self):
        q = DiagGaussian(np.array([1.0, -2.0]), np.array([0.5, 4.0]))
        assert w2_diag(q, q) == 0.0

    def test_mean_shift(self):
        q, p = gaussian_1d(0.0, 1.0), gaussian_1d(3.0, 1.0)
        assert w2_diag(q, p) == pytest.approx(3.0, rel=1e-12)
        assert w2_by_inverse_cdf(0.0, 1.0, 3.0, 1.0) == pytest.approx(3.0, abs=1e-4)

    def test_std_shift(self):
        q, p = gaussian_1d(0.0, 1.0), gaussian_1d(0.0, 4.0)
        assert w2_diag(q, p) == pytest.approx(1.0, rel=1e-12)
        assert w2_by_inverse_cdf(0.0, 1.0, 0.0, 4.0) == pytest.approx(1.0, abs=1e-3)

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        q = DiagGaussian(rng.normal(size=4), rng.uniform(0.5, 2, 4))
        p = DiagGaussian(rng.normal(size=4), rng.uniform(0.5, 2, 4))
        assert w2_diag(q, p) == pytest.approx(w2_diag(p, q), rel=1e-14)
        assert w2_diag(q, p) > 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        a, b, c = (
            DiagGaussian(rng.normal(size=d), rng.uniform(0.2, 4.0, d))
            for _ in range(3)
        )
        assert w2_diag(a, c) <= w2_diag(a, b) + w2_diag(b, c) + 1e-9


class TestMmdRbf:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(3)
        q = DiagGaussian(rng.normal(size=3), rng.uniform(0.5, 2, 3))
        for delta in (0.5, 1.0, 3.0):
            assert mmd_rbf(q, q, delta) == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        # E[k(x, x')] terms estimated from 1e6 paired samples.
        rng = np.random.default_rng(7)
        q, p = gaussian_1d(0.0, 1.0), gaussian_1d(2.0, 1.0)
        delta = 1.0
        n = 1_000_000
        xq = rng.normal(0.0, 1.0, (n, 2))
        xp = rng.normal(2.0, 1.0, (n, 2))

        def mc(term_a, term_b):
            vals = np.exp(-((term_a - term_b) ** 2) / delta**2)
            return vals.mean(), vals.std(ddof=1) / math.sqrt(n)

        eqq, se1 = mc(xq[:, 0], xq[:, 1])
        epp, se2 = mc(xp[:, 0], xp[:, 1])
        eqp, se3 = mc(xq[:, 0], xp[:, 1])
        estimate = eqq + epp - 2 * eqp
        se = math.sqrt(se1**2 + se2**2 + 4 * se3**2)
        assert abs(mmd_rbf(q, p, delta) - estimate) < 3 * se

    def test_dimension_additivity(self):
        q2 = DiagGaussian(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
        p2 = DiagGaussian(np.array([2.0, -1.0]), np.array([1.5, 2.0]))
        parts = sum(
            mmd_rbf(
                gaussian_1d(q2.mean[d], q2.var[d]),
                gaussian_1d(p2.mean[d], p2.var[d]),
                0.8,
            )
            for d in range(2)
        )
        assert mmd_rbf(q2, p2, 0.8) == pytest.approx(parts, rel=1e-12)

    def test_rejects_bad_delta(self):
        q = gaussian_1d(0.0, 1.0)
        with pytest.raises(ValueError):
            mmd_rbf(q, q, 0.0)

    def test_numerically_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            q = DiagGaussian(rng.normal(size=d), rng.uniform(0.1, 3, d))
            p = DiagGaussian(rng.normal(size=d), rng.uniform(0.1, 3, d))
            assert mmd_rbf(q, p, float(rng.uniform(0.2, 3))) >= -1e-9


def tanh_by_series(x, terms=60):
    """tanh via its continued fraction, independent of np.tanh."""
    # Lentz evaluation of tanh(x) = x / (1 + x^2 / (3 + x^2 / (5 + ...)))
    acc = 2.0 * terms + 1.0
    for k in range(terms, 0, -1):
        acc = (2.0 * k - 1.0) + x * x / acc
    return x / acc


class TestPgMean:
    def test_zero_limit(self):
        assert pg_mean(0.0) == 0.25

    def test_reference_value(self):
        # tanh(1)/4 evaluated through an independent continued fraction.
        oracle = tanh_by_series(1.0) / 4.0
        assert oracle == pytest.approx(0.190399, abs=1e-6)
        assert pg_mean(2.0) == pytest.approx(oracle, rel=1e-12)

    def test_strictly_decreasing(self):
        assert pg_mean(1.0) > pg_mean(3.0)
        c = np.linspace(0.0, 8.0, 200)
        values = pg_mean(c)
        assert np.all(np.diff(values) < 0)

    def test_series_branch_limit(self):
        for c in (0.0, 1e-9, 1e-7, 1e-6):
            assert abs(pg_mean(c) - 0.25) < 1e-9

    def test_branch_continuity(self):
        # Values straddling the series/direct switch agree to 1e-10.
        below, above = pg_mean(1e-4 * (1 - 1e-9)), pg_mean(1e-4 * (1 + 1e-9))
        assert abs(below - above) < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pg_mean(-1.0)

    def test_vectorized(self):
        c = np.array([0.0, 1e-6, 0.5, 2.0])
        out = pg_mean(c)
        assert out.shape == c.shape
        assert out[0] == 0.25


def factor_and_solve(a, b):
    factor, _ = chol_factor_jittered(a)
    return solve_with(factor, b)


class TestCholSolve:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        x = factor_and_solve(np.eye(3), b)
        np.testing.assert_allclose(x, b, atol=1e-7)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0])
        np.testing.assert_allclose(
            factor_and_solve(a, np.array([2.0, 4.0])), [1.0, 1.0], rtol=1e-7
        )

    def test_random_spd_residual(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((8, 8))
        a = g @ g.T + 8 * np.eye(8)
        b = rng.standard_normal(8)
        x = factor_and_solve(a, b)
        residual = np.max(np.abs(a @ x - b))
        assert residual <= 1e-6 * np.max(np.abs(b))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((5, 5))
        a = g @ g.T + 5 * np.eye(5)
        b = rng.standard_normal((5, 3))
        x = factor_and_solve(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-8)

    def test_factor_records_jitter(self):
        _, clean = chol_factor_jittered(np.eye(2))
        assert clean == 0.0
        # Rank-deficient: factorization succeeds only once jitter engages.
        _, degenerate = chol_factor_jittered(np.ones((3, 3)))
        assert degenerate > 0

    def test_roundtrip_conditioned(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            eigs = np.exp(rng.uniform(0, np.log(1e6), 6))
            eigs /= eigs.max()
            a = (q * eigs) @ q.T
            a = 0.5 * (a + a.T)
            b = rng.standard_normal(6)
            x = factor_and_solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-6 * max(np.linalg.norm(b), 1e-12)

    @pytest.mark.parametrize("m", [1, 20, 50])
    def test_bit_identical_to_scipy(self, m):
        rng = np.random.default_rng(m)
        g = rng.standard_normal((m, m))
        a = g @ g.T + m * np.eye(m)
        (c, lower), _ = chol_factor_jittered(a)
        want = cho_factor(a, lower=True, check_finite=False)
        assert lower is True and c.tobytes(order="A") == want[0].tobytes(order="A")
        assert c.flags.f_contiguous == want[0].flags.f_contiguous
        # The lower factor as returned, a C-ordered copy of it, and the upper
        # Fortran-ordered (U, False) form that the ground-truth sampler keeps.
        factors = [(c, True), (np.ascontiguousarray(c), True),
                   (np.tril(c).T, False)]
        for factor in factors:
            for b in (rng.standard_normal(m), rng.standard_normal((m, 3))):
                got = solve_with(factor, b)
                ref = cho_solve(factor, b, check_finite=False)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
                assert got.flags.f_contiguous == ref.flags.f_contiguous
                # One triangular sweep, as scipy's dtrtrs makes it, on a
                # copy of b and on a Fortran-ordered b, which both write
                # in place.
                lower = factor[1]
                ref, info = dtrtrs(factor[0], b, lower=lower,
                                   trans=0 if lower else 1)
                assert info == 0
                got = half_solve_with(factor, b.copy())
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
                mine, theirs = np.asfortranarray(b), np.asfortranarray(b)
                got = half_solve_with(factor, mine)
                ref, _ = dtrtrs(factor[0], theirs, lower=lower,
                                trans=0 if lower else 1, overwrite_b=True)
                assert got is mine and ref is theirs
                assert mine.tobytes(order="A") == theirs.tobytes(order="A")

    def test_jittered_factor_bit_identical_to_scipy(self):
        a = np.ones((4, 4))  # rank one: the clean attempt fails
        (c, _), jitter = chol_factor_jittered(a)
        want, _ = cho_factor(a + jitter * np.eye(4), lower=True)
        assert jitter > 0 and c.tobytes(order="A") == want.tobytes(order="A")

    @pytest.mark.parametrize("a, baseline, jittered", [
        (np.array([[4.0, 1.0], [1.0, 3.0]]), False, False),  # clean
        (np.array([[4.0, 1.0], [1.0, 3.0]]), True, True),  # baseline rung
        (np.ones((4, 4)), False, True),  # clean attempt fails, then a rung
    ], ids=["clean", "baseline", "ladder"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_unchanged(self, a, baseline, jittered, order):
        a = np.array(a, order=order)
        before = a.copy()
        _, jitter = chol_factor_jittered(a, baseline=baseline)
        assert (jitter > 0) == jittered
        assert a.tobytes() == before.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_unchanged_after_failure(self, order):
        a = np.array([[1.0, 0.0], [0.0, -5.0]], order=order)
        before = a.copy()
        with pytest.raises(FactorizationError):
            chol_factor_jittered(a)
        assert a.tobytes() == before.tobytes()
        assert a.flags.writeable

    def test_negative_zeros_kept(self):
        a = np.array([[4.0, -0.0, 1.0], [-0.0, 2.0, -0.0], [1.0, -0.0, 3.0]])
        (c, _), jitter = chol_factor_jittered(a)
        want, _ = cho_factor(a, lower=True, check_finite=False)
        assert jitter == 0.0
        assert c.tobytes(order="A") == want.tobytes(order="A")
        assert np.signbit(c[1, 0]) and np.signbit(c[0, 1])

    def test_empty_right_hand_side(self):
        factor, _ = chol_factor_jittered(np.eye(3))
        b = np.empty((3, 0))
        got = solve_with(factor, b)
        ref = cho_solve(factor, b)
        assert got.shape == ref.shape == (3, 0) and got.dtype == ref.dtype

    @pytest.mark.parametrize("case", ["all-inf", "all-nan", "inf-diagonal",
                                      "nan-off-diagonal"])
    @pytest.mark.parametrize("baseline", [False, True])
    def test_non_finite_matrix_raises(self, case, baseline):
        a = np.eye(4) * 2.0 + 0.1
        if case == "all-inf":
            a[:] = np.inf
        elif case == "all-nan":
            a[:] = np.nan
        elif case == "inf-diagonal":
            a[2, 2] = np.inf
        else:
            a[3, 1] = a[1, 3] = np.nan
        with pytest.raises(FactorizationError,
                           match="bad gram: matrix has non-finite entries"):
            chol_factor_jittered(a, "bad gram", baseline=baseline)

    def test_error_names_matrix(self):
        a = np.array([[1.0, 0.0], [0.0, -5.0]])  # indefinite beyond max jitter
        with pytest.raises(FactorizationError,
                           match="doomed gram: .* even at jitter 1.000e-02"):
            chol_factor_jittered(a, "doomed gram")

    @pytest.mark.parametrize("baseline", [False, True])
    def test_top_rung_tried_at_every_scale(self, baseline):
        # At this mean diagonal s, six products by 10 of 1e-8 * s round one
        # ulp above 1e-2 * s; the matrix factors only at that 7th rung.
        s = 0.5180360721442886
        a = np.diag([2 * s + 0.005 * s, -0.005 * s])
        _, jitter = chol_factor_jittered(a, baseline=baseline)
        want = 1e-8 * s
        for _ in range(6):
            want *= 10.0
        assert jitter == want > 1e-2 * s


class TestExpit:
    @staticmethod
    def ulps(a, b):
        # Both are nonnegative, where float order is integer order.
        return np.abs(a.view(np.int64) - b.view(np.int64))

    def test_within_4_ulp_of_scipy(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([np.linspace(-800.0, 800.0, 400_001),
                            rng.uniform(-40.0, 40.0, 100_000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x)
        assert self.ulps(got, scipy_expit(x)).max() <= 4

    def test_equal_to_scipy_at_the_edges(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, -1e308, 1e308, -800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x)
        assert got.tobytes() == scipy_expit(x).tobytes()
        assert list(got[:4]) == [0.5, 0.5, 1.0, 0.0] and got[4] == 0.0

    def test_scalar(self):
        assert expit(0.0) == 0.5 and np.ndim(expit(2.0)) == 0


class TestHalfSolve:
    @staticmethod
    def factors(m, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((m, m))
        a = g @ g.T + m * np.eye(m)
        (c, lower), _ = chol_factor_jittered(a)
        # The lower factor as returned (its upper triangle is not zeroed) and
        # the upper Fortran-ordered (U, False) form of the ground-truth sampler.
        return rng, [(c, lower), (np.tril(c).T, False)]

    @pytest.mark.parametrize("m", [1, 20, 60])
    def test_squared_norm_is_quadratic_form_diagonal(self, m):
        rng, factors = self.factors(m, m)
        b = rng.standard_normal((m, 7))
        for factor in factors:
            want = np.einsum("mn,mn->n", b, solve_with(factor, b))
            # A copy, since a (1, 7) array is Fortran-ordered and so consumed.
            v = half_solve_with(factor, b.copy())
            np.testing.assert_allclose(np.sum(v * v, axis=0), want,
                                       rtol=1e-12, atol=0)

    def test_empty_right_hand_side(self):
        _, factors = self.factors(3, 2)
        for factor in factors:
            got = half_solve_with(factor, np.empty((3, 0)))
            assert got.shape == (3, 0) and got.dtype == np.float64

    def test_zero_on_the_diagonal_raises(self):
        factor = (np.array([[1.0, 0.0], [0.5, 0.0]], order="F"), True)
        with pytest.raises(FactorizationError, match="diagonal entry 2"):
            half_solve_with(factor, np.ones(2))

    def test_fortran_input_is_written_in_place(self):
        rng, factors = self.factors(12, 3)
        for factor in factors:
            k = rng.standard_normal((5, 12))  # C-ordered, so k.T is F-ordered
            k_t = k.T.copy()  # C-ordered: copied by the call, not written
            want = half_solve_with(factor, k_t)
            assert k_t.tobytes() == k.T.tobytes()
            got = half_solve_with(factor, k.T)
            assert np.shares_memory(got, k)
            assert got.tobytes() == want.tobytes()


class TestTrapezoidGrid:
    def test_two_nodes(self):
        g = trapezoid_grid(1.0, 2)
        np.testing.assert_allclose(g.nodes, [0.0, 1.0])
        np.testing.assert_allclose(g.weights, [0.5, 0.5])

    def test_uniform_interior_weight(self):
        g = trapezoid_grid(100.0, 201)
        assert g.size == 201
        np.testing.assert_allclose(np.diff(g.nodes), 0.5)
        np.testing.assert_allclose(g.weights[1:-1], 0.5)
        np.testing.assert_allclose(g.weights[[0, -1]], 0.25)

    def test_integrates_linear_function(self):
        g = trapezoid_grid(1.0, 1001)
        assert float(g.weights @ g.nodes) == pytest.approx(0.5, abs=1e-6)

    def test_weights_sum_to_horizon(self):
        for horizon, n in [(1.0, 2), (3.7, 11), (250.0, 999)]:
            g = trapezoid_grid(horizon, n)
            assert float(g.weights.sum()) == pytest.approx(horizon, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            trapezoid_grid(0.0, 5)
        with pytest.raises(ValueError):
            trapezoid_grid(1.0, 1)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite"):
            trapezoid_grid(horizon, 5)
        with pytest.raises(ValueError, match="horizon must be finite"):
            QuadratureGrid(np.array([0.0, 1.0]), np.array([0.5, 0.5]), horizon)


class TestCheckSetting:
    @pytest.mark.parametrize("value, kind, low, strict", [
        (3, int, 1, False),
        (np.int64(1), int, 1, False),
        (0.5, float, 0, True),
        (2, float, 0, True),
        (np.float32(0.0), float, 0, False),
        (-7, int, None, False),
        (True, bool, None, False),
        (np.bool_(False), bool, None, False),
    ])
    def test_accepts(self, value, kind, low, strict):
        check_setting("x", value, kind, low, strict)

    @pytest.mark.parametrize("value, kind", [
        (2.0, int), (True, int), (np.bool_(True), float), ("1", float),
        (None, int), (1, bool),
    ])
    def test_wrong_type_is_type_error(self, value, kind):
        with pytest.raises(TypeError, match="^x must be"):
            check_setting("x", value, kind)

    @pytest.mark.parametrize("value, kind, low, strict", [
        (math.nan, float, None, False),
        (math.inf, float, None, False),
        (np.float64(-np.inf), float, None, False),
        (0, int, 1, False),
        (0.0, float, 0, True),
    ])
    def test_out_of_range_is_value_error(self, value, kind, low, strict):
        with pytest.raises(ValueError, match="^x must be"):
            check_setting("x", value, kind, low, strict)
