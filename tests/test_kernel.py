"""Tests for the neural-feature RBF kernel and its parameter gradients."""
import numpy as np
import pytest

from fedcox.kernel import (
    EncoderSpec,
    KernelParams,
    _sqdist,
    embed,
    embed_with_jacobian,
    embed_with_tape,
    init_kernel_params,
    kernel_eval,
    kernel_grad,
    kernel_matrix,
)


def tiny_spec(t_norm=1.0):
    return EncoderSpec(hidden_dim=3, output_dim=2, t_norm=t_norm)


def random_params(spec, seed, scale=0.7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(spec.n_params) * scale


def embed_reference(t, packed, spec):
    """Straight-line recomputation of the two-layer map, loop form."""
    h, d = spec.hidden_dim, spec.output_dim
    w1 = packed[0:h]
    b1 = packed[h:2 * h]
    w2 = packed[2 * h:2 * h + d * h].reshape(d, h)
    b2 = packed[2 * h + d * h:2 * h + d * h + d]
    x = t / spec.t_norm
    hidden = [np.tanh(w1[j] * x + b1[j]) for j in range(h)]
    return np.array(
        [sum(w2[k, j] * hidden[j] for j in range(h)) + b2[k] for k in range(d)]
    )


def init_reference(spec, seed):
    """The packed initial means written by explicit layout offsets."""
    rng = np.random.default_rng(seed)
    h, d = spec.hidden_dim, spec.output_dim
    packed = np.zeros(spec.n_params)
    packed[0:h] = rng.standard_normal(h)  # fan_in = 1
    w2 = rng.standard_normal((d, h)) / np.sqrt(h)
    packed[2 * h:2 * h + d * h] = w2.ravel()
    return packed


class TestPacking:
    def test_roundtrip_is_bit_stable(self):
        spec = tiny_spec()
        packed = random_params(spec, 0)
        params = KernelParams(packed, spec)
        rebuilt = np.concatenate(
            [params.w1, params.b1, params.w2.ravel(), params.b2,
             [params.log_r], [params.log_l]]
        )
        assert np.array_equal(rebuilt, packed)

    def test_parameter_count_matches_architecture(self):
        spec = EncoderSpec(hidden_dim=32, output_dim=8, t_norm=1.0)
        assert spec.n_net_params == 32 + 32 + 8 * 32 + 8
        assert spec.n_params == spec.n_net_params + 2

    def test_rejects_wrong_length(self):
        spec = tiny_spec()
        with pytest.raises(ValueError):
            KernelParams(np.zeros(spec.n_params + 1), spec)

    def test_rejects_nonfinite(self):
        spec = tiny_spec()
        packed = np.zeros(spec.n_params)
        packed[0] = np.inf
        with pytest.raises(ValueError):
            KernelParams(packed, spec)

    def test_init_is_deterministic(self):
        spec = EncoderSpec(hidden_dim=5, output_dim=3, t_norm=1.0)
        a = init_kernel_params(spec, 99)
        b = init_kernel_params(spec, 99)
        assert np.array_equal(a, b)
        assert a[-2] == 0.0 and a[-1] == 0.0  # log_r, log_l
        assert np.all(a[5:10] == 0.0)  # first-layer biases

    @pytest.mark.parametrize("dims", [(1, 1), (3, 2), (32, 8)])
    def test_init_matches_offset_layout_bytes(self, dims):
        spec = EncoderSpec(hidden_dim=dims[0], output_dim=dims[1],
                           t_norm=1.0)
        for seed in (0, 7):
            got = init_kernel_params(spec, seed)
            assert got.tobytes() == init_reference(spec, seed).tobytes()


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs, error", [
        ({"hidden_dim": 2, "output_dim": 2, "t_norm": np.nan}, ValueError),
        ({"hidden_dim": 2, "output_dim": 2, "t_norm": np.inf}, ValueError),
        ({"hidden_dim": 2.5, "output_dim": 2, "t_norm": 1.0}, TypeError),
        ({"hidden_dim": True, "output_dim": 2, "t_norm": 1.0}, TypeError),
    ], ids=["t_norm-nan", "t_norm-inf", "hidden-float", "hidden-bool"])
    def test_rejects_bad_setting(self, kwargs, error):
        with pytest.raises(error):
            EncoderSpec(**kwargs)

    def test_shape_has_no_default(self):
        with pytest.raises(TypeError):
            EncoderSpec()


class TestEmbed:
    @pytest.mark.parametrize("times", [0.37, np.float64(1.2), [0.0, 0.4, 2.5]])
    def test_embed_is_the_tape_output(self, times):
        spec = tiny_spec(t_norm=2.5)
        packed = random_params(spec, 12)
        out = embed_with_tape(times, KernelParams(packed, spec)).out
        got = embed(times, KernelParams(packed, spec))
        want = out[0] if np.ndim(times) == 0 else out
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_zero_weights_give_zero(self):
        spec = tiny_spec()
        packed = np.zeros(spec.n_params)
        for t in (0.0, 0.3, 1.0):
            np.testing.assert_array_equal(
                embed(t, KernelParams(packed, spec)), np.zeros(2)
            )

    def test_identity_like_net_at_zero(self):
        spec = EncoderSpec(hidden_dim=1, output_dim=1, t_norm=1.0)
        packed = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert embed(0.0, KernelParams(packed, spec)) == pytest.approx(0.0)

    def test_matches_straight_line_reference(self):
        spec = tiny_spec(t_norm=2.5)
        rng = np.random.default_rng(4)
        packed = random_params(spec, 4)
        for t in rng.uniform(0, 2.5, 10):
            np.testing.assert_allclose(
                embed(t, KernelParams(packed, spec)),
                embed_reference(t, packed, spec),
                rtol=1e-13,
            )

    def test_jacobian_matches_finite_differences(self):
        spec = tiny_spec()
        packed = random_params(spec, 8)
        times = np.array([0.13, 0.76])
        _, jac = embed_with_jacobian(times, KernelParams(packed, spec))
        h = 1e-6
        for d in range(spec.n_net_params):
            up, down = packed.copy(), packed.copy()
            up[d] += h
            down[d] -= h
            fd = (
                embed(times, KernelParams(up, spec))
                - embed(times, KernelParams(down, spec))
            ) / (2 * h)
            np.testing.assert_allclose(jac[:, :, d], fd, atol=1e-7)


class TestKernelEval:
    def test_coincident_inputs_give_r(self):
        spec = tiny_spec()
        packed = random_params(spec, 1)
        packed[-2] = 0.37
        assert kernel_eval(0.4, 0.4, KernelParams(packed, spec)) == pytest.approx(
            np.exp(0.37), rel=1e-14
        )

    def test_length_scale_saturation(self):
        spec = tiny_spec()
        packed = random_params(spec, 2)
        packed[-1] = 30.0  # enormous length scale
        r = np.exp(packed[-2])
        for a, b in [(0.0, 1.0), (0.1, 0.9), (0.5, 0.6)]:
            assert kernel_eval(
                a, b, KernelParams(packed, spec)
            ) == pytest.approx(r, rel=1e-10)

    def test_matches_direct_formula(self):
        spec = tiny_spec()
        packed = random_params(spec, 3)
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = rng.uniform(0, 1, 2)
            ha = embed_reference(a, packed, spec)
            hb = embed_reference(b, packed, spec)
            expected = np.exp(packed[-2]) * np.exp(
                -np.sum((ha - hb) ** 2) / (2 * np.exp(2 * packed[-1]))
            )
            assert kernel_eval(a, b, KernelParams(packed, spec)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_symmetry_and_bounds(self):
        spec = tiny_spec()
        packed = random_params(spec, 6)
        r = np.exp(packed[-2])
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = rng.uniform(0, 1, 2)
            kab = kernel_eval(a, b, KernelParams(packed, spec))
            assert kab == kernel_eval(b, a, KernelParams(packed, spec))
            assert 0.0 < kab <= r * (1 + 1e-12)

    def test_nonstationary(self):
        # Equal raw gaps, different kernel values for a generic net.
        spec = tiny_spec()
        packed = random_params(spec, 12)
        k1 = kernel_eval(0.1, 0.3, KernelParams(packed, spec))
        k2 = kernel_eval(0.6, 0.8, KernelParams(packed, spec))
        assert abs(k1 - k2) > 1e-6


class TestKernelMatrix:
    def test_single_point(self):
        spec = tiny_spec()
        packed = random_params(spec, 7)
        m = kernel_matrix([0.4], [0.4], KernelParams(packed, spec))
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(np.exp(packed[-2]), rel=1e-14)

    def test_square_psd(self):
        spec = tiny_spec()
        packed = random_params(spec, 9)
        times = np.sort(np.random.default_rng(9).uniform(0, 1, 32))
        k = kernel_matrix(times, times, KernelParams(packed, spec))
        np.testing.assert_allclose(k, k.T, atol=1e-14)
        assert np.linalg.eigvalsh(k).min() >= -1e-8

    def test_cross_matrix_transpose(self):
        spec = tiny_spec()
        packed = random_params(spec, 10)
        a = np.linspace(0.1, 0.9, 5)
        b = np.array([0.2, 0.5, 0.7])
        np.testing.assert_allclose(
            kernel_matrix(a, b, KernelParams(packed, spec)),
            kernel_matrix(b, a, KernelParams(packed, spec)).T,
            rtol=1e-14,
        )

    def test_entries_match_kernel_eval(self):
        spec = tiny_spec()
        packed = random_params(spec, 11)
        a = np.array([0.15, 0.62])
        b = np.array([0.33, 0.48, 0.91])
        k = kernel_matrix(a, b, KernelParams(packed, spec))
        for i in range(2):
            for j in range(3):
                assert k[i, j] == pytest.approx(
                    kernel_eval(a[i], b[j], KernelParams(packed, spec)), rel=1e-13
                )


def sqdist_broadcast(ha, hb):
    """Reference distances: numpy's own sum over an (n, m, d) tensor."""
    d = ha[:, None, :] - hb[None, :, :]
    return np.sum(d * d, axis=-1)


class TestSqdist:
    def test_bit_identical_to_broadcast_sum(self):
        rng = np.random.default_rng(16)
        for n_dim in range(1, 21):
            for n_rows, n_cols in ((1, 1), (7, 3), (29, 13), (51, 49)):
                ha = rng.standard_normal((n_rows, n_dim)) * 10.0 ** rng.uniform(-3, 3)
                hb = rng.standard_normal((n_cols, n_dim))
                np.testing.assert_array_equal(
                    _sqdist(ha, hb), sqdist_broadcast(ha, hb),
                    err_msg=f"d={n_dim}, rows={n_rows}, cols={n_cols}",
                )

    def test_wide_embeddings_take_numpy_sum(self):
        rng = np.random.default_rng(17)
        ha, hb = rng.standard_normal((5, 131)), rng.standard_normal((3, 131))
        np.testing.assert_array_equal(_sqdist(ha, hb), sqdist_broadcast(ha, hb))


class TestKernelGrad:
    def test_log_r_component_equals_kernel(self):
        spec = tiny_spec()
        packed = random_params(spec, 13)
        g = kernel_grad(0.2, 0.7, KernelParams(packed, spec))
        assert g[-2] == pytest.approx(
            kernel_eval(0.2, 0.7, KernelParams(packed, spec)), rel=1e-13
        )

    def test_coincident_inputs(self):
        spec = tiny_spec()
        packed = random_params(spec, 14)
        g = kernel_grad(0.5, 0.5, KernelParams(packed, spec))
        expected = np.zeros(spec.n_params)
        expected[-2] = np.exp(packed[-2])
        np.testing.assert_allclose(g, expected, atol=1e-14)

    def test_matches_finite_differences(self):
        spec = tiny_spec()
        rng = np.random.default_rng(15)
        worst = 0.0
        for trial in range(100):
            packed = rng.standard_normal(spec.n_params) * 0.8
            a, b = rng.uniform(0, 1, 2)
            g = kernel_grad(a, b, KernelParams(packed, spec))
            h = 1e-5
            fd = np.empty_like(g)
            for d in range(spec.n_params):
                up, down = packed.copy(), packed.copy()
                up[d] += h
                down[d] -= h
                fd[d] = (
                    kernel_eval(a, b, KernelParams(up, spec))
                    - kernel_eval(a, b, KernelParams(down, spec))
                ) / (2 * h)
            # Relative error 1e-4 with an absolute 1e-8 floor (FD noise on
            # exactly-zero coordinates, e.g. the shared output bias).
            excess = np.abs(g - fd) - np.maximum(1e-4 * np.abs(fd), 1e-8)
            worst = max(worst, float(excess.max()))
        assert worst <= 0.0
