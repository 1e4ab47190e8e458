"""Deep RBF kernel over a neural time-feature map.

A one-hidden-layer tanh network embeds (normalized) times into a small
feature space; an RBF kernel with learnable scale and length-scale acts on
the embeddings.  All parameters live in one flat vector so a diagonal
Gaussian can be placed over them:

    packed = [W1 (hidden x 1, row-major); b1; W2 (out x hidden, row-major);
              b2; log_r; log_l]

The packing order is part of the serialized-model contract and is guarded
by :data:`PACKING_VERSION`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import check_setting

__all__ = [
    "PACKING_VERSION",
    "EncoderSpec",
    "KernelParams",
    "EmbedTape",
    "init_kernel_params",
    "embed",
    "embed_with_tape",
    "embed_with_jacobian",
    "net_vjp",
    "kernel_eval",
    "rbf_block",
    "kernel_matrix",
    "kernel_grad",
    "accumulate_param_grad",
]

PACKING_VERSION = "tf-rbf-1"


@dataclass(frozen=True)
class EncoderSpec:
    """Shape of the time-feature encoder.

    ``t_norm`` is the horizon used to normalize raw times into [0, 1]
    before they enter the network; every module evaluating the kernel for
    the same model must share it.  It has no default: the run's horizon
    is its one source.
    """

    hidden_dim: int
    output_dim: int
    t_norm: float

    def __post_init__(self):
        check_setting("hidden_dim", self.hidden_dim, int, low=1)
        check_setting("output_dim", self.output_dim, int, low=1)
        check_setting("t_norm", self.t_norm, float, low=0, strict=True)

    @property
    def n_net_params(self) -> int:
        """Weight count of the 1 -> hidden -> output net, biases included."""
        return 2 * self.hidden_dim + self.output_dim * (self.hidden_dim + 1)

    @property
    def n_params(self) -> int:
        """Full packed length: net weights plus log_r and log_l."""
        return self.n_net_params + 2


class KernelParams:
    """Flat parameter vector for the deep kernel, with named views.

    ``spec`` is the encoder shape the vector was packed for; every kernel
    function reads the layout and ``t_norm`` from it.
    """

    __slots__ = ("packed", "spec", "w1", "b1", "w2", "b2", "log_r", "log_l")

    def __init__(self, packed: np.ndarray, spec: EncoderSpec):
        packed = np.asarray(packed, dtype=np.float64)
        if packed.ndim != 1 or packed.size != spec.n_params:
            raise ValueError(
                f"packed has {packed.size} entries, spec requires {spec.n_params}"
            )
        if not np.all(np.isfinite(packed)):
            raise ValueError("packed entries must be finite")
        self.packed = packed
        self.spec = spec
        h, d = spec.hidden_dim, spec.output_dim
        i = 0
        self.w1 = packed[i:i + h]
        i += h
        self.b1 = packed[i:i + h]
        i += h
        self.w2 = packed[i:i + d * h].reshape(d, h)
        i += d * h
        self.b2 = packed[i:i + d]
        i += d
        self.log_r = float(packed[i])
        self.log_l = float(packed[i + 1])

    @property
    def r(self) -> float:
        return float(np.exp(self.log_r))

    @property
    def length_scale(self) -> float:
        return float(np.exp(self.log_l))


def init_kernel_params(spec: EncoderSpec, seed: int) -> np.ndarray:
    """Deterministic initial packed means.

    Net weights ~ N(0, 1/fan_in), biases zero, log_r = log_l = 0.
    """
    rng = np.random.default_rng(seed)
    p = KernelParams(np.zeros(spec.n_params), spec)
    p.w1[:] = rng.standard_normal(spec.hidden_dim)  # fan_in = 1
    p.w2[:] = rng.standard_normal(p.w2.shape) / np.sqrt(spec.hidden_dim)
    return p.packed


def embed(times, p: KernelParams) -> np.ndarray:
    """Feature map ``W2 tanh(W1 (t / t_norm) + b1) + b2``.

    ``times`` may be a scalar or a vector; output is (output_dim,) or
    (n, output_dim) accordingly.
    """
    out = embed_with_tape(times, p).out
    return out[0] if np.ndim(times) == 0 else out


class EmbedTape(NamedTuple):
    """Forward activations needed to backpropagate through the feature map."""

    out: np.ndarray  # (n, output_dim) embeddings
    act: np.ndarray  # (n, hidden_dim) tanh activations
    dact: np.ndarray  # their derivatives, 1 - act**2
    x: np.ndarray  # (n,) normalized times


def embed_with_tape(times, p: KernelParams) -> EmbedTape:
    """Embeddings plus the activations required for the net VJP."""
    t = np.atleast_1d(np.asarray(times, dtype=np.float64))
    x = t / p.spec.t_norm  # (n,)
    act = np.tanh(np.outer(x, p.w1) + p.b1)  # (n, hidden)
    return EmbedTape(act @ p.w2.T + p.b2, act, 1.0 - act * act, x)


def net_vjp(v, tape: EmbedTape, p: KernelParams) -> np.ndarray:
    """Sum over points of v_p^T dh_p/d(net weights), packed layout.

    ``v`` has shape (n, out).  Exploits the two-layer structure instead of
    materializing per-point Jacobians:

        d/dW2[k,j] -> v[:,k] a[:,j];  d/db2[k] -> v[:,k]
        d/db1[j]   -> (v W2)[:,j] dact[:,j];  d/dW1[j] -> that * x
    """
    u = (v @ p.w2) * tape.dact  # (n, hidden)
    g_w1 = u.T @ tape.x
    g_b1 = u.sum(axis=0)
    g_w2 = v.T @ tape.act
    g_b2 = v.sum(axis=0)
    return np.concatenate([g_w1, g_b1, g_w2.ravel(), g_b2])


def embed_with_jacobian(times, p: KernelParams):
    """Embeddings plus explicit per-point Jacobians (test/reference path).

    Returns ``(H, J)`` with ``J`` of shape (n, out, n_net_params); the
    production gradient path uses :func:`net_vjp` instead.
    """
    tape = embed_with_tape(times, p)
    n, h, d = tape.x.size, p.spec.hidden_dim, p.spec.output_dim
    back = p.w2[None, :, :] * tape.dact[:, None, :]  # (n, d, h)
    jac_w1 = back * tape.x[:, None, None]
    jac_b1 = back
    idx = np.arange(d)
    jac_w2 = np.zeros((n, d, d, h))
    jac_w2[:, idx, idx, :] = tape.act[:, None, :]
    jac_b2 = np.zeros((n, d, d))
    jac_b2[:, idx, idx] = 1.0
    jac = np.concatenate(
        [jac_w1, jac_b1, jac_w2.reshape(n, d, d * h), jac_b2], axis=2
    )
    return tape.out, jac


# numpy sums a contiguous axis of at most this many terms in one unrolled
# block and splits longer axes recursively; _sqdist leaves embeddings wider
# than this to numpy's own sum.
_PAIRWISE_BLOCK = 128


def _sqdist(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Pairwise squared distances between embedding rows.

    Adds the per-coordinate squared differences as 2-D (n, m) arrays in the
    order numpy's pairwise summation uses along the last axis: in sequence
    below 8 coordinates, otherwise in 8 running sums combined as a tree,
    then the remainder.  The result is bit-identical to
    ``np.sum((ha[:, None] - hb[None]) ** 2, axis=-1)`` without forming the
    (n, m, d) tensor.  At most 2 (n, m) buffers are alive below 8
    coordinates and 9 from 8 on.
    """
    n_dim = ha.shape[1]
    if n_dim > _PAIRWISE_BLOCK:
        d = ha[:, None, :] - hb[None, :, :]
        return np.sum(d * d, axis=-1)
    cols_a, cols_b = ha.T[:, :, None], hb.T[:, None, :]
    scratch = np.empty((ha.shape[0], hb.shape[0]))

    def square(k, out=None):
        out = np.subtract(cols_a[k], cols_b[k], out=out)
        return np.multiply(out, out, out=out)

    if n_dim < 8:
        total = square(0)
        for k in range(1, n_dim):
            total += square(k, scratch)
        return total
    r = [square(k) for k in range(8)]
    for k in range(8, n_dim - n_dim % 8):
        r[k % 8] += square(k, scratch)
    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), in place.
    for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        r[i] += r[j]
    total = r[0]
    for k in range(n_dim - n_dim % 8, n_dim):
        total += square(k, scratch)
    return total


def kernel_eval(t_i, t_j, p: KernelParams) -> float:
    """Kernel value ``r * exp(-||h_i - h_j||^2 / (2 l^2))`` for one pair."""
    hi = embed(np.float64(t_i), p)
    hj = embed(np.float64(t_j), p)
    d2 = float(np.sum((hi - hj) ** 2))
    ell = p.length_scale
    return p.r * float(np.exp(-0.5 * d2 / (ell * ell)))


def rbf_block(ha: np.ndarray, hb: np.ndarray, params: KernelParams):
    """``(d2, k)``: squared distances between embedding rows and the RBF
    block ``r * exp(-0.5 * d2 / length_scale ** 2)``, built only here."""
    d2 = _sqdist(ha, hb)
    return d2, params.r * np.exp(-0.5 * d2 / params.length_scale ** 2)


def kernel_matrix(times_a, times_b, p: KernelParams) -> np.ndarray:
    """Cross-kernel matrix with entry (i, j) = k(a_i, b_j)."""
    ha = embed(np.atleast_1d(times_a), p)
    hb = embed(np.atleast_1d(times_b), p)
    return rbf_block(ha, hb, p)[1]


def kernel_grad(t_i, t_j, p: KernelParams) -> np.ndarray:
    """Exact gradient of :func:`kernel_eval` w.r.t. the packed vector."""
    tape = embed_with_tape(np.array([t_i, t_j], dtype=np.float64), p)
    dh = tape.out[0] - tape.out[1]
    d2 = float(np.sum(dh * dh))
    ell = p.length_scale
    k = p.r * float(np.exp(-0.5 * d2 / (ell * ell)))
    grad = np.empty(p.spec.n_params)
    scale = -k / (ell * ell)
    v = np.stack([scale * dh, -scale * dh])  # chain through h_i and h_j
    grad[:p.spec.n_net_params] = net_vjp(v, tape, p)
    grad[-2] = k  # d/dlog_r: kernel scales with e^{log_r}
    grad[-1] = k * d2 / (ell * ell)
    return grad


def accumulate_param_grad(
    coeff_zz,
    coeff_tz,
    coeff_tt_sum,
    k_zz,
    k_tz,
    d2_zz,
    d2_tz,
    tape_z: EmbedTape,
    tape_t: EmbedTape,
    p: KernelParams,
    k_zz_jitter: float,
) -> np.ndarray:
    """Chain scalar-per-entry kernel sensitivities into a packed gradient.

    Given dG/dK_zz (symmetric, M x M), dG/dk_tz (N x M) and the summed
    coefficient of the diagonal entries k(t, t), returns
    sum over entries of coeff * d(kernel entry)/d(packed).  Raw kernel
    blocks, their squared embedding distances (``d2_zz``, ``d2_tz``, as
    :func:`rbf_block` gives them) and the embedding tapes are passed in so
    call sites can reuse their caches.

    ``k_zz_jitter`` is the diagonal boost the caller added to the square
    block before factorizing.  The jitter scales with the mean diagonal,
    i.e. with e^{log_r}, so d(K + jitter I)/d(log_r) = K + jitter I; on
    near-singular grams whose small eigenvalues are jitter-dominated the
    correction is order M, not order jitter.
    """
    ell2 = p.length_scale ** 2
    h_z, h_t = tape_z.out, tape_t.out
    grad = np.zeros(p.spec.n_params)

    # Each entry's coefficient times its kernel value.
    ck_zz = coeff_zz * k_zz
    ck_tz = coeff_tz * k_tz

    # log_r: every kernel entry (and the jitter) is proportional to e^{log_r}.
    grad[-2] = (
        float(np.sum(ck_zz))
        + float(np.sum(ck_tz))
        + coeff_tt_sum * p.r
        + k_zz_jitter * float(np.trace(np.atleast_2d(coeff_zz)))
    )
    # log_l: entry * ||dh||^2 / l^2 (diagonal entries have zero distance).
    grad[-1] = (
        float(np.sum(ck_zz * d2_zz))
        + float(np.sum(ck_tz * d2_tz))
    ) / ell2

    # Net weights: entry-level factor -k/l^2 * (h_x - h_y)^T (dh_x - dh_y),
    # aggregated so each point is backpropagated once.
    c_zz = -ck_zz / ell2  # symmetric
    c_tz = -ck_tz / ell2
    # zz block: sum_ij c_ij (h_i - h_j)^T (dh_i - dh_j) = 2 sum_i v_i^T dh_i
    v_z = 2.0 * (c_zz.sum(axis=1)[:, None] * h_z - c_zz @ h_z)
    # tz block: rows are times, columns inducing points
    v_t = c_tz.sum(axis=1)[:, None] * h_t - c_tz @ h_z
    v_z -= c_tz.T @ h_t - c_tz.sum(axis=0)[:, None] * h_z
    grad[:p.spec.n_net_params] = (
        net_vjp(v_z, tape_z, p) + net_vjp(v_t, tape_t, p)
    )
    return grad
