"""Federated training of sigmoidal Gaussian Cox process models.

Each simulated client fits a deep-kernel sparse-GP Cox process to its
event sequences with Polya-Gamma mean-field updates; a server aggregates
the clients' kernel-parameter distributions under a selectable divergence
(FedAvg, KL, 2-Wasserstein, or RBF-MMD).
"""
from .aggregation import (
    AggregationMethod,
    aggregate,
    aggregate_fedavg,
    aggregate_kl,
    aggregate_mmd,
    aggregate_w2,
)
from .client import (
    ClientState,
    InducingPosterior,
    client_update,
    derive_seed,
    draw_w_samples,
    elbo,
    init_client,
    intensity,
    local_objective,
    local_objective_grad,
    posterior_f_moments,
    test_loglik,
    update_inducing,
    update_latent_pp,
    update_pg,
    update_scale,
)
from .dataio import (
    DatasetSplit,
    EventSequence,
    PartitionPlan,
    RbfSpec,
    load_jsonl,
    normalize_and_split,
    partition_heterogeneous,
    save_jsonl,
    simulate_client,
    simulate_sgcp,
    superpose,
)
from .kernel import (
    PACKING_VERSION,
    EncoderSpec,
    KernelParams,
    embed,
    init_kernel_params,
    kernel_eval,
    kernel_grad,
    kernel_matrix,
)
from .numerics import (
    DiagGaussian,
    FactorizationError,
    QuadratureGrid,
    kl_diag,
    mmd_rbf,
    pg_mean,
    trapezoid_grid,
    w2_diag,
)
from .orchestrator import (
    FedConfig,
    RoundMetrics,
    ServerState,
    build_clients,
    run_round,
    run_training,
    sample_participants,
)

__version__ = "0.1.0"
