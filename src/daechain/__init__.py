"""daechain: denoising autoencoders as iterative samplers.

Train DAE / DVAE / DAAE models with MSE or BCE reconstruction losses on
[0, 1]-valued data, verify numerically that the loss-optimal reconstruction
approximates a gradient step on the data log-density, and run iterative
reconstruction chains from noise or from decoded prior draws.
"""

from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    chain_config_from_config,
    dataset_spec_from_config,
    load_config,
    mixture_from_config,
    parse_config,
    train_config_from_config,
)
from .datasets import (
    DATASET_KINDS,
    DatasetSpec,
    blob_image,
    build_dataset,
    generate_blobs8x8,
    generate_mixture_dataset,
)
from .io_formats import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    IdxFormatError,
    load_checkpoint,
    load_idx_images,
    read_idx_header,
    read_pgm,
    save_checkpoint,
    write_csv,
    write_pgm_grid,
)
from .losses import (
    AdversarialLosses,
    KlValue,
    LossValue,
    adversarial_losses,
    bce_loss,
    kl_to_standard_normal,
    mse_loss,
)
from .models import (
    LOSS_KINDS,
    MODEL_KINDS,
    Autoencoder,
    CorruptionSpec,
    OptStates,
    TrainConfig,
    build_model,
    corrupt,
    daae_train_step,
    dae_train_step,
    decode_latent,
    dvae_train_step,
    encode_to_latent,
    init_opt_states,
    reconstruct,
    train,
)
from .nn import (
    AdamState,
    ForwardCache,
    Mlp,
    MlpGrads,
    MlpSpec,
    adam_step,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from .numeric import (
    NumericError,
    Prng,
    ShapeError,
    derivative_of_leaky_relu,
    derivative_of_relu,
    derivative_of_sigmoid,
    leaky_relu,
    relu,
    sample_gaussian,
    sample_uniform,
    sigmoid,
)
from .oracle import (
    ConvergenceStudy,
    GaussianMixture,
    QuadratureSpec,
    UnderflowError,
    analytic_score,
    confined_to_unit_box,
    high_density_grid,
    limit_convergence_study,
    mixture_log_pdf_batch,
    optimal_reconstruction,
    responsibilities,
    score_from_reconstruction,
)
from .sampler import (
    ChainConfig,
    ChainDiagnostics,
    ChainTrace,
    chain_diagnostics,
    refine_from_prior,
    run_chain,
    sample_from_noise,
)

__version__ = "0.1.0"
