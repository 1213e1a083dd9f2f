"""daechain: denoising autoencoders as iterative samplers.

Train DAE / DVAE / DAAE models with MSE or BCE reconstruction losses on
[0, 1]-valued data, verify numerically that the loss-optimal reconstruction
approximates a gradient step on the data log-density, and run iterative
reconstruction chains from noise or from decoded prior draws.

The names below are the end-to-end entry points and every error type the
package raises; everything else is imported from its own module.
"""

from .config import ConfigError, RunConfig, apply_overrides, load_config
from .datasets import DatasetSpec, build_dataset
from .io_formats import (
    CheckpointError,
    IdxFormatError,
    load_checkpoint,
    load_idx_images,
    save_checkpoint,
)
from .models import Autoencoder, TrainConfig, build_model, reconstruct, train
from .numeric import NumericError, Prng, ShapeError
from .oracle import (
    GaussianMixture,
    analytic_score,
    limit_convergence_study,
    optimal_reconstruction,
)
from .sampler import (
    ChainConfig,
    ChainTrace,
    chain_diagnostics,
    refine_from_prior,
    run_chain,
    sample_from_noise,
)

__version__ = "0.1.0"
