"""Balanced reconstruction losses for autoencoders on mixed tabular data.

The package trains dense autoencoders (and VAEs) on one-hot encoded
mixed tables and compares the standard MSE against a balanced MSE that
reweighs each category's errors by its training frequency, so minority
categories stop being ignored when training is short.
"""

from .errors import MixedAEError
from .losses import (
    LossWeights,
    balanced_mse_loss,
    blended_loss,
    compute_balance_weights,
    cross_entropy_loss,
    mse_loss,
)
from .metrics import (
    balanced_accuracy,
    classification_scores,
    cramers_v,
    eta_squared,
    mc_distance,
    mixed_correlation,
    msem,
    prediction_error,
    silhouette,
    spearman,
)
from .models import (
    AutoencoderConfig,
    TrainedAutoencoder,
    TrainedVAE,
    VAEConfig,
    build_autoencoder,
    build_vae,
    latent,
    reconstruct,
    reparameterize,
    train_autoencoder,
    train_autoencoder_arms,
    train_vae,
    train_vae_arms,
    vae_generate,
    vae_loss,
)
from .tabular import (
    Column,
    Dataset,
    EncodedMatrix,
    EncoderState,
    Schema,
    decode,
    encode,
    fit_encoder,
    generate_synthetic,
    read_csv,
    split,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
