"""Ensemble soft-margin softmax training toolkit.

A small, dependency-light stack for training linear classifier
ensembles with a soft distance margin and an HSIC-style diversity
penalty: deterministic RNG and matrix helpers, the loss family with
analytic gradients, an MLP feature extractor, an SGD trainer, IDX/
synthetic data loading, and a CLI (``emsoftmax train|eval|gradcheck|
sweep``).
"""

from .data import Dataset, SyntheticSpec, load_idx_pair, mean_subtract, synth_blobs
from .losses import (
    LossConfig,
    LossOutput,
    diversity_penalty,
    diversity_terms,
    em_softmax_backward,
    em_softmax_forward,
    normalize_classifier,
)
from .model import (
    MlpFeatureExtractor,
    WeakClassifierBank,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import Rng
from .trainer import SgdConfig, TrainReport, evaluate, grad_check, train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "load_idx_pair",
    "mean_subtract",
    "synth_blobs",
    "LossConfig",
    "LossOutput",
    "diversity_penalty",
    "diversity_terms",
    "em_softmax_backward",
    "em_softmax_forward",
    "normalize_classifier",
    "MlpFeatureExtractor",
    "WeakClassifierBank",
    "load_checkpoint",
    "save_checkpoint",
    "Rng",
    "SgdConfig",
    "TrainReport",
    "evaluate",
    "grad_check",
    "train",
    "__version__",
]
