"""Spectral label-alignment training for unsupervised domain adaptation.

A labeled source domain and an unlabeled target domain share a feature
extractor; per batch, the feature matrices are split spectrally with a
learnable soft gate, the classifier trains on the leading spectrum of the
source and is driven toward zero output on the trailing spectrum of the
target.  A linear-regression lab verifies the underlying identities that
motivate the construction.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, backward
from .data import ImageDataset, load_mnist, load_usps, make_synthetic, split_target
from .linearlab import gen_synthetic, identity_suite, linear_objective, solve_linear_uda
from .model import DEFAULT_SPEC, ModelSpec, build_model
from .optim import Adam
from .spectral import SvdFactors, gate_weights, spectral_filter, thin_svd
from .training import DlaLossParts, TrainConfig, TrainData, dla_loss, evaluate, train

__all__ = [
    "Tensor",
    "backward",
    "ImageDataset",
    "load_mnist",
    "load_usps",
    "make_synthetic",
    "split_target",
    "gen_synthetic",
    "identity_suite",
    "linear_objective",
    "solve_linear_uda",
    "DEFAULT_SPEC",
    "ModelSpec",
    "build_model",
    "Adam",
    "SvdFactors",
    "gate_weights",
    "spectral_filter",
    "thin_svd",
    "DlaLossParts",
    "TrainConfig",
    "TrainData",
    "dla_loss",
    "evaluate",
    "train",
    "__version__",
]
