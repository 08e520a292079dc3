"""Wavelet-decomposition backbone with ray-attenuation spectral encoding,
built on a small tape-based reverse-mode autodiff core."""

from . import autodiff, backbone, checkpoint, data, fft, gradcheck, model, ops, optim, rays, train
from .autodiff import Tape, Tensor, backward
from .backbone import BackboneConfig, FeaturePyramid, WaveFilterPair, wave_decompose
from .checkpoint import CheckpointState, load_checkpoint, save_checkpoint
from .data import Dataset, SyntheticSpec, load_dataset, read_image, synth_generate
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    WaverayError,
)
from .gradcheck import finite_diff_check, run_scope
from .model import (
    ModelConfig,
    WaveletClassifier,
    cross_entropy,
    desk_config,
    param_count,
    table1_config,
)
from .optim import AdamW, OptimizerState, adamw_step, one_cycle_cosine_lr
from .rays import (
    AttenuationMap,
    PixelGrid,
    RayEncoder,
    RayField,
    RayLayer,
    attenuation,
    distance_matrix,
    init_origins,
    pixel_grid,
    psf,
    spectral_modulate,
)
from .train import Metrics, TrainConfig, evaluate, train

__version__ = "0.1.0"
