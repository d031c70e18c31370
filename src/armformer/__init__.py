"""CBAM-enhanced MixVisionTransformer segmentation with a hamburger decoder.

The package is self-contained on top of numpy: a float64 autodiff tensor
core, the encoder/decoder model, mask and netpbm I/O, confusion-matrix
metrics, complexity/speed profiling and a command-line pipeline.
"""

from .cbam import CBAM, AttentionMaps
from .decoder import HamConfig, HamDecoder, fuse_pyramid, ham_global_context
from .encoder import (DEFAULT_STAGES, EfficientSelfAttention, FeaturePyramid,
                      MitEncoder, MixFFN, OverlapPatchEmbed, StageConfig)
from .gradcheck import GradCheckReport, grad_check
from .metrics import ConfusionMatrix, MetricReport, compute_metrics, format_report
from .model import (AdamW, ArmFormer, Batch, ModelConfig, TrainSchedule,
                    checkpoint_load, checkpoint_save, cross_entropy, fit,
                    make_batch, train_step)
from .profiler import ComplexityReport, SpeedReport, count_flops, measure_fps
from .tensor import Tensor, no_grad

__version__ = "0.1.0"

__all__ = [
    "AdamW", "ArmFormer", "AttentionMaps", "Batch", "CBAM", "ComplexityReport",
    "ConfusionMatrix", "DEFAULT_STAGES", "EfficientSelfAttention",
    "FeaturePyramid", "GradCheckReport", "HamConfig", "HamDecoder",
    "MetricReport", "MitEncoder", "MixFFN", "ModelConfig", "OverlapPatchEmbed",
    "SpeedReport", "StageConfig", "Tensor", "TrainSchedule", "checkpoint_load",
    "checkpoint_save", "compute_metrics", "count_flops", "cross_entropy", "fit",
    "format_report", "fuse_pyramid", "grad_check", "ham_global_context", "make_batch",
    "measure_fps", "no_grad", "train_step",
]
