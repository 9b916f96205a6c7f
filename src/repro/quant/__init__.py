"""Quantizers, calibration, sizing, and mixed-precision application."""

from .export import (
    CorruptArtifactError,
    PackedTensor,
    export_assignment,
    load_packed,
    pack_tensor,
    save_packed,
    unpack_tensor,
)
from .bops import assignment_bops, bops_table, measure_macs
from .calibration import (
    activation_quant_state,
    affine_minmax_params,
    calibrate_activations,
    mse_optimal_scale,
)
from .qconfig import DEFAULT_BITS, MOBILENET_BITS, QuantConfig
from .qmodel import QuantizedWeightTable, quantize_weight
from .quantizers import (
    ActivationQuantizer,
    PerChannelAffineQuantizer,
    UniformSymmetricQuantizer,
    quantize_affine,
    quantize_symmetric,
)
from .sizing import (
    assignment_bits,
    assignment_bytes,
    budget_for_average_bits,
    bytes_to_mb,
    uniform_bits,
)

__all__ = [
    "QuantConfig",
    "DEFAULT_BITS",
    "MOBILENET_BITS",
    "quantize_symmetric",
    "quantize_affine",
    "UniformSymmetricQuantizer",
    "PerChannelAffineQuantizer",
    "ActivationQuantizer",
    "mse_optimal_scale",
    "affine_minmax_params",
    "calibrate_activations",
    "activation_quant_state",
    "QuantizedWeightTable",
    "quantize_weight",
    "assignment_bits",
    "assignment_bytes",
    "budget_for_average_bits",
    "bytes_to_mb",
    "uniform_bits",
    "PackedTensor",
    "pack_tensor",
    "unpack_tensor",
    "export_assignment",
    "save_packed",
    "load_packed",
    "CorruptArtifactError",
    "measure_macs",
    "bops_table",
    "assignment_bops",
]
