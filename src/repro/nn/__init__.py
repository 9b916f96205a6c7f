"""A numpy neural-network framework with explicit forward/backward passes.

This package is the substrate for the CLADO reproduction: it provides the
layers, blocks, losses, and optimizers needed to (a) train the model zoo on
the synthetic dataset, (b) run the forward-only sensitivity sweeps of
Algorithm 1, and (c) fine-tune mixed-precision models (QAT).
"""

from .attention import MultiHeadSelfAttention
from .blocks import (
    BasicBlock,
    Bottleneck,
    ConvBNAct,
    InvertedResidual,
    Mlp,
    PatchEmbed,
    PreNormResidual,
    ResidualJoin,
    ResidualStage,
    SqueezeExcite,
    TransformerEncoderBlock,
    XBlock,
)
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GELU,
    GlobalAvgPool2d,
    Hardsigmoid,
    Hardswish,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    SelectToken,
    Sigmoid,
    SiLU,
)
from .loss import CrossEntropyLoss, accuracy
from .module import (
    Module,
    Parameter,
    ResidualState,
    Sequential,
)
from .optim import Adam, SGD, cosine_lr

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ResidualState",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "GELU",
    "SiLU",
    "Hardswish",
    "Hardsigmoid",
    "Sigmoid",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "SelectToken",
    "ConvBNAct",
    "BasicBlock",
    "Bottleneck",
    "SqueezeExcite",
    "InvertedResidual",
    "XBlock",
    "ResidualStage",
    "ResidualJoin",
    "Mlp",
    "PreNormResidual",
    "TransformerEncoderBlock",
    "PatchEmbed",
    "MultiHeadSelfAttention",
    "CrossEntropyLoss",
    "accuracy",
    "SGD",
    "Adam",
    "cosine_lr",
]
