"""A from-scratch numpy neural-network framework.

This package substitutes for TensorFlow/Keras in the DeepXplore
reproduction.  It provides layers with exact analytic backward passes,
training (Adam), and — the capability DeepXplore is built on —
gradients of output probabilities and *arbitrary hidden neurons* with
respect to the network input.
"""

from repro.nn import dtypes
from repro.nn.activations import (
    Activation,
    Atan,
    Linear,
    Relu,
    Softmax,
    get_activation,
)
from repro.nn.config import (layer_from_config, layer_to_config,
                             load_network, network_from_config,
                             network_from_payload, network_to_config,
                             network_to_payload, save_network)
from repro.nn.conv import Conv2D, conv_output_size, im2col
from repro.nn.dense import Dense
from repro.nn.dtypes import (DEFAULT_DTYPE, GOLDEN_DTYPE, default_dtype,
                             get_default_dtype, set_default_dtype)
from repro.nn.dropout import Dropout
from repro.nn.instrumentation import PassCounter
from repro.nn.initializers import (
    get_initializer,
    glorot_uniform,
    he_normal,
    row_normalized,
)
from repro.nn.layer import Layer
from repro.nn.losses import CrossEntropy, Loss, MeanSquaredError, get_loss
from repro.nn.network import LayerNeurons, Network
from repro.nn.norm import BatchNorm
from repro.nn.optimizers import Adam
from repro.nn.parameter import Parameter
from repro.nn.pool import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from repro.nn.reshape import Flatten
from repro.nn.residual import Residual
from repro.nn.scale import FixedScale
from repro.nn.tape import ForwardPass, scale_layerwise
from repro.nn.training import Trainer, accuracy, mse, steering_accuracy
from repro.nn.workspace import Workspace

__all__ = [
    "Activation", "Atan", "Linear", "Relu", "Softmax", "get_activation",
    "Conv2D", "conv_output_size", "im2col",
    "Dense", "Dropout",
    "get_initializer", "glorot_uniform", "he_normal", "row_normalized",
    "Layer",
    "CrossEntropy", "Loss", "MeanSquaredError", "get_loss",
    "LayerNeurons", "Network",
    "ForwardPass", "PassCounter", "scale_layerwise",
    "BatchNorm",
    "Adam",
    "Parameter",
    "AvgPool2D", "GlobalAvgPool2D", "MaxPool2D",
    "Flatten",
    "Residual",
    "FixedScale",
    "Trainer", "accuracy", "mse", "steering_accuracy",
    "layer_from_config", "layer_to_config", "load_network",
    "network_from_config", "network_from_payload", "network_to_config",
    "network_to_payload", "save_network",
    "dtypes", "DEFAULT_DTYPE", "GOLDEN_DTYPE", "default_dtype",
    "get_default_dtype", "set_default_dtype",
    "Workspace",
]
