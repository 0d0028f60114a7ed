"""From-scratch GRU-CNN hybrid classifier with backprop and Adam training."""

from .layers import ConvLayer, DenseLayer, GruParams, conv_forward, pool_forward
from .network import (NETWORK_RULES, Network, NetworkConfig, cross_entropy, forward,
                      gradients, init_network, load_checkpoint, parameters,
                      predict_proba, save_checkpoint)
from .training import AdamState, TrainConfig, adam_step, train

__all__ = [
    "NETWORK_RULES", "AdamState", "ConvLayer", "DenseLayer", "GruParams",
    "Network", "NetworkConfig", "TrainConfig", "adam_step", "conv_forward",
    "cross_entropy", "forward", "gradients", "init_network", "load_checkpoint",
    "parameters", "pool_forward", "predict_proba", "save_checkpoint", "train",
]
