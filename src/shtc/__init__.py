"""Hierarchical transform codec for tables of correlated attribute vectors.

A fitted KLT base layer with coefficient truncation, a compressed-sensing
refinement layer decoded by unfolded ISTA, learnable channel-wise
quantization schedules, a Gaussian entropy model backed by an interleaved
rANS coder, and joint rate-distortion training.
"""

__version__ = "0.1.0"
