"""Joint autoencoder + intra-class distance constrained clustering."""

__version__ = "0.6.0"
