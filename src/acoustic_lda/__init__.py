"""Latent acoustic domain discovery (GMM quantization + variational-EM LDA)
and latent-domain-aware classifier training."""

from . import corpus, domains, formats, gmm, lda, network

__all__ = ["corpus", "domains", "formats", "gmm", "lda", "network"]
__version__ = "0.1.0"
