"""Matrix norms on symmetric matrices."""
from __future__ import annotations

import numpy as np

from .polybasis import symmetric

__all__ = ["NORM_KINDS", "p_norm"]

NORM_KINDS: tuple[str, ...] = ("one", "two", "inf", "fro")


def p_norm(A: np.ndarray, p: str) -> float:
    """Norm of a symmetric matrix: max column sum / spectral / max row sum / Frobenius."""
    V = symmetric(A)
    if p not in NORM_KINDS:
        raise ValueError(f"unknown norm {p!r}; expected one of {NORM_KINDS}")
    if p == "one":
        return float(np.abs(V).sum(axis=0).max(initial=0.0))
    if p == "inf":
        return float(np.abs(V).sum(axis=1).max(initial=0.0))
    if p == "two":
        # symmetric, so the spectral norm is the largest eigenvalue magnitude
        return float(np.abs(np.linalg.eigvalsh(V)).max(initial=0.0))
    return float(np.linalg.norm(V))

