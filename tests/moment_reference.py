"""Reference moment vectors of atomic measures, for tests of the relaxation rows.

The moment vector of a measure has one entry per monomial of degree <= 2k,
in the graded-lex order of `cpproj.polybasis.monomials_up_to`, so its
degree-2 entries (after the n + 1 entries of degree <= 1) list vech of the
identified symmetric matrix.
"""
import numpy as np

from cpproj.conic import vech, vech_inv
from cpproj.polybasis import monomials_up_to
from cpproj.relaxation import p_norm


def moments_of_atoms(atoms, weights, k: int) -> np.ndarray:
    """Moment vector of the atomic measure sum_i weights[i] * delta(atoms[i])."""
    pts = np.atleast_2d(np.asarray(atoms, dtype=float))
    wts = np.asarray(weights, dtype=float).ravel()
    if len(pts) != wts.size:
        raise ValueError(f"{len(pts)} atoms but {wts.size} weights")
    exps = monomials_up_to(pts.shape[1], 2 * k)
    # atom^alpha for every basis monomial at once; 0**0 == 1 covers alpha = 0
    return wts @ np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)


def degree2_slice(s: np.ndarray, n: int) -> np.ndarray:
    """The degree-2 moments of s: vech of the identified symmetric matrix."""
    return s[1 + n : 1 + n + n * (n + 1) // 2]


def lift_atomic_point(spec, k: int, atoms, weights) -> np.ndarray:
    """Decision vector of the order-k program evaluated at an atomic measure.

    The lift of any measure supported on the nonnegative unit sphere
    satisfies every moment-cone row, and gamma is set to the exact distance
    so the norm block is tight; for the one and inf norms the bound T is
    |X - C| itself.
    """
    s = moments_of_atoms(atoms, weights, k)
    X = vech_inv(degree2_slice(s, spec.dim))
    parts = [s, [p_norm(X - spec.C, spec.norm)]]
    if spec.norm in ("one", "inf"):
        parts.append(np.abs(vech(X - spec.C)))
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])
