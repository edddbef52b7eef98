"""The Bhattacharyya coefficient of two outcome distributions.

The classical susceptibility chi_cl is the Fisher information of the J_z
outcome distribution P(m).  Measured imbalance records give P only at a few
values of the control parameter, so ``estimation`` reads chi_cl off the
overlaps of neighbouring histograms: each Bhattacharyya coefficient behaves
as F = 1 - (chi/8) eps^2 for small eps.  ``estimation._chi_cl`` takes those
overlaps (``_overlaps``) for a whole stack of histogram series at once and
fits the slope in closed form.  For the model, ``criticality`` takes every
chi as an exact derivative of the Gibbs state and needs neither.
"""

from __future__ import annotations

import numpy as np

from .model import DistributionOverM


def bhattacharyya_fidelity(p: DistributionOverM, q: DistributionOverM) -> float:
    """Bhattacharyya coefficient sum_m sqrt(P(m) Q(m)).

    Equals 1 iff the distributions coincide; this is the classical fidelity
    attainable from J_z measurement statistics alone.  Any pair with
    ``probabilities`` arrays on one support will do, shot histograms
    (``estimation.Histogram``) included.
    """
    if p.probabilities.size != q.probabilities.size:
        raise ValueError(
            f"distribution lengths differ: {p.probabilities.size} vs "
            f"{q.probabilities.size}"
        )
    return float(_overlaps(p.probabilities, q.probabilities))


def _overlaps(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Bhattacharyya coefficients along the last axis, broadcast over the rest."""
    return np.sqrt(p * q).sum(axis=-1)
