"""The Bhattacharyya coefficient of two outcome distributions.

The classical susceptibility chi_cl is the Fisher information of the J_z
outcome distribution P(m).  Measured imbalance records give P only at a few
values of the control parameter, so ``estimation`` reads chi_cl off the
overlaps of neighbouring histograms: each Bhattacharyya coefficient behaves
as F = 1 - (chi/8) eps^2 for small eps.  ``estimation._chi_cl`` takes those
overlaps for a whole stack of histogram series at once and fits the slope
in closed form.  For the model, ``criticality`` takes every chi as an exact
derivative of the Gibbs state and needs neither.
"""

from __future__ import annotations

import numpy as np


def bhattacharyya_fidelity(p, q) -> np.ndarray | float:
    """Bhattacharyya coefficients sum_m sqrt(P(m) Q(m)) along the last axis.

    ``p`` and ``q`` are probability arrays over one support (the last
    axis), broadcast over their leading axes; two 1-D arrays give a scalar.
    Equals 1 iff the distributions coincide; this is the classical fidelity
    attainable from J_z measurement statistics alone.
    """
    p, q = np.asarray(p), np.asarray(q)
    if p.shape[-1] != q.shape[-1]:
        raise ValueError(
            f"distribution lengths differ: {p.shape[-1]} vs {q.shape[-1]}"
        )
    return np.sqrt(p * q).sum(axis=-1)
