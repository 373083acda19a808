"""The upper-route table as it was before its column constants were folded.

``admlab.admissibility._upper_routes`` takes the preimages A_{-1}^{-1} b_j
once and forms both horizon-uniform column constants from them.  These are
the three single-caller helpers it replaces, kept verbatim (the method
``InputOperator.preimage_norms`` as a function of B), and the table built on
them, the bit-for-bit reference.
"""

import math

import numpy as np

from admlab.admissibility import InputOperator, l2_adm_constant
from admlab.spectral import DiagonalGenerator


def preimage_norms(B: InputOperator, A: DiagonalGenerator) -> np.ndarray:
    """||A_{-1}^{-1} b_j||_X per column — the ran A_{-1} membership gauge."""
    B.check_alignment(A)
    if B.kind == "aminus_full":
        return np.sqrt(A.weights)
    return np.sqrt(A.weights @ np.abs(B._preimages(A)) ** 2)


def fac_column_constants(A: DiagonalGenerator, B: InputOperator) -> np.ndarray:
    """2 K2 ||f_j||_{L2(0,oo;X)} per column, f_j(s) = (-A)^{1/2} T(s) A^{-1} b_j."""
    lam = A.eigenvalues
    w = A.weights * np.abs(lam) / (2.0 * np.abs(lam.real))
    if B.kind != "aminus_full":  # the full diagonal's preimages are e_n
        w = w @ np.abs(B._preimages(A)) ** 2
    return 2.0 * l2_adm_constant(A) * np.sqrt(w)


def hinf_column_constants(A: DiagonalGenerator, B: InputOperator) -> np.ndarray:
    """||A_{-1}^{-1} b_j||_X / cos(sector angle) per column."""
    return preimage_norms(B, A) / math.cos(A.sector_angle)


def upper_routes(A: DiagonalGenerator, B: InputOperator, t: float) -> tuple[dict, np.ndarray]:
    """Upper routes for ||Phi_t|| at a horizon t (finite or ``math.inf``)."""
    hinf = hinf_column_constants(A, B)  # checks the alignment first
    fac = fac_column_constants(A, B)
    per_column = np.minimum(fac, hinf)
    if B.kind == "aminus_full":
        uniform = ("no uniform constant across the full diagonal "
                   "(per-column values reported)")
        routes = {
            "factorization": {"value": math.inf, "reason": uniform},
            "hinf-multiplier": {"value": math.inf, "reason": uniform},
            "kernel-L1": {
                "value": math.inf,
                "reason": "kernel norm ~ max_n |lambda_n| e^{Re lambda_n s} is not "
                "integrable uniformly at s = 0",
            },
        }
        return routes, per_column
    routes = {
        "factorization": {"value": float(np.sum(fac)), "reason": None},
        "hinf-multiplier": {"value": float(np.sum(hinf)), "reason": None},
    }
    if B.kind == "aminus_x0":
        routes["kernel-L1"] = {
            "value": math.inf,
            "reason": "||T(s) A_{-1} x0|| is not integrable at s = 0 for "
            "x0 outside the domain of A",
        }
        return routes, per_column
    hs = math.sqrt(float(A.weights @ np.sum(np.abs(B.data) ** 2, axis=1)))
    delta = A.delta
    reach = -math.expm1(-delta * t)  # delta * integral_0^t e^{-delta s} ds, 1 at inf
    routes["kernel-L1"] = {"value": hs * reach / delta, "reason": None}
    kernel = np.sqrt(A.weights @ np.abs(B.data) ** 2) * reach / delta
    return routes, np.minimum(per_column, kernel)
