"""The hot numeric kernel: batched multivariate polynomial evaluation.

It sits inside every overshear step and is hit thousands of times by
contour refinement and certification grids.
"""

from __future__ import annotations

import numpy as np


def poly_eval(exps: np.ndarray, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate sum_t coeffs[t] * prod_v pts[:, v]**exps[t, v].

    exps: (T, V) int64, coeffs: (T,) complex128, pts: (P, V) complex128.
    Accumulates term by term to keep temporaries at O(P).
    """
    out = np.zeros(pts.shape[0], dtype=np.complex128)
    if coeffs.shape[0] == 0:
        return out
    for t in range(exps.shape[0]):
        term = np.full(pts.shape[0], coeffs[t])
        for v in range(exps.shape[1]):
            e = exps[t, v]
            if e == 1:
                term *= pts[:, v]
            elif e > 1:
                term *= pts[:, v] ** e
        out += term
    return out


def scaled_poly_evaluator(exps: np.ndarray, coeffs: np.ndarray, pts: np.ndarray):
    """Return scales -> (S, P) values at `pts` of the polynomials whose
    coefficients are scales[i] * coeffs.

    Row i equals poly_eval on those coefficients bit for bit: each term
    starts from its scaled coefficient, multiplies the same factor
    columns in the same order, and the terms are summed in order. The
    columns depend only on `pts` and are built once, here.
    """
    columns = [[pts[:, v] if e == 1 else pts[:, v] ** e for v, e in enumerate(row) if e > 0]
               for row in exps]

    def evaluate(scales: np.ndarray) -> np.ndarray:
        out = np.zeros((scales.shape[0], pts.shape[0]), dtype=np.complex128)
        for c, cols in zip(coeffs, columns):
            term = np.empty_like(out)
            term[:] = (scales * c)[:, None]
            for col in cols:
                term *= col
            out += term
        return out
    return evaluate
