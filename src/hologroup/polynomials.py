"""Multivariate complex polynomials in sparse exponent-map form.

This is the computable slice of "entire function" used throughout the
package: overshear translation data f is a polynomial, and the nowhere
zero multiplier h is represented as exp(g) with g a polynomial, so
non-vanishing holds by construction.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from . import _kernels
from .errors import NonFinite, integer


@dataclass(frozen=True)
class Poly:
    """Polynomial in `n_vars` complex variables.

    `terms` maps exponent multi-indices (tuples of non-negative ints of
    length `n_vars`) to complex coefficients. The stored form is
    canonical: zero coefficients are dropped, so two polynomials are
    equal exactly when their term maps are equal.
    """

    n_vars: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if integer(self.n_vars, "n_vars") < 1:
            raise ValueError("n_vars must be a positive integer")
        canon = {}
        for exps, coeff in self.terms.items():
            exps = tuple(integer(e, "an exponent") for e in exps)
            if len(exps) != self.n_vars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {self.n_vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise NonFinite(f"coefficient of {exps} is not finite: {coeff}")
            if coeff != 0:
                canon[exps] = canon.get(exps, 0) + coeff
        object.__setattr__(self, "terms", canon)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n_vars: int) -> "Poly":
        return Poly(n_vars)

    @staticmethod
    def constant(n_vars: int, c) -> "Poly":
        return Poly(n_vars, {(0,) * n_vars: complex(c)})

    @staticmethod
    def coordinate(n_vars: int, j: int) -> "Poly":
        """The monomial z_j (j is 1-based)."""
        if not 1 <= j <= n_vars:
            raise ValueError(f"coordinate index {j} out of range 1..{n_vars}")
        exps = tuple(1 if k == j - 1 else 0 for k in range(n_vars))
        return Poly(n_vars, {exps: 1.0 + 0.0j})

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> complex:
        return self.terms.get((0,) * self.n_vars, 0j)

    def references(self, j: int) -> bool:
        """True if any term has a positive exponent on variable j (1-based)."""
        return any(exps[j - 1] > 0 for exps in self.terms)

    def scale(self, c) -> "Poly":
        c = complex(c)
        return Poly(self.n_vars, {e: c * v for e, v in self.terms.items()})

    def __neg__(self) -> "Poly":
        return self.scale(-1.0)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(sorted(self.terms.items()))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        items = sorted(self.terms.items())
        exps = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), self.n_vars)
        coeffs = np.array([c for _, c in items], dtype=np.complex128).reshape(-1, 1)
        return exps, coeffs

    @cached_property
    def _plan(self) -> tuple:
        return _kernels.build_plan(self._arrays[0])

    # -- evaluation -----------------------------------------------------

    def eval_batch(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at a (P, n_vars) array of points, returning (P,)."""
        pts = np.asarray(pts, dtype=np.complex128)
        if pts.ndim != 2 or pts.shape[1] != self.n_vars:
            raise ValueError(f"expected points of shape (P, {self.n_vars}), got {pts.shape}")
        exps, coeffs = self._arrays
        return _kernels.poly_eval(exps, coeffs, pts, plan=self._plan)[0]

    def __call__(self, z) -> complex:
        z = np.asarray(z, dtype=np.complex128).reshape(1, -1)
        return complex(self.eval_batch(z)[0])
