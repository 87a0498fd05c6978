"""Matrices over F_p[y] of the form C·diag(y^e).

C is a constant square matrix over F_p and e a vector of exponents, one
per column.  Such a matrix needs no elimination over F_p[y]:

- its determinant is det(C)·y^(sum e);
- when det(C) != 0, C is invertible over F_p[y], so C·diag(y^e) and
  diag(y^e) have the same Smith form (Newman, *Integral Matrices*, 1972,
  ch. II), and the monic invariant factors are y^e in ascending order.

When det(C) = 0 the rule says nothing about the Smith form, and
`factored_invariant_factors` refuses to answer.
"""

from __future__ import annotations

import numpy as np

from .arith import Poly
from .errors import SingularMatrix
from .linalg import det


def factored_det(const: np.ndarray, powers: np.ndarray, p: int) -> Poly:
    """det(C·diag(y^e)) = det(C)·y^(sum e)."""
    return Poly.monomial(p, det(const, p), int(np.sum(powers)))


def factored_invariant_factors(determinant: Poly, powers: np.ndarray) -> list[Poly]:
    """Monic invariant factors of C·diag(y^e) from its determinant.

    The determinant (from `factored_det`) is nonzero exactly when C is
    invertible, which is what makes y^e, sorted, the Smith form; a zero
    determinant raises `SingularMatrix`.
    """
    if determinant.is_zero():
        raise SingularMatrix("C is singular, so the Smith form of C·diag(y^e) cannot be read off e")
    return [Poly.monomial(determinant.p, 1, k) for k in sorted(int(k) for k in powers)]


def as_unit_times_power(f: Poly) -> tuple[int, int] | None:
    """Write f as c * y^k; returns (c, k) or None when f is not a monomial."""
    nonzero = [k for k, c in enumerate(f.coeffs) if c]
    return (f.coeffs[nonzero[0]], nonzero[0]) if len(nonzero) == 1 else None
