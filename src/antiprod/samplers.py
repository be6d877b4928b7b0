"""Random generators for the concrete factor ensembles and products.

A factor has the law of g = R (M^T M)^(1/2) with R Haar orthogonal and M a
rectangular Gaussian (induced Ginibre) or a sub-block of a Haar orthogonal
matrix (induced Jacobi).  It is drawn as g = R C, where C is an upper
triangular matrix with C^T C equal in law to M^T M.  The two constructions
have the same law: writing (M^T M)^(1/2) = Q C with Q orthogonal, R Q is
Haar and independent of C, since R is Haar and independent of M.  M is
never drawn: C is a Bartlett factor for the Ginibre factor and, for the
Jacobi factor, the matrix-variate Beta triangle T_1 R^(-1) of two Bartlett
factors, so a triangle costs O(n^3) per sample whatever K1 is.  Products
are built as iterated sandwiches X_M ... X_1 A X_1^T ... X_M^T around a
canonical antisymmetric base and exactly re-antisymmetrized to scrub
floating-point drift.

The singular spectrum is invariant under orthogonal conjugation, so the
outermost rotation R_M of a product cannot change it:
:func:`product_spectra_batch` skips it, while every inner rotation changes
the law and stays.  Each factor draws C before R, and R_M is drawn last, so
at a fixed seed :func:`product_spectra_batch` and the spectra of
:func:`build_product_batch` use the same random numbers and agree to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (DomainError, SingularSpectrum, build_canonical,
                     haar_orthogonal_batch, spectra_batch)

__all__ = [
    "GinibreSpec", "JacobiSpec", "ProductSpec",
    "sample_induced_ginibre_batch", "sample_induced_jacobi_batch",
    "build_product_batch", "product_spectra_batch",
]

@dataclass(frozen=True)
class GinibreSpec:
    """Induced Ginibre factor: 2n x 2n with density ~ (det g g^T)^nu e^(-Tr g g^T / 2).

    Direct sampling needs integer nu >= 0; the analytic evaluators accept
    any nu > -1/2.
    """

    n: int
    nu: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.nu <= -0.5:
            raise DomainError("nu must exceed -1/2")

    @property
    def samplable(self) -> bool:
        return self.nu >= 0 and float(self.nu).is_integer()


@dataclass(frozen=True)
class JacobiSpec:
    """Induced Jacobi factor: truncation of a Haar O(K1) matrix.

    Derived weight parameters nu = N - n and mu = (K1 - 2n - 2N - 1) / 2.
    """

    n: int
    N: int
    K1: int

    def __post_init__(self):
        if self.n < 1 or self.N < self.n:
            raise DomainError("need N >= n >= 1")
        if self.K1 < 2 * (self.n + self.N):
            raise DomainError("need K1 >= 2 (n + N)")

    @property
    def nu(self) -> float:
        return float(self.N - self.n)

    @property
    def mu(self) -> float:
        return (self.K1 - 2 * self.n - 2 * self.N - 1) / 2.0


@dataclass(frozen=True)
class ProductSpec:
    """Ordered factor list around a fixed antisymmetric base spectrum.

    base None means the canonical identity spectrum a = (1, ..., 1); an
    empty factor list makes the product the base matrix itself.
    """

    factors: tuple = ()
    base: SingularSpectrum | None = None
    n: int = field(default=0)

    def __post_init__(self):
        ns = {f.n for f in self.factors}
        if self.base is not None:
            base = SingularSpectrum.from_values(self.base)
            object.__setattr__(self, "base", base)
            ns.add(base.n)
        if self.n > 0:
            ns.add(self.n)
        if len(ns) > 1:
            raise DomainError(f"inconsistent block counts {sorted(ns)}")
        if not ns:
            raise DomainError("cannot infer n: give factors, base, or n")
        object.__setattr__(self, "n", ns.pop())

    @property
    def base_values(self) -> np.ndarray:
        if self.base is None:
            return np.ones(self.n)
        return self.base.values


def _bartlett(k: int, dof: int, size: int,
              rng: np.random.Generator) -> np.ndarray:
    """Bartlett factors C of dof x k standard Gaussians M (dof >= k), shape
    (size, k, k): upper triangular with C_ii = sqrt(chi^2_{dof-i}) for i < k
    and N(0, 1) entries above the diagonal, so that C^T C is Wishart like
    M^T M."""
    diag = np.arange(k)
    upper = np.triu_indices(k, 1)
    c = np.zeros((size, k, k))
    c[:, diag, diag] = np.sqrt(rng.chisquare(dof - diag, size=(size, k)))
    c[:, upper[0], upper[1]] = rng.standard_normal((size, upper[0].size))
    return c


def _ginibre_triangle(spec: GinibreSpec, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Bartlett factors C of 2(n + nu) x 2n standard Gaussians M, shape
    (size, 2n, 2n), so that C^T C is Wishart like M^T M."""
    if not spec.samplable:
        raise DomainError(
            f"nu = {spec.nu} is an analytic-only parameter; direct sampling "
            "needs a nonnegative integer")
    return _bartlett(2 * spec.n, 2 * (spec.n + int(spec.nu)), size, rng)


def _jacobi_triangle(spec: JacobiSpec, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Upper triangular C, shape (size, 2n, 2n), with C^T C equal in law to
    M^T M for M the leading 2N x 2n sub-block of a Haar O(K1) matrix.

    M^T M is matrix-variate Beta: with independent Bartlett factors T_1 of
    2N and T_2 of K1 - 2N degrees of freedom and R the upper Cholesky
    factor of T_1^T T_1 + T_2^T T_2, it has the law of
    R^(-T) T_1^T T_1 R^(-1) (Muirhead 1982, Thm 3.3.1), so C = T_1 R^(-1).
    The cost does not grow with K1.
    """
    k = 2 * spec.n
    t1 = _bartlett(k, 2 * spec.N, size, rng)
    t2 = _bartlett(k, spec.K1 - 2 * spec.N, size, rng)
    r = np.linalg.cholesky(t1.transpose(0, 2, 1) @ t1
                           + t2.transpose(0, 2, 1) @ t2).transpose(0, 2, 1)
    # C R = T_1, solved column by column; only the upper triangle is nonzero
    c = np.zeros_like(t1)
    for j in range(k):
        c[:, : j + 1, j] = (t1[:, : j + 1, j] - np.einsum(
            "sik,sk->si", c[:, : j + 1, :j], r[:, :j, j])) / r[:, j, j, None]
    return c


def _triangle_batch(factor, size: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(factor, GinibreSpec):
        return _ginibre_triangle(factor, size, rng)
    if isinstance(factor, JacobiSpec):
        return _jacobi_triangle(factor, size, rng)
    raise DomainError(f"unknown factor spec {type(factor).__name__}")


def _factor_batch(factor, size: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of factors g = R C: the triangle C is drawn first, then R."""
    c = _triangle_batch(factor, size, rng)
    return haar_orthogonal_batch(2 * factor.n, size, rng) @ c


def sample_induced_ginibre_batch(spec: GinibreSpec, size: int,
                                 rng: np.random.Generator) -> np.ndarray:
    """Stack of induced Ginibre matrices g = R (M^T M)^(1/2), shape (size, 2n, 2n).

    M is a 2(n + nu) x 2n standard Gaussian.  It is not drawn: g = R C with
    C its Bartlett factor and R Haar O(2n).
    """
    return _factor_batch(spec, size, rng)


def sample_induced_jacobi_batch(spec: JacobiSpec, size: int,
                                rng: np.random.Generator) -> np.ndarray:
    """Stack of induced Jacobi matrices g = R (M^T M)^(1/2), shape (size, 2n, 2n).

    M is the leading 2N x 2n sub-block of a Haar O(K1) matrix.  It is not
    drawn: g = R C with C^T C equal in law to M^T M (see
    :func:`_jacobi_triangle`) and R Haar O(2n).  All singular values of g
    lie in [0, 1].
    """
    return _factor_batch(spec, size, rng)


def _product_core(spec: ProductSpec, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The product up to its outermost rotation,
    C_M R_(M-1) C_(M-1) ... R_1 C_1 A C_1^T R_1^T ... C_M^T, shape
    (size, 2n, 2n), with the draws in the order C_1, R_1, ..., C_M."""
    if size < 1:
        raise DomainError(f"sample count must be >= 1, got {size}")
    y = np.broadcast_to(
        build_canonical(SingularSpectrum.from_values(spec.base_values)).entries,
        (size, 2 * spec.n, 2 * spec.n))
    for i, factor in enumerate(spec.factors):
        r = haar_orthogonal_batch(2 * spec.n, size, rng) if i else None
        c = _triangle_batch(factor, size, rng)
        g = c if r is None else c @ r
        y = g @ y @ g.transpose(0, 2, 1)
    return y


def _antisymmetrized(y: np.ndarray) -> np.ndarray:
    return (y - y.transpose(0, 2, 1)) / 2.0


def build_product_batch(spec: ProductSpec, size: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Stack of product matrices X_M ... X_1 A X_1^T ... X_M^T, shape
    (size, 2n, 2n), exactly antisymmetrized.

    The outermost rotation R_M is drawn last, after every triangle; its
    conjugation leaves the singular spectrum unchanged, so at a fixed seed
    the spectra agree to rounding with :func:`product_spectra_batch`.
    """
    y = _product_core(spec, size, rng)
    if spec.factors:
        r = haar_orthogonal_batch(2 * spec.n, size, rng)
        y = r @ y @ r.transpose(0, 2, 1)
    return _antisymmetrized(y)


def product_spectra_batch(spec: ProductSpec, size: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Singular spectra of a stack of products X_M ... X_1 A X_1^T ... X_M^T,
    shape (size, n), ascending per row.

    The spectrum is invariant under orthogonal conjugation, so the
    outermost Haar rotation R_M is neither drawn nor applied; every inner
    rotation changes the law and stays.  Since R_M is the last draw of
    :func:`build_product_batch`, at a fixed seed both use the same random
    numbers and their spectra agree to rounding.
    """
    return spectra_batch(_antisymmetrized(_product_core(spec, size, rng)))

