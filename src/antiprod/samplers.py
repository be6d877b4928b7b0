"""Random generators for the concrete factor ensembles and products.

A factor has the law of g = R (M^T M)^(1/2) with R Haar orthogonal and M a
rectangular Gaussian (induced Ginibre) or a sub-block of a Haar orthogonal
matrix (induced Jacobi).  It is drawn as g = R C, where C is an upper
triangular matrix with C^T C equal in law to M^T M.  The two constructions
have the same law: writing (M^T M)^(1/2) = Q C with Q orthogonal, R Q is
Haar and independent of C, since R is Haar and independent of M.  Products
are built as iterated sandwiches X_M ... X_1 A X_1^T ... X_M^T around a
canonical antisymmetric base and exactly re-antisymmetrized to scrub
floating-point drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (AntisymmetricMatrix, DomainError, GeneralLinearMatrix,
                     SingularSpectrum, _haar_columns, build_canonical,
                     haar_orthogonal_batch)

__all__ = [
    "GinibreSpec", "JacobiSpec", "ProductSpec",
    "sample_ginibre_rect", "sample_induced_ginibre",
    "sample_induced_ginibre_batch", "sample_induced_jacobi",
    "sample_induced_jacobi_batch", "build_product", "build_product_batch",
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
            base = self.base if isinstance(self.base, SingularSpectrum) \
                else SingularSpectrum.from_values(self.base)
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


def sample_ginibre_rect(rows: int, cols: int,
                        rng: np.random.Generator) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard normal entries."""
    if rows < 2 or cols < 2 or rows % 2 or cols % 2:
        raise DomainError("rows and cols must be even integers >= 2")
    return rng.standard_normal((rows, cols))


def sample_induced_ginibre_batch(spec: GinibreSpec, size: int,
                                 rng: np.random.Generator) -> np.ndarray:
    """Stack of induced Ginibre matrices g = R (M^T M)^(1/2), shape (size, 2n, 2n).

    M is a 2(n + nu) x 2n standard Gaussian.  It is not drawn: C is its
    Bartlett factor, upper triangular with C_ii = sqrt(chi^2_{2(n+nu)-i})
    for i < 2n and N(0, 1) entries above the diagonal, so that C^T C is
    Wishart like M^T M, and g = R C with R Haar O(2n).
    """
    if not spec.samplable:
        raise DomainError(
            f"nu = {spec.nu} is an analytic-only parameter; direct sampling "
            "needs a nonnegative integer")
    k = 2 * spec.n
    diag = np.arange(k)
    upper = np.triu_indices(k, 1)
    c = np.zeros((size, k, k))
    c[:, diag, diag] = np.sqrt(
        rng.chisquare(2 * (spec.n + int(spec.nu)) - diag, size=(size, k)))
    c[:, upper[0], upper[1]] = rng.standard_normal((size, upper[0].size))
    return haar_orthogonal_batch(k, size, rng) @ c


def sample_induced_ginibre(spec: GinibreSpec,
                           rng: np.random.Generator) -> GeneralLinearMatrix:
    return GeneralLinearMatrix(sample_induced_ginibre_batch(spec, 1, rng)[0])


def sample_induced_jacobi_batch(spec: JacobiSpec, size: int,
                                rng: np.random.Generator) -> np.ndarray:
    """Stack of induced Jacobi matrices g = R (M^T M)^(1/2), shape (size, 2n, 2n).

    M is the leading 2N x 2n sub-block of a Haar O(K1) matrix; only its
    first 2n columns are drawn, as a uniform K1 x 2n frame.  C is the
    triangular factor of the QR factorization of M, so C^T C = M^T M, and
    g = R C with R Haar O(2n).  All singular values of g lie in [0, 1].
    """
    k = 2 * spec.n
    m = _haar_columns(spec.K1, k, size, rng)[:, : 2 * spec.N]
    c = np.linalg.qr(m, mode="r")
    return haar_orthogonal_batch(k, size, rng) @ c


def sample_induced_jacobi(spec: JacobiSpec,
                          rng: np.random.Generator) -> GeneralLinearMatrix:
    return GeneralLinearMatrix(sample_induced_jacobi_batch(spec, 1, rng)[0])


def _factor_batch(factor, size: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(factor, GinibreSpec):
        return sample_induced_ginibre_batch(factor, size, rng)
    if isinstance(factor, JacobiSpec):
        return sample_induced_jacobi_batch(factor, size, rng)
    raise DomainError(f"unknown factor spec {type(factor).__name__}")


def build_product_batch(spec: ProductSpec, size: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Stack of product matrices X_M ... X_1 A X_1^T ... X_M^T, shape
    (size, 2n, 2n), exactly antisymmetrized."""
    y = np.broadcast_to(
        build_canonical(SingularSpectrum.from_values(spec.base_values)).entries,
        (size, 2 * spec.n, 2 * spec.n)).copy()
    for factor in spec.factors:
        g = _factor_batch(factor, size, rng)
        y = np.einsum("sij,sjk,slk->sil", g, y, g)
    return (y - y.transpose(0, 2, 1)) / 2.0


def build_product(spec: ProductSpec,
                  rng: np.random.Generator) -> AntisymmetricMatrix:
    return AntisymmetricMatrix(build_product_batch(spec, 1, rng)[0])
