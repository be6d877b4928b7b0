"""Random generators for the concrete factor ensembles and products.

A factor has the law of g = R (M^T M)^(1/2) with R Haar orthogonal and M a
rectangular Gaussian (induced Ginibre) or a sub-block of a Haar orthogonal
matrix (induced Jacobi).  It is drawn as g = R C, where C is an upper
triangular matrix with C^T C equal in law to M^T M.  The two constructions
have the same law: writing (M^T M)^(1/2) = Q C with Q orthogonal, R Q is
Haar and independent of C, since R is Haar and independent of M.  M is
never drawn: C is a Bartlett factor for the Ginibre factor and, for the
Jacobi factor, the matrix-variate Beta triangle T_1 R^(-1) of two Bartlett
factors, so a triangle costs O(n^3) per sample whatever K1 is.  Each
factor spec draws its own triangle and carries its weight A.  Products
are built as iterated sandwiches X_M ... X_1 A X_1^T ... X_M^T around a
canonical antisymmetric base and exactly re-antisymmetrized to scrub
floating-point drift.

The singular spectrum is invariant under orthogonal conjugation, so the
outermost rotation R_M of a product cannot change it:
:func:`product_spectra_batch` skips it, while every inner rotation changes
the law and stays.  Each factor draws C before R.  Both functions draw
the product up to R_M block by block through the one Monte Carlo stream of
`linalg` (`MC_BLOCK` samples a block), and :func:`build_product_batch`
draws every R_M after that, so at a fixed seed :func:`product_spectra_batch`
and the spectra of :func:`build_product_batch` use the same random numbers
and agree to rounding.

A block of products splits in two halves.  `_product_draws` consumes the
generator: it draws C_1, R_1, ..., C_M in that order, each triangle built
inside the draw (Jacobi's Cholesky and solve included).  `_sandwich_chain`
is pure arithmetic on those draws, and the spectra follow it.  The stream
draws block b + 1 on its background thread while the caller's thread runs
the sandwich chain and the spectra of block b, so memory holds the draws
of two blocks.  A stack still depends on the seed, its size and MC_BLOCK
only, whatever the scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from .linalg import (DomainError, SingularSpectrum, _mc_stack,
                     antisymmetrized, build_canonical, haar_orthogonal_batch,
                     sandwich, spectra_batch, transposed)
from .mellin import (WeightFunction, convolved_weight, ginibre_weight,
                     jacobi_weight)

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

    @cached_property
    def weight(self) -> WeightFunction:
        return ginibre_weight(self.nu)

    def triangle(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Bartlett factors C of 2(n + nu) x 2n standard Gaussians M, shape
        (size, 2n, 2n), so that C^T C is Wishart like M^T M."""
        if not self.samplable:
            raise DomainError(
                f"nu = {self.nu} is an analytic-only parameter; direct "
                "sampling needs a nonnegative integer")
        return _bartlett(2 * self.n, 2 * (self.n + int(self.nu)), size, rng)


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

    @cached_property
    def weight(self) -> WeightFunction:
        return jacobi_weight(self.nu, self.mu, self.n)

    def triangle(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Upper triangular C, shape (size, 2n, 2n), with C^T C equal in law
        to M^T M for M the leading 2N x 2n sub-block of a Haar O(K1) matrix.

        M^T M is matrix-variate Beta: with independent Bartlett factors T_1
        of 2N and T_2 of K1 - 2N degrees of freedom and R the upper Cholesky
        factor of T_1^T T_1 + T_2^T T_2, it has the law of
        R^(-T) T_1^T T_1 R^(-1) (Muirhead 1982, Thm 3.3.1), so
        C = T_1 R^(-1).  The cost does not grow with K1.
        """
        k = 2 * self.n
        t1 = _bartlett(k, 2 * self.N, size, rng)
        t2 = _bartlett(k, self.K1 - 2 * self.N, size, rng)
        r = np.linalg.cholesky(transposed(t1) @ t1
                               + transposed(t2) @ t2).transpose(0, 2, 1)
        # C R = T_1, solved column by column; only the upper triangle is set
        c = np.zeros_like(t1)
        for j in range(k):
            c[:, : j + 1, j] = (t1[:, : j + 1, j] - np.einsum(
                "sik,sk->si", c[:, : j + 1, :j], r[:, :j, j])) / r[:, j, j, None]
        return c


@dataclass(frozen=True)
class ProductSpec:
    """Factors X_1, ..., X_M, innermost first, around a fixed base spectrum.

    base None means the canonical identity spectrum a = (1, ..., 1); an
    empty factor list makes the product the base matrix itself.  The block
    count n is inferred from the factors and the base, which must agree.
    """

    factors: tuple = ()
    base: SingularSpectrum | None = None
    n: int = field(init=False)

    def __post_init__(self):
        ns = {f.n for f in self.factors}
        if self.base is not None:
            base = SingularSpectrum.from_values(self.base)
            object.__setattr__(self, "base", base)
            ns.add(base.n)
        if len(ns) > 1:
            raise DomainError(f"inconsistent block counts {sorted(ns)}")
        if not ns:
            raise DomainError("cannot infer n: give factors or a base")
        object.__setattr__(self, "n", ns.pop())

    @property
    def base_values(self) -> np.ndarray:
        if self.base is None:
            return np.ones(self.n)
        return self.base.values

    @cached_property
    def weight(self) -> WeightFunction:
        """A_M (*) ... (*) A_1, folded as convolved_weight(A_2, A_1); one
        factor's product has that factor's weight object itself."""
        if not self.factors:
            raise DomainError("a product without factors has no weight")
        return reduce(lambda inner, f: convolved_weight(f.weight, inner),
                      self.factors[1:], self.factors[0].weight)


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


def _factor_batch(factor, size: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of factors g = R C: the triangle C is drawn first, then R."""
    c = factor.triangle(size, rng)
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
    :meth:`JacobiSpec.triangle`) and R Haar O(2n).  All singular values of g
    lie in [0, 1].
    """
    return _factor_batch(spec, size, rng)


def _product_draws(spec: ProductSpec, size: int,
                   rng: np.random.Generator) -> list:
    """The random half of a block of products up to the outermost rotation:
    the base A broadcast to size, then C_1, R_1, ..., C_M in draw order,
    each of shape (size, 2n, 2n)."""
    k = 2 * spec.n
    out = [np.broadcast_to(build_canonical(
        SingularSpectrum.from_values(spec.base_values)).entries, (size, k, k))]
    for i, factor in enumerate(spec.factors):
        if i:
            out.append(haar_orthogonal_batch(k, size, rng))
        out.append(factor.triangle(size, rng))
    return out


def _sandwich_chain(draws: list) -> np.ndarray:
    """The product C_M R_(M-1) C_(M-1) ... R_1 C_1 A C_1^T R_1^T ... C_M^T
    of the list of `_product_draws`, which it does not draw from."""
    y = draws[0]
    for i in range(1, len(draws), 2):
        y = sandwich(draws[i] if i == 1 else draws[i] @ draws[i - 1], y)
    return y


def _check_size(size: int):
    if size < 1:
        raise DomainError(f"sample count must be >= 1, got {size}")


def build_product_batch(spec: ProductSpec, size: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Stack of product matrices X_M ... X_1 A X_1^T ... X_M^T, shape
    (size, 2n, 2n), exactly antisymmetrized.

    The products up to R_M are drawn block by block through the Monte Carlo
    stream (`linalg.MC_BLOCK` samples a block), exactly as
    :func:`product_spectra_batch` draws them, and the outermost rotations
    R_M are drawn after all of them.  Their conjugation leaves the singular
    spectrum unchanged, so at a fixed seed the spectra agree to rounding
    with :func:`product_spectra_batch`.
    """
    _check_size(size)
    k = 2 * spec.n
    y = _mc_stack((partial(_product_draws, spec),), _sandwich_chain, size,
                  (k, k), rng)
    if spec.factors:
        r = _mc_stack((partial(haar_orthogonal_batch, k),), lambda r: r, size,
                      (k, k), rng)
        y = antisymmetrized(sandwich(r, y))
    return y


def product_spectra_batch(spec: ProductSpec, size: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Singular spectra of a stack of products X_M ... X_1 A X_1^T ... X_M^T,
    shape (size, n), ascending per row.

    The products are drawn and reduced to spectra block by block through
    the Monte Carlo stream (`linalg.MC_BLOCK` samples a block), and the
    spectra fill one preallocated array, so memory beyond the output does
    not grow with size.  The spectrum is invariant under orthogonal
    conjugation, so the outermost Haar rotation R_M is neither drawn nor
    applied; every inner rotation changes the law and stays.  Since
    :func:`build_product_batch` draws every R_M after the rest, at a fixed
    seed both use the same random numbers and their spectra agree to
    rounding.
    """
    _check_size(size)
    return _mc_stack(
        (partial(_product_draws, spec),),
        lambda draws: spectra_batch(antisymmetrized(_sandwich_chain(draws))),
        size, (spec.n,), rng)
