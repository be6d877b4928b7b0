"""Singular-value statistics of products g x g^T of real matrices with
antisymmetric matrices: samplers, spherical functions, Mellin machinery,
closed-form joint densities, determinantal kernels and a Monte Carlo
verification harness."""

__version__ = "0.1.0"

from .linalg import (AntisymmetricMatrix, DomainError, SingularSpectrum,
                     build_canonical, haar_orthogonal_batch,
                     singular_spectrum, vandermonde)
from .mellin import (WeightFunction, convolved_weight, ginibre_weight,
                     jacobi_weight, mellin_convolve, mellin_numeric)
from .spherical import (SphericalParameter, fn_closed, fn_recurrence,
                        harish_chandra_o2n, phi_closed, phi_montecarlo)
from .ensembles import (PolynomialEnsembleSpec, corank2_jpdf,
                        fixed_base_weights, jpdf_degenerate, jpdf_fixed,
                        muttalib_borodin_weights)
from .samplers import (GinibreSpec, JacobiSpec, ProductSpec,
                       build_product_batch, product_spectra_batch,
                       sample_induced_ginibre_batch,
                       sample_induced_jacobi_batch)
from .kernels import (BiorthSystem, biorth_fixed, chi_poly, gram_biorth,
                      kernel_fixed, kernel_fixed_contour, kernel_poly)

__all__ = [
    "__version__",
    "AntisymmetricMatrix", "DomainError", "SingularSpectrum",
    "build_canonical", "haar_orthogonal_batch", "singular_spectrum",
    "vandermonde",
    "WeightFunction", "convolved_weight", "ginibre_weight", "jacobi_weight",
    "mellin_convolve", "mellin_numeric",
    "SphericalParameter", "fn_closed", "fn_recurrence",
    "harish_chandra_o2n", "phi_closed", "phi_montecarlo",
    "PolynomialEnsembleSpec", "corank2_jpdf", "fixed_base_weights",
    "jpdf_degenerate", "jpdf_fixed",
    "muttalib_borodin_weights",
    "GinibreSpec", "JacobiSpec", "ProductSpec",
    "build_product_batch", "product_spectra_batch",
    "sample_induced_ginibre_batch", "sample_induced_jacobi_batch",
    "BiorthSystem", "biorth_fixed", "chi_poly", "gram_biorth",
    "kernel_fixed", "kernel_fixed_contour", "kernel_poly",
]
