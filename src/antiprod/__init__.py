"""Singular-value statistics of products g x g^T of real matrices with
antisymmetric matrices: samplers, spherical functions, Mellin machinery,
closed-form joint densities, determinantal kernels and a Monte Carlo
verification harness."""

__version__ = "0.1.0"

from .linalg import (AntisymmetricMatrix, DomainError, GeneralLinearMatrix,
                     OrthogonalMatrix, SingularSpectrum, build_canonical,
                     haar_orthogonal, singular_spectrum, vandermonde_sq)
from .mellin import (WeightFunction, a_sigma, ginibre_weight, jacobi_weight,
                     mellin_convolve, mellin_numeric)
from .spherical import (SphericalParameter, fn_closed, fn_recurrence,
                        harish_chandra_o2n, phi_closed, phi_montecarlo)
from .ensembles import (PolynomialEnsembleSpec, corank2_jpdf,
                        fixed_base_weights, jpdf_degenerate, jpdf_fixed,
                        muttalib_borodin_weights, product_weights)
from .samplers import (GinibreSpec, JacobiSpec, ProductSpec, build_product,
                       build_product_batch, product_spectra_batch,
                       sample_induced_ginibre, sample_induced_jacobi)
from .kernels import (BiorthSystem, ContourSpec, biorth_fixed, chi_poly,
                      correlation_Rk, gram_biorth, kernel_fixed,
                      kernel_fixed_contour, kernel_poly)

__all__ = [
    "__version__",
    "AntisymmetricMatrix", "DomainError", "GeneralLinearMatrix",
    "OrthogonalMatrix", "SingularSpectrum", "build_canonical",
    "haar_orthogonal", "singular_spectrum", "vandermonde_sq",
    "WeightFunction", "a_sigma", "ginibre_weight", "jacobi_weight",
    "mellin_convolve", "mellin_numeric",
    "SphericalParameter", "fn_closed", "fn_recurrence",
    "harish_chandra_o2n", "phi_closed", "phi_montecarlo",
    "PolynomialEnsembleSpec", "corank2_jpdf", "fixed_base_weights",
    "jpdf_degenerate", "jpdf_fixed",
    "muttalib_borodin_weights", "product_weights",
    "GinibreSpec", "JacobiSpec", "ProductSpec", "build_product",
    "build_product_batch", "product_spectra_batch",
    "sample_induced_ginibre", "sample_induced_jacobi",
    "BiorthSystem", "ContourSpec", "biorth_fixed", "chi_poly",
    "correlation_Rk", "gram_biorth", "kernel_fixed",
    "kernel_fixed_contour", "kernel_poly",
]
