"""Spherical functions on antisymmetric matrices and the real linear group.

Phi is the spherical function on o(2n), Psi its counterpart on Gl(2n, R);
both are ratios/averages of powers of principal-minor determinants over the
Haar measure of O(2n).  The closed form of Phi is an alternant ratio

    Phi(s; a) = (prod_j 2^j j!) det[a_c^(s_b + n - 1)] / (Delta(a^2) Delta(s))

whose degenerate limits (coinciding a or s entries) are evaluated through
the confluent divided-difference columns of `linalg.confluent_alternant`
rather than by perturbing the input; the closed forms take stacks of
spectra.
The module also carries the auxiliary kernel f_n, its recursion over the
corank-2 projection density, the Harish-Chandra O(2n) integral, and the
spherical transforms with their exact factorization.

The arithmetic follows the dtype of s.  `SphericalParameter` keeps a real s
as float64, so the power rows of the closed forms, the minor exponents and
the Haar integrands run in real arithmetic; a complex s takes the same code
in complex.  A stack of closed-form values has the dtype of s, and a
single value and every Monte Carlo estimate are a Python complex either
way.

Every Monte Carlo estimator here is one Haar average, `_haar_moments`: it
streams blocks of draws, sums an integrand vector F and F F^H over the N
samples, and returns the mean and covariance of F.  A scalar estimate has
standard error sqrt(cov / N); Phi, a ratio of two averages over the same
draws, takes its error from the delta method.

Each stack of a block is drawn by its own callable.  The Haar average of
prod_j det((k m k^T)[:2j, :2j])^(e_j) equals that of k^T m k, since k^T is
Haar too, and the minors of k^T m k read only the leading p columns of k.
Those columns are distributed as the QR frame Q = g R^-1 of a standard
Gaussian 2n x p matrix g, and then each proper minor is the Gram ratio
det(g_2j^T m g_2j) / det(g_2j^T g_2j), draw by draw, while the full minor
is the constant det m.  So
`phi_montecarlo`, `psi_montecarlo` and the Psi draw of
`factorization_check_psi` draw only Gaussian 2n x p frames, with
p = 2 max{j < n : e_j != 0}, and orthogonalize nothing.  The estimators
whose integrand needs all of k (`harish_chandra_o2n_mc`,
`factorization_check_phi` and the inner rotation of
`factorization_check_psi`) draw Haar O(2n) stacks.  A product of such a
stack by a matrix shared by all draws (the base of `sandwich`, the m of
`_frame_minor_power` in `phi_montecarlo` and `psi_montecarlo`) is one GEMM,
`linalg.times_shared`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import factorial

import numpy as np
from scipy import special

from .linalg import (DomainError, SingularSpectrum, _mc_blocks,
                     antisymmetrized, build_canonical, coincident,
                     confluent_alternant, derivative_terms, det,
                     haar_orthogonal_batch, sandwich, sorted_spectra,
                     spectra_batch, times_shared, transposed, vandermonde)
from .mellin import mellin_table, quad

__all__ = [
    "SphericalParameter", "phi_closed", "phi_montecarlo", "psi_montecarlo",
    "factorization_check_phi", "factorization_check_psi", "zscore",
    "fn_closed", "fn_recurrence", "harish_chandra_o2n",
    "harish_chandra_o2n_mc",
    "spherical_transform_poly", "spherical_transform_factor",
]

#: Relative gap below which parameter entries count as coincident.
S_DEGENERACY_RTOL = 1e-10


@dataclass(frozen=True)
class SphericalParameter:
    """n-vector of exponents s with s_(n+1) = -n - 1 implied: float64 when
    no entry has an imaginary part, complex otherwise, so that the closed
    forms and the Haar integrands run in real arithmetic for a real s."""

    s: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.s, dtype=complex))
        if not v.imag.any():
            v = v.real.copy()
        if v.ndim != 1 or v.size == 0:
            raise DomainError("s must be a nonempty vector")
        v.setflags(write=False)
        object.__setattr__(self, "s", v)

    @property
    def n(self) -> int:
        return self.s.size

    @property
    def in_convergence_domain(self) -> bool:
        """Re(s_j - s_(j+1)) >= 2 for all j < n, where the defining Haar
        integrals converge absolutely."""
        d = np.real(self.s[:-1] - self.s[1:])
        return bool(np.all(d >= 2.0 - 1e-12))

    @property
    def nodes(self) -> tuple:
        """(s sorted by real, then imaginary part; flags of its consecutive
        entries that coincide, within S_DEGENERACY_RTOL max(|s|, 1))."""
        v = np.sort(self.s)
        tol = S_DEGENERACY_RTOL * max(float(np.abs(v).max()), 1.0)
        return v, np.abs(v[1:] - v[:-1]) <= tol

    @property
    def is_degenerate(self) -> bool:
        return bool(self.nodes[1].any())

    @property
    def exponents(self) -> np.ndarray:
        """Minor exponents e_j = (s_j - s_(j+1))/2 - 1, s_(n+1) = -n - 1."""
        ext = np.append(self.s, -self.n - 1.0)
        return (ext[:-1] - ext[1:]) / 2.0 - 1.0


def _as_param(s) -> SphericalParameter:
    return s if isinstance(s, SphericalParameter) else SphericalParameter(np.asarray(s))


def _expm1c(z):
    """exp(z) - 1 without cancellation, elementwise for real or complex z."""
    if not np.iscomplexobj(z):
        return np.expm1(z)
    x, y = np.real(z), np.imag(z)
    return np.expm1(x) * np.cos(y) - 2.0 * np.sin(y / 2.0) ** 2 \
        + 1j * np.exp(x) * np.sin(y)


def _power_rows(q):
    """taylor and dd1 of `confluent_alternant` for the rows
    f_b(u) = u^(q_b) on u > 0, real or complex q."""
    q = q[:, None]

    def taylor(u, m):
        power = u[..., None, :] ** (q - m)
        if m == 0:
            return power
        binom = 1.0
        for i in range(m):
            binom = binom * ((q - i) / (i + 1))
        return binom * power

    def dd1(u, v):
        u, v = u[..., None, :], v[..., None, :]
        return u ** q * _expm1c(q * np.log1p((v - u) / u)) / (v - u)

    return taylor, dd1


def _exp_rows(L):
    """taylor and dd1 of `confluent_alternant` for the rows
    f_c(sigma) = exp(sigma L_c) over real or complex nodes sigma; L has
    shape (..., n)."""
    L = L[..., :, None]

    def taylor(sig, m):
        return np.exp(sig[..., None, :] * L) * L ** m / factorial(m)

    def dd1(s1, s2):
        d = (s2 - s1)[..., None, :]
        return np.exp(s1[..., None, :] * L) * _expm1c(d * L) / d

    return taylor, dd1


def _alternant(s: SphericalParameter, a, pref):
    """pref det[a_c^(s_b + n - 1)] / (Delta_n(a^2) Delta_n(s)) for spectra a
    of shape (..., n) in any entry order; shape a.shape[:-1] with the dtype
    of s, a complex for a single spectrum.

    Delta_n(s) = prod_(k<l)(s_l - s_k) in the order the entries of s are
    given.  Coinciding entries of a (or of s) are resolved by confluent
    columns; simultaneous degeneracy in both is not supported.  A single
    spectrum is evaluated as a one-row stack, so that it takes the
    arithmetic of a stacked one.
    """
    n = s.n
    a = sorted_spectra(a, n)
    shape, a = a.shape[:-1], a.reshape(-1, n)
    if (a <= 0).any():
        raise DomainError("closed form requires strictly positive a")
    same = coincident(a)
    if not s.is_degenerate:
        # divided differences across u = a^2; f_b(u) = u^((s_b + n - 1)/2)
        core = confluent_alternant(a * a, same,
                                   *_power_rows((s.s + n - 1.0) / 2.0)) \
            / vandermonde(s.s)
    elif same.any():
        raise DomainError("simultaneous degeneracy in a and s unsupported")
    else:
        # divided differences across the sorted s, with
        # a^(s + n - 1) = a^(n - 1) exp(s log a); det / Delta(s) is
        # invariant under that sort
        core = confluent_alternant(*s.nodes, *_exp_rows(np.log(a))) \
            * np.prod(a, axis=-1) ** (n - 1.0) / vandermonde(a * a)
    v = (pref * core).reshape(shape)
    return complex(v) if v.ndim == 0 else v


def _log_prefactor(n: int) -> float:
    """log of prod_(j<n) 2^j j!."""
    return sum(j * np.log(2.0) + special.gammaln(j + 1) for j in range(n))


def phi_closed(s, a):
    """Spherical function Phi(s; i a (x) tau_2) in closed form.

    a has shape (..., n), a stack of spectra in any entry order, or is a
    SingularSpectrum; the result has shape a.shape[:-1], float64 for a
    real s and complex otherwise, and is a complex for a single spectrum.
    Degenerate spectra (in a or in s) are evaluated through confluent
    columns, row by row of the stack; in particular the limit
    a -> (1, ..., 1) returns exactly 1.
    """
    s = _as_param(s)
    return _alternant(s, a, np.exp(_log_prefactor(s.n)))


def _minor_exponent_check(s: SphericalParameter, a_min: float):
    if not s.in_convergence_domain:
        raise DomainError(
            "s outside the convergence domain Re(s_j - s_(j+1)) >= 2; "
            "the closed form is the only evaluator there")
    if a_min < 1e-8 and np.real(s.s[-1]) < 0:
        raise DomainError(
            "Re s_n >= 0 required when the spectrum nearly touches zero")


def zscore(x, ref, se) -> float:
    """|x - ref| / se.  An exact estimate (se = 0) scores 0 when it matches
    ref to 1e-12 relative and inf otherwise, so that it can fail."""
    diff = abs(x - ref)
    if se > 0:
        return float(diff / se)
    return 0.0 if diff <= 1e-12 * abs(ref) else np.inf


def _frame_draw(s: SphericalParameter):
    """Draw callable of `_haar_moments`: stacks of standard Gaussian
    2n x p matrices, p = 2 max{j < n : e_j != 0} (0 when only the full
    minor is weighted), the columns that `_frame_minor_power` reads."""
    proper = np.flatnonzero(s.exponents[:-1])
    p = 2 * (proper[-1] + 1) if proper.size else 0
    return lambda size, rng: rng.standard_normal((size, 2 * s.n, p))


#: Rounding allowance of a minor in `_frame_minor_power`, relative to the
#: bound on the magnitude of its terms.
MINOR_RTOL = 1e-10


def _log_minor(r, m, gram=None):
    """log of the minors r of k^T m k, floored at 1e-300: det m for gram
    None, else Gram ratios over the Gram stack g_2j^T g_2j.  DomainError
    where r is below -MINOR_RTOL times the bound of `_frame_minor_power`,
    which is computed only when some r < 0."""
    if np.any(r < 0):
        size = m.shape[-1] if gram is None else gram.shape[-1]
        bound = np.linalg.norm(m, axis=(-2, -1)) ** size
        if gram is not None:
            bound = bound * np.prod(np.diagonal(gram, axis1=-2, axis2=-1),
                                    axis=-1) / det(gram)
        if np.any(r < -MINOR_RTOL * bound):
            raise DomainError(
                "a principal minor of k^T m k is negative beyond rounding: "
                "m is neither positive semidefinite nor antisymmetric")
    return np.log(np.maximum(r, 1e-300))


def _frame_minor_power(g, m, exponents):
    """prod_j det((k^T m k)[:2j, :2j])^(e_j) over a stack of Gaussian g.

    k is the Haar matrix whose leading columns are the QR frame
    Q = g R^-1 of g.  Since
    (Q^T m Q)[:2j, :2j] = R_2j^-T g_2j^T m g_2j R_2j^-1, each proper minor
    is the Gram ratio det(g_2j^T m g_2j) / det(g_2j^T g_2j) of the leading
    2j columns, and the full minor is det m, however many columns g has.
    Leading axes of m broadcast against the stack; an m without a
    per-sample axis multiplies it as one GEMM (`linalg.times_shared`).
    The 2 x 2 minors of both Gram stacks are the closed forms of
    `linalg.det`.

    The minors are >= 0 in exact arithmetic when m is positive
    semidefinite or antisymmetric (an even principal minor of an
    antisymmetric matrix is a squared Pfaffian).  A term of det m is at
    most |m|^(2n) in magnitude (|m| the Frobenius norm), and one of
    det(g_2j^T m g_2j) at most |m|^(2j) prod_a (g_2j^T g_2j)_aa, which
    over det(g_2j^T g_2j) bounds the Gram ratio's.  A minor below
    -MINOR_RTOL times its bound raises DomainError; the rest are floored
    at 1e-300 for the log, which takes zeros and rounding.
    """
    gt = transposed(g)
    num, den = times_shared(gt, m) @ g, gt @ g
    e_full = exponents[-1]    # an unweighted det m is not computed
    logf = e_full * (_log_minor(det(m), m) if e_full else 0.0)
    for j, e in enumerate(exponents[:-1][:g.shape[-1] // 2], start=1):
        if e != 0:
            gram = den[..., :2 * j, :2 * j]
            r = det(num[..., :2 * j, :2 * j]) / det(gram)
            logf = logf + e * _log_minor(r, m, gram)
    return np.exp(np.broadcast_to(logf, num.shape[:-2]))


def _haar_moments(draws, nsamples, rng, block_fn):
    """Haar Monte Carlo moments of the rows of block_fn.

    block_fn maps the stacks that the callables of `draws` return for one
    block to an (m, block) array F.  Returns (mean, cov, N) with
    mean_i = E[F_i] and cov[i, j] = E[F_i conj(F_j)] - E[F_i] conj(E[F_j])
    over the N samples.
    """
    S1 = S2 = N = 0
    for stacks in _mc_blocks(draws, nsamples, rng):
        F = block_fn(*stacks)
        S1 = S1 + F.sum(axis=1)
        S2 = S2 + F @ F.conj().T
        N += F.shape[1]
    mean = S1 / N
    return mean, S2 / N - np.outer(mean, mean.conj()), N


def phi_montecarlo(s, a, nsamples: int, rng):
    """Monte Carlo estimate of Phi(s; i a (x) tau_2) from its definition.

    The numerator and denominator Haar averages share the same Gaussian
    frames; the standard error of the ratio comes from the delta method.
    """
    s = _as_param(s)
    a = SingularSpectrum.from_values(a)
    if a.n != s.n:
        raise DomainError("s and a must have the same length")
    _minor_exponent_check(s, float(np.min(a.values)))
    ms = np.stack([build_canonical(a).entries,
                   build_canonical(SingularSpectrum(np.ones(a.n))).entries])
    mean, cov, N = _haar_moments(
        (_frame_draw(s),), nsamples, rng,
        lambda f: _frame_minor_power(f, ms[:, None], s.exponents))
    num, den = mean
    r = num / den
    var_resid = (cov[0, 0] + abs(r) ** 2 * cov[1, 1]
                 - 2.0 * np.real(np.conj(r) * cov[0, 1])).real
    stderr = np.sqrt(max(var_resid, 0.0) / N) / abs(den)
    return complex(r), float(stderr)


def psi_montecarlo(s, g, nsamples: int, rng):
    """Monte Carlo estimate of Psi(s; g); exact (zero variance) when the
    integrand is k-independent, e.g. g proportional to the identity."""
    s = _as_param(s)
    ge = np.asarray(g, dtype=float)
    if ge.shape[0] != 2 * s.n:
        raise DomainError("dimension of g does not match s")
    m = ge @ ge.T
    mean, cov, N = _haar_moments(
        (_frame_draw(s),), nsamples, rng,
        lambda f: _frame_minor_power(f, m, s.exponents)[None])
    stderr = np.sqrt(max(cov[0, 0].real, 0.0) / N)
    return complex(mean[0]), float(stderr)


def factorization_check_phi(s, g, a, nsamples: int, rng):
    """Check E_k Phi(s; g k x k^T g^T) = Psi(s; g) Phi(s; x).

    Returns (lhs, rhs, zscore)."""
    s = _as_param(s)
    a = SingularSpectrum.from_values(a)
    _minor_exponent_check(s, float(np.min(a.values)))
    ge = np.asarray(g, dtype=float)
    x = build_canonical(a).entries

    def lhs_block(k):
        y = antisymmetrized(ge @ sandwich(k, x) @ ge.T)
        return phi_closed(s, spectra_batch(y))[None]

    haar = partial(haar_orthogonal_batch, x.shape[0])
    mean, cov, N = _haar_moments((haar,), nsamples, rng, lhs_block)
    lhs = mean[0]
    lhs_se = np.sqrt(max(cov[0, 0].real, 0.0) / N)
    psi, psi_se = psi_montecarlo(s, ge, nsamples, rng)
    phi = phi_closed(s, a.values)
    rhs = psi * phi
    se = np.sqrt(lhs_se ** 2 + (psi_se * abs(phi)) ** 2)
    z = zscore(lhs, rhs, se)
    return complex(lhs), complex(rhs), z


def factorization_check_psi(s, g, gprime, nsamples: int, rng):
    """Check E_k Psi(s; g k g' g'^T k^T g^T) = Psi(s; g) Psi(s; g').

    The left side is a double Haar average (one k from the identity, one
    from Psi itself), estimated per sample with a Haar draw k and a
    Gaussian frame for Psi.  The full minor det m = det(g)^2 det(g' g'^T)
    is the same for every k, so its factor is computed once and the
    frames weigh only the proper minors.  Returns (lhs, rhs, zscore)."""
    s = _as_param(s)
    ge = np.asarray(g, dtype=float)
    gpe = np.asarray(gprime, dtype=float)
    inner = gpe @ gpe.T
    e = s.exponents
    full = np.exp(e[-1] * _log_minor(det(ge) ** 2 * det(inner),
                                     ge @ inner @ ge.T))
    proper = np.append(e[:-1], 0.0)

    def lhs_block(k, f):
        return full * _frame_minor_power(
            f, ge @ sandwich(k, inner) @ ge.T, proper)[None]

    haar = partial(haar_orthogonal_batch, ge.shape[0])
    mean, cov, N = _haar_moments((haar, _frame_draw(s)), nsamples, rng,
                                 lhs_block)
    lhs = mean[0]
    lhs_se = np.sqrt(max(cov[0, 0].real, 0.0) / N)
    p1, se1 = psi_montecarlo(s, ge, nsamples, rng)
    p2, se2 = psi_montecarlo(s, gpe, nsamples, rng)
    rhs = p1 * p2
    se = np.sqrt(lhs_se ** 2 + (se1 * abs(p2)) ** 2 + (se2 * abs(p1)) ** 2)
    z = zscore(lhs, rhs, se)
    return complex(lhs), complex(rhs), z


def _cn_delta(s) -> float | complex:
    """c_n(s) Delta_n(s) = prod_(j<n) (2j)! / prod_(k<l)(s_k - s_l - 1), of
    the dtype of s; callers divide by Delta_n(s) where that stays finite.
    The sign makes the a -> 1 limit of the closed form normalize Phi to
    1."""
    n = len(s)
    den = np.prod([s[k] - s[l] - 1.0
                   for k in range(n) for l in range(k + 1, n)])
    return np.prod([float(factorial(2 * j)) for j in range(n)]) / den


def fn_closed(s, a):
    """Auxiliary kernel f_n(s; i a (x) tau_2) = c_n(s) det[a^(s+n-1)]/Delta(a^2),
    on spectra a of shape (..., n) as phi_closed."""
    s = _as_param(s)
    # _alternant divides by Delta(s) through the confluent path
    return _alternant(s, a, _cn_delta(s.s))


def fn_recurrence(s, a) -> complex:
    """f_n through the corank-2 projection recursion, by quadrature.

    The recursion integrates the projection density against the closed
    form of f_(n-1) over the inner spectrum x in (0, a_n)^(n-1).  The two
    Vandermonde factors of x cancel analytically, which leaves
    det[1; (a_c - x_b)_+] det[x_b^(p_l)] under the integral.  By
    Andreief's identity that (n-1)-fold integral is
    (n-1)! det[1; int_0^(a_c) (a_c - x) x^(p_l) dx], whose (n-1) x n entries
    are one vectorized `quad` call.  The quadrature is the independent
    route; the entries are not replaced by their Beta-function values.
    """
    s = _as_param(s)
    a = SingularSpectrum.from_values(a)
    n = s.n
    if n < 2:
        raise DomainError("the recursion starts at n = 2")
    if not s.in_convergence_domain:
        raise DomainError("recursion requires the convergence domain")
    if a.is_degenerate or np.any(a.values <= 0):
        raise DomainError("recursion requires non-degenerate positive a")
    av = a.values
    s_shift = s.s[:-1] - s.s[-1] - n          # parameter of f_(n-1)
    p = s_shift + (n - 1) - 1.0               # alternant exponents, size n-1
    # the Vandermonde of the inner spectrum cancels between the projection
    # density and the closed form of f_(n-1); what survives of it is c_(n-1)
    c_factor = _cn_delta(s_shift) / vandermonde(s_shift)
    moments, _ = quad(lambda x, ac, pl: (ac - x) * x ** pl,
                      0.0, av[None, :], av[None, :], p[:, None])
    integral = factorial(n - 1) * det(np.vstack([np.ones(n), moments]))
    pref = float(factorial(2 * n - 2)) / float(factorial(n - 1))
    det_a = float(np.prod(av))
    vand = vandermonde(av * av)
    norm = pref * det_a ** complex(s.s[-1] + n - 1) * c_factor / vand
    return complex(norm * integral)


# Harish-Chandra integral over O(2n)

def _cosh_rows(x):
    """taylor and dd1 of `confluent_alternant` for the rows
    f_i(u) = cosh(x_i sqrt(u)) on u >= 0."""
    x = np.asarray(x)[:, None]

    def taylor(u, m):
        r = np.sqrt(u)[..., None, :]
        if m == 0:
            return np.cosh(x * r)
        # represent d^m/du^m as a combination of terms (h, k): cosh (h = 0)
        # or sinh (h = 1) of x r times r^(-k), with the differentiation
        # rule d/du = (1/(2r)) d/dr
        terms = derivative_terms(lambda h, k: (((1 - h, k + 1), x / 2.0),
                                               ((h, k + 2), -k / 2.0)),
                                 (0, 0), m)
        cs = (np.cosh(x * r), np.sinh(x * r))
        out = 0.0
        for (h, k), c in terms.items():
            out = out + c * cs[h] * r ** (-k)
        return np.where(r == 0.0, x ** (2 * m) / float(factorial(2 * m)),
                        out / float(factorial(m)))

    def dd1(u, v):
        r1, r2 = np.sqrt(u)[..., None, :], np.sqrt(v)[..., None, :]
        d = (v - u)[..., None, :]
        return 2.0 * np.sinh(x * (r1 + r2) / 2.0) \
            * np.sinh(x * d / (2.0 * (r1 + r2))) / d

    return taylor, dd1


def harish_chandra_o2n(x, y) -> float:
    """Closed form of the Haar average of exp(Tr X k Y k^T / 2) over O(2n).

    x and y are the singular spectra of the two antisymmetric matrices.
    Coinciding entries in one of the spectra are handled by the confluent
    path; an all-zero spectrum returns 1 exactly.
    """
    x = SingularSpectrum.from_values(x)
    y = SingularSpectrum.from_values(y)
    n = x.n
    if y.n != n:
        raise DomainError("spectra must have equal length")
    if np.all(x.values == 0.0) or np.all(y.values == 0.0):
        return 1.0
    pref = np.prod([float(factorial(2 * k)) for k in range(n)])
    same_x, same_y = coincident(x.values), coincident(y.values)
    if same_x.any():
        if same_y.any():
            raise DomainError("simultaneous degeneracy in x and y unsupported")
        x, y, same_y = y, x, same_x
    # divided differences across u = y^2; rows are cosh(x_i sqrt(u))
    alt = confluent_alternant(y.values * y.values, same_y,
                              *_cosh_rows(x.values))
    return float(pref * alt / vandermonde(x.values * x.values))


def harish_chandra_o2n_mc(x, y, nsamples: int, rng):
    """Monte Carlo counterpart: Haar average of exp(Tr X k Y k^T / 2)."""
    x = SingularSpectrum.from_values(x)
    y = SingularSpectrum.from_values(y)
    X = build_canonical(x).entries
    Y = build_canonical(y).entries

    def block(k):
        return np.exp(np.einsum("ij,sji->s", X, sandwich(k, Y)) / 2.0)[None]

    haar = partial(haar_orthogonal_batch, X.shape[0])
    mean, cov, N = _haar_moments((haar,), nsamples, rng, block)
    return float(mean[0]), float(np.sqrt(max(cov[0, 0], 0.0) / N))


def spherical_transform_poly(spec, s) -> complex:
    """Transform of a polynomial ensemble: alternant of Mellin values.

    S_Phi(s) = n! (prod 2^j j!) C_n[w] det[M w_c(s_b - n + 1)] / Delta_n(s).
    """
    s = _as_param(s)
    n = s.n
    if spec.n != n:
        raise DomainError("parameter length does not match ensemble size")
    M = mellin_table(spec.weights, s.s - n + 1.0)
    pref = float(special.gamma(n + 1)) * np.exp(_log_prefactor(n))
    return pref * spec.norm_constant * complex(det(M)) / vandermonde(s.s)


def spherical_transform_factor(factor, s) -> complex:
    """Transform of a factorizing ensemble:
    S_Psi(s) = prod_j M A(s_j - n + 1) / M A(2j - 1).

    Against a sampled factor g of weight A the parameter is shifted: with
    s' = s - (2n - 1) and the minor exponents e_j of s',
    E_g prod_j det((g g^T)[:2j, :2j])^(e_j) = S_Psi(s), and a product of
    factors A_i on the base a~ with sampled spectrum a has
    E Phi(s'; a) = prod_i S_Psi[A_i](s) Phi(s'; a~).
    """
    s = _as_param(s)
    n = s.n
    m = mellin_table((factor,), np.r_[s.s - n + 1.0, 2.0 * np.arange(n) + 1.0])
    return complex(np.prod(m[:n, 0] / m[n:, 0]))
