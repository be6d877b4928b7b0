import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from antiprod.linalg import (AntisymmetricMatrix, DomainError,
                             SingularSpectrum, _haar_columns, build_canonical,
                             haar_orthogonal_batch, singular_spectrum,
                             spectra_batch, vandermonde)


def test_vandermonde_examples():
    assert vandermonde(np.array([4.0])) == 1.0
    assert vandermonde(np.array([1.0, 9.0])) == 8.0
    assert vandermonde(np.array([1.0, 4.0, 16.0])) == 540.0
    assert vandermonde(np.array([[1.0, 9.0], [9.0, 1.0]])).tolist() \
        == [8.0, -8.0]


def test_vandermonde_degenerate_is_zero():
    assert vandermonde(np.array([1.0, 1.0])) == 0.0


def test_spectrum_validation():
    with pytest.raises(DomainError):
        SingularSpectrum(np.array([2.0, 1.0]))
    with pytest.raises(DomainError):
        SingularSpectrum(np.array([-1.0, 1.0]))
    s = SingularSpectrum.from_values([2.0, 1.0])
    assert s.values.tolist() == [1.0, 2.0]
    assert not s.is_degenerate
    assert SingularSpectrum.from_values([1.0, 1.0 + 1e-12]).is_degenerate


def test_antisymmetric_validation():
    m = np.array([[0.0, 1.0], [-1.0, 1e-17]])
    with pytest.raises(DomainError):
        AntisymmetricMatrix(m)
    x = AntisymmetricMatrix.from_raw(m)
    assert np.array_equal(x.entries, -x.entries.T)
    with pytest.raises(DomainError):
        AntisymmetricMatrix(np.zeros((3, 3)))


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                max_size=4))
@settings(max_examples=50, deadline=None)
def test_canonical_roundtrip(values):
    a = SingularSpectrum.from_values(values)
    x = build_canonical(a)
    back = singular_spectrum(x)
    assert np.allclose(back.values, a.values, atol=1e-12)


def test_spectrum_invariant_under_conjugation():
    rng = np.random.default_rng(5)
    a = SingularSpectrum.from_values([0.5, 1.5, 2.5])
    x = build_canonical(a)
    k = haar_orthogonal_batch(6, 1, rng)[0]
    y = AntisymmetricMatrix.from_raw(k @ x.entries @ k.T)
    assert np.allclose(singular_spectrum(y).values, a.values, atol=1e-10)


@pytest.mark.parametrize("values", [(1e-5, 1.0), (0.0, 1.0), (1e-4, 1e4)])
def test_rotated_spectrum_with_a_tiny_entry_pairs(values):
    # eigvalsh is accurate to a multiple of eps times the largest eigenvalue
    # of x^T x, so the pair of a tiny entry may split by far more than the
    # entry itself: the pairing check must be relative to the largest
    a = SingularSpectrum.from_values(values)
    x = build_canonical(a).entries
    for k in haar_orthogonal_batch(4, 50, np.random.default_rng(21)):
        back = singular_spectrum(AntisymmetricMatrix.from_raw(k @ x @ k.T))
        assert np.max(np.abs(back.values - a.values)) < 1e-7 * a.values[-1]


def test_spectra_batch_matches_scalar():
    rng = np.random.default_rng(9)
    a = SingularSpectrum.from_values([1.0, 2.0])
    x = build_canonical(a).entries
    k = haar_orthogonal_batch(4, 16, rng)
    y = k @ x @ np.swapaxes(k, 1, 2)
    y = (y - np.swapaxes(y, 1, 2)) / 2.0
    batch = spectra_batch(y)
    for i in range(16):
        single = singular_spectrum(AntisymmetricMatrix(y[i]))
        assert np.allclose(batch[i], single.values, atol=1e-10)


def test_haar_batch_hits_both_components():
    rng = np.random.default_rng(3)
    q = haar_orthogonal_batch(4, 400, rng)
    dets = np.linalg.det(q)
    assert np.all(np.abs(np.abs(dets) - 1.0) < 1e-10)
    frac = np.mean(dets > 0)
    assert 0.4 < frac < 0.6
    gram_err = np.max(np.abs(
        np.einsum("sji,sjk->sik", q, q) - np.eye(4)[None]))
    assert gram_err < 1e-12


def test_haar_first_moment_is_zero():
    rng = np.random.default_rng(11)
    q = haar_orthogonal_batch(2, 20_000, rng)
    assert np.max(np.abs(q.mean(axis=0))) < 4.0 / np.sqrt(2 * 20_000)


@pytest.mark.parametrize("m, k", [(2, 1), (5, 2), (9, 4), (41, 4), (41, 41)])
def test_haar_columns_are_orthonormal(m, k):
    q = _haar_columns(m, k, 50, np.random.default_rng(12))
    assert q.shape == (50, m, k)
    gram = np.einsum("sji,sjk->sik", q, q)
    assert np.max(np.abs(gram - np.eye(k)[None])) < 1e-12


@pytest.mark.parametrize("m", [2, 4, 41])
def test_haar_batch_stream_is_unchanged(m):
    # the recipe every Haar Monte Carlo estimate has been drawn with:
    # Gaussian, QR, R-diagonal signs fixed positive, column-0 flip
    for seed in (0, 13):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((30, m, m))
        q, r = np.linalg.qr(g)
        d = np.sign(np.einsum("sii->si", r))
        d[d == 0.0] = 1.0
        q = q * d[:, None, :]
        flip = rng.integers(0, 2, size=30) * 2 - 1
        q[:, :, 0] *= flip[:, None]
        got = haar_orthogonal_batch(m, 30, np.random.default_rng(seed))
        assert np.array_equal(got, q)
