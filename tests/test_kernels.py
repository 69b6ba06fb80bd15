import numpy as np

from hologroup import _kernels


def _random_case(rng, n_terms=6, n_vars=3, n_pts=200):
    exps = rng.integers(0, 4, size=(n_terms, n_vars)).astype(np.int64)
    coeffs = (rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms))
    pts = (rng.normal(size=(n_pts, n_vars)) + 1j * rng.normal(size=(n_pts, n_vars)))
    return exps, coeffs, pts


def test_numpy_backend_matches_naive_sum():
    rng = np.random.default_rng(7)
    exps, coeffs, pts = _random_case(rng)
    got = _kernels.poly_eval(exps, coeffs, pts)
    want = np.zeros(len(pts), dtype=np.complex128)
    for e, c in zip(exps, coeffs):
        want += c * np.prod(pts ** e[None, :], axis=1)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_empty_polynomial_evaluates_to_zero():
    exps = np.zeros((0, 2), dtype=np.int64)
    coeffs = np.zeros(0, dtype=np.complex128)
    pts = np.ones((5, 2), dtype=np.complex128)
    assert np.all(_kernels.poly_eval(exps, coeffs, pts) == 0)
