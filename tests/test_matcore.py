"""Matrix arithmetic, class predicates, and the eigendecomposition contract."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_cycle, random_hermitian, random_projector, random_subset
from traceprob import (
    NotHermitianError,
    ValidationError,
    as_matrix,
    classical_density,
    diag_projector,
    dwell_fractions,
    hermitian_eig,
    is_density,
    is_hermitian,
    is_projector,
    matrix_from_rows,
    matrix_to_rows,
    max_abs,
    random_orthogonal,
    random_unitary,
    trace,
)
from traceprob import matcore
from traceprob.matcore import hermiticity_defect, idempotency_defect, min_eigenvalue


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValidationError):
        as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValidationError):
        as_matrix([1.0, 2.0])


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValidationError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        as_matrix([[1.0, np.inf], [0.0, 1.0]])


def test_trace_identity():
    for n in (1, 3, 6):
        assert trace(np.eye(n)) == complex(n)


def test_trace_sums_diagonal():
    assert trace(np.diag([0.5, 0.3, 0.2])) == 1.0 + 0.0j


def test_trace_cyclicity():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert abs(trace(a @ b) - trace(b @ a)) <= 1e-12


def test_hermitian_eig_diagonal_sorted():
    dec = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)


def test_hermitian_eig_pauli_x():
    dec = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(15)
    a = random_hermitian(rng, 6)
    dec = hermitian_eig(a)
    rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert max_abs(rebuilt - a) <= 1e-9


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_hermitian_eig_phase_convention():
    # The first largest-magnitude component of each eigenvector is real >= 0.
    rng = np.random.default_rng(16)
    for n in range(2, 9):
        dec = hermitian_eig(random_hermitian(rng, n))
        for k in range(n):
            v = dec.eigenvectors[:, k]
            pivot = v[np.argmax(np.abs(v))]
            assert abs(pivot.imag) <= 1e-12
            assert pivot.real >= -1e-12


def test_hermitian_eig_vectors_unitary_sweep():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        for _ in range(100):
            a = random_hermitian(rng, n)
            dec = hermitian_eig(a)
            v = dec.eigenvectors
            assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-9
            rebuilt = v @ np.diag(dec.eigenvalues) @ v.conj().T
            assert max_abs(rebuilt - a) <= 1e-9


def test_eigendecomposition_is_read_only():
    dec = hermitian_eig(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 9.0
    with pytest.raises(ValueError):
        dec.eigenvectors[0, 0] = 9.0


@pytest.mark.parametrize(
    "mat,expected",
    [
        (np.eye(2), True),
        (np.array([[0.0, 1j], [1j, 0.0]]), False),
        (np.array([[1.0, 1.0 + 1j], [1.0 - 1j, 2.0]]), True),
    ],
)
def test_is_hermitian_examples(mat, expected):
    assert is_hermitian(mat) is expected


@pytest.mark.parametrize(
    "mat,expected",
    [
        (np.diag([1.0, 0.0, 1.0]), True),
        (np.full((2, 2), 0.5), True),
        (np.array([[0.5, 0.5], [0.0, 0.0]]), False),
    ],
)
def test_is_projector_examples(mat, expected):
    assert is_projector(mat) is expected


@pytest.mark.parametrize(
    "mat,expected",
    [
        (np.diag([0.5, 0.5]), True),
        (np.diag([1.5, -0.5]), False),
        (np.full((2, 2), 0.5), True),
    ],
)
def test_is_density_examples(mat, expected):
    assert is_density(mat) is expected


# Threshold table: each check just inside and just outside its bound, on a
# matrix with |a|_max >> 1 wherever the check allows one, so a relative bound
# tol * max(1, |a|_max) and an absolute bound tol give different verdicts.
# Hermiticity and idempotency are relative; the density trace check
# |tr - 1| <= tol and the eigenvalue check >= -tol are absolute. The large
# tolerances make room for |a|_max >> 1 on matrices that are still within
# reach of a unit-trace positive operator or of a Hermitian idempotent.
THRESHOLDS = [
    # Hermiticity, relative: bound 1e-10 * 100 = 1e-8; defect 5e-9 / 2e-8.
    ("herm-in", is_hermitian, [[100.0, 5e-9], [0.0, 1.0]], 1e-10, True),
    ("herm-out", is_hermitian, [[100.0, 2e-8], [0.0, 1.0]], 1e-10, False),
    # Idempotency, relative: diag(l, 0) has defect l^2 - l against 100 * l.
    ("idem-in", is_projector, np.diag([100.9, 0.0]), 100.0, True),
    ("idem-out", is_projector, np.diag([101.1, 0.0]), 100.0, False),
    ("idem-in-unit", is_projector, np.diag([1.0 + 5e-11, 0.0]), 1e-10, True),
    ("idem-out-unit", is_projector, np.diag([1.0 + 2e-10, 0.0]), 1e-10, False),
    # Hermiticity inside is_projector, at scale 1.
    ("proj-herm-in", is_projector, [[1.0, 5e-11], [0.0, 0.0]], 1e-10, True),
    ("proj-herm-out", is_projector, [[1.0, 2e-10], [0.0, 0.0]], 1e-10, False),
    # Trace, absolute: |tr - 1| = 9.5 / 10.5 against tol 10 (relative: 200).
    ("trace-in", is_density, np.diag([20.0, -9.5]), 10.0, True),
    ("trace-out", is_density, np.diag([20.0, -8.5]), 10.0, False),
    ("trace-in-unit", is_density, np.diag([0.5 + 5e-11, 0.5]), 1e-10, True),
    ("trace-out-unit", is_density, np.diag([0.5 + 2e-10, 0.5]), 1e-10, False),
    # Minimum eigenvalue, absolute: -9.5 / -10.5 against -10 (relative: -205).
    ("eig-in", is_density, np.diag([19.5, -9.5]), 10.0, True),
    ("eig-out", is_density, np.diag([20.5, -10.5]), 10.0, False),
    ("eig-in-unit", is_density, np.diag([1.0 + 5e-11, -5e-11]), 1e-10, True),
    ("eig-out-unit", is_density, np.diag([1.0 + 2e-10, -2e-10]), 1e-10, False),
    # Hermiticity inside is_density, relative: defect 12 <= 10 * 12.
    ("density-herm-in", is_density, [[5.5, 12.0], [0.0, 5.0]], 10.0, True),
]


@pytest.mark.parametrize(
    "predicate,mat,tol,expected", [row[1:] for row in THRESHOLDS], ids=[row[0] for row in THRESHOLDS]
)
def test_predicate_thresholds(predicate, mat, tol, expected):
    assert predicate(np.array(mat, dtype=complex), tol) is expected


def test_random_unitary_dim_one():
    u = random_unitary(1, 5)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_random_unitary_deterministic():
    np.testing.assert_array_equal(random_unitary(6, 123), random_unitary(6, 123))
    assert max_abs(random_unitary(6, 123) - random_unitary(6, 124)) > 1e-3


def test_random_unitary_is_unitary():
    for seed in range(10):
        u = random_unitary(8, seed)
        assert max_abs(u.conj().T @ u - np.eye(8)) <= 1e-9


def test_conjugation_preserves_projectors():
    rng = np.random.default_rng(18)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        p = random_projector(rng, n)
        u = random_unitary(n, 1000 + trial)
        assert is_projector(u @ p.mat @ u.conj().T)


def test_random_orthogonal_is_real_and_orthogonal():
    for seed in range(5):
        q = random_orthogonal(7, seed)
        assert max_abs(q.imag) == 0.0
        assert max_abs(q.conj().T @ q - np.eye(7)) <= 1e-9
    np.testing.assert_array_equal(random_orthogonal(4, 9), random_orthogonal(4, 9))


def test_matrix_rows_round_trip_exact():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    np.testing.assert_array_equal(matrix_from_rows(matrix_to_rows(a)), a)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[1.0, 0.0]],
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
        [[[1.0, 0.0, 0.0]]],
        [[[True, False]]],
        [[["1", "0"]]],
        "nope",
        [[[10**400, 0]]],  # integer beyond the float range
        [[(1.0, 0.0)]],  # tuple entry
        [[[1.0, 0.0], [True, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],  # one bool among valid entries
    ],
)
def test_matrix_from_rows_rejects_malformed(rows):
    with pytest.raises(ValidationError):
        matrix_from_rows(rows)


def test_matrix_from_rows_accepts_numpy_floats_exactly():
    rows = [[[np.float64(0.1), np.float64(-0.0)], [2**53 + 1, 0]], [[0, 0], [1, -2.5]]]
    mat = matrix_from_rows(rows)
    np.testing.assert_array_equal(mat, [[0.1, 2.0**53], [0.0, 1.0 - 2.5j]])
    assert np.signbit(mat[0, 0].imag)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[[1, 0], [1, 0]], [[1, 0], [1, 0, 0]]], "matrix entry (1,1) must be"),
        ([[[1, 0], [1, 0]], [[1, 0], [False, 0]]], "matrix entry (1,1) must be"),
        ([[[1, 0], [1, 0]], [[1, 0], [1, 10**400]]], "matrix entry (1,1) is beyond the float range"),
        ([[[1, 0], [1, 0]], [[1, 0]]], "matrix row 1 must be an array of 2 entries"),
    ],
)
def test_matrix_from_rows_names_first_bad_entry(rows, message):
    with pytest.raises(ValidationError) as exc:
        matrix_from_rows(rows)
    assert str(exc.value).startswith(message)


# --- the diagonal fast path ---

DIAGONALS = {
    "real": lambda rng, n: np.diag(rng.standard_normal(n)).astype(complex),
    "char-vector-projector": lambda rng, n: diag_projector(random_subset(rng, n)),
    "classical-density": lambda rng, n: classical_density(dwell_fractions(random_cycle(rng, n))),
}


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _dense_hermiticity_defect(m: np.ndarray) -> float:
    return max_abs(m - m.conj().T)


def _dense_idempotency_defect(m: np.ndarray) -> float:
    return max_abs(m @ m - m)


def _dense_min_eigenvalue(m: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh(m)))


@pytest.mark.parametrize("n", [1, 2, 64, 256, 1024])
@pytest.mark.parametrize("kind", DIAGONALS)
def test_diagonal_fast_path_is_bit_identical_to_the_dense_path(kind, n):
    m = DIAGONALS[kind](np.random.default_rng([n, len(kind)]), n)
    assert matcore._real_diagonal(m) is not None
    assert _bits(hermiticity_defect(m)) == _bits(_dense_hermiticity_defect(m))
    assert _bits(idempotency_defect(m)) == _bits(_dense_idempotency_defect(m))
    assert _bits(min_eigenvalue(m)) == _bits(_dense_min_eigenvalue(m))


def _with_entry(m: np.ndarray, i: int, j: int, value: complex) -> np.ndarray:
    out = m.copy()
    out[i, j] = value
    return out


REAL_DIAGONAL = np.diag(np.random.default_rng(11).standard_normal(16)).astype(complex)
DENSE_PATH = {
    "complex-diagonal": np.diag(np.random.default_rng(12).standard_normal(16) * np.exp(0.3j)),
    "tiny-imaginary-diagonal-entry": _with_entry(REAL_DIAGONAL, 5, 5, REAL_DIAGONAL[5, 5] + 5e-324j),
    "tiny-off-diagonal-entry": _with_entry(REAL_DIAGONAL, 0, 15, 5e-324),
    "tiny-imaginary-off-diagonal-entry": _with_entry(REAL_DIAGONAL, 3, 2, 5e-324j),
    "complex-1x1": np.array([[0.5 + 0.5j]]),
}


@pytest.mark.parametrize("m", DENSE_PATH.values(), ids=DENSE_PATH.keys())
def test_complex_or_off_diagonal_entries_take_the_dense_path(monkeypatch, m):
    assert matcore._real_diagonal(m) is None
    assert _bits(hermiticity_defect(m)) == _bits(_dense_hermiticity_defect(m))
    assert _bits(idempotency_defect(m)) == _bits(_dense_idempotency_defect(m))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    assert _bits(min_eigenvalue(m)) == _bits(float(np.min(eigvalsh(m))))
    assert len(calls) == 1


def test_real_diagonals_skip_the_eigensolver(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert min_eigenvalue(REAL_DIAGONAL) == float(np.min(REAL_DIAGONAL.real))
    assert is_density(classical_density(dwell_fractions(random_cycle(np.random.default_rng(13), 32))))


@pytest.mark.parametrize(
    "m",
    [
        np.array([[1.5e154, 0.0], [0.0, 1.0]], dtype=complex),  # real diagonal: the square overflows
        np.array([[1.0, 1.5e154], [1.5e154, 1.0]], dtype=complex),  # dense: the product overflows
        np.array([[1.0, 1.7e308], [-1.7e308, 1.0]], dtype=complex),  # a - a^dagger overflows
    ],
    ids=["diagonal-square", "dense-product", "adjoint-difference"],
)
def test_overflowing_defects_refuse_without_a_warning(m):
    # The suite turns warnings into errors, so a RuntimeWarning would fail here.
    assert not is_projector(m)
    assert not is_density(m)
