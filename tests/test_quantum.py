"""Trace-rule probabilities, unitary invariance, and the projector meet."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import (
    Y_ROTATION,
    random_basis,
    random_density,
    random_density_matrix,
    random_hamiltonian,
    random_hermitian,
    random_partition,
    random_pov_matrix,
    random_projector,
    random_projector_matrix,
    random_subset,
    tilted_state,
)
from traceprob import (
    DensityMatrix,
    DimensionMismatchError,
    FractionVector,
    Hamiltonian,
    NonCommutingError,
    NonFiniteError,
    NotHermitianError,
    NotRealError,
    NotUnitaryError,
    NumericalIntegrityError,
    PerceptionAlgebra,
    PovOperator,
    Projector,
    RealityMode,
    ValidationError,
    check_invariance,
    classical_density,
    classical_prob,
    commutes,
    dephase,
    diag_projector,
    max_abs,
    projector_meet,
    trace,
    trace_prob,
    union_operator,
    unitary_conjugate,
)
from traceprob.matcore import DEFAULT_TOL, relative_bound
from traceprob.quantum import _reality, bounded

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
PLUS_STATE = np.full((2, 2), 0.5)  # projector onto (1,1)/sqrt(2), also a pure density


# --- construction ---


def test_projector_rejects_non_projector():
    with pytest.raises(ValidationError):
        Projector(np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        Projector(np.diag([2.0, 0.0]))


def test_density_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.6, 0.6]))  # trace 1.2


def test_instances_are_immutable():
    p = Projector(np.diag([1.0, 0.0]))
    rho = DensityMatrix(PLUS_STATE)
    with pytest.raises(AttributeError):
        p.mat = np.eye(2)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.9


COMPLEX, REAL = RealityMode.COMPLEX, RealityMode.REAL
NOT_PROJECTOR = "matrix is not a projector (Hermitian idempotent) within tolerance"
NOT_DENSITY = "matrix is not a density matrix (PSD Hermitian, unit trace) within tolerance"
POV_NOT_HERMITIAN = "POV operator must be Hermitian within tolerance"
POV_NOT_PSD = "POV operator must be positive semidefinite (eigenvalues >= -tol)"
IMAGINARY_2E12 = "imaginary part 2.000e-12 exceeds 1e-12 in REAL mode"

# Constructor thresholds: (class, matrix, mode, tol) -> None when accepted,
# else (error type, exact message). Hermiticity and idempotency are relative
# to max(1, |a|_max); the trace, eigenvalue and REAL-mode checks are absolute.
# The rows sit just inside and just outside each bound, on matrices with
# |a|_max >> 1, so a relative and an absolute check disagree on them.
CONSTRUCTION = [
    ("proj-idem-in", Projector, np.diag([100.9, 0.0]), COMPLEX, 100.0, None),
    ("proj-idem-out", Projector, np.diag([101.1, 0.0]), COMPLEX, 100.0, (ValidationError, NOT_PROJECTOR)),
    ("proj-herm-in", Projector, [[1.0, 5e-11], [0.0, 0.0]], COMPLEX, 1e-10, None),
    ("proj-herm-out", Projector, [[1.0, 2e-10], [0.0, 0.0]], COMPLEX, 1e-10, (ValidationError, NOT_PROJECTOR)),
    ("proj-real-out", Projector, [[1.0, 2e-12j], [-2e-12j, 0.0]], REAL, 1e-10, (NotRealError, IMAGINARY_2E12)),
    ("rho-trace-in", DensityMatrix, np.diag([20.0, -9.5]), COMPLEX, 10.0, None),
    ("rho-trace-out", DensityMatrix, np.diag([20.0, -8.5]), COMPLEX, 10.0, (ValidationError, NOT_DENSITY)),
    ("rho-eig-in", DensityMatrix, np.diag([19.5, -9.5]), COMPLEX, 10.0, None),
    ("rho-eig-out", DensityMatrix, np.diag([20.5, -10.5]), COMPLEX, 10.0, (ValidationError, NOT_DENSITY)),
    ("rho-real-in", DensityMatrix, [[0.5, 0.5 + 5e-13j], [0.5 - 5e-13j, 0.5]], REAL, 1e-10, None),
    ("rho-real-out", DensityMatrix, [[0.5, 0.5 + 2e-12j], [0.5 - 2e-12j, 0.5]], REAL, 1e-10, (NotRealError, IMAGINARY_2E12)),
    ("pov-herm-in", PovOperator, [[100.0, 5e-9], [0.0, 1.0]], COMPLEX, 1e-10, None),
    ("pov-herm-out", PovOperator, [[100.0, 2e-8], [0.0, 1.0]], COMPLEX, 1e-10, (ValidationError, POV_NOT_HERMITIAN)),
    ("pov-eig-in", PovOperator, np.diag([100.0, -5e-11]), COMPLEX, 1e-10, None),
    ("pov-eig-out", PovOperator, np.diag([100.0, -5e-9]), COMPLEX, 1e-10, (ValidationError, POV_NOT_PSD)),
    ("ham-herm-in", Hamiltonian, [[100.0, 5e-9], [0.0, 1.0]], COMPLEX, 1e-10, None),
    (
        "ham-herm-out",
        Hamiltonian,
        [[100.0, 2e-8], [0.0, 1.0]],
        COMPLEX,
        1e-10,
        (NotHermitianError, "Hermiticity defect 2.000e-08 exceeds tolerance"),
    ),
    ("ham-real-in", Hamiltonian, [[100.0, 5e-13j], [-5e-13j, 1.0]], REAL, 1e-10, None),
    ("ham-real-out", Hamiltonian, [[100.0, 2e-12j], [-2e-12j, 1.0]], REAL, 1e-10, (NotRealError, IMAGINARY_2E12)),
]


@pytest.mark.parametrize(
    "cls,mat,mode,tol,expected", [row[1:] for row in CONSTRUCTION], ids=[row[0] for row in CONSTRUCTION]
)
def test_construction_thresholds(cls, mat, mode, tol, expected):
    mat = np.array(mat, dtype=complex)
    if expected is None:
        assert cls(mat, mode=mode, tol=tol).dim == 2
        return
    error, message = expected
    with pytest.raises(error) as info:
        cls(mat, mode=mode, tol=tol)
    assert type(info.value) is error
    assert str(info.value) == message


# Each perturbation takes a valid matrix and its tolerance, and returns the
# matrix moved to f times the bound, as a function of f; the work that does
# not depend on f (an eigendecomposition at most) is done once.
def _break_hermiticity(m, tol):
    """Add f times the Hermiticity bound to one off-diagonal entry."""
    corner = np.zeros_like(m)
    corner[0, -1] = relative_bound(m, tol)
    return lambda f: m + f * corner


def _break_idempotency(m, tol):
    """Scale a projector by 1 + e so that |P^2 - P|_max = e (1 + e) |P|_max is f times tol."""
    return lambda f: m * (1.0 + f * tol / max_abs(m))


def _break_trace(m, tol):
    return lambda f: m + (f * tol / m.shape[0]) * np.eye(m.shape[0])


def _break_positivity(m, tol):
    """Move the lowest eigenvalue to -f tol, the difference onto the highest, so the trace holds."""
    values, vectors = np.linalg.eigh(m)
    low, high = vectors[:, :1], vectors[:, -1:]
    move = high @ high.conj().T - low @ low.conj().T
    return lambda f: m + (values[0] + f * tol) * move


def _rank_deficient_density(rng, n):
    values = np.concatenate(([0.0], rng.uniform(0.5, 1.5, n - 1)))
    v = random_basis(rng, n)
    return (v * (values / values.sum())) @ v.conj().T


# Each bound at dimensions past the small ones of the table above: random
# valid inputs are admitted, and the same inputs moved to half the bound stay
# admitted while those moved to twice the bound are refused with the same
# error as at n = 2. Rounding at these n stays far below the 1e-10 default.
LARGE_N_BOUNDS = [
    ("proj-herm", Projector, lambda rng, n: random_projector_matrix(rng, n, n // 3), _break_hermiticity, (ValidationError, NOT_PROJECTOR)),
    ("proj-idem", Projector, lambda rng, n: random_projector_matrix(rng, n, n // 3), _break_idempotency, (ValidationError, NOT_PROJECTOR)),
    ("rho-herm", DensityMatrix, random_density_matrix, _break_hermiticity, (ValidationError, NOT_DENSITY)),
    ("rho-trace", DensityMatrix, random_density_matrix, _break_trace, (ValidationError, NOT_DENSITY)),
    ("rho-eig", DensityMatrix, _rank_deficient_density, _break_positivity, (ValidationError, NOT_DENSITY)),
    ("pov-herm", PovOperator, random_pov_matrix, _break_hermiticity, (ValidationError, POV_NOT_HERMITIAN)),
    ("pov-eig", PovOperator, random_pov_matrix, _break_positivity, (ValidationError, POV_NOT_PSD)),
    ("ham-herm", Hamiltonian, random_hermitian, _break_hermiticity, (NotHermitianError, "Hermiticity defect")),
]


# Every bound at n = 128 and 256; the idempotency and eigenvalue bounds, whose
# defects come from an O(n^3) product and eigvalsh, at n = 1024 as well.
LARGE_N_CASES = [(row, n) for row in LARGE_N_BOUNDS for n in (128, 256)] + [
    (row, 1024) for row in LARGE_N_BOUNDS if row[0] in ("proj-idem", "rho-eig")
]


@pytest.mark.parametrize(
    "cls,build,perturb,expected,n",
    [(*row[1:], n) for row, n in LARGE_N_CASES],
    ids=[f"{row[0]}-{n}" for row, n in LARGE_N_CASES],
)
def test_tolerance_contracts_at_large_n(n, cls, build, perturb, expected):
    rng = np.random.default_rng(n)
    tol = DEFAULT_TOL
    m = build(rng, n)
    assert cls(m).dim == n
    moved = perturb(m, tol)
    assert cls(moved(0.5)).dim == n
    error, message = expected
    with pytest.raises(error) as info:
        cls(moved(2.0))
    assert type(info.value) is error
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "cls,mat",
    [
        (Projector, np.diag([1.0, 0.0, 1.0])),
        (DensityMatrix, np.diag([0.5, 0.25, 0.25])),
        (PovOperator, np.diag([2.0, 0.0, 0.5])),
        (Hamiltonian, np.diag([0.0, 1.0, 3.0])),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "",
)
def test_operator_classes_are_sealed(cls, mat):
    op = cls(mat)
    assert op.dim == 3
    assert repr(op) == f"{cls.__name__}(dim=3)"
    for name in ("mat", "dim", "other"):
        with pytest.raises(AttributeError) as info:
            setattr(op, name, np.eye(3))
        assert str(info.value) == f"{cls.__name__} is immutable"
        with pytest.raises(AttributeError) as info:
            delattr(op, name)
        assert str(info.value) == f"{cls.__name__} is immutable"
    assert not op.mat.flags.writeable
    with pytest.raises(ValueError):
        op.mat[0, 0] = 9.0
    assert mat.flags.writeable  # the caller's array is copied, not frozen
    mat[0, 0] = 7.0
    assert op.mat[0, 0] != 7.0


def test_real_mode_construction():
    Projector(np.diag([1.0, 0.0]), mode=RealityMode.REAL)
    DensityMatrix(np.diag([0.5, 0.5]), mode=RealityMode.REAL)
    complex_projector = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
    with pytest.raises(NotRealError):
        Projector(complex_projector, mode=RealityMode.REAL)
    with pytest.raises(NotRealError):
        DensityMatrix(complex_projector, mode=RealityMode.REAL)


# The mode rule every operator class admits its input through.
def test_enforce_reality_examples():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(_reality(RealityMode.REAL, a, "K"), a.astype(complex))
    with pytest.raises(NotRealError):
        _reality(RealityMode.REAL, np.array([[0.0, 1j], [-1j, 0.0]]), "K")
    b = np.array([[0.0, 1j], [-1j, 0.0]])
    np.testing.assert_array_equal(_reality(RealityMode.COMPLEX, b, "K"), b)


# A projector, a density matrix, a POV operator and a Hamiltonian alike, with imaginary parts.
COMPLEX_PLUS = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
MODE_GATES = {
    "Projector": lambda mode: Projector(COMPLEX_PLUS, mode=mode),
    "DensityMatrix": lambda mode: DensityMatrix(COMPLEX_PLUS, mode=mode),
    "PovOperator": lambda mode: PovOperator(COMPLEX_PLUS, mode=mode),
    "Hamiltonian": lambda mode: Hamiltonian(COMPLEX_PLUS, mode=mode),
    "enforce_reality": lambda mode: _reality(mode, COMPLEX_PLUS, "K"),  # the rule the four share, by its old name
}


@pytest.mark.parametrize("gate", MODE_GATES.values(), ids=MODE_GATES.keys())
@pytest.mark.parametrize(
    "mode, refusal",
    [
        ("real", NotRealError),
        ("complex", None),
        (5, 'mode must be a RealityMode, "complex" or "real", got 5'),
        (None, 'mode must be a RealityMode, "complex" or "real", got None'),
    ],
    ids=["real", "complex", "int", "none"],
)
def test_a_mode_is_read_as_a_reality_mode_or_refused(gate, mode, refusal):
    if refusal is None:
        gate(mode)
    elif refusal is NotRealError:
        with pytest.raises(NotRealError):
            gate(mode)
    else:
        with pytest.raises(ValidationError) as info:
            gate(mode)
        assert str(info.value) == refusal


# --- trace rule ---


def test_trace_prob_identity_is_one():
    rng = np.random.default_rng(31)
    for n in (2, 4, 6):
        rho = random_density(rng, n)
        assert trace_prob(Projector(np.eye(n)), rho) == 1.0


def test_trace_prob_symmetric_pure_state():
    assert trace_prob(Projector(np.diag([1.0, 0.0])), DensityMatrix(PLUS_STATE)) == 0.5


def test_trace_prob_matches_spectral_expansion():
    rng = np.random.default_rng(32)
    from traceprob import hermitian_eig

    for _ in range(20):
        p = random_projector(rng, 6)
        rho = random_density(rng, 6)
        values, vectors = hermitian_eig(rho.mat)
        expected = 0.0
        for k in range(6):
            v = vectors[:, k]
            expected += values[k] * (v.conj() @ p.mat @ v).real
        assert abs(trace_prob(p, rho) - expected) <= 1e-10


def test_trace_prob_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        trace_prob(Projector(np.eye(3)), DensityMatrix(PLUS_STATE))


def test_trace_prob_bounds_sweep():
    rng = np.random.default_rng(33)
    for n in range(2, 9):
        for _ in range(25):
            value = trace_prob(random_projector(rng, n), random_density(rng, n))
            assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("n", [128, 256])
def test_trace_prob_contraction_matches_matrix_product(n):
    rng = np.random.default_rng(n)
    for rank in (1, n // 3, n - 1):
        p = random_projector(rng, n, rank=rank)
        rho = random_density(rng, n)
        assert abs(trace_prob(p, rho) - trace(p.mat @ rho.mat).real) <= 1e-12


def _with_layout(op, mat):
    """A copy of ``op`` holding ``mat`` as is, bypassing the constructor's copy
    (which always yields a contiguous array), so any memory layout can be tested."""
    out = object.__new__(type(op))
    out._seal(mat, op.tol)
    return out


def _strided(mat):
    """A non-contiguous view with the entries of ``mat``."""
    n = mat.shape[0]
    host = np.zeros((2 * n, 2 * n), dtype=complex)
    host[::2, ::2] = mat
    view = host[::2, ::2]
    assert not view.flags.c_contiguous and not view.flags.f_contiguous
    return view


LAYOUTS = {"c": np.ascontiguousarray, "f": np.asfortranarray, "strided": _strided}


@pytest.mark.parametrize("p_layout", sorted(LAYOUTS))
@pytest.mark.parametrize("rho_layout", sorted(LAYOUTS))
def test_trace_prob_is_correct_for_any_layout(p_layout, rho_layout):
    rng = np.random.default_rng(29)
    for n in (2, 7, 64):
        p = random_projector(rng, n)
        rho = random_density(rng, n)
        p = _with_layout(p, LAYOUTS[p_layout](p.mat))
        rho = _with_layout(rho, LAYOUTS[rho_layout](rho.mat))
        assert abs(trace_prob(p, rho) - np.trace(p.mat @ rho.mat).real) <= 1e-12


def test_density_matrix_storage_gives_a_free_transpose_view():
    rng = np.random.default_rng(31)
    direct = random_density(rng, 16)
    dephased = dephase(direct, random_hamiltonian(rng, 16))
    classical = DensityMatrix(classical_density(FractionVector([0.25, 0.75])))
    for rho in (direct, dephased, classical):
        assert np.shares_memory(rho.mat.T.ravel(), rho.mat)


def test_trace_prob_rejects_value_outside_unit_interval():
    # A loose tolerance admits a "density" with a negative eigenvalue.
    rho = DensityMatrix(np.diag([1.05, -0.05]), tol=0.1)
    with pytest.raises(NumericalIntegrityError, match="outside"):
        trace_prob(Projector(np.diag([1.0, 0.0])), rho)
    with pytest.raises(NumericalIntegrityError, match="outside"):
        trace_prob(Projector(np.diag([0.0, 1.0])), rho)


def test_trace_prob_rejects_imaginary_part():
    # Hermitian only within the loose tolerance, so tr(p rho) = 0.5 - 0.05j.
    rho = DensityMatrix(np.array([[0.5, 0.05], [-0.05, 0.5]]), tol=0.1)
    p = Projector(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
    with pytest.raises(NumericalIntegrityError, match="imaginary"):
        trace_prob(p, rho)


def test_trace_prob_clamps_within_slack():
    rho = DensityMatrix(np.diag([1.0 + 4e-10, -4e-10]), tol=1e-9)
    assert trace_prob(Projector(np.diag([1.0, 0.0])), rho) == 1.0
    assert trace_prob(Projector(np.diag([0.0, 1.0])), rho) == 0.0


@pytest.mark.parametrize(
    "value,slack,upper,expected",
    [
        (0.5, 1e-9, 1.0, 0.5),
        (-1e-10, 1e-9, 1.0, 0.0),
        (1.0 + 1e-10, 1e-9, 1.0, 1.0),
        (1e300, 1e-10, math.inf, 1e300),
        (-2e-9, 1e-9, 1.0, (NumericalIntegrityError, "p -2e-09 outside [0, 1] beyond 1e-09")),
        (1.0 + 2e-9, 1e-9, 1.0, (NumericalIntegrityError, "p 1.000000002 outside [0, 1] beyond 1e-09")),
        (-1e-9, 1e-10, math.inf, (NumericalIntegrityError, "p -1e-09 outside [0, inf] beyond 1e-10")),
        (math.inf, 1e-10, math.inf, (NonFiniteError, "p inf is not finite")),
        (math.nan, 1e-9, 1.0, (NonFiniteError, "p nan is not finite")),
    ],
    ids=["inside", "dust-below", "dust-above", "huge", "below", "above", "below-unbounded", "inf", "nan"],
)
def test_bounded_clamps_dust_and_refuses_the_rest(value, slack, upper, expected):
    if not isinstance(expected, tuple):
        assert bounded(value, "p", slack, upper) == expected
        return
    error, message = expected
    with pytest.raises(error) as info:
        bounded(value, "p", slack, upper)
    assert type(info.value) is error
    assert str(info.value) == message


def test_trace_prob_complementarity():
    rng = np.random.default_rng(34)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        p = random_projector(rng, n)
        rho = random_density(rng, n)
        q = Projector(np.eye(n) - p.mat)
        assert abs(trace_prob(q, rho) - (1.0 - trace_prob(p, rho))) <= 1e-10


def test_trace_prob_orthogonal_additivity():
    rng = np.random.default_rng(35)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        p, q, *_ = random_partition(rng, n, 3)
        assert max_abs(p.mat @ q.mat) <= 1e-10
        rho = random_density(rng, n)
        combined = Projector(p.mat + q.mat)
        total = trace_prob(p, rho) + trace_prob(q, rho)
        assert abs(trace_prob(combined, rho) - total) <= 1e-10


def test_trace_prob_reduces_to_classical():
    rng = np.random.default_rng(36)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        s = random_subset(rng, n)
        w = rng.uniform(0.01, 1.0, size=n)
        f = FractionVector(w / w.sum())
        embedded = trace_prob(Projector(diag_projector(s)), DensityMatrix(classical_density(f)))
        assert abs(embedded - classical_prob(s, f)) <= 1e-12


# --- unitary invariance ---


def test_unitary_conjugate_identity():
    a = random_density_matrix(np.random.default_rng(37), 4)
    np.testing.assert_allclose(unitary_conjugate(np.eye(4), a), a, atol=0.0)


def test_unitary_conjugate_hadamard_example():
    result = unitary_conjugate(HADAMARD, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(result, PLUS_STATE, atol=1e-15)


def test_unitary_conjugate_preserves_projectors():
    rng = np.random.default_rng(38)
    from traceprob import is_projector

    for trial in range(100):
        n = int(rng.integers(2, 7))
        p = random_projector(rng, n)
        u = random_basis(rng, n)
        assert is_projector(unitary_conjugate(u, p.mat))


def test_unitary_conjugate_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        unitary_conjugate(np.diag([1.0, 2.0]), np.eye(2))
    with pytest.raises(DimensionMismatchError):
        unitary_conjugate(np.eye(3), np.eye(2))


def test_check_invariance_identity_is_zero():
    rng = np.random.default_rng(39)
    p = random_projector(rng, 4)
    rho = random_density(rng, 4)
    assert check_invariance(p, rho, np.eye(4)) == 0.0


def test_check_invariance_random_sweep():
    rng = np.random.default_rng(40)
    worst = 0.0
    for trial in range(100):
        p = random_projector(rng, 8)
        rho = random_density(rng, 8)
        u = random_basis(rng, 8)
        worst = max(worst, check_invariance(p, rho, u))
    assert worst <= 1e-9


# A projector within tol=1e-6 but not 1e-10: its Hermiticity defect is 1e-8.
P_LOOSE = np.diag([1.0, 0.0]).astype(complex)
P_LOOSE[0, 1] = 1e-8


def test_check_invariance_validates_the_conjugates_at_their_operands_tol():
    p = Projector(P_LOOSE, tol=1e-6)
    assert check_invariance(p, DensityMatrix(np.eye(2) / 2), np.eye(2)) == 0.0
    # The rotation raises rho's defect of 0.85e-6 to 1.2e-6, beyond its tol.
    with pytest.raises(ValidationError, match="not a density matrix"):
        check_invariance(Projector(np.diag([1.0, 0.0])), DensityMatrix(tilted_state(0.6e-6), tol=1e-6), Y_ROTATION)


# --- commutation and the meet ---


def test_commutes_examples():
    assert commutes(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert not commutes(np.diag([1.0, 0.0]), PLUS_STATE)
    a = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert commutes(a, a)


HUGE_PAIR = PerceptionAlgebra.from_matrices([("a", 1e308 * np.eye(2)), ("b", 1e308 * np.eye(2))])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: commutes(np.diag([1e200, 1.0]), np.diag([1e200, 2.0])),
            NonFiniteError,
            "commutator defect nan is not finite",
        ),
        (lambda: commutes(1e200 * np.eye(2), 1e200 * np.eye(2)), NonFiniteError, "commutator defect nan is not finite"),
        (
            lambda: unitary_conjugate(1e308 * np.eye(2), np.eye(2)),
            NotUnitaryError,
            "unitarity defect inf exceeds 1e-09",
        ),
        (
            lambda: unitary_conjugate(HADAMARD, 1e308 * np.ones((2, 2))),
            NonFiniteError,
            "conjugate max-norm inf is not finite",
        ),
        (lambda: union_operator(HUGE_PAIR, {"a", "b"}), ValidationError, "matrix entries must be finite (no NaN/Inf)"),
    ],
    ids=["diagonals", "huge-identity", "unitarity", "conjugate", "union"],
)
def test_overflowing_products_are_typed_refusals_without_a_warning(call, error, message):
    # pytest turns a numpy RuntimeWarning into an error, so a warning before the refusal fails here.
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_commutes_answers_when_only_its_bound_passes_the_float_range():
    # |a|_max * |b|_max = 1e400, yet ab = ba = 0: every finite defect is below such a bound.
    assert commutes(np.diag([1e200, 0.0]), np.diag([0.0, 1e200]))


def test_projector_meet_diagonal_pair():
    p = Projector(np.diag([1.0, 1.0, 0.0]))
    q = Projector(np.diag([0.0, 1.0, 1.0]))
    np.testing.assert_array_equal(projector_meet(p, q).mat, np.diag([0.0, 1.0, 0.0]).astype(complex))


def test_projector_meet_with_identity():
    rng = np.random.default_rng(41)
    p = random_projector(rng, 4)
    np.testing.assert_allclose(projector_meet(p, Projector(np.eye(4))).mat, p.mat, atol=0.0)


def test_projector_meet_validates_the_product_at_the_looser_tol():
    p = Projector(P_LOOSE, tol=1e-6)
    assert projector_meet(p, p).tol == projector_meet(Projector(np.eye(2)), p).tol == 1e-6
    # P P - P = 1e-6 I, so (P P)(P P) - P P is 2e-6 P + 1e-12 I: within 3e-6, not within 1.5e-6.
    tilted = np.array([[1.0, 1e-3], [1e-3, 0.0]])
    with pytest.raises(ValidationError, match="not a projector"):
        projector_meet(Projector(tilted, tol=1.5e-6), Projector(tilted, tol=1.5e-6))
    assert projector_meet(Projector(tilted, tol=1.5e-6), Projector(tilted, tol=3e-6)).tol == 3e-6


def test_projector_meet_refuses_non_commuting():
    p = Projector(np.diag([1.0, 0.0]))
    q = Projector(PLUS_STATE)
    with pytest.raises(NonCommutingError):
        projector_meet(p, q)


def test_non_commuting_product_hermiticity_defect():
    # The raw product of the documented non-commuting pair is not Hermitian;
    # its defect in max-norm is exactly one half.
    product = np.diag([1.0, 0.0]).astype(complex) @ PLUS_STATE
    np.testing.assert_array_equal(product, np.array([[0.5, 0.5], [0.0, 0.0]]))
    assert abs(max_abs(product - product.conj().T) - 0.5) <= 1e-12
