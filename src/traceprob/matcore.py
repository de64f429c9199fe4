"""Dense complex matrix arithmetic and spectral decomposition.

All matrices are square ``numpy`` arrays of ``complex128``. Class-membership
checks (Hermitian, projector, density) are tolerance based, one measured
defect per check. The Hermiticity and idempotency defects of a matrix ``a``
pass at tolerance ``tol`` when at most ``tol * max(1, |a|_max)``, with
``|.|_max`` the largest entry magnitude; the unit-trace defect ``|tr a - 1|``
and the smallest eigenvalue are held to ``tol`` and ``-tol`` themselves.
A tolerance is a finite real > 0; any other is refused. The default
tolerance is robust for double precision at the dimensions this package
targets, and is tested at n <= 1024.

The Hermiticity and idempotency defects and the smallest eigenvalue have a
fast path for a real diagonal matrix (every off-diagonal entry and every
imaginary part exactly zero), the form of the classical projectors and
densities. It is detected in O(n^2), and the value is computed in O(n) from
the diagonal, bit for bit the value of the dense computation (O(n^3) for the
last two). Complex diagonals take the dense path, whose complex products may
differ from the diagonal's in the last bit.
"""

from __future__ import annotations

import math
import numbers
import operator
import reprlib
from itertools import chain

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NotHermitianError, ValidationError

DEFAULT_TOL = 1e-10
UNITARY_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a fresh square complex matrix with finite entries.

    Raises
    ------
    ValidationError
        If the input is not square 2-D with dim >= 1, has an entry that is not
        a number (text included), or carries NaN/Inf.
    """
    return _admit(a, copy=True)


def _admit(a, copy: bool = False, order: str = "K") -> np.ndarray:
    """``a`` as a square finite complex matrix, the one conversion of outside input: entries must be
    numbers (text is refused, not parsed). With ``copy`` the result never shares memory with ``a``
    and is laid out in numpy's ``order`` ("F": column-major); without, a complex array is returned as it is."""
    try:
        raw = np.asarray(a)
        kind = raw.dtype.kind  # bool, int, uint, float, complex, or object holding Python numbers
        if kind not in "biufcO" or kind == "O" and any(isinstance(x, (str, bytes)) for x in raw.flat):
            raise ValidationError("matrix entries must be numbers")
        mat = raw.astype(complex, order=order, copy=copy and not isinstance(a, (list, tuple)))  # a list's array is new
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"matrix is not an array of numbers: {exc}") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValidationError(f"expected a square matrix with dim >= 1, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    return mat


def same_dim(a_name: str, a_dim: int, b_name: str, b_dim: int) -> None:
    """The precondition of every rule on two operands: they have one dimension."""
    if a_dim != b_dim:
        raise DimensionMismatchError(f"{a_name} dim {a_dim} vs {b_name} dim {b_dim}")


def max_abs(a) -> float:
    """Largest entry magnitude (the max-norm used by all tolerance checks)."""
    try:
        return float(np.max(np.abs(np.asarray(a))))
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"max_abs needs a nonempty array of numbers, got {type(a).__name__}") from None


def fsum(values) -> float:
    """``math.fsum`` of a sized collection of finite floats, with a sum beyond
    the float range read as +-inf: where a partial sum overflows, the values
    are summed again scaled by 2**-k, k the bit length of their count (exact
    but for values near the subnormal range), and the sum is scaled back."""
    try:
        return math.fsum(values)
    except OverflowError:
        k = len(values).bit_length()
        return math.fsum(math.ldexp(v, -k) for v in values) * 2.0**k


def trace(a) -> complex:
    """Sum of the diagonal, correctly rounded (:func:`fsum` per component)."""
    return _trace(_admit(a))


def _trace(mat: np.ndarray) -> complex:
    diag = np.diagonal(mat)
    return complex(fsum(diag.real), fsum(diag.imag))


def relative_bound(mat: np.ndarray, tol: float) -> float:
    """tol * max(1, |a|_max): the bound on the Hermiticity and idempotency defects."""
    return tol * max(1.0, max_abs(mat))


def _real_diagonal(mat: np.ndarray) -> np.ndarray | None:
    """The diagonal of an admitted matrix as a float array when every other
    entry and every imaginary part is zero, else None; O(n^2). The checks take it as ``diag``."""
    diag = np.diagonal(mat)
    if np.count_nonzero(mat) != np.count_nonzero(diag) or diag.imag.any():
        return None
    return diag.real


def hermiticity_defect(mat: np.ndarray, diag: np.ndarray | None) -> float:
    """|a - a^dagger|_max of an admitted matrix, 0.0 for a real diagonal one
    without forming the difference; inf if a difference overflows."""
    if diag is not None:
        return 0.0
    adjoint = mat.conj().T
    with np.errstate(over="ignore"):
        return max_abs(np.subtract(mat, adjoint, out=adjoint))  # entry by entry, so the buffer is reused


def idempotency_defect(mat: np.ndarray, diag: np.ndarray | None) -> float:
    """|a a - a|_max of an admitted matrix; O(n) for a real diagonal one.
    An overflowing product makes it inf or nan, which fails every bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        if diag is not None:
            return max_abs(diag * diag - diag)
        return max_abs(mat @ mat - mat)


def min_eigenvalue(mat: np.ndarray, diag: np.ndarray | None) -> float:
    """Smallest eigenvalue of an admitted Hermitian matrix; compared with ``-tol``, not scaled.
    O(n) for a real diagonal one."""
    return float(np.min(diag if diag is not None else np.linalg.eigvalsh(mat)))


def _admitted(a, tol) -> tuple[np.ndarray, np.ndarray | None, float]:
    """What each check below reads: an admitted matrix, its ``_real_diagonal`` and a checked tol."""
    tol = _tol(tol)
    mat = _admit(a)
    return mat, _real_diagonal(mat), tol


def _is_hermitian(mat: np.ndarray, diag: np.ndarray | None, tol: float) -> bool:
    return hermiticity_defect(mat, diag) <= relative_bound(mat, tol)


def _is_projector(mat: np.ndarray, diag: np.ndarray | None, tol: float) -> bool:
    bound = relative_bound(mat, tol)
    return hermiticity_defect(mat, diag) <= bound and idempotency_defect(mat, diag) <= bound


def _is_density(mat: np.ndarray, diag: np.ndarray | None, tol: float) -> bool:
    return _is_hermitian(mat, diag, tol) and abs(_trace(mat) - 1.0) <= tol and min_eigenvalue(mat, diag) >= -tol


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``a`` equals its adjoint within ``tol`` (relative to max(1, |a|_max))."""
    return _is_hermitian(*_admitted(a, tol))


def is_projector(a, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``a`` is Hermitian and idempotent within ``tol``."""
    return _is_projector(*_admitted(a, tol))


def is_density(a, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``a`` is Hermitian, positive semidefinite (eigenvalues >= -tol),
    and of unit trace (|trace - 1| <= tol)."""
    return _is_density(*_admitted(a, tol))


def hermitian_eig(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition A = V diag(eigenvalues) V^dagger of a Hermitian matrix.

    Parameters
    ----------
    a : array_like
        Square matrix; must pass :func:`is_hermitian` at ``tol``.
    tol : float
        Hermiticity tolerance for the precondition check.

    Returns
    -------
    eigenvalues, eigenvectors : np.ndarray
        Read-only. The eigenvalues are real and ascending, the columns of ``eigenvectors``
        orthonormal and each phase-fixed so that its first component of largest magnitude
        is real and nonnegative; within a degenerate cluster no further ordering is guaranteed.

    Raises
    ------
    NotHermitianError
        If the Hermiticity defect exceeds ``tol * max(1, |a|_max)``.
    NonFiniteError
        If an eigenvalue is beyond the float range (entries near 1e308 can give one).
    """
    return _eig(*_admitted(a, tol))


def _eig(mat: np.ndarray, diag: np.ndarray | None, tol: float) -> tuple[np.ndarray, np.ndarray]:
    defect = hermiticity_defect(mat, diag)
    if defect > relative_bound(mat, tol):
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds tolerance")
    values, vectors = np.linalg.eigh(mat)
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"eigenvalue {float(values[~np.isfinite(values)][0])!r} is not finite")
    n = mat.shape[0]
    pivot_rows = np.argmax(np.abs(vectors), axis=0)
    pivots = vectors[pivot_rows, np.arange(n)]
    phases = pivots / np.abs(pivots)
    vectors = vectors * phases.conj()[np.newaxis, :]
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


# The JSON scalar rules: an integer is an int, a number an int or float
# (subclasses included), and neither is ever a bool.
def _is_int_type(t: type) -> bool:
    return issubclass(t, int) and not issubclass(t, bool)


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


# The library's scalar rules, for the arguments of its functions rather than JSON values; neither admits a bool.
def _integer(x, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``x`` as an int: Python and numpy integers only, so 1.9 is refused rather than
    truncated; then refused when below ``lo`` or above ``hi``, where given."""
    try:
        if isinstance(x, bool):
            raise TypeError
        value = operator.index(x)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {type(x).__name__}") from None
    if lo is not None and value < lo:
        raise ValidationError(f"{what} must be >= {lo}")
    if hi is not None and value > hi:
        raise ValidationError(f"{what} must be <= {hi}")
    return value


class _FloatOverflow(ValidationError):
    """A real number beyond the float range; :class:`ClassicalCycle` words it for its schedule."""


def _real(x, what: str) -> float:
    """``x`` as a float: real numbers only, so '0.5' or None is refused rather
    than parsed, and one beyond the float range (an int such as 10**400) is
    refused rather than raising OverflowError."""
    if isinstance(x, bool) or not isinstance(x, (float, int, numbers.Real)):  # float and int skip the ABC check
        raise ValidationError(f"{what} must be a real number, got {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise _FloatOverflow(f"{what} {reprlib.repr(x)} is beyond the float range") from None


def _tol(x, what: str = "tol") -> float:
    """``x`` as a tolerance: a finite real > 0."""
    if not (math.isfinite(tol := _real(x, what)) and tol > 0.0):
        raise ValidationError(f"{what} must be finite and > 0, got {tol!r}")
    return tol


def _operand(x, cls: type, what: str) -> None:
    """The gate on each operand of a public function, before any attribute of it is read:
    ``x`` must be a ``cls``."""
    if not isinstance(x, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, got {type(x).__name__}")


def _time(t) -> float:
    """``t`` as a finite float, the time of ``state_at`` and ``evolve``."""
    if not math.isfinite(t := _real(t, "time")):
        raise ValidationError(f"time must be finite, got {t!r}")
    return t


def _iterate(x, what: str, kind: str = "an iterable"):
    """An iterator over ``x``; a non-iterable is refused as not ``kind``."""
    try:
        return iter(x)
    except TypeError:
        raise ValidationError(f"{what} must be {kind}, got {type(x).__name__}") from None


def _labels(s, what: str):
    """An iterator over ``s``, a collection of labels: any iterable but a str."""
    if isinstance(s, str):
        raise ValidationError(f"{what} must be a collection of labels, not a str")
    return _iterate(s, what, "a collection of labels")


def _first_bad_entry(rows) -> ValidationError:
    """The error naming the first malformed row or entry, scanning row by row
    in the order of the rules of :func:`matrix_from_rows`."""
    n = len(rows)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            return ValidationError(f"matrix row {i} must be an array of {n} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_number_type(type(x)) for x in entry)
            ):
                return ValidationError(f"matrix entry ({i},{j}) must be a [re, im] pair of numbers")
            try:
                float(entry[0]), float(entry[1])
            except OverflowError:
                return ValidationError(f"matrix entry ({i},{j}) is beyond the float range")
    return ValidationError("matrix entries must be [re, im] pairs of numbers")


def matrix_from_rows(rows) -> np.ndarray:
    """Parse the repo-wide JSON matrix form back to a square complex matrix.

    A row must be a ``list`` of n entries, an entry a ``list`` of two numbers,
    and a number an ``int`` or ``float`` (subclasses included) that is not a
    ``bool`` and fits a float. Each level is flattened once into a list; the
    rules are checked on its sets of distinct types and lengths, and the
    matrix is built by one conversion of the numbers (exact, including the
    sign of zero). Only on failure is the input scanned again, to name the
    first bad row or entry.

    Raises
    ------
    ValidationError
        If the input breaks a rule above, or a value is NaN/Inf.
    """
    if not isinstance(rows, list) or not rows:
        raise ValidationError("matrix must be a non-empty JSON array of rows")
    n = len(rows)
    if not all(issubclass(t, list) for t in set(map(type, rows))) or set(map(len, rows)) != {n}:
        raise _first_bad_entry(rows)
    entries = list(chain.from_iterable(rows))
    if not all(issubclass(t, list) for t in set(map(type, entries))) or set(map(len, entries)) != {2}:
        raise _first_bad_entry(rows)
    numbers = list(chain.from_iterable(entries))
    if not all(_is_number_type(t) for t in set(map(type, numbers))):
        raise _first_bad_entry(rows)
    try:
        flat = np.fromiter(numbers, dtype=float, count=2 * n * n)
    except OverflowError:
        raise _first_bad_entry(rows) from None
    return _admit(flat.view(complex).reshape(n, n))
