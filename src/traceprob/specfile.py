"""Loading of system description files (UTF-8 JSON) consumed by the CLI.

A system file may carry any subset of: a classical cycle, a density matrix,
a Hamiltonian, labeled projectors (as matrices or as characteristic vectors
over the basis states), and a perception algebra. Every matrix present is
validated through its library class at load time, a characteristic vector is
held as its ``PerceptionSet``, and all dimensions must agree. This module is
the one that knows the file's keys and forms.
"""

from __future__ import annotations

import gc
import io
import json
import os
import reprlib
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import orjson

from .classical import ClassicalCycle, PerceptionSet, diag_projector
from .errors import DimensionMismatchError, SpecParseError, TraceProbError, ValidationError, located
from .matcore import DEFAULT_TOL, _is_int_type, _is_number_type, matrix_from_rows
from .measure import PerceptionAlgebra, PovOperator
from .quantum import DensityMatrix, Projector, RealityMode
from .superselect import Hamiltonian

DIMS_SHOWN = 3  # distinct dimensions named in a mismatch refusal


@dataclass(frozen=True)
class SystemSpec:
    """Parsed content of one system description file; ``dim`` is the common
    dimension of its fields, or None when no field has one. ``projectors``
    holds ``(label, entry)`` pairs in file order; an entry is a ``Projector``
    for matrix rows and a ``PerceptionSet`` for a characteristic vector."""

    cycle: ClassicalCycle | None
    rho: DensityMatrix | None
    hamiltonian: Hamiltonian | None
    projectors: tuple[tuple[str, Projector | PerceptionSet], ...]
    algebra: PerceptionAlgebra | None
    mode: RealityMode
    dim: int | None


def _projector(entry: Projector | PerceptionSet) -> Projector:
    """The projector of a ``projectors`` entry: a set's is its diagonal 0/1 matrix, built on each call."""
    return entry if isinstance(entry, Projector) else Projector(diag_projector(entry))


def _is_char_vector(value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(map(_is_int_type, set(map(type, value))))


def _operator(cls, value, where: str, mode: RealityMode, tol: float, dim0: int = 0):
    """``cls`` from JSON rows; a malformed matrix is a SpecParseError, and each refusal names ``where``.
    An algebra atom passes atom 0's dim as ``dim0``: a matrix of another dim is refused before ``cls`` runs."""
    with located(where, SpecParseError):
        mat = matrix_from_rows(value)
    with located(where):
        if dim0 and len(mat) != dim0:
            raise DimensionMismatchError(f"operator dim {len(mat)} differs from atom 0's dim {dim0}")
        return cls(mat, mode=mode, tol=tol)


def algebra_from_obj(
    obj: Mapping, *, mode: RealityMode = RealityMode.COMPLEX, tol: float = DEFAULT_TOL
) -> PerceptionAlgebra:
    """Parse the JSON form of an algebra: ``{"atoms": [{"label": ..., "operator": rows}, ...]}``.

    The form is strict: one key "atoms", a nonempty array of objects with
    exactly the keys "label" (a string) and "operator" (rows). A break of the
    form raises SpecParseError, as does a label repeated, and an invalid
    operator :class:`PovOperator`'s own error, or DimensionMismatchError when
    its dim differs from atom 0's; all name the atom as ``algebra atom <i> (<label>)``.
    """
    if not isinstance(obj, Mapping) or set(obj) != {"atoms"} or not isinstance(obj["atoms"], list):
        raise SpecParseError('algebra must be an object whose only key is an "atoms" array')
    if not obj["atoms"]:
        raise SpecParseError('algebra "atoms" array is empty; it needs at least one atom')
    ops: dict[str, PovOperator] = {}
    dim0 = 0
    for i, atom in enumerate(obj["atoms"]):
        if not isinstance(atom, Mapping) or set(atom) != {"label", "operator"}:
            raise SpecParseError(f'algebra atom {i} must be an object with exactly the keys "label" and "operator"')
        label = atom["label"]
        if not isinstance(label, str):
            raise SpecParseError(f"algebra atom {i}: label must be a string, got {type(label).__name__}")
        where = f"algebra atom {i} ({reprlib.repr(label)})"
        if label in ops:
            raise SpecParseError(f"{where}: label repeats atom {list(ops).index(label)}")
        ops[label] = _operator(PovOperator, atom["operator"], where, mode, tol, dim0)
        dim0 = dim0 or ops[label].dim
    return PerceptionAlgebra(list(ops.items()))


def _parse_cycle(obj) -> ClassicalCycle:
    """The cycle of a spec file. ``ClassicalCycle`` decides the schedule in its
    one pass; only when it refuses is the schedule scanned, so that a broken
    ``[state, duration]`` form or JSON type anywhere in it is a SpecParseError."""
    if not isinstance(obj, dict) or set(obj) != {"n", "schedule"}:
        raise SpecParseError('cycle must be an object with keys "n" and "schedule"')
    n, schedule = obj["n"], obj["schedule"]
    if not _is_int_type(type(n)):
        raise SpecParseError("cycle n must be an integer")
    try:
        return ClassicalCycle(n, schedule)
    except ValidationError as exc:
        refusal = exc
    if not (isinstance(schedule, list) and all(isinstance(e, list) and len(e) == 2 for e in schedule)):
        raise SpecParseError("cycle schedule must be a list of [state, duration] pairs")
    for i, (state, duration) in enumerate(schedule):
        if not _is_int_type(type(state)):
            raise SpecParseError(f"cycle schedule entry {i}: state must be an integer, got {type(state).__name__}")
        if not _is_number_type(type(duration)):
            raise SpecParseError(f"cycle schedule entry {i}: duration must be a number, got {type(duration).__name__}")
    raise refusal


def load_system_spec(path: str | bytes | os.PathLike, tol: float = DEFAULT_TOL) -> SystemSpec:
    """Read and validate a system description file.

    `path` is a str, bytes or os.PathLike; anything else is refused before
    anything is opened, so an int is never read as a file descriptor.
    The reality mode is the file's "reality_mode" key ("complex" when absent);
    `tol` is handed to every matrix-class validation.

    The file is read once, as bytes, and decoded by orjson. The ``json``
    module is the reference decoder: when orjson refuses the bytes, or the
    spec built from its tree is refused or recurses too deeply (orjson nests
    far deeper than ``json``), the same bytes are decoded as text
    mode would decode them (UTF-8, universal newlines) and ``json``'s tree
    gives the spec or the refusal. So every refusal is worded as ``json``
    decides it; orjson only makes the accepted files fast.

    The cyclic garbage collector is paused while the file is decoded and its
    fields are built, and is left as it was found, on a refusal too. The pause
    is process-wide: it holds for every thread until this returns. A decoded
    JSON tree holds no reference cycles, so a collection would only walk it;
    on success the tree is freed before collection resumes.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValidationError(f"spec path must be a str, bytes or os.PathLike, got {type(path).__name__}")
    collecting = gc.isenabled()
    gc.disable()
    try:
        with _decoding(path), open(path, "rb") as fh:
            data = fh.read()
        try:
            return _spec_from_obj(orjson.loads(data), tol)
        except (orjson.JSONDecodeError, RecursionError, TraceProbError):
            pass  # json decides, and words, every refusal
        return _spec_from_obj(_decode(path, data), tol)
    finally:
        if collecting:
            gc.enable()


def _decode(path: str, data: bytes):
    """``json``'s tree of ``data``, decoded as a file opened in text mode
    would be: UTF-8 with universal newlines."""
    with _decoding(path):
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


@contextmanager
def _decoding(path: str):
    """A failure to read or decode ``path`` as a SpecParseError naming it."""
    try:
        yield
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    except RecursionError:
        raise SpecParseError(f"{path} nests JSON arrays or objects too deeply") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise SpecParseError(f"{path} is not valid JSON: {exc}") from exc


def _spec_from_obj(obj, tol: float) -> SystemSpec:
    if not isinstance(obj, dict):
        raise SpecParseError("top level of a system file must be a JSON object")
    known = {"cycle", "rho", "hamiltonian", "projectors", "algebra", "reality_mode"}
    extra = set(obj) - known
    if extra:
        raise SpecParseError(f"unknown keys: {reprlib.repr(sorted(extra))}")

    raw_mode = obj.get("reality_mode", "complex")
    try:
        mode = RealityMode(raw_mode)
    except ValueError:
        shown = reprlib.repr(raw_mode) if isinstance(raw_mode, str) else type(raw_mode).__name__
        raise SpecParseError(f'reality_mode must be "complex" or "real", got {shown}') from None

    cycle = _parse_cycle(obj["cycle"]) if "cycle" in obj else None

    rho = _operator(DensityMatrix, obj["rho"], "rho", mode, tol) if "rho" in obj else None
    hamiltonian = _operator(Hamiltonian, obj["hamiltonian"], "hamiltonian", mode, tol) if "hamiltonian" in obj else None

    projectors = []
    if "projectors" in obj:
        raw = obj["projectors"]
        if not isinstance(raw, dict) or not raw:
            raise SpecParseError("projectors must be a nonempty object of label -> value")
        for label, value in raw.items():
            where = f"projector {reprlib.repr(label)}"
            if _is_char_vector(value):
                with located(where):
                    projectors.append((label, PerceptionSet(value)))
            else:
                projectors.append((label, _operator(Projector, value, where, mode, tol)))

    algebra = algebra_from_obj(obj["algebra"], mode=mode, tol=tol) if "algebra" in obj else None

    fields = [("rho", rho), ("hamiltonian", hamiltonian)]
    fields += [(f"projector {reprlib.repr(label)}", entry) for label, entry in projectors]
    fields.append(("algebra", algebra))
    dims = [("cycle", cycle.n)] if cycle is not None else []
    dims += [(name, v.n if isinstance(v, PerceptionSet) else v.dim) for name, v in fields if v is not None]
    first_field: dict[int, list] = {}  # dimension -> [first field with it, number of fields with it]
    for name, dim in dims:
        first_field.setdefault(dim, [name, 0])[1] += 1
    if len(first_field) > 1:
        parts = [
            f"{name}={dim}" + (f" (+{count - 1} more)" if count > 1 else "")
            for dim, (name, count) in islice(first_field.items(), DIMS_SHOWN)
        ]
        if len(first_field) > DIMS_SHOWN:
            parts.append(f"and {len(first_field) - DIMS_SHOWN} more dimensions")
        raise SpecParseError(f"dimension mismatch across fields: {', '.join(parts)}")

    return SystemSpec(
        cycle=cycle,
        rho=rho,
        hamiltonian=hamiltonian,
        projectors=tuple(projectors),
        algebra=algebra,
        mode=mode,
        dim=next(iter(first_field), None),
    )
