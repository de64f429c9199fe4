"""Loading of system description files (UTF-8 JSON) consumed by the CLI.

A system file may carry any subset of: a classical cycle, a density matrix,
a Hamiltonian, labeled projectors (as matrices or as characteristic vectors
over the basis states), and a perception algebra. Every matrix present is
validated through its library class at load time, and all dimensions must
agree.
"""

from __future__ import annotations

import gc
import json
import reprlib
from dataclasses import dataclass
from operator import itemgetter

from .classical import ClassicalCycle, PerceptionSet, diag_projector
from .errors import SpecParseError, located
from .matcore import DEFAULT_TOL, matrix_from_rows
from .measure import PerceptionAlgebra, algebra_from_obj
from .quantum import DensityMatrix, Projector, RealityMode
from .superselect import Hamiltonian


@dataclass(frozen=True)
class LabeledProjector:
    """A projector with its spec-file label; chi is set when it came in as a
    characteristic vector."""

    label: str
    projector: Projector
    chi: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SystemSpec:
    """Parsed content of one system description file; ``dim`` is the common
    dimension of its fields, or None when no field has one."""

    cycle: ClassicalCycle | None
    rho: DensityMatrix | None
    hamiltonian: Hamiltonian | None
    projectors: tuple[LabeledProjector, ...]
    algebra: PerceptionAlgebra | None
    mode: RealityMode
    dim: int | None


def _is_int_type(t: type) -> bool:
    return issubclass(t, int) and not issubclass(t, bool)


def _is_int(value) -> bool:
    return _is_int_type(type(value))


def _is_char_vector(value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(map(_is_int_type, set(map(type, value))))


def _operator(cls, value, where: str, mode: RealityMode, tol: float):
    """``cls`` from JSON rows; a malformed matrix is a SpecParseError, and each refusal names ``where``."""
    with located(where, SpecParseError):
        mat = matrix_from_rows(value)
    with located(where):
        return cls(mat, mode=mode, tol=tol)


def _parse_cycle(obj) -> ClassicalCycle:
    """The cycle of a spec file. JSON types are checked on the sets of distinct
    types and lengths; only on failure is the schedule scanned again, to name
    the first bad entry. ``ClassicalCycle`` checks the rest."""
    if not isinstance(obj, dict) or set(obj) != {"n", "schedule"}:
        raise SpecParseError('cycle must be an object with keys "n" and "schedule"')
    n, schedule = obj["n"], obj["schedule"]
    if not _is_int(n):
        raise SpecParseError("cycle n must be an integer")
    if not (
        isinstance(schedule, list)
        and all(issubclass(t, list) for t in set(map(type, schedule)))
        and set(map(len, schedule)) <= {2}
    ):
        raise SpecParseError("cycle schedule must be a list of [state, duration] pairs")
    state_types = set(map(type, map(itemgetter(0), schedule)))
    duration_types = set(map(type, map(itemgetter(1), schedule)))
    if not (
        all(map(_is_int_type, state_types)) and all(_is_int_type(t) or issubclass(t, float) for t in duration_types)
    ):
        for i, (state, duration) in enumerate(schedule):
            if not _is_int(state):
                raise SpecParseError(f"cycle schedule entry {i}: state must be an integer, got {type(state).__name__}")
            if not (_is_int(duration) or isinstance(duration, float)):
                raise SpecParseError(f"cycle schedule entry {i}: duration must be a number, got {type(duration).__name__}")
    return ClassicalCycle(n, schedule)


def load_system_spec(
    path: str,
    mode_override: RealityMode | None = None,
    tol: float = DEFAULT_TOL,
) -> SystemSpec:
    """Read and validate a system description file.

    `mode_override` forces the reality mode regardless of the file's own
    "reality_mode" key; `tol` is handed to every matrix-class validation.

    The cyclic garbage collector is paused while the file is decoded and its
    fields are built, and is left as it was found, on a refusal too. The pause
    is process-wide: it holds for every thread until this returns. A decoded
    JSON tree holds no reference cycles, so a collection would only walk it;
    on success the tree is freed before collection resumes.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _spec_from_obj(_decode(path), mode_override, tol)
    finally:
        if collecting:
            gc.enable()


def _decode(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    except RecursionError:
        raise SpecParseError(f"{path} nests JSON arrays or objects too deeply") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise SpecParseError(f"{path} is not valid JSON: {exc}") from exc


def _spec_from_obj(obj, mode_override: RealityMode | None, tol: float) -> SystemSpec:
    if not isinstance(obj, dict):
        raise SpecParseError("top level of a system file must be a JSON object")
    known = {"cycle", "rho", "hamiltonian", "projectors", "algebra", "reality_mode"}
    extra = set(obj) - known
    if extra:
        raise SpecParseError(f"unknown keys: {reprlib.repr(sorted(extra))}")

    if mode_override is not None:
        mode = mode_override
    else:
        raw_mode = obj.get("reality_mode", "complex")
        try:
            mode = RealityMode(raw_mode)
        except ValueError:
            shown = reprlib.repr(raw_mode) if isinstance(raw_mode, str) else type(raw_mode).__name__
            raise SpecParseError(f'reality_mode must be "complex" or "real", got {shown}') from None

    cycle = _parse_cycle(obj["cycle"]) if "cycle" in obj else None

    rho = _operator(DensityMatrix, obj["rho"], "rho", mode, tol) if "rho" in obj else None
    hamiltonian = _operator(Hamiltonian, obj["hamiltonian"], "hamiltonian", mode, tol) if "hamiltonian" in obj else None

    projectors: list[LabeledProjector] = []
    if "projectors" in obj:
        raw = obj["projectors"]
        if not isinstance(raw, dict) or not raw:
            raise SpecParseError("projectors must be a nonempty object of label -> value")
        for label, value in raw.items():
            where = f"projector {reprlib.repr(label)}"
            with located(where):
                pset = PerceptionSet(value) if _is_char_vector(value) else None
            if pset is None:
                projectors.append(LabeledProjector(label, _operator(Projector, value, where, mode, tol)))
            else:
                projectors.append(LabeledProjector(label, Projector(diag_projector(pset), mode=mode, tol=tol), pset.chi))

    algebra = algebra_from_obj(obj["algebra"], mode=mode, tol=tol) if "algebra" in obj else None

    fields = [("rho", rho), ("hamiltonian", hamiltonian)]
    fields += [(f"projector {reprlib.repr(lp.label)}", lp.projector) for lp in projectors]
    fields.append(("algebra", algebra))
    dims = [("cycle", cycle.n)] if cycle is not None else []
    dims += [(name, value.dim) for name, value in fields if value is not None]
    first_field: dict[int, list] = {}  # dimension -> [first field with it, number of fields with it]
    for name, dim in dims:
        first_field.setdefault(dim, [name, 0])[1] += 1
    if len(first_field) > 1:
        parts = ", ".join(
            f"{name}={dim}" + (f" (+{count - 1} more)" if count > 1 else "")
            for dim, (name, count) in first_field.items()
        )
        raise SpecParseError(f"dimension mismatch across fields: {parts}")

    return SystemSpec(
        cycle=cycle,
        rho=rho,
        hamiltonian=hamiltonian,
        projectors=tuple(projectors),
        algebra=algebra,
        mode=mode,
        dim=next(iter(first_field), None),
    )
