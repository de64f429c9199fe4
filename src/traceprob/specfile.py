"""Loading of system description files (UTF-8 JSON) consumed by the CLI.

A system file may carry any subset of: a classical cycle, a density matrix,
a Hamiltonian, labeled projectors (as matrices or as characteristic vectors
over the basis states), and a perception algebra. Every matrix present is
validated through its library class at load time, and all dimensions must
agree.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass

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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_char_vector(value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(_is_int(x) for x in value)


def _operator(cls, value, where: str, mode: RealityMode, tol: float):
    """``cls`` from JSON rows; a malformed matrix is a SpecParseError, and each refusal names ``where``."""
    with located(where, SpecParseError):
        mat = matrix_from_rows(value)
    with located(where):
        return cls(mat, mode=mode, tol=tol)


def _parse_cycle(obj) -> ClassicalCycle:
    if not isinstance(obj, dict) or set(obj) != {"n", "schedule"}:
        raise SpecParseError('cycle must be an object with keys "n" and "schedule"')
    n, schedule = obj["n"], obj["schedule"]
    if not _is_int(n):
        raise SpecParseError("cycle n must be an integer")
    if not isinstance(schedule, list) or not all(
        isinstance(e, list) and len(e) == 2 for e in schedule
    ):
        raise SpecParseError("cycle schedule must be a list of [state, duration] pairs")
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
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    except RecursionError:
        raise SpecParseError(f"{path} nests JSON arrays or objects too deeply") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise SpecParseError(f"{path} is not valid JSON: {exc}") from exc
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
    dims = {"cycle": cycle.n} if cycle is not None else {}
    dims.update((name, value.dim) for name, value in fields if value is not None)
    if len(set(dims.values())) > 1:
        parts = ", ".join(f"{k}={v}" for k, v in dims.items())
        raise SpecParseError(f"dimension mismatch across fields: {parts}")

    return SystemSpec(
        cycle=cycle,
        rho=rho,
        hamiltonian=hamiltonian,
        projectors=tuple(projectors),
        algebra=algebra,
        mode=mode,
        dim=next(iter(dims.values()), None),
    )
