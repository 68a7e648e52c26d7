"""Instance file format shared by every CLI subcommand.

One JSON document carries up to three optional sections:

* a system section (keys ``n, m, A, B, t0, t1, x0, x1``) describing the
  dynamics and the transfer task; ``A`` is either a row-major array of rows
  or ``{"stack": {"U": rows, "d": count}}``, which expands to the
  corner-stacked matrix; ``B`` is either an array of rows or the string
  ``"identity"``;
* ``"setfun": {"v": [...], "M": rows, "c": exponent}`` for the
  distance-to-subspace set function (``c`` optional, default 2);
* ``"varsel": {"U": rows, "z": [...], "delta": number}`` for a standalone
  sparse variable-selection instance;
* ``"source": {"U": rows, "z": [...], "delta": number, "dims": {...}}`` for
  the variable-selection instance a generated reachability instance encodes,
  which makes reduction round-trips replayable from the file alone.

Every document the writers here produce parses back to an equal in-memory
object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InstanceFormatError
from .hardness import HardInstance, ReductionDims, stacked_corner
from .setfun import ColumnSelectionFunction
from .solvers import VarSelInstance
from .system import LinearSystem

_SYSTEM_KEYS = ("n", "m", "A", "B", "t0", "t1", "x0", "x1")


@dataclass(frozen=True)
class InstanceDoc:
    """Parsed instance file: any subset of the three sections."""

    system: LinearSystem | None = None
    setfun: ColumnSelectionFunction | None = None
    varsel: VarSelInstance | None = None
    source: VarSelInstance | None = None
    source_dims: ReductionDims | None = None

    def hard_instance(self) -> HardInstance:
        if self.system is None or self.source is None or self.source_dims is None:
            raise InstanceFormatError(
                "document does not bundle a system with a 'source' section"
            )
        return HardInstance(sys=self.system, source=self.source, dims=self.source_dims)


def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict):
        raise InstanceFormatError(f"{where} must be a JSON object")
    if key not in mapping:
        raise InstanceFormatError(f"missing key '{key}' in {where}")
    return mapping[key]


def _int(value, where: str) -> int:
    # int() would silently truncate 2.7 to 2 and read true as 1.
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InstanceFormatError(f"{where} is not an integer: {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where} is not an integer: {value!r}") from exc


def _float(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where} is not a number: {value!r}") from exc


def _as_rows(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where} is not a numeric array: {exc}") from exc
    if arr.ndim != 2:
        raise InstanceFormatError(f"{where} must be an array of row arrays")
    return arr

def _as_list(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where} is not a numeric array: {exc}") from exc
    if arr.ndim != 1:
        raise InstanceFormatError(f"{where} must be a flat array of numbers")
    return arr


def _parse_system(data: dict) -> LinearSystem:
    n = _int(_require(data, "n", "system section"), "key 'n'")
    m = _int(_require(data, "m", "system section"), "key 'm'")
    raw_A = _require(data, "A", "system section")
    if isinstance(raw_A, dict):
        stack = _require(raw_A, "stack", "key 'A'")
        U = _as_rows(_require(stack, "U", "key 'A.stack'"), "'A.stack.U'")
        d = _int(_require(stack, "d", "key 'A.stack'"), "'A.stack.d'")
        A = stacked_corner(U, n, d)
    else:
        A = _as_rows(raw_A, "key 'A'")
    raw_B = _require(data, "B", "system section")
    B = np.eye(n) if raw_B == "identity" else _as_rows(raw_B, "key 'B'")
    if A.shape != (n, n):
        raise InstanceFormatError(f"A has shape {A.shape}, expected ({n}, {n})")
    if B.shape != (n, m):
        raise InstanceFormatError(f"B has shape {B.shape}, expected ({n}, {m})")
    try:
        return LinearSystem(
            A=A,
            B=B,
            t0=_float(_require(data, "t0", "system section"), "key 't0'"),
            t1=_float(_require(data, "t1", "system section"), "key 't1'"),
            x0=_as_list(_require(data, "x0", "system section"), "key 'x0'"),
            x1=_as_list(_require(data, "x1", "system section"), "key 'x1'"),
        )
    except ValueError as exc:
        raise InstanceFormatError(f"inconsistent system section: {exc}") from exc


def _parse_varsel(data: dict, where: str) -> VarSelInstance:
    try:
        return VarSelInstance(
            U=_as_rows(_require(data, "U", where), f"{where} key 'U'"),
            z=_as_list(_require(data, "z", where), f"{where} key 'z'"),
            delta=_float(_require(data, "delta", where), f"{where} key 'delta'"),
        )
    except ValueError as exc:
        raise InstanceFormatError(f"inconsistent {where}: {exc}") from exc


def parse_instance(data: dict) -> InstanceDoc:
    if not isinstance(data, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    system = None
    if any(k in data for k in ("A", "B")):
        system = _parse_system(data)
    fn = None
    if "setfun" in data:
        section = data["setfun"]
        try:
            fn = ColumnSelectionFunction(
                v=_as_list(_require(section, "v", "'setfun' section"), "'setfun.v'"),
                M=_as_rows(_require(section, "M", "'setfun' section"), "'setfun.M'"),
                c=_float(section.get("c", 2.0), "'setfun.c'"),
            )
        except ValueError as exc:
            raise InstanceFormatError(f"inconsistent 'setfun' section: {exc}") from exc
    varsel = _parse_varsel(data["varsel"], "'varsel' section") if "varsel" in data else None
    source = None
    source_dims = None
    if "source" in data:
        source = _parse_varsel(data["source"], "'source' section")
        dims = _require(data["source"], "dims", "'source' section")
        source_dims = ReductionDims(
            **{
                k: _int(_require(dims, k, "'source.dims'"), f"'source.dims.{k}'")
                for k in ("m", "l", "d", "n")
            }
        )
    return InstanceDoc(
        system=system, setfun=fn, varsel=varsel, source=source, source_dims=source_dims
    )


def _read_json(path: str | Path):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_instance(path: str | Path) -> InstanceDoc:
    return parse_instance(_read_json(path))


# Where load_matrix looks for a matrix inside a JSON object, in order.
_MATRIX_PATHS = (("U",), ("varsel", "U"), ("setfun", "M"))


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a source matrix: a bare array of rows, or the first of ``U``,
    ``varsel.U`` and ``setfun.M`` present in a JSON object."""
    data = _read_json(path)
    where = f"{path}: matrix"
    if isinstance(data, dict):
        for keys in _MATRIX_PATHS:
            node = data
            for key in keys:
                node = node.get(key) if isinstance(node, dict) else None
            if node is not None:
                data = node
                where = f"{path}: key '{'.'.join(keys)}'"
                break
        else:
            raise InstanceFormatError(
                f"{path}: no matrix found (expected a bare array, 'U', "
                "'varsel.U', or 'setfun.M')"
            )
    return _as_rows(data, where)


def _matrix_rows(M: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in M]


def _vector_list(v: np.ndarray) -> list[float]:
    return [float(x) for x in v]


def _system_dict(sys: LinearSystem) -> dict:
    is_identity = sys.B.shape[0] == sys.B.shape[1] and np.array_equal(
        sys.B, np.eye(sys.n)
    )
    return {
        "n": sys.n,
        "m": sys.m,
        "A": _matrix_rows(sys.A),
        "B": "identity" if is_identity else _matrix_rows(sys.B),
        "t0": sys.t0,
        "t1": sys.t1,
        "x0": _vector_list(sys.x0),
        "x1": _vector_list(sys.x1),
    }


def _varsel_dict(inst: VarSelInstance) -> dict:
    return {
        "U": _matrix_rows(inst.U),
        "z": _vector_list(inst.z),
        "delta": inst.delta,
    }


def instance_dict(doc: InstanceDoc) -> dict:
    """Serializable dict for a document; inverse of :func:`parse_instance`."""
    data: dict = {}
    if doc.system is not None:
        data.update(_system_dict(doc.system))
    if doc.setfun is not None:
        data["setfun"] = {
            "v": _vector_list(doc.setfun.v),
            "M": _matrix_rows(doc.setfun.M),
            "c": doc.setfun.c,
        }
    if doc.varsel is not None:
        data["varsel"] = _varsel_dict(doc.varsel)
    if doc.source is not None and doc.source_dims is not None:
        dims = doc.source_dims
        data["source"] = dict(
            _varsel_dict(doc.source),
            dims={"m": dims.m, "l": dims.l, "d": dims.d, "n": dims.n},
        )
    return data


def hard_instance_dict(inst: HardInstance) -> dict:
    """Replayable document for a generated instance.

    ``A`` is written in its ``{"stack": ...}`` form rather than as a dense
    array, so the file records the construction and not just its expansion.
    """
    data = _system_dict(inst.sys)
    data["A"] = {"stack": {"U": _matrix_rows(inst.source.U), "d": inst.dims.d}}
    dims = inst.dims
    data["source"] = dict(
        _varsel_dict(inst.source),
        dims={"m": dims.m, "l": dims.l, "d": dims.d, "n": dims.n},
    )
    return data


def write_instance(doc: InstanceDoc | HardInstance, path: str | Path) -> None:
    if isinstance(doc, HardInstance):
        data = hard_instance_dict(doc)
    else:
        data = instance_dict(doc)
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
