"""Instance file format shared by every CLI subcommand.

One JSON document carries up to four optional sections:

* a system section (keys ``n, m, A, B, t0, t1, x0, x1``) describing the
  dynamics and the transfer task; ``A`` is either a row-major array of rows
  or ``{"stack": {"U": rows, "d": count}}``, which expands to the
  corner-stacked matrix, refused with :class:`CapacityError` before it
  expands to more than ``hardness.MAX_STACKED_ENTRIES`` entries; ``B`` is
  either an array of rows or the string ``"identity"``;
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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import CapacityError, InstanceFormatError
from .hardness import MAX_STACKED_ENTRIES, HardInstance, ReductionDims, generate, stacked_corner
from .linalg import as_count, as_matrix
from .setfun import ColumnSelectionFunction
from .solvers import VarSelInstance
from .system import LinearSystem


@dataclass(frozen=True)
class InstanceDoc:
    """Parsed instance file: any subset of the four sections."""

    system: LinearSystem | None = None
    setfun: ColumnSelectionFunction | None = None
    varsel: VarSelInstance | None = None
    source: VarSelInstance | None = None
    source_dims: ReductionDims | None = None

    def hard_instance(self, path: str | Path | None = None) -> HardInstance:
        """The bundled reduction instance, checked against a rebuild of
        ``generate(source.U, dims.d, source.delta)``: the dims, the system's
        ``A``, ``B``, ``x0`` and ``x1``, and ``source.z`` must all match.
        ``path``, the file the document was read from, is named in errors."""
        # the file leads these messages, except the key mismatches below,
        # which lead with the key
        at, of = ("", "") if path is None else (f"{path}: ", f" of {path}")
        if self.system is None or self.source is None or self.source_dims is None:
            raise InstanceFormatError(
                f"{at}document does not bundle a system with a 'source' section"
            )
        with _reraised(f"{at}'source' section"):
            built = generate(self.source.U, self.source_dims.d, self.source.delta)
        dims = self.source_dims
        pairs = [
            *((f"'source.dims.{k}'", v, getattr(built.dims, k))
              for k, v in asdict(dims).items()),
            *((f"key '{k}'", getattr(self.system, k), getattr(built.sys, k))
              for k in ("A", "B", "x0", "x1")),
            ("'source.z'", self.source.z, built.source.z),
        ]
        for where, got, want in pairs:
            if not np.array_equal(got, want):
                value = f" ({got}, expected {want})" if np.ndim(got) == 0 else ""
                raise InstanceFormatError(
                    f"{where}{of} does not match the instance generated from "
                    f"'source.U' with d = {dims.d}{value}"
                )
        return HardInstance(sys=self.system, source=self.source, dims=dims)


@contextmanager
def _reraised(prefix: str) -> Iterator[None]:
    """Re-raise a ValueError of the block, an InstanceFormatError included,
    as ``InstanceFormatError(f"{prefix}: {exc}")``."""
    try:
        yield
    except ValueError as exc:
        raise InstanceFormatError(f"{prefix}: {exc}") from exc


def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict):
        raise InstanceFormatError(f"{where} must be a JSON object")
    if key not in mapping:
        raise InstanceFormatError(f"missing key '{key}' in {where}")
    return mapping[key]


def _int(value, where: str, least: int = 0) -> int:
    # a JSON writer may spell 2 as 2.0; anything else follows as_count
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        return as_count(value, where, least)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def _float(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where} is not a number: {value!r}") from exc


def _as_array(value, where: str, ndim: int) -> np.ndarray:
    """``value`` as a float array of ``ndim`` dimensions (1 or 2)."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where} is not a numeric array: {exc}") from exc
    if arr.ndim != ndim:
        shape = "a flat array of numbers" if ndim == 1 else "an array of row arrays"
        raise InstanceFormatError(f"{where} must be {shape}")
    return arr


def _parse_system(data: dict) -> LinearSystem:
    n = _int(_require(data, "n", "system section"), "key 'n'", least=1)
    m = _int(_require(data, "m", "system section"), "key 'm'")
    raw_A = _require(data, "A", "system section")
    if isinstance(raw_A, dict):
        stack = _require(raw_A, "stack", "key 'A'")
        U = _as_array(_require(stack, "U", "key 'A.stack'"), "'A.stack.U'", 2)
        d = _int(_require(stack, "d", "key 'A.stack'"), "'A.stack.d'")
        if n * n > MAX_STACKED_ENTRIES:
            raise CapacityError(
                f"key 'A.stack' expands to an n x n matrix with n = {n}: "
                f"{n * n} entries, more than the cap of {MAX_STACKED_ENTRIES}"
            )
        with _reraised("inconsistent key 'A.stack'"):
            # checked here so the message names the file key, not stacked_corner's M
            A = stacked_corner(as_matrix(U, name="'A.stack.U'"), n, d)
    else:
        A = _as_array(raw_A, "key 'A'", 2)
    if A.shape != (n, n):
        raise InstanceFormatError(f"A has shape {A.shape}, expected ({n}, {n})")
    raw_B = _require(data, "B", "system section")
    B = np.eye(n) if raw_B == "identity" else _as_array(raw_B, "key 'B'", 2)
    if B.shape != (n, m):
        raise InstanceFormatError(f"B has shape {B.shape}, expected ({n}, {m})")
    with _reraised("inconsistent system section"):
        return LinearSystem(
            A=A,
            B=B,
            t0=_float(_require(data, "t0", "system section"), "key 't0'"),
            t1=_float(_require(data, "t1", "system section"), "key 't1'"),
            x0=_as_array(_require(data, "x0", "system section"), "key 'x0'", 1),
            x1=_as_array(_require(data, "x1", "system section"), "key 'x1'", 1),
        )


def _parse_varsel(data: dict, where: str) -> VarSelInstance:
    with _reraised(f"inconsistent {where}"):
        return VarSelInstance(
            U=_as_array(_require(data, "U", where), f"{where} key 'U'", 2),
            z=_as_array(_require(data, "z", where), f"{where} key 'z'", 1),
            delta=_float(_require(data, "delta", where), f"{where} key 'delta'"),
        )


def parse_instance(data: dict) -> InstanceDoc:
    if not isinstance(data, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    system = None
    if any(k in data for k in ("A", "B")):
        system = _parse_system(data)
    fn = None
    if "setfun" in data:
        section = data["setfun"]
        with _reraised("inconsistent 'setfun' section"):
            fn = ColumnSelectionFunction(
                v=_as_array(_require(section, "v", "'setfun' section"), "'setfun.v'", 1),
                M=_as_array(_require(section, "M", "'setfun' section"), "'setfun.M'", 2),
                c=_float(section.get("c", 2.0), "'setfun.c'"),
            )
    varsel = _parse_varsel(data["varsel"], "'varsel' section") if "varsel" in data else None
    source = None
    source_dims = None
    if "source" in data:
        source = _parse_varsel(data["source"], "'source' section")
        dims = _require(data["source"], "dims", "'source' section")
        source_dims = ReductionDims(
            *(
                _int(_require(dims, f.name, "'source.dims'"), f"'source.dims.{f.name}'")
                for f in fields(ReductionDims)
            )
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
    data = _read_json(path)
    try:
        return parse_instance(data)
    except (InstanceFormatError, CapacityError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_section(path: str | Path, name: str):
    """The ``system``, ``setfun`` or ``varsel`` section of the file at
    ``path``; :class:`InstanceFormatError` if the file does not have it."""
    section = getattr(load_instance(path), name)
    if section is None:
        what = "system section (keys n, m, A, B, ...)" if name == "system" else f"'{name}' section"
        raise InstanceFormatError(f"{path}: no {what}")
    return section


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
    return _as_array(data, where, 2)


def _system_dict(sys: LinearSystem) -> dict:
    is_identity = sys.B.shape[0] == sys.B.shape[1] and np.array_equal(
        sys.B, np.eye(sys.n)
    )
    return {
        "n": sys.n,
        "m": sys.m,
        "A": sys.A.tolist(),
        "B": "identity" if is_identity else sys.B.tolist(),
        "t0": sys.t0,
        "t1": sys.t1,
        "x0": sys.x0.tolist(),
        "x1": sys.x1.tolist(),
    }


def _varsel_dict(inst: VarSelInstance) -> dict:
    return {"U": inst.U.tolist(), "z": inst.z.tolist(), "delta": inst.delta}


def instance_dict(doc: InstanceDoc) -> dict:
    """Serializable dict for a document; inverse of :func:`parse_instance`."""
    data: dict = {}
    if doc.system is not None:
        data.update(_system_dict(doc.system))
    if doc.setfun is not None:
        data["setfun"] = {
            "v": doc.setfun.v.tolist(),
            "M": doc.setfun.M.tolist(),
            "c": doc.setfun.c,
        }
    if doc.varsel is not None:
        data["varsel"] = _varsel_dict(doc.varsel)
    if doc.source is not None and doc.source_dims is not None:
        data["source"] = dict(_varsel_dict(doc.source), dims=asdict(doc.source_dims))
    return data


def hard_instance_dict(inst: HardInstance) -> dict:
    """Replayable document for a generated instance.

    ``A`` is written in its ``{"stack": ...}`` form rather than as a dense
    array, so the file records the construction and not just its expansion.
    """
    data = instance_dict(InstanceDoc(system=inst.sys, source=inst.source, source_dims=inst.dims))
    data["A"] = {"stack": {"U": inst.source.U.tolist(), "d": inst.dims.d}}
    return data


def write_instance(doc: InstanceDoc | HardInstance, path: str | Path) -> None:
    data = hard_instance_dict(doc) if isinstance(doc, HardInstance) else instance_dict(doc)
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
