"""JSON schemas for operators, circuits, and reports.

Operator schema: {"dim": D, "layout": {...}, "entries": [[re, im], ...] row-major,
"hermitian": bool}. Floats go through Python's shortest round-trip repr, so a
serialize/parse cycle is lossless and byte-deterministic for identical inputs.
"""

from __future__ import annotations

import itertools
import json
import sys
from typing import Any

import numpy as np

from .circuits import Gate, VerifierCircuit
from .operators import DenseOperator, Register, SystemLayout


class InputFormatError(ValueError):
    """Schema violation with a JSON-path-style location."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def _require(obj: dict, key: str, path: str) -> Any:
    """obj[key]; InputFormatError at `path` when obj is no object or lacks the key."""
    if not isinstance(obj, dict):
        raise InputFormatError(path, "expected an object")
    if key not in obj:
        raise InputFormatError(path, f"missing field {key!r}")
    return obj[key]


def _list(value, path: str) -> list:
    """A JSON list; InputFormatError otherwise."""
    if not isinstance(value, list):
        raise InputFormatError(path, "expected a list")
    return value


def _integer(value, path: str) -> int:
    """A JSON integer, or a float with an integral value, as int; InputFormatError otherwise."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise InputFormatError(path, f"expected an integer, got {value!r}")


def _real(value, path: str) -> float:
    """A finite JSON number (integer or float) as float; InputFormatError otherwise.

    A bool, a string, null, NaN or an infinity is no real number here.
    """
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise InputFormatError(path, f"expected a finite number, got {value!r}")


def matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_matrix(pairs: list, dim: int, path: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != dim * dim:
        raise InputFormatError(path, f"expected {dim * dim} [re, im] pairs")
    return pairs_to_vector(pairs, path).reshape(dim, dim)


def layout_to_dict(layout: SystemLayout) -> dict:
    return {
        "site_dims": list(layout.site_dims),
        "registers": [
            {"name": r.name, "sites": list(r.sites), "role": r.role} for r in layout.registers
        ],
    }


def layout_from_dict(obj: dict, path: str = "layout", dim_cap: int | None = None) -> SystemLayout:
    dim_list = _list(_require(obj, "site_dims", path), f"{path}.site_dims")
    dims = tuple(_integer(d, f"{path}.site_dims") for d in dim_list)
    regs = []
    for i, r in enumerate(_list(obj.get("registers", []), f"{path}.registers")):
        rpath = f"{path}.registers[{i}]"
        name = str(_require(r, "name", rpath))
        sites = _list(_require(r, "sites", rpath), f"{rpath}.sites")
        regs.append(
            Register(
                name=name,
                sites=tuple(_integer(s, f"{rpath}.sites") for s in sites),
                role=str(r.get("role", "")),
            )
        )
    kwargs = {} if dim_cap is None else {"dim_cap": dim_cap}
    try:
        return SystemLayout(dims, tuple(regs), **kwargs)
    except ValueError as exc:
        raise InputFormatError(path, str(exc)) from exc


def operator_to_dict(op: DenseOperator) -> dict:
    return {
        "dim": op.dim,
        "layout": layout_to_dict(op.layout),
        "entries": matrix_to_pairs(op.entries),
        "hermitian": bool(op.hermitian),
    }


def operator_from_dict(
    obj: dict, path: str = "operator", dim_cap: int | None = None
) -> DenseOperator:
    layout = layout_from_dict(_require(obj, "layout", path), f"{path}.layout", dim_cap)
    dim = _integer(_require(obj, "dim", path), f"{path}.dim")
    if dim != layout.total_dim:
        raise InputFormatError(f"{path}.dim", f"dim {dim} != layout total dimension {layout.total_dim}")
    entries = pairs_to_matrix(_require(obj, "entries", path), dim, f"{path}.entries")
    try:
        return DenseOperator(layout, entries, hermitian=bool(obj.get("hermitian", False)))
    except ValueError as exc:
        raise InputFormatError(path, str(exc)) from exc


def pairs_to_vector(pairs: list, path: str) -> np.ndarray:
    if not isinstance(pairs, list):
        raise InputFormatError(path, "expected a list of [re, im] pairs")
    try:
        parts = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError, OverflowError):
        parts = None
    # asarray also takes tuples, bools and numeric strings, and rounds an integer
    # just beyond the float range to +-max; anything short of plain lists of
    # ints and floats strictly inside the range goes to the per-pair rule
    if not (
        parts is not None
        and parts.shape == (len(pairs), 2)
        and set(map(type, pairs)) <= {list}
        and set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}
        and (np.abs(parts) < sys.float_info.max).all()
    ):
        for i, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise InputFormatError(f"{path}[{i}]", "expected a [re, im] pair")
            # bool is no number here, and a JSON integer may exceed the float range
            if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in pair):
                raise InputFormatError(f"{path}[{i}]", f"[re, im] parts must be finite numbers: {pair}")
    # each row's two floats are one complex number in memory: complex(re, im) bit for bit
    return parts.reshape(len(pairs), 2).view(complex).reshape(-1)


def circuit_to_dict(circuit: VerifierCircuit) -> dict:
    return {
        "layout": layout_to_dict(circuit.layout),
        "gates": [
            {
                "label": g.label,
                "targets": list(g.targets),
                "unitary": matrix_to_pairs(g.unitary.entries),
            }
            for g in circuit.gates
        ],
        "witness_register": list(circuit.witness_register),
        "output_site": circuit.output_site,
        "c": circuit.completeness,
        "s": circuit.soundness,
    }


def circuit_from_dict(
    obj: dict, path: str = "circuit", dim_cap: int | None = None
) -> VerifierCircuit:
    layout = layout_from_dict(_require(obj, "layout", path), f"{path}.layout", dim_cap)
    gates = []
    for i, g in enumerate(_list(_require(obj, "gates", path), f"{path}.gates")):
        gpath = f"{path}.gates[{i}]"
        target_list = _list(_require(g, "targets", gpath), f"{gpath}.targets")
        targets = tuple(_integer(t, f"{gpath}.targets") for t in target_list)
        for t in targets:
            if not 0 <= t < layout.n_sites:
                raise InputFormatError(f"{gpath}.targets", f"site {t} outside layout")
        local_dims = tuple(layout.site_dims[t] for t in targets)
        d = int(np.prod(local_dims, dtype=np.int64))
        label = str(g.get("label", f"gate{i}"))
        entries = pairs_to_matrix(_require(g, "unitary", gpath), d, f"{gpath}.unitary")
        try:
            gates.append(Gate.from_matrix(entries, targets, layout, label=label))
        except ValueError as exc:
            raise InputFormatError(gpath, f"gate {label!r}: {exc}") from exc
    witness = _require(obj, "witness_register", path)
    if isinstance(witness, str):
        witness = (witness,)
    else:
        witness = tuple(str(w) for w in _list(witness, f"{path}.witness_register"))
    output_site = _integer(_require(obj, "output_site", path), f"{path}.output_site")
    completeness = _real(_require(obj, "c", path), f"{path}.c")
    soundness = _real(_require(obj, "s", path), f"{path}.s")
    try:
        return VerifierCircuit(
            layout=layout,
            gates=tuple(gates),
            witness_register=witness,
            output_site=output_site,
            completeness=completeness,
            soundness=soundness,
        )
    except ValueError as exc:
        raise InputFormatError(path, str(exc)) from exc


def write_csv(path: str, rows: list[list], header: list[str] | None = None) -> None:
    lines = []
    if header is not None:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
