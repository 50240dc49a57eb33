"""JSON formats shared by the CLI: matrices, weights, kernels, channels.

Complex matrices travel as nested arrays of [re, im] pairs. All loaders
raise DomainError on malformed structure, on a boolean where a number
belongs and on any number that float() rejects, so the CLI can map every
input problem to one exit code. The CLI reads its function and kernel
flags through the same spec readers. Only ``channel_from_json`` imports
``channels``, when it is called, so reading matrices, weights and kernels
loads none of the property harness.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

import numpy as np

from .chentsov import BridgeMC, CanonicalMC, FromMonotone, MCFunction
from .errors import DomainError
from .monotone import (
    CanonicalMonotone,
    ConstantOne,
    GammaFamily,
    Identity,
    MonotoneFunction,
    WeightFunction,
    maximal_function,
    minimal_function,
    sqrt_function,
)

if TYPE_CHECKING:
    from .channels import KrausChannel

_FAMILY_BUILDERS = {
    "min": minimal_function,
    "max": maximal_function,
    "sqrt": sqrt_function,
    "identity": Identity,
    "constant-one": ConstantOne,
}


def _number(value, label: str) -> float:
    """float(value); a JSON boolean, or whatever float() rejects, is a
    DomainError."""
    if isinstance(value, bool):
        raise DomainError(f"{label} is not a number: {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{label} is not a number: {exc}") from exc


def load_json_file(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise DomainError("matrix must be a non-empty list of rows")
    rows = len(obj)
    cols = None
    out = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise DomainError(f"matrix row {i} must be a non-empty list")
        if cols is None:
            cols = len(row)
            out = np.zeros((rows, cols), dtype=np.complex128)
        elif len(row) != cols:
            raise DomainError(f"matrix row {i} has {len(row)} entries, expected {cols}")
        for j, entry in enumerate(row):
            label = f"matrix entry ({i},{j})"
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) for v in entry)
            ):
                raise DomainError(f"{label} must be a [re, im] pair of numbers")
            out[i, j] = complex(_number(entry[0], label), _number(entry[1], label))
    return out


def matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def weight_from_json(obj) -> WeightFunction:
    if not isinstance(obj, dict):
        raise DomainError("weight must be an object")
    try:
        bp = obj["breakpoints"]
        vals = obj["values"]
    except KeyError as exc:
        raise DomainError(f"weight is missing field {exc}") from exc
    if not isinstance(bp, list) or not isinstance(vals, list):
        raise DomainError("weight fields must be lists")
    return WeightFunction(
        breakpoints=tuple(_number(b, "breakpoint") for b in bp),
        values=tuple(_number(v, "weight value") for v in vals),
    )


def weight_to_json(h: WeightFunction) -> dict:
    return {"breakpoints": list(h.breakpoints), "values": list(h.values)}


def monotone_from_json(obj) -> MonotoneFunction:
    """f-spec: {"family": name [, "gamma": g]} or {"h": weight, "beta": ...}."""
    if not isinstance(obj, dict):
        raise DomainError("function spec must be an object")
    if "family" in obj:
        family = obj["family"]
        if family == "gamma":
            if "gamma" not in obj:
                raise DomainError("gamma family needs a 'gamma' field")
            return GammaFamily(_number(obj["gamma"], "gamma"))
        builder = _FAMILY_BUILDERS.get(family) if isinstance(family, str) else None
        if builder is None:
            raise DomainError(f"unknown family {family!r}")
        return builder()
    if "h" in obj:
        h = weight_from_json(obj["h"])
        beta = obj.get("beta", "auto")
        if beta == "auto":
            return CanonicalMonotone.normalized(h)
        return CanonicalMonotone(beta=_number(beta, "beta"), h=h)
    raise DomainError("function spec needs 'family' or 'h'")


def mc_from_json(obj) -> MCFunction:
    """Kernel spec: kind bridge | canonical | from_f."""
    if not isinstance(obj, dict):
        raise DomainError("kernel spec must be an object")
    kind = obj.get("kind")
    if kind == "bridge":
        if "gamma" not in obj:
            raise DomainError("bridge kernel needs a 'gamma' field")
        return BridgeMC(gamma=_number(obj["gamma"], "gamma"))
    if kind == "canonical":
        if "h" not in obj:
            raise DomainError("canonical kernel needs an 'h' field")
        h = weight_from_json(obj["h"])
        c0 = obj.get("c0", "auto")
        if c0 == "auto":
            return CanonicalMC.normalized(h)
        return CanonicalMC(c0=_number(c0, "c0"), h=h)
    if kind == "from_f":
        if "f" not in obj:
            raise DomainError("from_f kernel needs an 'f' field")
        return FromMonotone(f=monotone_from_json(obj["f"]))
    raise DomainError(f"unknown kernel kind {kind!r}")


def channel_from_json(obj) -> KrausChannel:
    from .channels import KrausChannel

    if not isinstance(obj, dict) or "kraus" not in obj:
        raise DomainError("channel spec needs a 'kraus' field")
    ops = obj["kraus"]
    if not isinstance(ops, list) or not ops:
        raise DomainError("'kraus' must be a non-empty list of matrices")
    return KrausChannel(operators=tuple(matrix_from_json(k) for k in ops))


def channel_to_json(channel: KrausChannel) -> dict:
    return {"kraus": [matrix_to_json(k) for k in channel.operators]}
