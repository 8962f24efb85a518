"""Run-wide constants and tolerances, overridable via HAMUNIV_* environment variables."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Config:
    # Hard cap on dense Hilbert-space dimension; constructions beyond it raise.
    dim_cap: int = 2**16
    # Eigenvalues within cluster_rtol * max(1, |H|) of each other form one
    # degeneracy cluster; spectral cuts must not land inside a cluster.
    cluster_rtol: float = 1e-9
    # Constant in the eigenvalue-deviation bound C_dev * T^3 kappa^2.
    c_dev: float = 10.0
    # Constant in the projector-distance bound C_proj * T^3 kappa.
    c_proj: float = 10.0
    # Prefactor in the Schrieffer-Wolff norm and truncation bounds.
    c_sw: float = 4.0
    # Prefactor in the first-order simulation bounds.
    c_first_order: float = 8.0
    # Seed for randomized property suites.
    seed: int = 0


DEFAULT = Config()

_ENV_PREFIX = "HAMUNIV_"


def from_env() -> Config:
    """Overlay HAMUNIV_<FIELD> environment variables onto the defaults, read as with_constants
    reads --const values."""
    found = {}
    for f in fields(Config):
        raw = os.environ.get(_ENV_PREFIX + f.name.upper())
        if raw is not None:
            found[f.name.upper()] = raw
    return with_constants(DEFAULT, found, _ENV_PREFIX + "{}")


def with_constants(cfg: Config, constants: dict, label: str = "--const {}") -> Config:
    """Apply NAME=VALUE overrides (names as in Config, any case), each value a number or its text.

    Every value must be finite and non-negative, and dim_cap and seed
    integral. A value that is not raises ValueError, and an unknown name
    KeyError, naming the override as label.format(NAME).
    """
    known = {f.name for f in fields(Config)}
    overrides = {}
    for name, raw in constants.items():
        key, source = name.lower(), label.format(name)
        if key not in known:
            raise KeyError(f"unknown constant {name!r}; known: {sorted(known)}")
        integral = key in ("dim_cap", "seed")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"{source} value {raw!r} is not numeric") from None
        if integral and not value.is_integer():
            raise ValueError(f"{source} must be an integer, got {raw!r}")
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{source} must be finite and non-negative, got {raw!r}")
        overrides[key] = int(value) if integral else value
    return replace(cfg, **overrides)
