"""Run-wide constants and tolerances, overridable via HAMUNIV_* environment variables."""

from __future__ import annotations

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
    """Overlay HAMUNIV_<FIELD> environment variables onto the defaults."""
    overrides = {}
    for f in fields(Config):
        raw = os.environ.get(_ENV_PREFIX + f.name.upper())
        if raw is None:
            continue
        overrides[f.name] = int(raw) if f.type == "int" else float(raw)
    return replace(DEFAULT, **overrides)


def with_constants(cfg: Config, constants: dict[str, float]) -> Config:
    """Apply CLI-style NAME=VALUE constant overrides (names as in Config)."""
    known = {f.name for f in fields(Config)}
    overrides = {}
    for name, value in constants.items():
        key = name.lower()
        if key not in known:
            raise KeyError(f"unknown constant {name!r}; known: {sorted(known)}")
        if key not in ("dim_cap", "seed"):
            overrides[key] = float(value)
        elif float(value).is_integer():
            overrides[key] = int(value)
        else:
            raise ValueError(f"constant {name!r} must be an integer, got {value!r}")
    return replace(cfg, **overrides)
