"""Command-line front end: parse problem files, run pipelines, emit reports.

Exit codes: 0 when every assertion in the produced report holds, 1 when the
report contains a failed assertion, 2 on input errors (malformed JSON,
schema violations, dimension cap, precondition failures).

Reports are canonical JSON (sorted keys, shortest round-trip floats), so
identical inputs and seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import serialize
from .config import Config, from_env, with_constants
from .circuits import acceptance_gap, acceptance_operator, compile_unitary
from .kitaev import (
    ClockRep,
    build_kitaev,
    check_hmk_lemma,
    check_idling_faithfulness,
    default_kappa,
    history_state,
)
from .operators import DenseOperator, DimensionCapError, Subspace, eigh
from .schrieffer_wolff import SWProblem, sw_bounds, sw_exact
from .simulation import (
    Encoding,
    check_dynamics,
    check_partition_function,
    verify_simulation,
)
from .serialize import InputFormatError, canonical_json
from .universality import TargetHamiltonian, end_to_end

COMMANDS = ("spectrum", "compile", "history", "hmk-check", "sw", "verify-sim", "universal-demo")


@dataclass
class RunConfig:
    command: str
    input_path: str
    output_path: str
    config: Config

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")


def validate_input(path: str) -> tuple[dict | None, list[str]]:
    """Load and parse an input file; diagnostics instead of exceptions."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        return None, [f"{path}: {exc}"]
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]
    except ValueError as exc:  # an integer literal past Python's digit limit
        return None, [f"{path}: {exc}"]
    if not isinstance(obj, dict):
        return None, [f"{path}: top-level JSON value must be an object"]
    return obj, []


def _csv_path(output_path: str, suffix: str) -> str:
    base = output_path[:-5] if output_path.endswith(".json") else output_path
    return f"{base}.{suffix}.csv"


def _rotation_summary(report) -> dict:
    return {
        "delta": report.delta,
        "eta_measured": report.eta_measured,
        "epsilon_measured": report.epsilon_measured,
        "conditions": dict(report.conditions),
        "eigen_table": [
            {
                "i": row.index_target,
                "lambda_target": row.lambda_target,
                "j": row.index_sim,
                "lambda_sim": row.lambda_sim,
                "difference": row.difference,
            }
            for row in report.eigen_table
        ],
    }


def _optional_real(obj: dict, key: str, path: str) -> float | None:
    """obj[key] as a finite float, None when it is absent or null."""
    value = obj.get(key)
    return None if value is None else serialize._real(value, f"{path}.{key}")


def _real_list(obj: dict, key: str) -> list[float]:
    """obj[key], a list of finite numbers, as floats; empty when it is absent or null."""
    values = obj.get(key)
    if values is None:
        return []
    if not isinstance(values, list):
        raise InputFormatError(f"input.{key}", "expected a list of numbers")
    return [serialize._real(v, f"input.{key}[{i}]") for i, v in enumerate(values)]


def _operator(run: RunConfig, obj: dict, key: str) -> DenseOperator:
    """input.<key>, an operator that must carry "hermitian": true, else an input error at
    input.<key>.hermitian: no command reads a spectrum from one triangle of its matrix."""
    path = f"input.{key}"
    op = serialize.operator_from_dict(serialize._require(obj, key, "input"), path,
                                      dim_cap=run.config.dim_cap)
    if not op.hermitian:
        raise InputFormatError(f"{path}.hermitian", "must be true: the hermitian flag is required")
    return op


def _clock_rep(obj: dict) -> ClockRep:
    """input.rep, by default the clock subspace."""
    value, accepted = obj.get("rep", "clock-subspace"), [r.value for r in ClockRep]
    if value not in accepted:
        raise InputFormatError("input.rep", f"expected one of {accepted}, got {value!r}")
    return ClockRep(value)


def _hmk_dict(report) -> dict:
    # the report's keys are HmkReport's and HmkRow's field names (docs/schemas.md)
    return {**asdict(report), "pass": report.ok}


def _cmd_spectrum(run: RunConfig, obj: dict) -> tuple[dict | None, bool]:
    op = _operator(run, obj if "operator" in obj else {"operator": obj}, "operator")
    values = eigh(op, run.config).values
    rows = [[float(v)] for v in values]
    serialize.write_csv(run.output_path, rows)
    return None, True


def _cmd_compile(run: RunConfig, obj: dict) -> tuple[dict, bool]:
    circuit = serialize.circuit_from_dict(obj.get("circuit", obj), dim_cap=run.config.dim_cap)
    unitary = compile_unitary(circuit)
    return {"compiled_unitary": serialize.operator_to_dict(unitary), "pass": True}, True


def _cmd_history(run: RunConfig, obj: dict) -> tuple[dict, bool]:
    circuit = serialize.circuit_from_dict(obj.get("circuit", obj), dim_cap=run.config.dim_cap)
    rep = _clock_rep(obj)
    if "witness" in obj:
        witness = serialize.pairs_to_vector(obj["witness"], "witness")
    else:
        witness = np.zeros(circuit.witness_dim, dtype=complex)
        witness[0] = 1.0
    vector = serialize.matrix_to_pairs(history_state(circuit, witness, rep).vector)
    return {"rep": rep.value, "t_steps": circuit.n_steps, "vector": vector, "pass": True}, True


def _cmd_hmk_check(run: RunConfig, obj: dict) -> tuple[dict, bool]:
    circuit = serialize.circuit_from_dict(serialize._require(obj, "circuit", "input"),
                                          dim_cap=run.config.dim_cap)
    rep = _clock_rep(obj)
    idle_steps = None
    if "idle_steps" in obj:
        idle_steps = serialize._integer(obj["idle_steps"], "input.idle_steps")
    kappa = _optional_real(obj, "kappa", "input")
    acc = acceptance_operator(circuit, run.config)
    if kappa is None:
        gap_info = acceptance_gap(acc, circuit.completeness)
        if not gap_info.gapped:
            raise InputFormatError("circuit", "acceptance operator is ungapped; provide kappa")
        kappa = default_kappa(gap_info.gap, circuit.n_steps)
    kh = build_kitaev(circuit, kappa, rep)
    report = check_hmk_lemma(kh, run.config, _acc=acc)
    out = _hmk_dict(report)
    out["rep"] = rep.value
    all_ok = report.ok
    if idle_steps is not None:
        idling = check_idling_faithfulness(circuit, idle_steps, kappa, rep, run.config, _acc=acc)
        out["idling"] = asdict(idling)
        out["idling"]["pass"] = out["idling"].pop("ok")
        out["pass"] = bool(out["pass"] and idling.ok)
        all_ok = all_ok and idling.ok
    return out, all_ok


def _cmd_sw(run: RunConfig, obj: dict) -> tuple[dict, bool]:
    h0, h1 = _operator(run, obj, "h0"), _operator(run, obj, "h1")
    delta = serialize._real(serialize._require(obj, "delta", "input"), "input.delta")
    minus_dim = serialize._integer(serialize._require(obj, "minus_dim", "input"),
                                   "input.minus_dim")
    if not 1 <= minus_dim <= h0.dim:
        raise InputFormatError("input.minus_dim", f"{minus_dim} outside [1, dim h0 = {h0.dim}]")
    order = serialize._integer(obj.get("order", 1), "input.order")
    if order not in (0, 1):
        raise InputFormatError("input.order", f"{order} is not 0 or 1")
    es = eigh(h0, run.config)
    minus = Subspace.from_basis(h0.layout, es.vectors[:, :minus_dim])
    prob = SWProblem(h0=h0, h1=h1, delta=delta, minus=minus)
    expansion = sw_exact(prob, run.config)
    bounds = sw_bounds(prob, order, run.config)
    low = np.linalg.eigvalsh(expansion.h_eff_restricted())
    out = {
        "lambda0": prob.lambda0,
        "s_norm_measured": bounds.s_norm_measured,
        "s_norm_bound": bounds.s_norm_bound,
        "truncation_measured": bounds.truncation_measured,
        "truncation_bound": bounds.truncation_bound,
        "order": bounds.order,
        "h_eff_spectrum": [float(v) for v in low],
        "pass": bounds.ok,
    }
    return out, bounds.ok


def _parse_encoding(obj: dict, sim_dim: int, target_dim: int) -> Encoding:
    v_spec = serialize._require(obj, "v", "input")
    rows = serialize._integer(serialize._require(v_spec, "rows", "input.v"), "input.v.rows")
    cols = serialize._integer(serialize._require(v_spec, "cols", "input.v"), "input.v.cols")
    flat = serialize.pairs_to_vector(serialize._require(v_spec, "entries", "input.v"), "input.v.entries")
    if flat.shape[0] != rows * cols:
        raise InputFormatError("input.v.entries", f"expected {rows * cols} pairs")
    v = flat.reshape(rows, cols)
    if rows != sim_dim:
        raise InputFormatError("input.v", f"isometry rows {rows} != simulator dimension {sim_dim}")
    anc = cols // target_dim
    if anc * target_dim != cols:
        raise InputFormatError("input.v", "isometry columns are not a multiple of dim(h)")
    if "p" in obj:
        p = serialize.pairs_to_matrix(obj["p"], anc, "input.p")
    else:
        p = np.eye(anc, dtype=complex)
    if "q" in obj and obj["q"] is not None:
        q = serialize.pairs_to_matrix(obj["q"], anc, "input.q")
    else:
        q = np.zeros((anc, anc), dtype=complex)
    try:
        return Encoding(v=v, p_anc=p, q_anc=q, target_dim=target_dim)
    except ValueError as exc:
        raise InputFormatError("input.v", str(exc)) from exc


def _cmd_verify_sim(run: RunConfig, obj: dict) -> tuple[dict, bool]:
    h, h_prime = _operator(run, obj, "h"), _operator(run, obj, "h_prime")
    enc = _parse_encoding(obj, h_prime.dim, h.dim)
    delta = serialize._real(serialize._require(obj, "delta", "input"), "input.delta")
    targets = obj.get("targets")
    if targets is None:
        targets = {}
    elif not isinstance(targets, dict):
        raise InputFormatError("input.targets", "expected an object")
    betas, times = _real_list(obj, "beta"), _real_list(obj, "t")
    report = verify_simulation(
        h,
        h_prime,
        enc,
        delta,
        eta_target=_optional_real(targets, "eta", "input.targets"),
        epsilon_target=_optional_real(targets, "epsilon", "input.targets"),
        config=run.config,
    )
    out = _rotation_summary(report)
    checks_ok = report.ok
    partition = []
    for beta in betas:
        err, bound, ok = check_partition_function(
            h, h_prime, enc, delta, beta, report=report, config=run.config
        )
        partition.append({"beta": beta, "relative_error": err, "bound": bound, "pass": ok})
        checks_ok = checks_ok and ok
    dynamics = []
    if times:
        rho = enc.image_projector()
        rho = rho / np.trace(rho).real
        for t_val in times:
            dist, bound, ok = check_dynamics(
                h, h_prime, enc, rho, t_val, report.epsilon_measured, report.eta_measured
            )
            dynamics.append({"t": t_val, "trace_distance": dist, "bound": bound, "pass": ok})
            checks_ok = checks_ok and ok
    out["partition_function"] = partition
    out["dynamics"] = dynamics
    out["pass"] = checks_ok
    csv_rows = [
        [row.index_target, row.lambda_target, row.index_sim, row.lambda_sim, row.difference]
        for row in report.eigen_table
    ]
    serialize.write_csv(
        _csv_path(run.output_path, "eigen_table"),
        csv_rows,
        header=["i", "lambda_target", "j", "lambda_sim", "difference"],
    )
    return out, checks_ok


def _cmd_universal_demo(run: RunConfig, obj: dict) -> tuple[dict, bool]:
    target = TargetHamiltonian.from_operator(_operator(run, obj, "h_target"), run.config)
    idle_key = "L" if "L" in obj else "idle_steps"
    report = end_to_end(
        target,
        a=serialize._real(serialize._require(obj, "a", "input"), "input.a"),
        m=serialize._integer(serialize._require(obj, "m", "input"), "input.m"),
        kappa=_optional_real(obj, "kappa", "input"),
        idle_steps=serialize._integer(obj.get(idle_key, 1), f"input.{idle_key}"),
        delta=_optional_real(obj, "delta", "input"),
        delta_prime=_optional_real(obj, "delta_prime", "input"),
        tau=_optional_real(obj, "tau", "input"),
        config=run.config,
    )
    out = {
        "a": report.a,
        "m": report.m,
        "tau": report.tau,
        "kappa": report.kappa,
        "idle_steps": report.idle_steps,
        "t_steps": report.t_steps,
        "acceptance_gap": report.acceptance_gap,
        "delta_multiplier": report.delta_multiplier,
        "delta_hat": report.delta_hat,
        "delta_prime": report.delta_prime,
        "flag_prefactor": report.flag_prefactor,
        "alignment_shift": report.alignment_shift,
        "frame_shift": report.frame_shift,
        "hmk": _hmk_dict(report.hmk),
        "wtilde": {
            "norm_diff": report.wtilde.norm_diff,
            "norm_diff_squared": report.wtilde.norm_diff_squared,
            "formula_value": report.wtilde.formula_value,
            "exceeds_formula": report.wtilde.exceeds_formula,
            "sim": _rotation_summary(report.wtilde.sim_report),
        },
        "bridge": _rotation_summary(report.bridge),
        "composite": _rotation_summary(report.composite),
        "eta_prime": report.eta_prime,
        "epsilon_prime": report.epsilon_prime,
        "final_table": [
            {"lambda_target": t, "lambda_sim": s, "difference": d}
            for t, s, d in report.final_table
        ],
        "pass": report.ok,
    }
    csv_rows = [[t, s, d] for t, s, d in report.final_table]
    serialize.write_csv(
        _csv_path(run.output_path, "final_table"),
        csv_rows,
        header=["lambda_target", "lambda_sim", "difference"],
    )
    return out, report.ok


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "compile": _cmd_compile,
    "history": _cmd_history,
    "hmk-check": _cmd_hmk_check,
    "sw": _cmd_sw,
    "verify-sim": _cmd_verify_sim,
    "universal-demo": _cmd_universal_demo,
}


def run(run_config: RunConfig) -> int:
    obj, diagnostics = validate_input(run_config.input_path)
    if obj is None:
        for line in diagnostics:
            print(line, file=sys.stderr)
        return 2
    try:
        report, all_ok = _HANDLERS[run_config.command](run_config, obj)
    except (InputFormatError, DimensionCapError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        report.setdefault("command", run_config.command)
        report.setdefault("seed", run_config.config.seed)
        with open(run_config.output_path, "w") as fh:
            fh.write(canonical_json(report) + "\n")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamuniv",
        description="Clock-Hamiltonian compilation and simulation certification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--output", required=True)
        p.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
        p.add_argument("--cap", type=int, default=None, help="dense-dimension cap override")
        p.add_argument(
            "--const",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="constant override (repeatable), e.g. --const c_dev=12",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    constants = {}
    for item in args.const:
        if "=" not in item:
            print(f"input error: --const expects NAME=VALUE, got {item!r}", file=sys.stderr)
            return 2
        name, _, value = item.partition("=")
        try:
            constants[name] = float(value)
        except ValueError:
            print(f"input error: --const {name} value {value!r} is not numeric", file=sys.stderr)
            return 2
    # precedence: defaults, then HAMUNIV_*, then --const, then --cap and --seed
    flags = {name: v for name, v in (("dim_cap", args.cap), ("seed", args.seed)) if v is not None}
    try:
        config = with_constants(with_constants(from_env(), constants), flags)
        run_config = RunConfig(args.command, args.input, args.output, config)
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return run(run_config)


if __name__ == "__main__":
    sys.exit(main())
