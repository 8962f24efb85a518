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
from dataclasses import dataclass, field

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
from .operators import DimensionCapError, Subspace, eigh
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
    seed: int = 0
    constants: dict[str, float] = field(default_factory=dict)
    dim_cap: int | None = None
    config: Config = field(default_factory=from_env)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        cfg = with_constants(self.config, self.constants) if self.constants else self.config
        if self.dim_cap is not None:
            cfg = with_constants(cfg, {"dim_cap": self.dim_cap})
        if self.seed is not None:
            cfg = with_constants(cfg, {"seed": self.seed})
        self.config = cfg


def validate_input(path: str, kind: str = "json") -> tuple[dict | None, list[str]]:
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


def _hmk_dict(report) -> dict:
    return {
        "kappa": report.kappa,
        "t_steps": report.t_steps,
        "acceptance_gap": report.acceptance_gap,
        "deviation_bound": report.deviation_bound,
        "projector_distance": report.projector_distance,
        "projector_bound": report.projector_bound,
        "gap_above_low_space": report.gap_above_low_space,
        "low_space_dim": report.low_space_dim,
        "rows": [
            {
                "q_eigenvalue": r.q_eigenvalue,
                "predicted": r.predicted,
                "matched": r.matched,
                "deviation": r.deviation,
                "within_bound": r.within_bound,
            }
            for r in report.rows
        ],
        "deviations_ok": report.deviations_ok,
        "projector_ok": report.projector_ok,
        "pass": report.ok,
    }


def _cmd_spectrum(run: RunConfig, obj: dict) -> tuple[dict | None, list[list], bool]:
    op = serialize.operator_from_dict(obj.get("operator", obj), dim_cap=run.config.dim_cap)
    if not op.hermitian:
        raise InputFormatError("operator.hermitian", "spectrum requires a Hermitian operator")
    values = eigh(op, run.config).values
    rows = [[float(v)] for v in values]
    serialize.write_csv(run.output_path, rows)
    return None, rows, True


def _cmd_compile(run: RunConfig, obj: dict) -> tuple[dict, list, bool]:
    circuit = serialize.circuit_from_dict(obj.get("circuit", obj), dim_cap=run.config.dim_cap)
    unitary = compile_unitary(circuit)
    return {"compiled_unitary": serialize.operator_to_dict(unitary), "pass": True}, [], True


def _cmd_history(run: RunConfig, obj: dict) -> tuple[dict, list, bool]:
    circuit = serialize.circuit_from_dict(obj.get("circuit", obj), dim_cap=run.config.dim_cap)
    rep = ClockRep(obj.get("rep", "clock-subspace"))
    if "witness" in obj:
        witness = serialize.pairs_to_vector(obj["witness"], "witness")
    else:
        witness = np.zeros(circuit.witness_dim, dtype=complex)
        witness[0] = 1.0
    state = history_state(circuit, witness, rep)
    return (
        {
            "rep": rep.value,
            "t_steps": circuit.n_steps,
            "vector": serialize.vector_to_pairs(state.vector),
            "pass": True,
        },
        [],
        True,
    )


def _cmd_hmk_check(run: RunConfig, obj: dict) -> tuple[dict, list, bool]:
    circuit = serialize.circuit_from_dict(serialize._require(obj, "circuit", "input"),
                                          dim_cap=run.config.dim_cap)
    rep = ClockRep(obj.get("rep", "clock-subspace"))
    if "kappa" in obj:
        kappa = float(obj["kappa"])
    else:
        acc = acceptance_operator(circuit, run.config)
        gap_info = acceptance_gap(acc, circuit.completeness)
        if not gap_info.gapped:
            raise InputFormatError("circuit", "acceptance operator is ungapped; provide kappa")
        kappa = default_kappa(gap_info.gap, circuit.n_steps)
    kh = build_kitaev(circuit, kappa, rep, run.config)
    report = check_hmk_lemma(kh, run.config)
    out = _hmk_dict(report)
    out["rep"] = rep.value
    all_ok = report.ok
    if "idle_steps" in obj:
        idling = check_idling_faithfulness(
            circuit, int(obj["idle_steps"]), kappa, rep=rep, config=run.config
        )
        out["idling"] = {
            "idle_steps": idling.idle_steps,
            "t_steps": idling.t_steps,
            "accepting_dim": idling.accepting_dim,
            "measured_distance": idling.measured_distance,
            "measured_squared": idling.measured_squared,
            "bound": idling.bound,
            "pass": idling.ok,
        }
        out["pass"] = bool(out["pass"] and idling.ok)
        all_ok = all_ok and idling.ok
    return out, [], all_ok


def _cmd_sw(run: RunConfig, obj: dict) -> tuple[dict, list, bool]:
    h0 = serialize.operator_from_dict(serialize._require(obj, "h0", "input"), "input.h0",
                                      dim_cap=run.config.dim_cap)
    h1 = serialize.operator_from_dict(serialize._require(obj, "h1", "input"), "input.h1",
                                      dim_cap=run.config.dim_cap)
    delta = float(serialize._require(obj, "delta", "input"))
    minus_dim = int(serialize._require(obj, "minus_dim", "input"))
    if not 1 <= minus_dim <= h0.dim:
        raise InputFormatError("input.minus_dim", f"{minus_dim} outside [1, dim h0 = {h0.dim}]")
    order = int(obj.get("order", 1))
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
    return out, [], bounds.ok


def _parse_encoding(obj: dict, sim_dim: int, target_dim: int) -> Encoding:
    v_spec = serialize._require(obj, "v", "input")
    rows = int(serialize._require(v_spec, "rows", "input.v"))
    cols = int(serialize._require(v_spec, "cols", "input.v"))
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


def _cmd_verify_sim(run: RunConfig, obj: dict) -> tuple[dict, list, bool]:
    h = serialize.operator_from_dict(serialize._require(obj, "h", "input"), "input.h",
                                     dim_cap=run.config.dim_cap)
    h_prime = serialize.operator_from_dict(serialize._require(obj, "h_prime", "input"),
                                           "input.h_prime", dim_cap=run.config.dim_cap)
    enc = _parse_encoding(obj, h_prime.dim, h.dim)
    delta = float(serialize._require(obj, "delta", "input"))
    targets = obj.get("targets", {})
    report = verify_simulation(
        h,
        h_prime,
        enc,
        delta,
        eta_target=targets.get("eta"),
        epsilon_target=targets.get("epsilon"),
        config=run.config,
    )
    out = _rotation_summary(report)
    checks_ok = report.ok
    partition = []
    for beta in obj.get("beta", []):
        err, bound, ok = check_partition_function(
            h, h_prime, enc, delta, float(beta), report=report, config=run.config
        )
        partition.append({"beta": float(beta), "relative_error": err, "bound": bound, "pass": ok})
        checks_ok = checks_ok and ok
    dynamics = []
    if obj.get("t"):
        rho = enc.image_projector()
        rho = rho / np.trace(rho).real
        for t_val in obj["t"]:
            dist, bound, ok = check_dynamics(
                h, h_prime, enc, rho, float(t_val), report.epsilon_measured, report.eta_measured
            )
            dynamics.append(
                {"t": float(t_val), "trace_distance": dist, "bound": bound, "pass": ok}
            )
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
    return out, csv_rows, checks_ok


def _cmd_universal_demo(run: RunConfig, obj: dict) -> tuple[dict, list, bool]:
    h_target = serialize.operator_from_dict(serialize._require(obj, "h_target", "input"),
                                            "input.h_target", dim_cap=run.config.dim_cap)
    target = TargetHamiltonian.from_operator(h_target, run.config)
    report = end_to_end(
        target,
        a=float(serialize._require(obj, "a", "input")),
        m=int(serialize._require(obj, "m", "input")),
        kappa=obj.get("kappa"),
        idle_steps=int(obj.get("L", obj.get("idle_steps", 1))),
        delta=obj.get("delta"),
        delta_prime=obj.get("delta_prime"),
        tau=obj.get("tau"),
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
    return out, csv_rows, report.ok


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
        report, _, all_ok = _HANDLERS[run_config.command](run_config, obj)
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
        p.add_argument("--seed", type=int, default=0)
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
    try:
        run_config = RunConfig(
            command=args.command,
            input_path=args.input,
            output_path=args.output,
            seed=args.seed,
            constants=constants,
            dim_cap=args.cap,
        )
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return run(run_config)


if __name__ == "__main__":
    sys.exit(main())
