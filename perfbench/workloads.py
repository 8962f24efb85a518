"""Seeded inputs, operation lists and output checks of the three workloads.

A workload is a fixed list of operations; one pass runs each once, in order.
The seed only changes numbers inside the inputs (a rotation of the target, the
random gates, the perturbation weight), never their sizes, so every seed asks
for the same amount of work. Operations reach the package through module
attributes looked up at call time, which is what lets the tracer wrap them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import hamuniv.circuits as cir
import hamuniv.kitaev as kit
import hamuniv.operators as ops
import hamuniv.schrieffer_wolff as sw
import hamuniv.simulation as sim
import hamuniv.universality as uni

import checks

# Spans of traced runs, and the universality_e2e report digests of each seed,
# so that every pass and every later run of a seed in this checkout is
# compared with the first.
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


@dataclass
class Op:
    """One operation: `run` is timed; `check(result, memo)` is not.

    memo persists across the operations and passes of one run, for checks
    that compare operations with each other.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def apply_local(matrix: np.ndarray, gate: np.ndarray, targets, dims) -> np.ndarray:
    """gate (targets[0] its fastest index) applied to the rows of a full matrix."""
    n = len(dims)
    k = len(targets)
    cols = matrix.shape[1]
    # C order: tensor axis a is site n-1-a, the trailing axis holds the columns
    psi = matrix.reshape(tuple(reversed(dims)) + (cols,))
    local = gate.reshape(tuple(dims[t] for t in reversed(targets)) * 2)
    axes = [n - 1 - t for t in reversed(targets)]
    out = np.tensordot(local, psi, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(matrix.shape)


def circuit_unitary(gates, dims) -> np.ndarray:
    u = np.eye(int(np.prod(dims)), dtype=complex)
    for matrix, targets in gates:
        u = apply_local(u, matrix, targets, dims)
    return u


@dataclass(frozen=True)
class CircuitSpec:
    """Output qubit at site 0, then witness sites, then ancilla sites."""

    witness: tuple[int, ...]
    ancilla: tuple[int, ...]
    n_gates: int
    idle_steps: int
    min_gap: float  # acceptance gap c - lambda_2 that a drawn circuit must have

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) + self.witness + self.ancilla


def random_verifier(rng: np.random.Generator, spec: CircuitSpec) -> cir.VerifierCircuit:
    """Random two-site gates, the last one on the output qubit, idled by spec.idle_steps.

    Draws until the acceptance operator, computed here from a dense unitary,
    has a gap of at least spec.min_gap below its top eigenvalue, which is
    the completeness. That gap is the hypothesis of the H_MK lemma and keeps
    the low-band cut clear of eigenvalue clusters at this kappa.
    """
    dims = spec.dims
    n = len(dims)
    witness_sites = tuple(range(1, 1 + len(spec.witness)))
    registers = [
        ops.Register("flag", (0,), role="flag"),
        ops.Register("witness", witness_sites, role="witness"),
    ]
    if spec.ancilla:
        registers.append(ops.Register("ancilla", tuple(range(1 + len(spec.witness), n)), role="ancilla"))
    layout = ops.SystemLayout(dims, registers=tuple(registers))
    for _ in range(1000):
        gates = []
        for g in range(spec.n_gates):
            if g == spec.n_gates - 1:
                pair = (0, int(rng.integers(1, n)))
            else:
                pair = tuple(int(s) for s in rng.choice(n, size=2, replace=False))
            gates.append((haar_unitary(rng, dims[pair[0]] * dims[pair[1]]), pair))
        q = checks.reference_q(circuit_unitary(gates, dims), dims, witness_sites, 0)
        lam = np.linalg.eigvalsh(q)
        if lam[-1] - lam[-2] >= spec.min_gap:
            break
    else:
        raise RuntimeError(f"no circuit with acceptance gap >= {spec.min_gap} in 1000 draws")
    circuit = cir.VerifierCircuit(
        layout=layout,
        gates=tuple(
            cir.Gate.from_matrix(m, t, layout, label=f"g{i}") for i, (m, t) in enumerate(gates)
        ),
        witness_register=("witness",),
        output_site=0,
        completeness=float(min(lam[-1], 1.0)),
        soundness=float(lam[-2]),
    )
    return cir.idle_prefix(circuit, spec.idle_steps)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, list(BUILDERS).index(workload)])


def _q_from_compile(circuit: cir.VerifierCircuit) -> np.ndarray:
    u = cir.compile_unitary(circuit).entries
    return checks.reference_q(
        u, circuit.layout.site_dims, circuit.witness_sites, circuit.output_site
    )


def _program_ok(ok: bool, label: str) -> list:
    return [] if ok else [f"{label}: the program's own report says fail"]


# -- universality_e2e ------------------------------------------------------

FLAG_WEIGHTS = (2.0, 8.0, 32.0)
TARGET_SPECTRUM = (0.0, 0.5)


def universality_e2e(seed: int) -> list[Op]:
    """end_to_end on diag(0, 1/2) in a seeded eigenbasis, m = 2, L = 1, tau = pi."""
    v = haar_unitary(_rng(seed, "universality_e2e"), 2)
    h_target = v @ np.diag(TARGET_SPECTRUM).astype(complex) @ v.conj().T
    h_target = (h_target + h_target.conj().T) / 2

    def make_run(a):
        def run():
            target = uni.TargetHamiltonian.from_matrix(h_target, (2,))
            return uni.end_to_end(target, a=a, m=2, idle_steps=1, tau=np.pi)

        return run

    def make_check(a):
        def check(report, memo):
            out = _program_ok(report.ok, f"end_to_end a={a}")
            out += checks.final_table(
                report.final_table, np.linalg.eigvalsh(np.diag(TARGET_SPECTRUM)), report.epsilon_prime
            )
            out += checks.norm_diff(report.wtilde.norm_diff_squared, a)
            target = uni.TargetHamiltonian.from_matrix(h_target, (2,))
            circuit = cir.idle_prefix(uni.qpe_verifier(target, a, 2, np.pi), 1)
            out += checks.hmk_rows(
                [row.matched for row in report.hmk.rows],
                _q_from_compile(circuit),
                report.kappa,
                report.t_steps,
            )
            etas = memo.setdefault("eta_prime", {})
            etas[a] = report.eta_prime
            if a == FLAG_WEIGHTS[-1]:
                out += checks.strictly_decreasing([etas[x] for x in FLAG_WEIGHTS], "eta'")
            digest = repr(
                (
                    report.kappa,
                    report.delta_hat,
                    report.eta_prime,
                    report.epsilon_prime,
                    report.final_table,
                    [(r.matched, r.deviation) for r in report.hmk.rows],
                    report.hmk.projector_distance,
                    report.bridge.eta_measured,
                    report.bridge.epsilon_measured,
                )
            )
            out += checks.same_as_recorded(
                OUT_DIR / f"reports-universality_e2e-seed{seed}.json",
                f"end_to_end a={a:g}",
                hashlib.sha256(digest.encode()).hexdigest(),
            )
            return out

        return check

    return [Op(f"end_to_end a={a:g}", make_run(a), make_check(a)) for a in FLAG_WEIGHTS]


# -- clock_crossval --------------------------------------------------------

# (spec, both clock representations?). Dimensions: A is 56 / 512, B is
# 96 / 1536, C is 1664 and clock-subspace only (unary would be 128 * 2^12),
# so both representations sit on both sides of the 1200-dimension switch
# between the full and the subset eigensolver. One witness qubit each: with
# more, a random circuit rarely has a top acceptance gap of 0.2.
CLOCK_CIRCUITS = (
    (CircuitSpec(witness=(2,), ancilla=(2,), n_gates=4, idle_steps=2, min_gap=0.2), True),
    (CircuitSpec(witness=(2,), ancilla=(3,), n_gates=5, idle_steps=2, min_gap=0.2), True),
    (CircuitSpec(witness=(2,), ancilla=(2,) * 5, n_gates=10, idle_steps=2, min_gap=0.2), False),
)


def _lowest(matrix: np.ndarray, count: int) -> np.ndarray:
    return scipy.linalg.eigvalsh(matrix, subset_by_index=(0, min(count, matrix.shape[0]) - 1))


def clock_crossval(seed: int) -> list[Op]:
    """hmk-check on seeded random verifiers, in both clock representations."""
    rng = _rng(seed, "clock_crossval")
    result: list[Op] = []
    for index, (spec, both) in enumerate(CLOCK_CIRCUITS):
        circuit = random_verifier(rng, spec)
        result.append(Op(f"circuit {index}: compile", _compile_run(circuit), _compile_check(circuit)))
        reps = (kit.ClockRep.CLOCK_SUBSPACE, kit.ClockRep.UNARY_FULL_SPACE) if both else (
            kit.ClockRep.CLOCK_SUBSPACE,
        )
        for rep in reps:
            result.append(
                Op(
                    f"circuit {index}: hmk-check {rep.value}",
                    _hmk_run(circuit, rep, spec.idle_steps),
                    _hmk_check(circuit, rep, spec.idle_steps, index, both),
                )
            )
    return result


def _compile_run(circuit):
    def run():
        return cir.compile_unitary(circuit), cir.acceptance_operator(circuit)

    return run


def _compile_check(circuit):
    def check(result, memo):
        unitary, acc = result
        u = unitary.entries
        out = checks.matrices_match(
            u.conj().T @ u, np.eye(u.shape[0]), 1e-10, "compile_unitary U^dag U vs 1"
        )
        q = checks.reference_q(u, circuit.layout.site_dims, circuit.witness_sites, circuit.output_site)
        return out + checks.matrices_match(
            acc.q.entries, q, 1e-10, "acceptance_operator vs Q from compile_unitary"
        )

    return check


def _hmk_run(circuit, rep, idle_steps):
    def run():
        acc = cir.acceptance_operator(circuit)
        gap = cir.acceptance_gap(acc, circuit.completeness)
        kappa = kit.default_kappa(gap.gap, circuit.n_steps)
        kh = kit.build_kitaev(circuit, kappa, rep)
        return kh, kit.check_hmk_lemma(kh), kit.check_idling_faithfulness(
            circuit, idle_steps, kappa, rep=rep
        )

    return run


def _hmk_check(circuit, rep, idle_steps, index, both):
    def check(result, memo):
        kh, hmk, idle = result
        w = circuit.witness_dim
        out = _program_ok(hmk.ok and idle.ok, f"hmk-check {rep.value}")
        out += checks.hmk_rows(
            [row.matched for row in hmk.rows], _q_from_compile(circuit), kh.kappa, kh.t_steps
        )
        h0 = kh.h0().entries
        history = np.stack(
            [kit.history_state(circuit, np.eye(w)[:, i], rep).vector for i in range(w)], axis=1
        )
        out += checks.history_kernel(h0, history, _lowest(h0, w + 1), w)
        if both:
            low = _lowest(kh.h_mk().entries, w + 8)
            reference = memo.setdefault("clock_low", {}).setdefault(index, low)
            if rep is kit.ClockRep.UNARY_FULL_SPACE:
                out += checks.spectra_agree(
                    reference, low, 1e-9, f"circuit {index}: clock-subspace vs unary H_MK"
                )
        out += checks.idling(idle.measured_squared, idle_steps, circuit.n_steps)
        return out

    return check


# -- sw_certify ------------------------------------------------------------

# Circuit spaces of 32, 48 and 64 states, seven gates, no idling: D = 256, 384, 512.
# A verifier needs soundness below completeness, hence the small minimum gap.
SW_CIRCUITS = (
    CircuitSpec(witness=(2, 2), ancilla=(2, 2), n_gates=7, idle_steps=0, min_gap=1e-3),
    CircuitSpec(witness=(2, 2), ancilla=(2, 3), n_gates=7, idle_steps=0, min_gap=1e-3),
    CircuitSpec(witness=(2, 2), ancilla=(2, 2, 2), n_gates=7, idle_steps=0, min_gap=1e-3),
)
SW_DELTA = 1.0
SW_CUTOFF = 0.5  # between the low band (|h1| wide) and delta - |h1|
BETAS = (1.0, 20.0)
TIMES = (1.0, 10.0)


@dataclass(frozen=True)
class SWInput:
    circuit: cir.VerifierCircuit
    h0: ops.DenseOperator  # H_0 / gap(H_0)
    h1: ops.DenseOperator  # kappa H_out
    kappa: float


def sw_input(rng: np.random.Generator, spec: CircuitSpec) -> SWInput:
    circuit = random_verifier(rng, spec)
    kh = kit.build_kitaev(circuit, 0.5 * kit.kappa_limit(circuit.n_steps))
    h0 = kh.h0().entries
    w = circuit.witness_dim
    vals = np.linalg.eigvalsh(h0)
    if not (vals[w - 1] <= checks.SLACK and vals[w] > 1e-6):
        raise RuntimeError(f"H_0 kernel is not {w}-dimensional: {vals[: w + 1]}")
    kappa = float(rng.uniform(0.03, 0.06))
    return SWInput(
        circuit=circuit,
        h0=ops.DenseOperator(kh.layout, h0 / vals[w], hermitian=True),
        h1=ops.DenseOperator(kh.layout, kappa * kh.h_out.entries, hermitian=True),
        kappa=kappa,
    )


def sw_certify(seed: int) -> list[Op]:
    """The CLI sw sequence and a simulation certificate of H~ against h_eff."""
    rng = _rng(seed, "sw_certify")
    return [
        Op(f"sw D={item.h0.dim}", _sw_run(item), _sw_check(item))
        for item in (sw_input(rng, spec) for spec in SW_CIRCUITS)
    ]


def _sw_run(item: SWInput):
    w = item.circuit.witness_dim

    def run():
        es = ops.eigh(item.h0)
        minus = ops.Subspace.from_basis(item.h0.layout, es.vectors[:, :w])
        prob = sw.SWProblem(h0=item.h0, h1=item.h1, delta=SW_DELTA, minus=minus)
        expansion = sw.sw_exact(prob)
        bounds = sw.sw_bounds(prob)
        h_eff = expansion.h_eff_restricted()
        h_tilde = prob.perturbed()
        enc = sim.plain_encoding(minus.basis, w)
        report = sim.verify_simulation(h_eff, h_tilde, enc, SW_CUTOFF)
        partition = [
            sim.check_partition_function(h_eff, h_tilde, enc, SW_CUTOFF, beta, report=report)
            for beta in BETAS
        ]
        rho = enc.image_projector() / w
        dynamics = [
            sim.check_dynamics(
                h_eff, h_tilde, enc, rho, t, report.epsilon_measured, report.eta_measured
            )
            for t in TIMES
        ]
        return prob, expansion, bounds, h_eff, h_tilde, report, partition, dynamics

    return run


def _history_basis(circuit: cir.VerifierCircuit) -> np.ndarray:
    """History states of the witness basis, built from compile_gates partial products."""
    layout = circuit.layout
    w = circuit.witness_dim
    inputs = np.zeros((layout.total_dim, w), dtype=complex)
    strides = layout.strides()
    for i in range(w):
        index, rest = 0, i
        for s in circuit.witness_sites:
            index += (rest % layout.site_dims[s]) * strides[s]
            rest //= layout.site_dims[s]
        inputs[index, i] = 1.0
    blocks = [
        cir.compile_gates(layout, circuit.gates[:t]).entries @ inputs
        for t in range(circuit.n_steps + 1)
    ]
    return np.concatenate(blocks, axis=0) / np.sqrt(circuit.n_steps + 1)


def _sw_check(item: SWInput):
    def check(result, memo):
        prob, expansion, bounds, h_eff, h_tilde, report, partition, dynamics = result
        w = item.circuit.witness_dim
        h_vals = np.linalg.eigvalsh(h_tilde.entries)
        h_norm = float(np.abs(h_vals).max())
        eff_vals = np.linalg.eigvalsh(h_eff)
        out = _program_ok(bounds.ok and report.ok, f"sw D={item.h0.dim}")
        out += checks.spectra_agree(
            eff_vals, h_vals[:w], 1e-9 * h_norm, "h_eff vs lowest eigenvalues of H~"
        )
        basis = _history_basis(item.circuit)
        out += checks.first_order(
            basis.conj().T @ expansion.h_eff_orders[1].entries @ basis,
            _q_from_compile(item.circuit),
            item.kappa,
            item.circuit.n_steps,
        )
        out += checks.sw_bounds(
            bounds.s_norm_measured,
            bounds.s_norm_bound,
            bounds.truncation_measured,
            bounds.truncation_bound,
            expansion.s_exact,
            float(np.linalg.norm(item.h1.entries, 2)),
            SW_DELTA,
            prob.lambda0,
        )
        out += checks.epsilon_small(report.epsilon_measured)
        for beta, (err, bound, ok) in zip(BETAS, partition):
            out += checks.within_bound(err, bound, ok, f"partition function at beta = {beta}")
            out += checks.partition_error(eff_vals, h_vals, beta, err)
        for t, reported in zip(TIMES, dynamics):
            out += checks.dynamics(
                h_tilde.entries, h_eff, prob.minus.basis, t,
                report.epsilon_measured, report.eta_measured, reported,
            )
        return out

    return check


BUILDERS = {
    "universality_e2e": universality_e2e,
    "clock_crossval": clock_crossval,
    "sw_certify": sw_certify,
}
