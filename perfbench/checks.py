"""Correctness checks on the program's outputs.

Every check compares an output with a quantity computed apart from the
program (numpy directly, or a different route through the package named in
the docstring), or with a property the method must have. None compares with a
stored copy of an earlier output. Each returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.linalg

# Absolute slack for comparisons the program itself makes with a 1e-9 margin.
SLACK = 1e-9
# Deviation of the low H_MK band from first order: C_DEV T^3 kappa^2 (PAPER.md, 10 T^3 kappa^2).
C_DEV = 10.0
# Schrieffer-Wolff constant C in C |h1|^(k+1) / delta^k (1 + l0/(pi delta)) (PAPER.md, C = 4).
C_SW = 4.0


def _fail(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def reference_q(unitary: np.ndarray, site_dims, witness_sites, output_site: int) -> np.ndarray:
    """Q = <0|_anc U^dag P_out U |0>_anc read off a dense circuit unitary.

    Sites are little-endian (site 0 fastest); witness sites are ascending, so
    an earlier witness site is the faster digit of the witness index. All
    other sites start in |0>, and acceptance is |1> on the output site.
    """
    dims = list(site_dims)
    strides = np.concatenate(([1], np.cumprod(dims[:-1]))).astype(np.int64)
    cols = np.zeros(1, dtype=np.int64)
    for s in witness_sites:
        cols = (cols[None, :] + (np.arange(dims[s]) * strides[s])[:, None]).reshape(-1)
    rows = np.arange(int(np.prod(dims)))
    accept = rows[(rows // strides[output_site]) % dims[output_site] == 1]
    block = unitary[np.ix_(accept, cols)]
    q = block.conj().T @ block
    return (q + q.conj().T) / 2


def hmk_rows(matched, q_matrix, kappa: float, t_steps: int) -> list[str]:
    """Low H_MK eigenvalues lie within C_DEV T^3 kappa^2 of kappa (1 - lambda_i)/(T+1)."""
    lam = np.sort(np.linalg.eigvalsh(q_matrix))[::-1]
    matched = np.asarray(matched, dtype=float)
    if matched.shape != lam.shape:
        return [f"H_MK low band has {matched.size} values, Q has {lam.size}"]
    predicted = kappa * (1.0 - lam) / (t_steps + 1)
    worst = float(np.abs(matched - predicted).max(initial=0.0))
    bound = C_DEV * t_steps**3 * kappa**2
    return _fail(worst <= bound, f"H_MK low band deviates {worst:.3e} > {bound:.3e}")


def final_table(table, target_eigs, epsilon: float) -> list[str]:
    """Targets equal the target spectrum and every |diff| stays within epsilon'."""
    out = []
    targets = sorted(t for t, _, _ in table)
    ref = sorted(np.repeat(np.asarray(target_eigs, dtype=float), len(table) // len(target_eigs)))
    if len(targets) != len(ref) or not np.allclose(targets, ref, rtol=0, atol=SLACK):
        out.append(f"final-table targets {targets} != target spectrum {ref}")
    for t, s, diff in table:
        if abs(diff - abs(t - s)) > SLACK:
            out.append(f"final-table diff {diff} != |{t} - {s}|")
        if diff > epsilon + SLACK:
            out.append(f"final-table diff {diff:.3e} exceeds epsilon' {epsilon:.3e}")
    return out


def norm_diff(norm_diff_squared: float, a: float) -> list[str]:
    """|W - W~|^2 equals 2 (1 - a / sqrt(a^2 + 1))."""
    formula = 2.0 * (1.0 - a / np.sqrt(a * a + 1.0))
    return _fail(
        abs(norm_diff_squared - formula) <= SLACK,
        f"norm_diff^2 {norm_diff_squared!r} != 2(1 - a/sqrt(a^2+1)) = {formula!r} at a = {a}",
    )


def strictly_decreasing(values, label: str) -> list[str]:
    values = list(values)
    return _fail(
        all(x > y for x, y in zip(values, values[1:])), f"{label} not strictly decreasing: {values}"
    )


def same_as_recorded(path: Path, key: str, digest: str) -> list[str]:
    """digest equals the one first recorded for key in the JSON file at path.

    The first digest of a key is recorded, so every later pass, and every
    later run that names the same file, is compared with it.
    """
    try:
        record = json.loads(path.read_text())
    except FileNotFoundError:
        record = {}
    if key not in record:
        record[key] = digest
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1))
    return _fail(record[key] == digest, f"{key}: report differs from the one recorded in {path.name}")


def spectra_agree(values_a, values_b, tol: float, label: str) -> list[str]:
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    if a.shape != b.shape:
        return [f"{label}: {a.size} vs {b.size} eigenvalues"]
    worst = float(np.abs(a - b).max(initial=0.0))
    return _fail(worst <= tol, f"{label}: eigenvalues differ by {worst:.3e} > {tol:.1e}")


def history_kernel(h0: np.ndarray, history, kernel_values, witness_dim: int) -> list[str]:
    """H_0 annihilates every history state, and its kernel has the witness dimension.

    kernel_values are the lowest witness_dim + 1 eigenvalues of H_0 from an
    independent eigensolve.
    """
    out = []
    residual = float(np.linalg.norm(h0 @ history, axis=0).max(initial=0.0))
    if residual > SLACK:
        out.append(f"|H_0 eta| = {residual:.3e} > 1e-9")
    vals = np.asarray(kernel_values, dtype=float)
    kernel = int(np.count_nonzero(vals <= SLACK))
    if kernel != witness_dim:
        out.append(f"kernel of H_0 has dimension {kernel}, witness dimension is {witness_dim}")
    return out


def matrices_match(a: np.ndarray, b: np.ndarray, tol: float, label: str) -> list[str]:
    if a.shape != b.shape:
        return [f"{label}: shapes {a.shape} vs {b.shape}"]
    worst = float(np.abs(a - b).max(initial=0.0))
    return _fail(worst <= tol, f"{label}: entries differ by {worst:.3e} > {tol:.1e}")


def idling(measured_squared: float, idle_steps: int, t_prime: int) -> list[str]:
    """|P_C0 - P_E(L)|^2 <= 2 (1 - sqrt(L / T'))."""
    bound = 2.0 * (1.0 - np.sqrt(idle_steps / t_prime))
    return _fail(
        measured_squared <= bound + SLACK,
        f"idling distance^2 {measured_squared:.3e} > 2(1 - sqrt(L/T')) = {bound:.3e}",
    )


def first_order(elements: np.ndarray, q_matrix: np.ndarray, kappa: float, t_steps: int) -> list[str]:
    """Pi_- h1 Pi_- in the history basis equals kappa/(T+1) (delta_ij - Q_ij)."""
    expected = kappa / (t_steps + 1) * (np.eye(q_matrix.shape[0]) - q_matrix)
    return matrices_match(elements, expected, 1e-10, "first-order effective Hamiltonian")


def sw_bounds(
    s_norm: float, s_bound: float, trunc: float, trunc_bound: float, s_exact: np.ndarray,
    h1_norm: float, delta: float, lambda0: float,
) -> list[str]:
    """Measured |S| and truncation stay within bounds that are recomputed here."""
    out = []
    s_ref = float(np.linalg.norm(s_exact, 2))
    if abs(s_norm - s_ref) > SLACK:
        out.append(f"reported |S| {s_norm!r} != measured {s_ref!r}")
    factor = 1.0 + lambda0 / (np.pi * delta)
    s_bound_ref = C_SW * h1_norm / delta * factor
    trunc_bound_ref = C_SW * h1_norm**2 / delta * factor
    if abs(s_bound - s_bound_ref) > SLACK or abs(trunc_bound - trunc_bound_ref) > SLACK:
        out.append("reported Schrieffer-Wolff bounds differ from C_SW |h1|^(k+1)/delta^k (1 + l0/(pi delta))")
    if s_ref > s_bound_ref:
        out.append(f"|S| {s_ref:.3e} exceeds its bound {s_bound_ref:.3e}")
    if trunc > trunc_bound_ref:
        out.append(f"truncation {trunc:.3e} exceeds its bound {trunc_bound_ref:.3e}")
    return out


def epsilon_small(epsilon: float) -> list[str]:
    return _fail(epsilon <= SLACK, f"certificate epsilon {epsilon:.3e} > 1e-9")


def within_bound(measured: float, bound: float, ok: bool, label: str) -> list[str]:
    return _fail(
        bool(ok) and measured <= bound + SLACK, f"{label}: {measured:.3e} vs bound {bound:.3e} (ok={ok})"
    )


def dynamics(
    h_tilde: np.ndarray, h_eff: np.ndarray, v: np.ndarray, t: float,
    epsilon: float, eta: float, reported,
) -> list[str]:
    """check_dynamics's (distance, bound, ok) recomputed for rho = V V^dag / k.

    rho evolves under H~ by expm, and under E(h_eff) = V h_eff V^dag as
    V expm(-i t h_eff) V^dag, which acts on rho like the full evolution since
    rho lives in the image of V. The trace norm of the Hermitian difference is
    the sum of its absolute eigenvalues; the bound is 2 eps t + 4 eta.
    """
    rho = v @ v.conj().T / v.shape[1]
    u = scipy.linalg.expm(-1j * t * h_tilde)
    u_enc = v @ scipy.linalg.expm(-1j * t * h_eff) @ v.conj().T
    diff = u @ rho @ u.conj().T - u_enc @ rho @ u_enc.conj().T
    distance = float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())
    bound = 2.0 * epsilon * abs(t) + 4.0 * eta
    dist_r, bound_r, ok = reported
    out = []
    if abs(dist_r - distance) > SLACK:
        out.append(f"dynamics distance {dist_r!r} != recomputed {distance!r} at t = {t}")
    if abs(bound_r - bound) > SLACK * max(1.0, bound):
        out.append(f"dynamics bound {bound_r!r} != 2 eps t + 4 eta = {bound!r} at t = {t}")
    return out + within_bound(distance, bound, ok, f"dynamics at t = {t}")


def partition_error(h_eff_vals, sim_vals, beta: float, reported: float) -> list[str]:
    """Reported relative error |Z' - Z| / Z recomputed from the two spectra."""
    z_t = float(np.exp(-beta * np.asarray(h_eff_vals)).sum())
    z_s = float(np.exp(-beta * np.asarray(sim_vals)).sum())
    ref = abs(z_s - z_t) / z_t
    return _fail(
        abs(reported - ref) <= 1e-9 * max(1.0, ref),
        f"partition-function error {reported!r} != recomputed {ref!r} at beta = {beta}",
    )
