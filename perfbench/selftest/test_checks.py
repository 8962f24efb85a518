"""Self-test of the benchmark's checks: each accepts a correct result and rejects a corrupted one.

    python3 -m pytest -q perfbench/selftest
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from hamuniv.circuits import compile_unitary  # noqa: E402
from hamuniv.operators import DenseOperator  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def clock_ops():
    return workloads.clock_crossval(SEED)


@pytest.fixture(scope="module")
def sw_op():
    op = workloads.sw_certify(SEED)[0]
    return op, op.run()


def test_reference_unitary_matches_compile_unitary():
    rng = np.random.default_rng(SEED)
    circuit = workloads.random_verifier(rng, workloads.CLOCK_CIRCUITS[1][0])
    gates = [(g.unitary.entries, g.targets) for g in circuit.gates]
    ours = workloads.circuit_unitary(gates, circuit.layout.site_dims)
    assert np.abs(ours - compile_unitary(circuit).entries).max() < 1e-12


def test_reference_q_of_cnot_verifier():
    # CNOT from the witness qubit (site 1) onto the output qubit accepts |1> only
    cnot = np.zeros((4, 4))
    for out in range(2):
        for wit in range(2):
            cnot[(out ^ wit) + 2 * wit, out + 2 * wit] = 1.0
    q = checks.reference_q(cnot, (2, 2), (1,), 0)
    assert np.allclose(q, np.diag([0.0, 1.0]))


def test_compile_check_rejects_swapped_column(clock_ops):
    op = clock_ops[0]
    unitary, acc = op.run()
    assert op.check((unitary, acc), {}) == []
    q = acc.q.entries.copy()
    q[:, [0, 1]] = q[:, [1, 0]]
    bad = dataclasses.replace(acc, q=DenseOperator(acc.q.layout, q))
    assert op.check((unitary, bad), {})


def test_hmk_check_rejects_shifted_eigenvalue(clock_ops):
    op = clock_ops[1]
    kh, hmk, idle = op.run()
    assert op.check((kh, hmk, idle), {}) == []
    shift = 100 * hmk.deviation_bound
    rows = (dataclasses.replace(hmk.rows[0], matched=hmk.rows[0].matched + shift),) + hmk.rows[1:]
    assert op.check((kh, dataclasses.replace(hmk, rows=rows), idle), {})


def test_hmk_check_rejects_idling_above_bound(clock_ops):
    op = clock_ops[1]
    kh, hmk, idle = op.run()
    bad = dataclasses.replace(idle, measured_squared=idle.bound + 1e-3)
    assert op.check((kh, hmk, bad), {})


def test_sw_check_rejects_perturbed_h_eff(sw_op):
    op, result = sw_op
    assert op.check(result, {}) == []
    h_eff = result[3].copy()
    h_eff[0, 0] += 1e-6
    assert op.check(result[:3] + (h_eff,) + result[4:], {})


def test_sw_check_rejects_loose_certificate(sw_op):
    op, result = sw_op
    report = dataclasses.replace(result[5], epsilon_measured=1e-6)
    assert op.check(result[:5] + (report,) + result[6:], {})


def test_sw_check_rejects_misreported_dynamics(sw_op):
    op, result = sw_op
    dist, bound, ok = result[7][0]
    for bad in ((dist / 2, bound, ok), (dist, 2 * bound, ok), (2 * bound, bound, False)):
        assert op.check(result[:7] + ([bad] + result[7][1:],), {})


def test_hmk_rows():
    q = np.diag([1.0, 0.4])
    kappa, t = 1e-4, 3
    predicted = kappa * (1 - np.array([1.0, 0.4])) / (t + 1)
    assert checks.hmk_rows(predicted, q, kappa, t) == []
    assert checks.hmk_rows(predicted + [0, 11 * t**3 * kappa**2], q, kappa, t)


def test_final_table():
    eps = 1e-3
    table = ((0.0, 2e-4, 2e-4), (0.5, 0.5004, 4e-4))
    assert checks.final_table(table, (0.0, 0.5), eps) == []
    assert checks.final_table(((0.1, 0.1002, 2e-4), table[1]), (0.0, 0.5), eps)
    assert checks.final_table((table[0], (0.5, 0.502, 2e-3)), (0.0, 0.5), eps)
    assert checks.final_table((table[0], (0.5, 0.5004, 1e-4)), (0.0, 0.5), eps)


def test_norm_diff():
    a = 8.0
    value = 2 * (1 - a / np.sqrt(a * a + 1))
    assert checks.norm_diff(value, a) == []
    assert checks.norm_diff(value * (1 + 1e-6), a)


def test_strictly_decreasing():
    assert checks.strictly_decreasing([0.9, 0.5, 0.1], "eta'") == []
    assert checks.strictly_decreasing([0.9, 0.9, 0.1], "eta'")


def test_same_as_recorded(tmp_path):
    path = tmp_path / "out" / "reports.json"
    assert checks.same_as_recorded(path, "a=2", "abc") == []
    assert checks.same_as_recorded(path, "a=8", "xyz") == []
    assert checks.same_as_recorded(path, "a=2", "abc") == []
    assert checks.same_as_recorded(path, "a=2", "abd")
    assert checks.same_as_recorded(path, "a=8", "xyz") == []


def test_spectra_agree():
    vals = np.linspace(0, 1, 10)
    assert checks.spectra_agree(vals, vals + 1e-12, 1e-9, "x") == []
    shifted = vals.copy()
    shifted[3] += 1e-8
    assert checks.spectra_agree(vals, shifted, 1e-9, "x")
    assert checks.spectra_agree(vals, vals[:-1], 1e-9, "x")


def test_history_kernel():
    h0 = np.diag([0.0, 0.0, 1.0])
    history = np.eye(3)[:, :2]
    assert checks.history_kernel(h0, history, [0.0, 0.0, 1.0], 2) == []
    assert checks.history_kernel(h0, np.eye(3)[:, 1:], [0.0, 0.0, 1.0], 2)
    assert checks.history_kernel(h0, history, [0.0, 0.0, 0.0], 2)


def test_matrices_match_and_idling():
    q = np.diag([1.0, 0.3]) + 0.1
    swapped = q[:, [1, 0]]
    assert checks.matrices_match(q, q.copy(), 1e-10, "Q") == []
    assert checks.matrices_match(q, swapped, 1e-10, "Q")
    bound = 2 * (1 - np.sqrt(1 / 4))
    assert checks.idling(bound - 1e-3, 1, 4) == []
    assert checks.idling(bound + 1e-3, 1, 4)


def test_first_order():
    q = np.array([[0.8, 0.1], [0.1, 0.2]])
    kappa, t = 0.05, 7
    good = kappa / (t + 1) * (np.eye(2) - q)
    assert checks.first_order(good, q, kappa, t) == []
    assert checks.first_order(good + 1e-8, q, kappa, t)


def test_sw_bounds():
    s = np.array([[0.0, 0.01], [-0.01, 0.0]])
    h1, delta = 0.05, 1.0
    args = dict(s_exact=s, h1_norm=h1, delta=delta, lambda0=0.0)
    s_bound, t_bound = 4 * h1 / delta, 4 * h1**2 / delta
    assert checks.sw_bounds(0.01, s_bound, 1e-3, t_bound, **args) == []
    assert checks.sw_bounds(0.02, s_bound, 1e-3, t_bound, **args)
    assert checks.sw_bounds(0.01, s_bound, 2 * t_bound, t_bound, **args)
    assert checks.sw_bounds(0.01, 2 * s_bound, 1e-3, t_bound, **args)


def test_epsilon_bound_and_partition():
    assert checks.epsilon_small(1e-13) == []
    assert checks.epsilon_small(1e-6)
    assert checks.within_bound(0.1, 0.2, True, "x") == []
    assert checks.within_bound(0.3, 0.2, True, "x")
    assert checks.within_bound(0.1, 0.2, False, "x")
    eff, full = [0.0, 0.1], [0.0, 0.1, 5.0]
    z_t = 1 + np.exp(-0.1)
    err = np.exp(-5.0) / z_t
    assert checks.partition_error(eff, full, 1.0, err) == []
    assert checks.partition_error(eff, full, 1.0, err * 1.01)
