import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamuniv.circuits import (
    UNITARITY_TOL,
    Gate,
    VerifierCircuit,
    acceptance_gap,
    acceptance_operator,
    apply_gate_to_vector,
    compile_gates,
    compile_unitary,
    identity_gate,
    idle_prefix,
    initial_state,
    run_circuit,
)
from hamuniv.operators import Register, SystemLayout, tensor_embed

from conftest import (
    cnot_verifier,
    flag_witness_layout,
    identity_verifier,
    random_state,
    random_unitary,
    random_verifier,
    x_flag_verifier,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
H2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)


class TestGate:
    def test_rejects_non_unitary(self):
        lay = SystemLayout((2,))
        with pytest.raises(ValueError, match="unitary"):
            Gate.from_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]), (0,), lay)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stretch=st.lists(st.floats(-3 * UNITARITY_TOL, 3 * UNITARITY_TOL), min_size=2, max_size=6),
    )
    def test_frobenius_first_decides_as_the_two_norm(self, seed, stretch):
        # U^dag U - I is (nearly) diag(stretch): its 2-norm is max |stretch| and
        # its Frobenius norm the root sum of squares, so both sides of the
        # tolerance, and the band between the two norms, are drawn
        d = len(stretch)
        u = random_unitary(np.random.default_rng(seed), d) * np.sqrt(1.0 + np.array(stretch))
        two_norm = np.linalg.norm(u.conj().T @ u - np.eye(d), 2)
        if two_norm > UNITARITY_TOL:
            with pytest.raises(ValueError, match="unitary"):
                Gate.from_matrix(u, (0,), SystemLayout((d,)))
        else:
            Gate.from_matrix(u, (0,), SystemLayout((d,)))

    def test_frobenius_excess_alone_is_no_rejection(self):
        u = np.diag(np.sqrt(np.full(4, 1.0 + 0.8 * UNITARITY_TOL))).astype(complex)
        defect = u.conj().T @ u - np.eye(4)
        assert np.linalg.norm(defect) > UNITARITY_TOL >= np.linalg.norm(defect, 2)
        Gate.from_matrix(u, (0,), SystemLayout((4,)))

    def test_rejects_duplicate_targets(self):
        lay = SystemLayout((2, 2))
        with pytest.raises(ValueError, match="duplicate"):
            Gate.from_matrix(np.eye(4), (0, 0), lay)


class TestCompile:
    def test_empty_gate_list_is_identity(self):
        lay = SystemLayout((2, 2))
        u = compile_gates(lay, ())
        assert np.abs(u.entries - np.eye(4)).max() == 0.0

    def test_two_x_gates_cancel(self):
        lay = SystemLayout((2,))
        g = Gate.from_matrix(X, (0,), lay)
        u = compile_gates(lay, (g, g))
        assert np.abs(u.entries - np.eye(2)).max() <= 1e-12

    def test_random_circuit_vs_matrix_product_oracle(self, rng):
        # oracle: the explicit product of embedded gate matrices, built here
        circuit = random_verifier(rng, t_steps=3, n_witness=2)
        lay = circuit.layout
        oracle = np.eye(lay.total_dim, dtype=complex)
        for g in circuit.gates:
            oracle = tensor_embed(g.unitary, g.targets, lay).entries @ oracle
        assert np.abs(compile_unitary(circuit).entries - oracle).max() <= 1e-12

    def test_statevector_application_matches_embedded_matrix(self, rng):
        lay = SystemLayout((2, 3, 2))
        u = random_unitary(rng, 6)
        gate = Gate.from_matrix(u, (1, 2), lay, label="two-site")
        emb = tensor_embed(gate.unitary, gate.targets, lay).entries
        vec = random_state(rng, lay.total_dim)
        assert np.abs(apply_gate_to_vector(vec, gate, lay) - emb @ vec).max() <= 1e-12


class TestInitialState:
    def test_ancillas_pinned_to_zero(self, rng):
        circuit = cnot_verifier()
        w = random_state(rng, 2)
        vec = initial_state(circuit, w)
        # layout (flag, witness): index = flag + 2 * witness
        assert vec[0] == w[0] and vec[2] == w[1]
        assert vec[1] == 0.0 and vec[3] == 0.0


class TestAcceptanceOperator:
    def test_hadamard_ancilla_scalar_half(self):
        # no witness sites: one ancilla that is also the output
        lay = SystemLayout(
            (2, 2),
            registers=(Register("flag", (0,), "flag"), Register("witness", (1,), "witness")),
        )
        # witness untouched; Hadamard puts the output in (|0>+|1>)/sqrt(2)
        circuit = VerifierCircuit(
            layout=lay,
            gates=(Gate.from_matrix(H2, (0,), lay, label="h"),),
            witness_register=("witness",),
            output_site=0,
            completeness=0.5,
            soundness=0.25,
        )
        q = acceptance_operator(circuit).q.entries
        assert np.abs(q - 0.5 * np.eye(2)).max() <= 1e-12

    def test_cnot_projects_onto_one(self):
        acc = acceptance_operator(cnot_verifier())
        assert np.abs(acc.q.entries - np.diag([0.0, 1.0])).max() <= 1e-12

    def test_born_probability_oracle(self, rng):
        circuit = random_verifier(rng, t_steps=3, n_witness=2)
        acc = acceptance_operator(circuit)
        # independent oracle: full compiled unitary acting on the embedded witness
        u = compile_unitary(circuit).entries
        accept = circuit.layout.digit_table()[circuit.output_site] == 1
        for _ in range(20):
            psi = random_state(rng, circuit.witness_dim)
            final = u @ initial_state(circuit, psi)
            born = float(np.sum(np.abs(final[accept]) ** 2))
            predicted = float(np.real(psi.conj() @ acc.q.entries @ psi))
            assert abs(born - predicted) <= 1e-10

    def test_spectrum_in_unit_interval(self, rng):
        acc = acceptance_operator(random_verifier(rng, t_steps=4, n_witness=2))
        assert acc.eigen.values.min() >= -1e-9
        assert acc.eigen.values.max() <= 1 + 1e-9


class TestAcceptanceGap:
    def test_ungapped_when_all_eigenvalues_at_completeness(self):
        # X on the output accepts every witness: Q = 1, no eigenvalue below c = 1
        acc = acceptance_operator(x_flag_verifier())
        info = acceptance_gap(acc, 1.0)
        assert not info.gapped
        assert info.gap is None
        assert np.allclose(info.eigenvalues, 1.0)

    def test_diagonal_gap(self):
        acc = acceptance_operator(cnot_verifier())
        info = acceptance_gap(acc, 1.0)
        assert info.gapped and info.gap == pytest.approx(1.0, abs=1e-12)

    def test_no_instance_gap_exceeds_promise_gap(self, rng):
        # identity circuit never accepts: Q = 0, so the gap is at least c - s
        circuit = identity_verifier(2, completeness=0.9)
        acc = acceptance_operator(circuit)
        info = acceptance_gap(acc, circuit.completeness)
        assert info.gapped
        assert info.gap >= circuit.completeness - circuit.soundness - 1e-12


class TestIdlePrefix:
    def test_zero_idles_unchanged(self):
        circuit = cnot_verifier()
        assert idle_prefix(circuit, 0) is circuit

    def test_three_idles_prepended(self):
        circuit = cnot_verifier()
        idled = idle_prefix(circuit, 3)
        assert idled.n_steps == 4
        assert all(g.label == "idle" and g.is_identity() for g in idled.gates[:3])

    def test_compile_unchanged_by_idling(self):
        circuit = cnot_verifier()
        u0 = compile_unitary(circuit).entries
        u1 = compile_unitary(idle_prefix(circuit, 2)).entries
        assert np.abs(u0 - u1).max() <= 1e-12

    def test_acceptance_operator_invariant_under_idling(self, rng):
        circuit = random_verifier(rng, t_steps=2, n_witness=2)
        q0 = acceptance_operator(circuit).q.entries
        for idle in (1, 4):
            q1 = acceptance_operator(idle_prefix(circuit, idle)).q.entries
            assert np.abs(q0 - q1).max() <= 1e-12


class TestVerifierValidation:
    def test_requires_gates(self):
        lay = flag_witness_layout(1)
        with pytest.raises(ValueError, match="at least one gate"):
            VerifierCircuit(lay, (), ("witness",), 0, 1.0, 0.5)

    def test_soundness_below_completeness(self):
        lay = flag_witness_layout(1)
        g = identity_gate(lay, 0)
        with pytest.raises(ValueError, match="soundness"):
            VerifierCircuit(lay, (g,), ("witness",), 0, 0.5, 0.7)

    def test_output_site_outside_witness(self):
        lay = flag_witness_layout(1)
        g = identity_gate(lay, 0)
        with pytest.raises(ValueError, match="witness"):
            VerifierCircuit(lay, (g,), ("witness",), 1, 1.0, 0.5)

    def test_run_circuit_preserves_norm(self, rng):
        circuit = random_verifier(rng, t_steps=4, n_witness=2)
        final = run_circuit(circuit, random_state(rng, circuit.witness_dim))
        assert abs(np.linalg.norm(final) - 1.0) <= 1e-12
