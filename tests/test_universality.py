import numpy as np
import pytest
import scipy.sparse

from hamuniv.circuits import acceptance_gap, acceptance_operator
from hamuniv.operators import (
    DenseOperator,
    DimensionCapError,
    Subspace,
    SystemLayout,
    hermitize,
    subspace_distance,
)
from hamuniv.universality import (
    HASH_STATE,
    TargetHamiltonian,
    build_hprime,
    build_hsim,
    end_to_end,
    first_order_sim_check,
    qpe_verifier,
    witness_family,
    wtilde_encodings,
)

from conftest import random_hermitian

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def qubit_target(diag) -> TargetHamiltonian:
    return TargetHamiltonian.from_matrix(np.diag(diag).astype(complex), (2,))


class TestWitnessFamily:
    def test_exact_phase_instance(self):
        fam = witness_family(qubit_target([0.0, 0.5]), a=4.0, m=2, tau=np.pi)
        assert fam.exact_phases
        assert list(fam.readout_ints) == [1, 2]
        assert fam.shift == pytest.approx(0.5)
        gram = fam.states.conj().T @ fam.states
        assert np.abs(gram - np.eye(2)).max() <= 1e-12

    def test_collision_detected(self):
        # two distinct energies indistinguishable at one readout digit
        target = qubit_target([0.0, 1e-3])
        with pytest.raises(ValueError, match="collision"):
            witness_family(target, a=2.0, m=1)

    def test_degenerate_energies_share_readout(self):
        fam = witness_family(TargetHamiltonian.from_matrix(np.eye(2, dtype=complex), (2,)), 2.0, 2)
        assert fam.readout_ints[0] == fam.readout_ints[1]
        gram = fam.states.conj().T @ fam.states
        assert np.abs(gram - np.eye(2)).max() <= 1e-12

    def test_tau_wraparound_rejected(self):
        with pytest.raises(ValueError, match="wrap"):
            witness_family(qubit_target([0.0, 1.0]), a=2.0, m=2, tau=2 * np.pi)

    def test_readout_indices_match_digit_loop(self):
        for m in range(1, 6):
            fam = witness_family(qubit_target([0.0, 0.5]), a=4.0, m=m, tau=np.pi)
            for j in range(2**m):
                idx, base = 0, 1
                for k in range(m):
                    idx += ((j >> k) & 1) * base
                    base *= 3
                assert fam.readout_basis_index(j) == idx
            assert fam.hash_string_index == sum(HASH_STATE * 3**k for k in range(m))


class TestQpeVerifier:
    def test_zero_target_top_space_is_predicted_span(self):
        target = qubit_target([0.0, 0.0])
        fam = witness_family(target, a=3.0, m=1)
        circuit = qpe_verifier(target, 3.0, 1, fam=fam)
        acc = acceptance_operator(circuit)
        top = acc.eigen.vectors[:, acc.eigen.values >= 1 - 1e-9]
        assert top.shape[1] == 2
        lay = circuit.witness_layout()
        dist = subspace_distance(
            Subspace.from_basis(lay, top), Subspace.from_basis(lay, fam.states)
        )
        assert dist <= 1e-10

    def test_exact_phase_witnesses_are_exact_eigenvectors(self):
        target = qubit_target([0.0, 0.5])
        fam = witness_family(target, a=8.0, m=2, tau=np.pi)
        circuit = qpe_verifier(target, 8.0, 2, tau=np.pi, fam=fam)
        q = acceptance_operator(circuit).q.entries
        for mu in range(2):
            w = fam.states[:, mu]
            assert np.linalg.norm(q @ w - w) <= 1e-11

    def test_second_eigenvalue_exactly_half(self):
        target = qubit_target([0.0, 0.5])
        circuit = qpe_verifier(target, 8.0, 2, tau=np.pi)
        vals = np.sort(acceptance_operator(circuit).eigen.values)[::-1]
        assert vals[2] == pytest.approx(0.5, abs=1e-9)
        info = acceptance_gap(acceptance_operator(circuit), 1.0)
        assert info.gap == pytest.approx(0.5, abs=1e-9)

    def test_inexact_phase_overlap_and_distance(self):
        # tau = 4 puts the phases off the grid; the witness span is still O(1/a) close
        a = 10.0
        target = qubit_target([0.0, 0.3])
        fam = witness_family(target, a=a, m=2, tau=4.0)
        assert not fam.exact_phases
        circuit = qpe_verifier(target, a, 2, tau=4.0, fam=fam)
        acc = acceptance_operator(circuit)
        top = acc.eigen.vectors[:, acc.eigen.values >= 1 - 1e-9]
        lay = circuit.witness_layout()
        dist = subspace_distance(
            Subspace.from_basis(lay, top), Subspace.from_basis(lay, fam.states)
        )
        assert dist <= 10.0 / a
        # measured overlap against the displayed (a^2 + 4/pi^2)/(a^2 + 1) curve,
        # recorded without assuming the inequality's direction
        overlaps = np.abs(fam.states.conj().T @ top)
        best = overlaps.max(axis=1)
        assert best.min() >= a**2 / (a**2 + 1.0)

    def test_gates_are_unitary_and_registers_tagged(self):
        target = qubit_target([0.0, 0.5])
        circuit = qpe_verifier(target, 2.0, 2, tau=np.pi)
        assert [g.label for g in circuit.gates] == ["flag-rotation", "energy-prep", "swap-test"]
        roles = {r.name: r.role for r in circuit.layout.registers}
        assert roles == {
            "flag": "flag",
            "witness": "witness",
            "readout": "readout",
            "scratch": "ancilla",
            "control": "control",
        }


class TestBuildHprime:
    def test_zero_target(self):
        target = qubit_target([0.0, 0.0])
        fam = witness_family(target, 2.0, 1)
        hp = build_hprime(target, fam)
        assert np.abs(hp.entries).max() == 0.0

    def test_rank_structure(self):
        target = qubit_target([0.0, 1.0])
        fam = witness_family(target, a=100.0, m=2, tau=np.pi / 2)
        hp = build_hprime(target, fam)
        vals = np.linalg.eigvalsh(hp.entries)
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(vals[:-1]).max() <= 1e-10

    def test_restricted_spectrum_equals_target(self):
        target = qubit_target([0.25, 0.75])
        fam = witness_family(target, a=3.0, m=2, tau=np.pi)
        hp = build_hprime(target, fam)
        compressed = fam.states.conj().T @ hp.entries @ fam.states
        assert np.abs(np.linalg.eigvalsh(compressed) - [0.25, 0.75]).max() <= 1e-10


class TestWtilde:
    def test_squared_norm_identity(self):
        for a in (1.0, 2.0, 1000.0):
            target = qubit_target([0.0, 0.5])
            fam = witness_family(target, a=a, m=2, tau=np.pi)
            report = wtilde_encodings(target, fam)
            formula = 2 * (1 - a / np.sqrt(a**2 + 1))
            assert report.formula_value == pytest.approx(formula, abs=1e-12)
            assert report.norm_diff_squared == pytest.approx(formula, abs=1e-9)
            # the raw operator norm is the square root, so it exceeds the
            # formula for a > 1/sqrt(3); the report flags this
            assert report.exceeds_formula == (report.norm_diff > formula + 1e-9)

    def test_large_a_scale(self):
        target = qubit_target([0.0, 0.5])
        fam = witness_family(target, a=1000.0, m=2, tau=np.pi)
        report = wtilde_encodings(target, fam)
        assert report.norm_diff_squared <= 2e-6

    def test_simulation_report_exact_spectra(self):
        target = qubit_target([0.0, 0.5])
        fam = witness_family(target, a=8.0, m=2, tau=np.pi)
        report = wtilde_encodings(target, fam)
        sim = report.sim_report
        assert sim.epsilon_measured <= 1e-9
        assert sim.eta_measured == pytest.approx(report.norm_diff, abs=1e-9)
        for row in sim.eigen_table:
            assert row.difference <= 1e-9

    def test_degenerate_target_isometries(self):
        target = TargetHamiltonian.from_matrix(np.eye(2, dtype=complex), (2,))
        fam = witness_family(target, a=5.0, m=2)
        report = wtilde_encodings(target, fam)
        for w in (report.w_local, report.w_tilde):
            assert np.abs(w.conj().T @ w - np.eye(2)).max() <= 1e-10


class TestBuildHsim:
    def test_no_flags_is_scaled_shifted_ls(self, rng):
        lay = SystemLayout((2, 2))
        h = random_hermitian(rng, 4)
        h_ls = scipy.sparse.csr_matrix(h)
        lam = float(np.linalg.eigvalsh(h)[0])
        out = build_hsim(h_ls, lam, (), delta=3.0, a=1.0, layout=lay)
        assert out.format == "csr"
        assert np.abs(out.toarray() - 3.0 * (h - lam * np.eye(4))).max() <= 1e-12
        assert np.linalg.eigvalsh(out.toarray()).min() >= -1e-9

    def test_place_value_weights(self):
        # three qutrit readout sites at level 1: flag sum reads the binary value
        lay = SystemLayout((3, 3, 3))
        h_ls = scipy.sparse.csr_matrix((27, 27), dtype=complex)
        flags = tuple((site, 1) for site in range(3))
        a = 0.7
        out = build_hsim(h_ls, 0.0, flags, delta=1.0, a=a, layout=lay)
        assert out.format == "csr"
        diag = np.real(out.diagonal())
        table = lay.digit_table()
        for idx in range(27):
            bits = [1 if table[k, idx] == 1 else 0 for k in range(3)]
            value = bits[0] + 2 * bits[1] + 4 * bits[2]
            assert abs(diag[idx] - a * value) <= 1e-12

    @pytest.mark.parametrize("level", [-1, 2])
    def test_level_outside_site_refused(self, level):
        lay = SystemLayout((3, 2))
        h_ls = scipy.sparse.csr_matrix((6, 6), dtype=complex)
        with pytest.raises(ValueError, match=f"flag level {level} outside site 1"):
            build_hsim(h_ls, 0.0, ((0, 2), (1, level)), 1.0, 1.0, lay)


class TestFirstOrderSimCheck:
    def _two_level(self, v, delta):
        lay = SystemLayout((2,))
        h0 = DenseOperator(lay, np.diag([0.0, 1.0]).astype(complex), hermitian=True)
        h1 = DenseOperator(lay, v * X, hermitian=True)
        u = np.array([[1.0], [0.0]], dtype=complex)
        return first_order_sim_check(h0, h1, delta, u, np.zeros((1, 1)), epsilon=0.0)

    def test_zero_perturbation(self):
        lay = SystemLayout((2,))
        h0 = DenseOperator(lay, np.diag([0.0, 1.0]).astype(complex), hermitian=True)
        h1 = DenseOperator(lay, np.zeros((2, 2)), hermitian=True)
        u = np.array([[1.0], [0.0]], dtype=complex)
        report = first_order_sim_check(h0, h1, 5.0, u, np.zeros((1, 1)), epsilon=0.0)
        assert report.isometry_error <= 1e-12
        assert report.energy_error <= 1e-12

    def test_two_level_closed_form_scales(self):
        v, delta = 0.1, 10.0
        report = self._two_level(v, delta)
        assert report.isometry_error == pytest.approx(v / delta, rel=0.05)
        assert report.energy_error == pytest.approx(v**2 / delta, rel=0.05)
        assert report.ok

    def test_delta_doubling_halves_errors(self):
        v = 0.1
        r1 = self._two_level(v, 10.0)
        r2 = self._two_level(v, 20.0)
        assert 0.4 <= r2.isometry_error / r1.isometry_error <= 0.6
        assert 0.4 <= r2.energy_error / r1.energy_error <= 0.6

    def test_requirement_violation_raises(self):
        lay = SystemLayout((2,))
        h0 = DenseOperator(lay, np.diag([0.0, 1.0]).astype(complex), hermitian=True)
        h1 = DenseOperator(lay, np.diag([0.4, 0.0]).astype(complex), hermitian=True)
        u = np.array([[1.0], [0.0]], dtype=complex)
        with pytest.raises(ValueError, match="requirement"):
            first_order_sim_check(h0, h1, 5.0, u, np.zeros((1, 1)), epsilon=0.1)


class TestEndToEndTrivialTarget:
    def test_zero_target_every_stage_exact(self):
        target = qubit_target([0.0, 0.0])
        report = end_to_end(target, a=2.0, m=1, idle_steps=1, delta=1e6)
        assert report.epsilon_prime <= 1e-8
        for lam_t, lam_s, diff in report.final_table:
            assert abs(lam_t) <= 1e-12
            assert diff <= 1e-8
        assert report.hmk.ok
        assert report.ok

    def test_acceptance_operator_is_built_once(self, monkeypatch):
        import hamuniv.kitaev as kitaev
        import hamuniv.universality as universality

        built = []

        def counted(*args, **kwargs):
            built.append(acceptance_operator(*args, **kwargs))
            return built[-1]

        for module in (kitaev, universality):
            monkeypatch.setattr(module, "acceptance_operator", counted)
        end_to_end(qubit_target([0.0, 0.0]), a=2.0, m=1, idle_steps=1, delta=1e6)
        assert len(built) == 1

    def test_wtilde_simulator_is_scanned_once(self, monkeypatch):
        # W~ reaches its certificate flagged; only the bridge reads it back as a plain array
        import hamuniv.kitaev as kitaev
        import hamuniv.operators as operators
        import hamuniv.simulation as simulation

        scanned = []

        def counted(h, name):
            if not isinstance(h, DenseOperator) and np.shape(h) == (18, 18):
                scanned.append(name)
            return operators._hermitian(h, name)

        for module in (kitaev, simulation):
            monkeypatch.setattr(module, "_hermitian", counted)
        end_to_end(qubit_target([0.0, 0.5]), a=8.0, m=2, idle_steps=1, tau=np.pi)
        assert scanned == ["h"]


def _loop_rank_one_sum(fam, shift=0.0):
    """The per-mu loops that build_hprime (shift 0) and wtilde_encodings (its frame shift) ran."""
    d_w = fam.states.shape[0]
    h = np.zeros((d_w, d_w), dtype=complex)
    for mu in range(fam.states.shape[1]):
        w = fam.states[:, mu]
        h += (fam.energies[mu] - shift) * np.outer(w, w.conj())
    return hermitize(h)


class TestRankOneSums:
    @pytest.mark.parametrize(
        "matrix, a, m, tau",
        [
            (np.diag([0.0, 0.5]), 2.0, 2, np.pi),
            (np.diag([0.25, 0.75]), 3.0, 2, np.pi),
            (np.diag([0.0, 0.0]), 8.0, 1, None),
            (random_hermitian(np.random.default_rng(7), 2), 4.0, 2, None),
        ],
    )
    def test_hprime_and_wtilde_match_the_loops(self, matrix, a, m, tau):
        target = TargetHamiltonian.from_matrix(matrix.astype(complex), (2,))
        fam = witness_family(target, a, m, tau)
        assert np.array_equal(build_hprime(target, fam).entries, _loop_rank_one_sum(fam))
        report = wtilde_encodings(target, fam)
        assert np.array_equal(
            report.sim_report.h_prime, _loop_rank_one_sum(fam, report.frame_shift)
        )


class TestTargetCap:
    @staticmethod
    def capped_target(cap):
        layout = SystemLayout((2,), dim_cap=cap)
        return TargetHamiltonian.from_operator(
            DenseOperator(layout, np.diag([0.0, 0.5]).astype(complex), hermitian=True)
        )

    def test_every_layout_carries_the_target_cap(self):
        target = self.capped_target(1000)
        fam = witness_family(target, 4.0, 2, tau=np.pi)
        assert qpe_verifier(target, 4.0, 2, fam=fam).layout.dim_cap == 1000
        assert build_hprime(target, fam).layout.dim_cap == 1000
        assert wtilde_encodings(target, fam).sim_report.encoding.sim_layout.dim_cap == 1000

    def test_layouts_past_the_cap_raise(self):
        # the verifier layout has 648 states and the witness space 18
        target = self.capped_target(16)
        fam = witness_family(target, 4.0, 2, tau=np.pi)
        for build in (
            lambda: qpe_verifier(target, 4.0, 2, fam=fam),
            lambda: build_hprime(target, fam),
            lambda: wtilde_encodings(target, fam),
        ):
            with pytest.raises(DimensionCapError, match="exceeds cap 16"):
                build()
