import numpy as np
import pytest
import scipy.linalg
import scipy.special
import scipy.sparse

from hamuniv.circuits import idle_prefix
from hamuniv.kitaev import build_kitaev, idling_state
from hamuniv.operators import DenseOperator, SystemLayout
from hamuniv.simulation import (
    Encoding,
    apply_encoding,
    check_dynamics,
    check_local_encoding,
    check_partition_function,
    compose_simulations,
    identity_encoding,
    plain_encoding,
    verify_simulation,
)

from conftest import cnot_verifier, random_hermitian, random_state


def block_pad_simulator(h: np.ndarray, pad: int, delta: float, rng=None):
    """H' = H (+) diag(high band above 2 delta); V embeds the first block."""
    d = h.shape[0]
    total = d + pad
    hp = np.zeros((total, total), dtype=complex)
    hp[:d, :d] = h
    highs = 2 * delta + np.arange(1.0, pad + 1.0)
    hp[d:, d:] = np.diag(highs)
    v = np.eye(total, d, dtype=complex)
    return hp, v


class TestEncoding:
    def test_isometry_validated(self):
        with pytest.raises(ValueError, match="isometry"):
            plain_encoding(np.array([[1.0], [1.0]], dtype=complex), 1)

    def test_projector_pair_validated(self):
        v = np.eye(4, 2, dtype=complex)
        with pytest.raises(ValueError, match="identity on the rank"):
            Encoding(v=v, p_anc=np.zeros((1, 1)), q_anc=np.zeros((1, 1)), target_dim=2)

    def test_apply_identity_encoding(self, rng):
        m = random_hermitian(rng, 3)
        enc = identity_encoding(3)
        assert np.abs(apply_encoding(enc, m) - m).max() <= 1e-12

    def test_image_projector(self, rng):
        v, _ = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
        enc = plain_encoding(v, 2)
        e1 = apply_encoding(enc, np.eye(2))
        assert np.abs(e1 - v @ v.conj().T).max() <= 1e-12
        assert np.abs(e1 @ e1 - e1).max() <= 1e-10

    def test_conjugation_branch_on_real_operator(self, rng):
        # real M: the conjugate branch acts identically, so rank-(p+q) P-only matches
        m = random_hermitian(rng, 2).real.astype(complex)
        v, _ = np.linalg.qr(rng.normal(size=(8, 4)))
        v = v.astype(complex)
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        split = Encoding(v=v, p_anc=p, q_anc=q, target_dim=2)
        merged = Encoding(v=v, p_anc=np.eye(2, dtype=complex), q_anc=np.zeros((2, 2)), target_dim=2)
        assert np.abs(apply_encoding(split, m) - apply_encoding(merged, m)).max() <= 1e-12

    def test_spectra_preserved_with_multiplicity(self, rng):
        m = random_hermitian(rng, 3)
        v, _ = np.linalg.qr(rng.normal(size=(10, 6)) + 1j * rng.normal(size=(10, 6)))
        enc = Encoding(
            v=v, p_anc=np.eye(2, dtype=complex), q_anc=np.zeros((2, 2)), target_dim=3
        )
        encoded = apply_encoding(enc, m)
        target = np.sort(np.repeat(np.linalg.eigvalsh(m), 2))
        # compare on the encoded subspace directly
        compressed = v.conj().T @ encoded @ v
        assert np.abs(np.sort(np.linalg.eigvalsh(compressed)) - target).max() <= 1e-9


class TestLocality:
    def test_identity_encoding_local(self):
        lay = SystemLayout((2, 2))
        enc = identity_encoding(4, lay)
        report = check_local_encoding(enc)
        assert report.local
        assert max(r for _, r in report.residuals) <= 1e-12

    def test_swap_encoding_local(self):
        lay = SystemLayout((2, 2))
        swap = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                swap[b + 2 * a, a + 2 * b] = 1.0
        enc = plain_encoding(swap, 4, target_layout=lay, sim_layout=lay)
        report = check_local_encoding(enc, site_map={0: (1,), 1: (0,)})
        assert report.local

    def test_idling_history_encoding_local(self):
        circuit = idle_prefix(cnot_verifier(), 1)
        kh = build_kitaev(circuit, 0.01)
        w_dim = circuit.witness_dim
        cols = np.stack(
            [
                idling_state(circuit, np.eye(w_dim, dtype=complex)[:, i], 1)
                for i in range(w_dim)
            ],
            axis=1,
        )
        enc = plain_encoding(
            cols, w_dim, target_layout=circuit.witness_layout(), sim_layout=kh.layout
        )
        report = check_local_encoding(enc, site_map={0: (1,)})
        assert report.local
        assert max(r for _, r in report.residuals) <= 1e-8


class TestVerifySimulation:
    def test_identity_simulation(self, rng):
        h = random_hermitian(rng, 4)
        enc = identity_encoding(4)
        report = verify_simulation(h, h, enc, delta=np.linalg.norm(h, 2) + 1.0)
        assert report.eta_measured <= 1e-9
        assert report.epsilon_measured <= 1e-9
        for row in report.eigen_table:
            assert row.difference <= 1e-9

    def test_exact_block_simulation(self, rng):
        h = random_hermitian(rng, 3)
        delta = np.linalg.norm(h, 2) + 1.0
        hp, v = block_pad_simulator(h, pad=4, delta=delta)
        report = verify_simulation(h, hp, plain_encoding(v, 3), delta)
        assert report.eta_measured <= 1e-9
        assert report.epsilon_measured <= 1e-9

    def test_rotated_block_instance_oracle(self, rng):
        h = random_hermitian(rng, 3)
        delta = np.linalg.norm(h, 2) + 1.0
        hp, v = block_pad_simulator(h, pad=5, delta=delta)
        k = random_hermitian(rng, 8, scale=0.02)
        u = scipy.linalg.expm(1j * k)
        hp_rot = u @ hp @ u.conj().T
        report = verify_simulation(h, hp_rot, plain_encoding(v, 3), delta)
        eta_ref = np.linalg.norm((u - np.eye(8)) @ v, 2)
        assert report.eta_measured <= 2 * eta_ref + 1e-9
        assert report.epsilon_measured <= 4 * np.linalg.norm(k, 2) * (np.abs(hp).max() + delta)
        for row in report.eigen_table:
            assert row.difference <= report.epsilon_measured + 1e-9

    def test_dimension_mismatch_rejected(self, rng):
        h = random_hermitian(rng, 3)
        delta = np.linalg.norm(h, 2) + 1.0
        hp, v = block_pad_simulator(h, pad=4, delta=delta)
        with pytest.raises(ValueError, match="expected"):
            verify_simulation(h, hp, plain_encoding(v, 3), delta=2 * delta + 4.5)

    def test_targets_reflected_in_conditions(self, rng):
        h = random_hermitian(rng, 2)
        enc = identity_encoding(2)
        report = verify_simulation(
            h, h, enc, delta=np.linalg.norm(h, 2) + 1, eta_target=1e-12, epsilon_target=1e-12
        )
        assert report.conditions["eta_within_target"]
        assert report.conditions["epsilon_within_target"]


class TestPartitionFunction:
    def test_exact_block_large_cutoff(self, rng):
        h = random_hermitian(rng, 3)
        delta = 1e3
        hp, v = block_pad_simulator(h, pad=3, delta=delta)
        enc = plain_encoding(v, 3)
        report = verify_simulation(h, hp, enc, delta)
        err, bound, ok = check_partition_function(h, hp, enc, delta, beta=1.0, report=report)
        assert err <= 1e-9
        assert ok

    def test_beta_zero_counts_dimensions(self, rng):
        h = random_hermitian(rng, 3)
        delta = np.linalg.norm(h, 2) + 1.0
        hp, v = block_pad_simulator(h, pad=4, delta=delta)
        enc = plain_encoding(v, 3)
        report = verify_simulation(h, hp, enc, delta)
        err, bound, ok = check_partition_function(h, hp, enc, delta, beta=0.0, report=report)
        assert err == pytest.approx((7 - 3) / 3, abs=1e-12)
        assert bound == pytest.approx(7 / 3, abs=1e-12)
        assert ok

    def test_random_certified_sweep(self, rng):
        h = random_hermitian(rng, 3)
        delta = np.linalg.norm(h, 2) + 2.0
        hp, v = block_pad_simulator(h, pad=5, delta=delta)
        u = scipy.linalg.expm(1j * random_hermitian(rng, 8, scale=0.01))
        hp_rot = u @ hp @ u.conj().T
        enc = plain_encoding(v, 3)
        report = verify_simulation(h, hp_rot, enc, delta)
        for beta in (0.1, 1.0, 10.0):
            err, bound, ok = check_partition_function(
                h, hp_rot, enc, delta, beta, report=report
            )
            assert ok, f"beta={beta}: {err} > {bound}"

    def test_matches_log_space_reference(self, rng):
        # on these spectra exp(-beta lambda) overflows or underflows from |beta| ~ 400
        for _ in range(5):
            h = random_hermitian(rng, 3)
            delta = np.linalg.norm(h, 2) + 2.0
            hp, v = block_pad_simulator(h, pad=5, delta=delta)
            u = scipy.linalg.expm(1j * random_hermitian(rng, 8, scale=0.01))
            hp_rot = u @ hp @ u.conj().T
            enc = plain_encoding(v, 3)
            report = verify_simulation(h, hp_rot, enc, delta)
            h_norm = np.abs(report.h_values).max()
            for beta in (-1.0, 0.5, 10.0, 1000.0, 1e4):
                err, bound, _ = check_partition_function(h, hp_rot, enc, delta, beta, report=report)
                log_z_t = scipy.special.logsumexp(-beta * report.h_values)
                log_z_s = scipy.special.logsumexp(-beta * np.linalg.eigh(hp_rot)[0])
                # each -beta lambda of the reference is rounded to u |beta lambda|
                tol = 1e-12 + 1e-14 * abs(beta) * h_norm
                assert err == pytest.approx(abs(np.expm1(log_z_s - log_z_t)), rel=1e-9, abs=tol)
                log_first = np.log(hp.shape[0] / 3) - beta * (delta - h_norm)
                expected = np.exp(log_first) + np.expm1(report.epsilon_measured * beta)
                assert bound == pytest.approx(expected, rel=1e-12)

    def test_beta_past_any_finite_check_refused(self, rng):
        # at beta = -1000 the high band's weight exp(1000 (2 delta + 1)) is past any float
        h = random_hermitian(rng, 3)
        delta = np.linalg.norm(h, 2) + 2.0
        hp, v = block_pad_simulator(h, pad=5, delta=delta)
        enc = plain_encoding(v, 3)
        report = verify_simulation(h, hp, enc, delta)
        with pytest.raises(ValueError, match="beta = -1000.0 is not finite"):
            check_partition_function(h, hp, enc, delta, -1000.0, report=report)


class TestDynamics:
    def _certified(self, rng, scale=0.01):
        h = random_hermitian(rng, 3)
        delta = np.linalg.norm(h, 2) + 2.0
        hp, v = block_pad_simulator(h, pad=5, delta=delta)
        u = scipy.linalg.expm(1j * random_hermitian(rng, 8, scale=scale))
        hp_rot = u @ hp @ u.conj().T
        enc = plain_encoding(v, 3)
        report = verify_simulation(h, hp_rot, enc, delta)
        return h, hp_rot, enc, report

    def test_time_zero(self, rng):
        h, hp, enc, report = self._certified(rng)
        rho = enc.image_projector() / 3.0
        dist, bound, ok = check_dynamics(
            h, hp, enc, rho, 0.0, report.epsilon_measured, report.eta_measured
        )
        assert dist <= 1e-12 and ok

    def test_exact_simulation_zero_distance(self, rng):
        h = random_hermitian(rng, 3)
        delta = np.linalg.norm(h, 2) + 1.0
        hp, v = block_pad_simulator(h, pad=4, delta=delta)
        enc = plain_encoding(v, 3)
        psi = v @ random_state(rng, 3)
        rho = np.outer(psi, psi.conj())
        for t in (0.5, 2.0):
            dist, bound, ok = check_dynamics(h, hp, enc, rho, t, 0.0, 0.0)
            assert dist <= 1e-9 and ok

    def test_random_certified_times(self, rng):
        h, hp, enc, report = self._certified(rng)
        rho = enc.image_projector() / 3.0
        for t in (0.5, 2.0):
            dist, bound, ok = check_dynamics(
                h, hp, enc, rho, t, report.epsilon_measured, report.eta_measured
            )
            assert ok, f"t={t}: {dist} > {bound}"

    def test_unsupported_state_rejected(self, rng):
        h, hp, enc, report = self._certified(rng)
        rho = np.eye(8, dtype=complex) / 8.0
        with pytest.raises(ValueError, match="encoded subspace"):
            check_dynamics(h, hp, enc, rho, 1.0, 0.1, 0.1)

    @pytest.mark.parametrize("split", [False, True])
    def test_matches_expm_reference(self, rng, split):
        d_t, d_sim = 3, 10
        anc = 2 if split else 1
        n = d_t * anc
        h = random_hermitian(rng, d_t)
        v, _ = np.linalg.qr(rng.normal(size=(d_sim, n)) + 1j * rng.normal(size=(d_sim, n)))
        if split:
            p = np.diag([1.0, 0.0]).astype(complex)
            enc = Encoding(v=v, p_anc=p, q_anc=np.eye(2) - p, target_dim=d_t)
        else:
            enc = plain_encoding(v, d_t)
        hp = random_hermitian(rng, d_sim)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        r = a @ a.conj().T
        rho = v @ (r / np.trace(r).real) @ v.conj().T
        h_enc = apply_encoding(enc, h)
        for t in (0.3, 2.0):
            u = scipy.linalg.expm(-1j * t * hp)
            u_enc = scipy.linalg.expm(-1j * t * h_enc)
            diff = u @ rho @ u.conj().T - u_enc @ rho @ u_enc.conj().T
            expected = np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum()
            for h_prime in (hp, DenseOperator(SystemLayout((d_sim,)), hp, hermitian=True)):
                dist, bound, ok = check_dynamics(h, h_prime, enc, rho, t, 0.01, 0.02)
                assert abs(dist - expected) <= 1e-10
                assert bound == pytest.approx(2 * 0.01 * t + 4 * 0.02, abs=1e-15)
                assert ok == (dist <= bound + 1e-9)
        with pytest.raises(ValueError, match="encoded subspace"):
            check_dynamics(h, hp, enc, np.eye(d_sim) / d_sim, 1.0, 0.01, 0.02)


class TestOperatorInputs:
    """h and h_prime are read only as a flagged DenseOperator, a Hermitian array, or a
    sparse h_prime; a full spectrum of h_prime never from a sparse one."""

    @staticmethod
    def _block(rng):
        h = random_hermitian(rng, 2)
        delta = np.linalg.norm(h, 2) + 1.0
        hp, v = block_pad_simulator(h, pad=2, delta=delta)
        enc = plain_encoding(v, 2)
        return h, hp, enc, delta, verify_simulation(h, hp, enc, delta)

    def test_unflagged_operators_refused(self, rng):
        h, hp, enc, delta, report = self._block(rng)
        unflagged = DenseOperator(SystemLayout((4,)), hp)
        rho = enc.image_projector() / 2.0
        with pytest.raises(ValueError, match="hermitian flag"):
            verify_simulation(h, unflagged, enc, delta)
        with pytest.raises(ValueError, match="hermitian flag"):
            check_partition_function(h, unflagged, enc, delta, 1.0, report=report)
        with pytest.raises(ValueError, match="hermitian flag"):
            check_dynamics(h, unflagged, enc, rho, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="hermitian flag"):
            verify_simulation(DenseOperator(SystemLayout((2,)), h), hp, enc, delta)
        # an unflagged h whose (0, 1) entry is set apart from its mirror
        skewed = DenseOperator(SystemLayout((2,)), np.array([[0, 7], [0, 1]], dtype=complex))
        with pytest.raises(ValueError, match="h does not carry the hermitian flag"):
            check_dynamics(skewed, hp, enc, rho, 0.5, 0.0, 0.0)
        # plain arrays carry no flag: the padded h_prime with its (0, 3) entry set
        # apart from its mirror, and that h as an array, fail the Hermitian check
        forged = hp.copy()
        forged[0, 3] = 5.0
        with pytest.raises(ValueError, match="h_prime is not hermitian"):
            verify_simulation(h, forged, enc, delta)
        with pytest.raises(ValueError, match="h_prime is not hermitian"):
            check_partition_function(h, forged, enc, delta, 1.0, report=report)
        with pytest.raises(ValueError, match="h_prime is not hermitian"):
            check_dynamics(h, forged, enc, rho, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="h is not hermitian"):
            check_dynamics(np.array([[0, 7], [0, 1]]), hp, enc, rho, 0.5, 0.0, 0.0)

    def test_sparse_h_prime_has_no_full_spectrum(self, rng):
        h, hp, enc, delta, _ = self._block(rng)
        sparse = scipy.sparse.csr_matrix(hp)
        report = verify_simulation(h, sparse, enc, delta)
        rho = enc.image_projector() / 2.0
        with pytest.raises(ValueError, match="no full spectrum of a sparse operator"):
            check_partition_function(h, sparse, enc, delta, 1.0, report=report)
        with pytest.raises(ValueError, match="no full spectrum of a sparse operator"):
            check_dynamics(h, sparse, enc, rho, 0.5, report.epsilon_measured, report.eta_measured)


class TestCompose:
    def test_identity_compose(self, rng):
        h = random_hermitian(rng, 3)
        enc = identity_encoding(3)
        delta = np.linalg.norm(h, 2) + 1.0
        rep = verify_simulation(h, h, enc, delta)
        composite = compose_simulations(rep, rep)
        assert composite.eta_measured <= 1e-9
        assert composite.epsilon_measured <= 1e-9

    def test_exact_blocks_compose_exactly(self, rng):
        h = random_hermitian(rng, 2)
        delta1 = np.linalg.norm(h, 2) + 1.0
        hb, v_ab = block_pad_simulator(h, pad=2, delta=delta1)
        rep_ab = verify_simulation(h, hb, plain_encoding(v_ab, 2), delta1)
        delta2 = np.linalg.norm(hb, 2) + 1.0
        hc, v_bc = block_pad_simulator(hb, pad=3, delta=delta2)
        rep_bc = verify_simulation(hb, hc, plain_encoding(v_bc, 4), delta2)
        composite = compose_simulations(rep_ab, rep_bc, delta=delta1)
        assert composite.eta_measured <= 1e-9
        assert composite.epsilon_measured <= 1e-9

    def test_mismatched_middle_rejected(self, rng):
        h1 = random_hermitian(rng, 2)
        h2 = random_hermitian(rng, 2)
        enc = identity_encoding(2)
        delta = max(np.linalg.norm(h1, 2), np.linalg.norm(h2, 2)) + 1.0
        rep1 = verify_simulation(h1, h1, enc, delta)
        rep2 = verify_simulation(h2, h2, enc, delta)
        with pytest.raises(ValueError, match="B-layer"):
            compose_simulations(rep1, rep2)
