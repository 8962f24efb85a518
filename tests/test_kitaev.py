import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from hamuniv import kitaev
from hamuniv.circuits import (
    Gate,
    VerifierCircuit,
    acceptance_gap,
    acceptance_operator,
    idle_prefix,
    run_circuit,
)
from hamuniv.kitaev import (
    ClockRep,
    build_kitaev,
    check_hmk_lemma,
    check_idling_faithfulness,
    default_kappa,
    geometrical_bound,
    ground_space,
    history_state,
    idling_state,
    kappa_limit,
    spectral_gap_above,
)
from hamuniv.operators import (
    ClusterSplitError,
    DenseOperator,
    SpectrumCertificateError,
    Subspace,
    SystemLayout,
    subspace_distance,
    tensor_embed,
)

from conftest import (
    cnot_verifier,
    flag_witness_layout,
    identity_verifier,
    random_state,
    random_verifier,
    x_flag_verifier,
)

BOTH_REPS = (ClockRep.CLOCK_SUBSPACE, ClockRep.UNARY_FULL_SPACE)


def hmk_kappa(circuit):
    """default_kappa at the measured acceptance gap; half the kappa limit when ungapped."""
    gap = acceptance_gap(acceptance_operator(circuit), circuit.completeness)
    t_steps = circuit.n_steps
    return default_kappa(gap.gap, t_steps) if gap.gapped else 0.5 * kappa_limit(t_steps)


def one_site_op(diag):
    d = len(diag)
    return DenseOperator(SystemLayout((d,)), np.diag(diag).astype(complex), hermitian=True)


class TestBuildKitaev:
    def test_kappa_range_enforced(self):
        circuit = cnot_verifier()
        with pytest.raises(ValueError, match="kappa"):
            build_kitaev(circuit, kappa_limit(circuit.n_steps))

    def test_components_positive_semidefinite(self, rng):
        for circuit in (cnot_verifier(), random_verifier(rng, 2)):
            for rep in BOTH_REPS:
                kh = build_kitaev(circuit, 0.01, rep)
                for comp in (kh.h_in, kh.h_prop, kh.h_out, kh.h_clock):
                    assert np.linalg.eigvalsh(comp.entries).min() >= -1e-9

    def test_identity_circuit_kernel_degeneracy(self):
        # nothing penalizes history states: one zero mode per witness basis state
        circuit = identity_verifier(2)
        kh = build_kitaev(circuit, 0.01, ClockRep.CLOCK_SUBSPACE)
        vals = np.linalg.eigvalsh(kh.h0().entries)
        assert int(np.sum(vals < 1e-10)) == circuit.witness_dim == 2

    def test_cross_representation_spectra_below_half(self, rng):
        fixtures = (
            identity_verifier(2),
            identity_verifier(6),
            cnot_verifier(),
            random_verifier(rng, 2),
        )
        for circuit in fixtures:
            kappa = 0.9 * kappa_limit(circuit.n_steps) / 2
            subs = build_kitaev(circuit, kappa, ClockRep.CLOCK_SUBSPACE)
            unary = build_kitaev(circuit, kappa, ClockRep.UNARY_FULL_SPACE)
            v1 = np.linalg.eigvalsh(subs.h_mk().entries)
            v2 = np.linalg.eigvalsh(unary.h_mk().entries)
            low1, low2 = v1[v1 < 0.5], v2[v2 < 0.5]
            assert len(low1) == len(low2)
            assert np.abs(low1 - low2).max() <= 1e-9

    def test_unary_legal_block_is_clock_subspace_bit_for_bit(self, rng):
        # legal clock states |1^t 0^(T-t)> carry the clock-subspace H_MK exactly;
        # nothing couples them to illegal states, which H_clock lifts to >= 1
        for circuit in (cnot_verifier(), identity_verifier(6), random_verifier(rng, 4, 2)):
            kappa = 0.9 * kappa_limit(circuit.n_steps) / 2
            subs = build_kitaev(circuit, kappa, ClockRep.CLOCK_SUBSPACE).h_mk().entries
            unary_kh = build_kitaev(circuit, kappa, ClockRep.UNARY_FULL_SPACE)
            unary = unary_kh.h_mk().entries
            c_dim = circuit.layout.total_dim
            legal = np.array(
                [(2**t - 1) * c_dim + c for t in range(circuit.n_steps + 1) for c in range(c_dim)]
            )
            illegal = np.setdiff1d(np.arange(len(unary)), legal)
            assert unary[np.ix_(legal, legal)].tobytes() == subs.tobytes()
            assert not unary[np.ix_(legal, illegal)].any()
            if illegal.size:
                assert np.linalg.eigvalsh(unary[np.ix_(illegal, illegal)])[0] >= 1.0
            # the reason for that floor: H_clock is diagonal, >= 1 on every illegal string,
            # and the other terms are positive semidefinite
            h_clock = unary_kh.parts[3]
            floor = h_clock.diagonal()
            assert not (h_clock - scipy.sparse.diags(floor)).count_nonzero() and np.all(
                floor[illegal].real >= 1.0
            )

    def test_unary_assembly_allocates_no_dense_matrix(self, rng):
        circuit = random_verifier(rng, 8)  # D = 4 * 2^8
        tracemalloc.start()
        try:
            kh = build_kitaev(circuit, 0.5 * kappa_limit(8), ClockRep.UNARY_FULL_SPACE)
            kh.parts  # the assembly runs on this first read
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = kh.layout.total_dim
        assert d >= 512
        assert all(scipy.sparse.issparse(part) for part in kh.parts)
        assert peak < d * d * 16 / 8

    def test_clock_subspace_assembly_allocates_no_dense_matrix(self, rng):
        circuit = random_verifier(rng, 4, 8)  # c_dim = 2^9
        tracemalloc.start()
        try:
            kh = build_kitaev(circuit, 0.5 * kappa_limit(4))
            kh.parts  # the assembly runs on this first read
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c_dim = circuit.layout.total_dim
        assert c_dim >= 512
        for part in kh.parts:
            # sparse, and no stored zeros: the sparse LU orders by the stored pattern
            assert scipy.sparse.issparse(part) and np.all(part.data != 0)
        assert peak < c_dim * c_dim * 16 / 8

    @pytest.mark.parametrize("rep", BOTH_REPS)
    @pytest.mark.parametrize("t_steps", range(1, 6))
    def test_parts_are_canonical_without_stored_zeros(self, rep, t_steps):
        # the sparse LU orders by the stored pattern, and the solvers read each part as stored
        circuit = random_verifier(np.random.default_rng(t_steps), t_steps, 1 + t_steps % 2)
        kh = build_kitaev(circuit, 0.5 * kappa_limit(t_steps), rep)
        for part in kh.parts:
            assert part.has_canonical_format and np.all(part.data != 0)

    @pytest.mark.parametrize("rep", BOTH_REPS)
    def test_parts_assembled_once_on_first_read(self, rep):
        kh = build_kitaev(cnot_verifier(), 0.01, rep)
        assert "parts" not in vars(kh)
        assert kh.parts is kh.parts

    def test_unary_lemma_check_leaves_the_unary_parts_unassembled(self):
        # the report reads the clock-subspace H_MK, so nothing reads the unary one
        circuit = idle_prefix(cnot_verifier(), 2)
        kh = build_kitaev(circuit, hmk_kappa(circuit), ClockRep.UNARY_FULL_SPACE)
        assert check_hmk_lemma(kh).ok
        assert "parts" not in vars(kh)

    @pytest.mark.parametrize("trailing_idles", [0, 2])
    def test_unary_parts_match_kron_reference(self, trailing_idles):
        circuit = cnot_verifier(trailing_idles)
        t_steps = circuit.n_steps
        kh = build_kitaev(circuit, 0.01, ClockRep.UNARY_FULL_SPACE)
        eye, p0, p1 = np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        up = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0|
        # circuit index flag + 2 witness; the CNOT flips the flag when the witness is 1
        gates = [np.eye(4)[[0, 1, 3, 2]]] + [np.eye(4)] * trailing_idles

        def term(clock_ops, circ):
            # clock qubit k is digit k-1 of the clock index, the slow factor
            clock = np.ones((1, 1))
            for k in range(t_steps, 0, -1):
                clock = np.kron(clock, clock_ops.get(k, eye))
            return np.kron(clock, circ)

        h_in = term({1: p0}, np.kron(eye, p1))  # flag pinned to |0> at t = 0
        h_out = term({t_steps: p1}, np.kron(eye, p0))  # flag |0> rejects at t = T
        h_clock = sum((term({t: p0, t + 1: p1}, np.eye(4)) for t in range(1, t_steps)), 0 * h_in)
        h_prop = 0 * h_in
        for t in range(1, t_steps + 1):
            window = ({t - 1: p1} if t > 1 else {}) | ({t + 1: p0} if t < t_steps else {})
            hop = term(window | {t: up}, gates[t - 1])
            h_prop = h_prop + 0.5 * (
                term(window | {t: p0}, np.eye(4)) + term(window | {t: p1}, np.eye(4)) - hop - hop.T
            )
        for part, ref in zip(kh.parts, (h_in, h_prop, h_out, h_clock)):
            assert np.array_equal(part.toarray(), ref)

    @pytest.mark.parametrize(
        "circuit",
        # descending two-site targets, and a CNOT whose local matrix has zeros
        [random_verifier(np.random.default_rng(2), 5, 3), cnot_verifier(2)],
        ids=["random", "cnot"],
    )
    def test_clock_subspace_parts_match_kron_reference(self, circuit):
        t_steps, c_dim = circuit.n_steps, circuit.layout.total_dim
        kh = build_kitaev(circuit, 0.5 * kappa_limit(t_steps))

        def at(t, s, circ):
            clock = np.zeros((t_steps + 1,) * 2)
            clock[t, s] = 1.0
            return np.kron(clock, circ)

        h_prop = sum(at(t, t, 0.5 * ((t > 0) + (t < t_steps)) * np.eye(c_dim)) for t in range(t_steps + 1))
        for t, g in enumerate(circuit.gates, start=1):
            u = tensor_embed(g.unitary, g.targets, circuit.layout).entries
            h_prop = h_prop - 0.5 * (at(t, t - 1, u) + at(t - 1, t, u.conj().T))
        digits = circuit.layout.digit_table()
        pin = np.diag((digits[list(circuit.ancilla_sites)] != 0).sum(axis=0))
        reject = np.diag(digits[circuit.output_site] != 1)
        refs = (at(0, 0, pin), h_prop, at(t_steps, t_steps, reject), 0 * h_prop)
        for part, ref in zip(kh.parts, refs):
            assert part.has_canonical_format and np.all(part.data != 0)
            assert np.array_equal(part.toarray(), ref)

    def test_x_flag_circuit_kernel_regime(self):
        # every witness accepts with probability 1, so H_MK keeps the full kernel
        kh = build_kitaev(x_flag_verifier(), 0.05)
        report = check_hmk_lemma(kh)
        assert all(r.q_eigenvalue == pytest.approx(1.0, abs=1e-12) for r in report.rows)
        assert all(abs(r.matched) <= 1e-12 for r in report.rows)
        assert report.ok


class TestHistoryState:
    def test_identity_circuit_uniform_clock(self):
        circuit = identity_verifier(2)
        hs = history_state(circuit, np.array([1.0, 0.0]))
        # layout (flag, witness, clock): blocks of the circuit space per clock value
        expected = np.zeros(4 * 3, dtype=complex)
        for t in range(3):
            expected[4 * t + 0] = 1 / np.sqrt(3)
        assert np.abs(hs.vector - expected).max() <= 1e-12

    def test_x_on_witness_circuit(self):
        layout = flag_witness_layout(1)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        circuit = VerifierCircuit(
            layout, (Gate.from_matrix(x, (1,), layout, "x-wit"),), ("witness",), 0, 1.0, 0.5
        )
        hs = history_state(circuit, np.array([1.0, 0.0]))
        # (|0>_w |t=0> + |1>_w |t=1>)/sqrt(2) with the flag pinned to |0>
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1 / np.sqrt(2)  # wit=0, t=0
        expected[4 + 2] = 1 / np.sqrt(2)  # wit=1, t=1
        assert np.abs(hs.vector - expected).max() <= 1e-12

    @pytest.mark.parametrize("rep", BOTH_REPS)
    def test_history_states_annihilate_h0(self, rng, rep):
        circuit = random_verifier(rng, 2, n_witness=2)
        kh = build_kitaev(circuit, 0.01, rep)
        h0 = kh.h0().entries
        for _ in range(3):
            hs = history_state(circuit, random_state(rng, circuit.witness_dim), rep)
            assert abs(np.vdot(hs.vector, h0 @ hs.vector)) <= 1e-10
            assert np.linalg.norm(h0 @ hs.vector) <= 1e-9

    def test_idling_split_decomposition(self):
        # |eta> = sqrt((L+1)/(T+1)) |idling> + sqrt((T-L)/(T+1)) |comp>
        circuit = idle_prefix(cnot_verifier(), 2)
        t_steps, idle = circuit.n_steps, 2
        alpha = np.array([0.0, 1.0])
        full = history_state(circuit, alpha).vector
        idling = idling_state(circuit, alpha, idle)
        comp = full - np.sqrt((idle + 1) / (t_steps + 1)) * idling
        weight = np.linalg.norm(comp)
        assert weight == pytest.approx(np.sqrt((t_steps - idle) / (t_steps + 1)), abs=1e-12)
        assert abs(np.vdot(idling, comp)) <= 1e-12

    def test_history_block_peak_below_two_results(self):
        # the ROADMAP verifier's 18 history columns: the clock blocks are scaled in
        # place, so no second D x w block is held beside the result
        from hamuniv.universality import TargetHamiltonian, qpe_verifier

        target = TargetHamiltonian.from_matrix(np.diag([0.0, 0.5]).astype(complex), (2,))
        circuit = idle_prefix(qpe_verifier(target, 8.0, 2, tau=np.pi), 1)
        witnesses = np.eye(circuit.witness_dim, dtype=complex)
        tracemalloc.start()
        try:
            block = kitaev._history_columns(circuit, witnesses, ClockRep.CLOCK_SUBSPACE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (3240, 18)
        assert peak < 2 * block.nbytes


    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t_steps=st.integers(1, 3),
        n_witness=st.integers(1, 2),
        idle=st.integers(0, 2),
        n_cols=st.integers(0, 4),
        rep=st.sampled_from(BOTH_REPS),
    )
    def test_block_matches_stacked_columns(self, seed, t_steps, n_witness, idle, n_cols, rep):
        # one pass over a (w, n) block of witnesses gives the n single-column
        # results as columns; a (w, 0) block gives a (dim, 0) one
        rng = np.random.default_rng(seed)
        circuit = idle_prefix(random_verifier(rng, t_steps, n_witness), idle)
        w = circuit.witness_dim
        block = np.zeros((w, n_cols), dtype=complex)
        for j in range(n_cols):
            block[:, j] = random_state(rng, w)
        paths = (
            lambda x: run_circuit(circuit, x),
            lambda x: kitaev._history_columns(circuit, x, rep),
            lambda x: idling_state(circuit, x, idle, rep),
        )
        for path in paths:
            expected = np.zeros((path(np.ones(w)).shape[0], n_cols), dtype=complex)
            for j in range(n_cols):
                expected[:, j] = path(block[:, j])
            got = path(block)
            assert got.shape == expected.shape
            assert np.abs(got - expected).max(initial=0.0) <= 1e-15


class TestGroundSpace:
    def test_two_fold_kernel(self):
        sub = ground_space(one_site_op([0.0, 0.0, 1.0]), 0.5)
        assert sub.dim == 2

    def test_full_space(self):
        sub = ground_space(one_site_op([0.0, 1.0]), 2.0)
        assert sub.dim == 2

    def test_identity_circuit_kernel_matches_history_states(self):
        circuit = identity_verifier(2)
        kh = build_kitaev(circuit, 0.01)
        sub = ground_space(kh.h0(), 1e-8)
        assert sub.dim == circuit.witness_dim
        basis = np.stack(
            [history_state(circuit, v).vector for v in np.eye(2, dtype=complex)], axis=1
        )
        span = Subspace.from_basis(kh.layout, basis)
        assert subspace_distance(sub, span) <= 1e-8

    def test_threshold_in_cluster_rejected(self):
        op = one_site_op([0.0, 1.0, 1.0 + 1e-12, 2.0])
        with pytest.raises(ClusterSplitError):
            ground_space(op, 1.0 + 5e-13)


class TestSpectralGap:
    def test_simple_diagonal(self):
        assert spectral_gap_above(one_site_op([0.0, 0.0, 1.0]), 0.5) == pytest.approx(1.0)

    def test_minus_z(self):
        assert spectral_gap_above(one_site_op([-1.0, 1.0]), -0.5) == pytest.approx(2.0)

    def test_full_space_has_no_gap(self):
        with pytest.raises(ValueError, match="no gap"):
            spectral_gap_above(one_site_op([0.0, 1.0]), 2.0)

    def test_identity_circuit_gap_scaling(self):
        # gap(H_0) * T^3 stays bounded below across the sweep
        products = []
        for t_steps in range(3, 11):
            kh = build_kitaev(identity_verifier(t_steps), kappa_limit(t_steps) / 4)
            gap = spectral_gap_above(kh.h0(), 1e-8)
            products.append(gap * t_steps**3)
        assert min(products) > 0.5


class TestCheckHmkLemma:
    def test_cnot_matched_eigenvalues(self):
        kh = build_kitaev(cnot_verifier(), 0.02)
        report = check_hmk_lemma(kh)
        assert report.ok
        accept = [r for r in report.rows if r.q_eigenvalue > 0.5]
        reject = [r for r in report.rows if r.q_eigenvalue <= 0.5]
        assert abs(accept[0].matched) <= 1e-12  # exactly accepted witness: exact kernel
        assert reject[0].predicted == pytest.approx(0.02 / 2)
        assert reject[0].deviation <= report.deviation_bound

    def test_kappa_halving_halves_estimates(self):
        t_steps = 1
        matched = {}
        for kappa in (0.04, 0.02):
            kh = build_kitaev(cnot_verifier(), kappa)
            report = check_hmk_lemma(kh)
            matched[kappa] = [r.matched for r in report.rows if r.q_eigenvalue <= 0.5][0]
        ratio = matched[0.02] / matched[0.04]
        ctol = 4 * t_steps**3 * 0.04
        assert 0.5 - ctol <= ratio <= 0.5 + ctol

    def test_hypothesis_violation_raises(self):
        circuit = cnot_verifier()
        kappa = 0.3  # g = 1 but 2 T^3 (T+1) kappa = 1.2 > g
        kh = build_kitaev(circuit, kappa)
        with pytest.raises(ValueError, match="does not exceed"):
            check_hmk_lemma(kh)

    def test_partial_acceptance_projector_distance(self, rng):
        # rotation gate gives Q with an eigenvalue strictly between 0 and completeness
        layout = flag_witness_layout(1)
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
        )
        cnot = np.zeros((4, 4), dtype=complex)
        for f in range(2):
            for w in range(2):
                cnot[(f ^ w) + 2 * w, f + 2 * w] = 1.0
        circuit = VerifierCircuit(
            layout,
            (Gate.from_matrix(rot, (1,), layout, "rot"), Gate.from_matrix(cnot, (0, 1), layout, "cnot")),
            ("witness",),
            0,
            completeness=np.sin(theta) ** 2,  # the larger Q eigenvalue
            soundness=0.0,
        )
        kappa = default_kappa(np.sin(theta) ** 2, circuit.n_steps) / 4
        report = check_hmk_lemma(build_kitaev(circuit, kappa))
        assert report.low_space_dim == 1
        assert 0 < report.projector_distance <= report.projector_bound
        assert report.ok

    @staticmethod
    def unary_fixtures(rng):
        return (idle_prefix(cnot_verifier(), 2), identity_verifier(6), random_verifier(rng, 4, 2))

    def test_unary_report_equals_clock_subspace(self, rng):
        for circuit in self.unary_fixtures(rng):
            kappa = hmk_kappa(circuit)
            subs = check_hmk_lemma(build_kitaev(circuit, kappa))
            unary = check_hmk_lemma(build_kitaev(circuit, kappa, ClockRep.UNARY_FULL_SPACE))
            assert dataclasses.asdict(unary) == dataclasses.asdict(subs)

    def test_unary_solve_stays_in_clock_subspace(self, rng, monkeypatch):
        solve, dims = kitaev._low_spectrum, []

        def spy(h, *args, **kwargs):
            dims.append(h.shape[0])
            return solve(h, *args, **kwargs)

        monkeypatch.setattr(kitaev, "_low_spectrum", spy)
        for circuit in self.unary_fixtures(rng):
            dims.clear()
            kh = build_kitaev(circuit, hmk_kappa(circuit), ClockRep.UNARY_FULL_SPACE)
            check_hmk_lemma(kh)
            assert dims == [(circuit.n_steps + 1) * circuit.layout.total_dim]

    # cnot: k_low = 1 < w, so a matched value sits at the floor; x_flag: k_low = w,
    # so only the value above the cut does
    @pytest.mark.parametrize("verifier", [cnot_verifier, x_flag_verifier])
    def test_unary_read_value_at_illegal_floor_raises(self, verifier):
        circuit = idle_prefix(verifier(), 2)
        kappa = hmk_kappa(circuit)
        subs = build_kitaev(circuit, kappa)
        unary = build_kitaev(circuit, kappa, ClockRep.UNARY_FULL_SPACE)
        w = circuit.witness_dim
        low = kitaev._low_spectrum(subs.h_mk_operator(), w)
        k_low = check_hmk_lemma(unary, _low=low).low_space_dim
        values = low.values.copy()
        values[k_low:] = 1.0
        lifted = dataclasses.replace(low, values=values)
        assert check_hmk_lemma(subs, _low=lifted).low_space_dim == k_low
        with pytest.raises(SpectrumCertificateError, match="illegal-clock floor"):
            check_hmk_lemma(unary, _low=lifted)


class TestIdlingFaithfulness:
    def test_all_idling_coincides(self):
        circuit = identity_verifier(4)
        report = check_idling_faithfulness(circuit, 4, kappa=1e-3)
        assert report.measured_squared == 0.0
        assert report.bound == 0.0
        assert report.ok

    def test_half_idling_bound_value(self):
        base = cnot_verifier(trailing_idles=2)  # computation occupies 3 steps
        circuit = idle_prefix(base, 3)
        report = check_idling_faithfulness(circuit, 3, kappa=1e-4)
        assert report.bound == pytest.approx(2 * (1 - 1 / np.sqrt(2)), abs=1e-12)
        assert report.measured_squared <= report.bound + 1e-9
        assert report.ok

    def test_monotone_in_idle_steps(self):
        base = cnot_verifier(trailing_idles=2)
        measured = []
        for idle in (1, 3, 9):
            circuit = idle_prefix(base, idle)
            report = check_idling_faithfulness(circuit, idle, kappa=1e-5)
            assert report.ok
            measured.append(report.measured_distance)
        assert measured[0] >= measured[1] >= measured[2]

    def test_window_must_be_identity(self):
        circuit = cnot_verifier(trailing_idles=1)
        with pytest.raises(ValueError, match="identity"):
            check_idling_faithfulness(circuit, 1, kappa=1e-4)


class TestGeometricalBound:
    def test_identical_rank_one_projectors(self):
        h = one_site_op([0.0, 1.0])
        report = geometrical_bound(h, h)
        assert report.bound == pytest.approx(0.0, abs=1e-12)
        assert report.actual == pytest.approx(0.0, abs=1e-12)

    def test_qubit_closed_form_equality(self):
        h1 = one_site_op([0.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        h2 = DenseOperator(SystemLayout((2,)), np.outer(minus, minus), hermitian=True)
        report = geometrical_bound(h1, h2)
        assert report.angle == pytest.approx(np.pi / 4, abs=1e-10)
        assert report.bound == pytest.approx(2 * np.sin(np.pi / 8) ** 2, abs=1e-10)
        assert report.actual == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-10)
        assert abs(report.actual - report.bound) <= 1e-10

    def test_zero_gap_rejected(self):
        h = one_site_op([1.0, 1.0])
        with pytest.raises(ValueError, match="zero gap"):
            geometrical_bound(h, h)

    @pytest.mark.parametrize("theta", [1e-9, 1e-6])
    def test_small_angle_read_from_its_sine(self, theta):
        # arccos of the overlap would read 1e-9 as 0 and 1e-6 to about 1e-4 relative
        h1 = one_site_op([0.0, 1.0, 2.0, 3.0])
        rotation = np.eye(4, dtype=complex)
        rotation[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        h2 = DenseOperator(h1.layout, rotation @ h1.entries @ rotation.T, hermitian=True)
        assert geometrical_bound(h1, h2).angle == pytest.approx(theta, rel=1e-12)


class TestIdlingHypothesis:
    def test_gap_below_lemma_bound_raises(self):
        # g = 1 and T' = 3, so the hypothesis g > 2 T'^3 (T'+1) kappa = 216 kappa needs kappa < 1/216
        circuit = idle_prefix(cnot_verifier(), 2)
        assert acceptance_gap(acceptance_operator(circuit), 1.0).gap == pytest.approx(1.0)
        with pytest.raises(ValueError, match="does not exceed"):
            check_idling_faithfulness(circuit, 2, kappa=1 / 200)
        assert check_idling_faithfulness(circuit, 2, kappa=1 / 250).ok

    def test_window_checked_before_the_hypothesis(self):
        # a non-identity gate in the window is reported even when kappa also breaks the lemma
        with pytest.raises(ValueError, match="identity"):
            check_idling_faithfulness(cnot_verifier(trailing_idles=1), 1, kappa=1.0)
