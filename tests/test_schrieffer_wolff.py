import gc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from hamuniv.circuits import acceptance_operator
from hamuniv.kitaev import (
    build_kitaev,
    ground_space,
    history_state,
    kappa_limit,
    spectral_gap_above,
)
from hamuniv.operators import (
    DenseOperator,
    Subspace,
    SystemLayout,
    direct_rotation,
    direct_rotation_factored,
)
from hamuniv.schrieffer_wolff import (
    HIGH_FLOOR,
    SWProblem,
    _norm,
    _unitary_log,
    sw_bounds,
    sw_exact,
    sw_series,
)
from hamuniv.simulation import plain_encoding, verify_simulation

from conftest import cnot_verifier, random_hermitian, random_unitary

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def two_level_problem(v: float, delta: float = 1.0) -> SWProblem:
    lay = SystemLayout((2,))
    h0 = DenseOperator(lay, np.diag([0.0, 1.0]).astype(complex), hermitian=True)
    h1 = DenseOperator(lay, v * X, hermitian=True)
    minus = Subspace.from_basis(lay, np.array([[1.0], [0.0]], dtype=complex))
    return SWProblem(h0=h0, h1=h1, delta=delta, minus=minus)


def random_problem(
    rng, dim: int, ratio: float = 0.1, k: int | None = None, real_h1: bool = False
) -> SWProblem:
    if k is None:
        k = int(rng.integers(1, dim))
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    low = np.sort(rng.uniform(0.0, 0.5, size=k))
    high = np.sort(rng.uniform(1.0, 2.0, size=dim - k))
    h0_m = (basis * np.concatenate([low, high])) @ basis.conj().T
    lay = SystemLayout((dim,))
    h0 = DenseOperator(lay, (h0_m + h0_m.conj().T) / 2, hermitian=True)
    delta = float(rng.uniform(1.0, 5.0))
    h1_m = random_hermitian(rng, dim)
    if real_h1:
        h1_m = h1_m.real.astype(complex)
    h1_m *= ratio * delta * rng.uniform(0.2, 1.0) / np.linalg.norm(h1_m, 2)
    h1 = DenseOperator(lay, h1_m, hermitian=True)
    minus = Subspace.from_basis(lay, basis[:, :k])
    return SWProblem(h0=h0, h1=h1, delta=delta, minus=minus)


def record_shapes(mp: pytest.MonkeyPatch) -> list:
    """Patch numpy's and scipy's eigh/eigvalsh to record the shape of each input."""
    shapes = []

    def recorded(fn):
        def wrapper(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)

        return wrapper

    for module in (np.linalg, scipy.linalg):
        for name in ("eigh", "eigvalsh"):
            mp.setattr(module, name, recorded(getattr(module, name)))
    return shapes


class TestSWProblemValidation:
    def test_off_block_h0_rejected(self):
        lay = SystemLayout((2,))
        h0 = DenseOperator(lay, X, hermitian=True)
        minus = Subspace.from_basis(lay, np.array([[1.0], [0.0]], dtype=complex))
        with pytest.raises(ValueError, match="off-block"):
            SWProblem(h0=h0, h1=DenseOperator(lay, np.zeros((2, 2)), hermitian=True), delta=1.0, minus=minus)

    def test_high_block_below_normalized_gap_rejected(self):
        lay = SystemLayout((3,))
        zero = DenseOperator(lay, np.zeros((3, 3)), hermitian=True)
        minus = Subspace.from_basis(lay, np.eye(3, dtype=complex)[:, :1])
        low = DenseOperator(lay, np.diag([0.9, 0.5, 1.5]).astype(complex), hermitian=True)
        with pytest.raises(ValueError, match="H_\\+ starts at 0.5"):
            SWProblem(h0=low, h1=zero, delta=1.0, minus=minus)
        ok = DenseOperator(lay, np.diag([0.9, 1.0, 1.5]).astype(complex), hermitian=True)
        assert SWProblem(h0=ok, h1=zero, delta=1.0, minus=minus).lambda0 == pytest.approx(0.9)

    def test_lambda0_is_not_an_argument(self):
        lay = SystemLayout((2,))
        zero = DenseOperator(lay, np.zeros((2, 2)), hermitian=True)
        h0 = DenseOperator(lay, np.diag([0.0, 1.0]).astype(complex), hermitian=True)
        minus = Subspace.from_basis(lay, np.eye(2, dtype=complex)[:, :1])
        with pytest.raises(TypeError, match="lambda0"):
            SWProblem(h0=h0, h1=zero, delta=1.0, minus=minus, lambda0=0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 16),
        low=st.integers(0, 14),
        floor=st.floats(0.5, 1.5),
    )
    @example(seed=1, dim=12, low=3, floor=HIGH_FLOOR + 1e-11)
    @example(seed=1, dim=12, low=3, floor=HIGH_FLOOR - 1e-11)
    @example(seed=2, dim=16, low=0, floor=1.0)
    def test_floor_certificate_matches_spectrum(self, seed, dim, low, floor):
        # a problem is accepted exactly when the lowest value of h0 + 2 Pi_-
        # reaches HIGH_FLOOR, and an accepted one is certified without a
        # D x D eigensolve
        rng = np.random.default_rng(seed)
        k = 1 + low % (dim - 1)
        basis = random_unitary(rng, dim)
        high = floor + np.concatenate([[0.0], rng.uniform(0.0, 1.0, size=dim - k - 1)])
        values = np.concatenate([rng.uniform(0.0, 0.5, size=k), high])
        h0_m = (basis * values) @ basis.conj().T
        lay = SystemLayout((dim,))
        h0 = DenseOperator(lay, (h0_m + h0_m.conj().T) / 2, hermitian=True)
        minus = Subspace.from_basis(lay, basis[:, :k])
        lifted = h0.entries + 2.0 * minus.projector.entries
        margin = float(np.linalg.eigvalsh(lifted)[0]) - HIGH_FLOOR
        assume(abs(margin) > 1e-12)
        zero = DenseOperator(lay, np.zeros((dim, dim)), hermitian=True)
        with pytest.MonkeyPatch.context() as mp:
            shapes = record_shapes(mp)
            if margin > 0:
                SWProblem(h0=h0, h1=zero, delta=1.0, minus=minus)
                assert (dim, dim) not in shapes
            else:
                with pytest.raises(ValueError, match="H_\\+ starts at"):
                    SWProblem(h0=h0, h1=zero, delta=1.0, minus=minus)

    def test_rejected_problem_leaves_inputs_unchanged(self):
        lay = SystemLayout((3,))
        h0 = DenseOperator(lay, np.diag([0.9, 0.5, 1.5]).astype(complex), hermitian=True)
        minus = Subspace.from_basis(lay, np.eye(3, dtype=complex)[:, :1])
        h0_before = h0.entries.copy()
        projector_before = minus.projector.entries.copy()
        zero = DenseOperator(lay, np.zeros((3, 3)), hermitian=True)
        with pytest.raises(ValueError, match="H_\\+ starts at"):
            SWProblem(h0=h0, h1=zero, delta=1.0, minus=minus)
        assert np.array_equal(h0.entries, h0_before)
        assert np.array_equal(minus.projector.entries, projector_before)

    def test_large_perturbation_rejected(self):
        with pytest.raises(ValueError, match="delta/2"):
            two_level_problem(v=0.6, delta=1.0)

    def test_lambda0_computed(self):
        prob = two_level_problem(0.1)
        assert prob.lambda0 == pytest.approx(0.0, abs=1e-12)


class TestProblemCost:
    def test_kitaev_problem_runs_no_full_eigensolve(self, monkeypatch):
        # the workload's input: h0 = H_0 / gap, h1 = kappa H_out, which is diagonal
        circuit = cnot_verifier(trailing_idles=2)
        kappa = 0.5 * kappa_limit(circuit.n_steps)
        kh = build_kitaev(circuit, kappa)
        h0 = kh.h0()
        gap0 = spectral_gap_above(h0, 1e-8)
        lay = kh.layout
        kernel = ground_space(h0, 1e-8)
        h0_norm = DenseOperator(lay, h0.entries / gap0, hermitian=True)
        h1 = DenseOperator(lay, kappa * kh.h_out.entries, hermitian=True)
        shapes = record_shapes(monkeypatch)
        prob = SWProblem(h0=h0_norm, h1=h1, delta=gap0, minus=kernel)
        assert (h0.dim, h0.dim) not in shapes
        assert prob.h1_norm == kappa * np.abs(kh.h_out.entries.diagonal().real).max()

    def test_dense_perturbation_takes_one_eigensolve(self, rng, monkeypatch):
        shapes = record_shapes(monkeypatch)
        prob = random_problem(rng, 8)
        assert shapes.count((8, 8)) == 1
        monkeypatch.undo()
        h1 = prob.h1.entries
        assert prob.h1_norm == float(np.abs(np.linalg.eigvalsh(h1)).max())
        assert prob.h1_norm == _norm(h1)

    def test_diagonal_perturbation_norm(self):
        lay = SystemLayout((4,))
        h0 = DenseOperator(lay, np.diag([0.0, 0.2, 1.0, 1.5]).astype(complex), hermitian=True)
        minus = Subspace.from_basis(lay, np.eye(4, dtype=complex)[:, :2])
        for diag, norm in (([0.1, -0.3, 0.05, -0.2], 0.3), ([0.0] * 4, 0.0)):
            h1 = DenseOperator(lay, np.diag(diag).astype(complex), hermitian=True)
            prob = SWProblem(h0=h0, h1=h1, delta=1.0, minus=minus)
            assert prob.h1_norm == norm
            assert prob.h1_norm == float(np.abs(np.linalg.eigvalsh(h1.entries)).max())

    def test_unvalidated_outputs_exactly_hermitian(self, rng):
        # inputs Hermitian only to rounding: each operator built without the
        # Hermitian check must still be exactly Hermitian and read-only
        dim, k = 10, 3
        basis = random_unitary(rng, dim)
        values = np.concatenate([rng.uniform(0.0, 0.5, k), rng.uniform(1.0, 2.0, dim - k)])
        noise = random_hermitian(rng, dim)
        lay = SystemLayout((dim,))
        h0 = DenseOperator(lay, (basis * values) @ basis.conj().T + 1e-15j * noise, hermitian=True)
        h1_m = random_hermitian(rng, dim, scale=0.02) + 1e-15j * random_hermitian(rng, dim)
        h1 = DenseOperator(lay, h1_m, hermitian=True)
        assert not np.array_equal(h0.entries, h0.entries.conj().T)
        minus = Subspace.from_basis(lay, basis[:, :k])
        prob = SWProblem(h0=h0, h1=h1, delta=2.0, minus=minus)
        exp = sw_exact(prob)
        operators = [minus.projector, prob.perturbed(), exp.h_eff_exact, *sw_series(prob, 1)]
        for op in operators:
            assert np.array_equal(op.entries, op.entries.conj().T)
            assert not op.entries.flags.writeable


class TestSWExact:
    def test_zero_perturbation(self):
        prob = two_level_problem(0.0)
        exp = sw_exact(prob)
        assert np.abs(exp.s_exact).max() <= 1e-9
        expected = prob.delta * np.diag([0.0, 0.0])  # Delta H0 restricted to H_-
        assert np.abs(exp.h_eff_restricted() - expected[:1, :1]).max() <= 1e-9

    def test_two_level_closed_form(self):
        v, delta = 0.2, 1.0
        exp = sw_exact(two_level_problem(v, delta))
        closed = (delta - np.sqrt(delta**2 + 4 * v**2)) / 2
        assert exp.h_eff_restricted()[0, 0].real == pytest.approx(closed, abs=1e-12)

    def test_block_diagonal_perturbation_gives_zero_generator(self, rng):
        lay = SystemLayout((4,))
        h0 = DenseOperator(lay, np.diag([0.0, 0.2, 1.0, 1.5]).astype(complex), hermitian=True)
        minus = Subspace.from_basis(lay, np.eye(4, dtype=complex)[:, :2])
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = random_hermitian(rng, 2, scale=0.1)
        block[2:, 2:] = random_hermitian(rng, 2, scale=0.1)
        h1 = DenseOperator(lay, block, hermitian=True)
        prob = SWProblem(h0=h0, h1=h1, delta=2.0, minus=minus)
        exp = sw_exact(prob)
        assert np.abs(exp.s_exact).max() <= 1e-9
        expected = prob.delta * h0.entries[:2, :2] + block[:2, :2]
        assert np.abs(exp.h_eff_restricted() - expected).max() <= 1e-9

    def test_generator_properties(self, rng):
        prob = random_problem(rng, 8)
        exp = sw_exact(prob)
        s = exp.s_exact
        assert np.abs(s + s.conj().T).max() <= 1e-10  # anti-Hermitian
        assert np.linalg.norm(s, 2) < np.pi / 2
        p = prob.minus.projector.entries
        q = np.eye(8) - p
        assert np.linalg.norm(p @ s @ p, 2) <= 1e-10
        assert np.linalg.norm(q @ s @ q, 2) <= 1e-10
        w = scipy.linalg.expm(s)
        rotated = w @ prob.perturbed().entries @ w.conj().T
        assert np.linalg.norm(p @ rotated @ q, 2) <= 1e-9

    def test_effective_spectrum_matches_low_band(self, rng):
        for _ in range(5):
            prob = random_problem(rng, 10)
            exp = sw_exact(prob)
            low = np.linalg.eigvalsh(prob.perturbed().entries)[: prob.minus.dim]
            eff = np.linalg.eigvalsh(exp.h_eff_restricted())
            assert np.abs(low - eff).max() <= 1e-9


def dense_reference(prob: SWProblem):
    """(S, h_eff, |S|, truncation) from D x D matrices: logm of the materialized rotation."""
    h_t = prob.perturbed().entries
    _, vecs = np.linalg.eigh(h_t)
    r_space = Subspace.from_basis(prob.h0.layout, vecs[:, : prob.minus.dim])
    w = direct_rotation(r_space, prob.minus).entries
    s = scipy.linalg.logm(w)
    s = (s - s.conj().T) / 2
    p = prob.minus.projector.entries
    h_eff = p @ w @ h_t @ w.conj().T @ p
    first_order = prob.delta * prob.h0.entries @ p + p @ prob.h1.entries @ p
    return s, h_eff, np.linalg.norm(s, 2), np.linalg.norm(h_eff - first_order, 2)


class TestUnitaryLog:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), ratio=st.floats(0.01, 0.2))
    def test_rotation_block_log_matches_logm(self, seed, dim, ratio):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, dim, ratio=ratio)
        vecs = prob.perturbed().spectrum[1]
        w = direct_rotation_factored(vecs[:, : prob.minus.dim], prob.minus.basis).w_small
        assert np.abs(_unitary_log(w) - scipy.linalg.logm(w)).max() <= 1e-13

    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_phases_match_logm(self, seed):
        # repeated eigenphases, the identity's among them, and phases near +-pi/2
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        phases = np.array([0.0, 0.0, 0.0, 0.3, 0.3, -1.5, 1.5, -0.7])
        w = (basis * np.exp(1j * phases)) @ basis.conj().T
        assert np.abs(_unitary_log(w) - scipy.linalg.logm(w)).max() <= 1e-13


class TestJointSpan:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 12),
        low=st.integers(0, 10),
        real_h1=st.booleans(),
    )
    @example(seed=1, dim=9, low=0, real_h1=False)  # dim H_- = 1, complex h1
    def test_matches_dense_reference(self, seed, dim, low, real_h1):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, dim, k=1 + low % (dim - 1), real_h1=real_h1)
        exp = sw_exact(prob)
        s_ref, h_eff_ref, s_norm_ref, trunc_ref = dense_reference(prob)
        assert np.abs(exp.s_exact - s_ref).max() <= 1e-12
        assert np.abs(exp.h_eff_exact.entries - h_eff_ref).max() <= 1e-12
        assert abs(exp.bounds["s_norm_measured"] - s_norm_ref) <= 1e-12
        assert abs(exp.bounds["truncation_measured"] - trunc_ref) <= 1e-12

    @pytest.mark.parametrize("order", [0, 1])
    def test_sw_bounds_after_sw_exact_factors_nothing(self, rng, monkeypatch, order):
        prob = random_problem(rng, 8)
        exp = sw_exact(prob)
        rest = exp.h_eff_exact.entries - sum(t.entries for t in exp.h_eff_orders[: order + 1])
        trunc_ref = np.linalg.norm(rest, 2)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
        bounds = sw_bounds(prob, order)
        assert calls == []
        assert bounds.order == order
        assert bounds.s_norm_measured == exp.bounds["s_norm_measured"]
        assert abs(bounds.truncation_measured - trunc_ref) <= 1e-12
        if order == 1:
            assert bounds.truncation_measured == exp.bounds["truncation_measured"]
        sw_bounds(random_problem(rng, 8), order)  # a fresh problem is measured, and counted
        assert "schur" in calls and "eigh" in calls

    def test_verify_simulation_after_sw_exact_decomposes_no_full_matrix(self, rng, monkeypatch):
        prob = random_problem(rng, 12)
        exp = sw_exact(prob)
        h_tilde = prob.perturbed()
        shapes = []

        def recorded(fn):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)

            return wrapper

        for module in (np.linalg, scipy.linalg):
            for name in ("eigh", "eigvalsh"):
                monkeypatch.setattr(module, name, recorded(getattr(module, name)))
        enc = plain_encoding(prob.minus.basis, prob.minus.dim)
        # the low band of H~ lies below 0.6 delta, the rest above 0.9 delta
        report = verify_simulation(exp.h_eff_restricted(), h_tilde, enc, 0.75 * prob.delta)
        assert shapes  # the counters see the target's own small eigvalsh
        assert (h_tilde.dim, h_tilde.dim) not in shapes
        assert report.epsilon_measured <= 1e-10 * prob.delta

    def test_problem_freed_without_cycle_collector(self, rng):
        gc.disable()
        try:
            prob = random_problem(rng, 8)
            exp = sw_exact(prob)
            sw_bounds(prob)
            ref = weakref.ref(prob)
            del prob, exp
            assert ref() is None
        finally:
            gc.enable()


class TestSWSeries:
    def test_zero_ground_block(self):
        prob = two_level_problem(0.1)
        order0 = sw_series(prob, 0)[0]
        assert np.abs(order0.entries).max() <= 1e-12

    def test_diagonal_perturbation_passes_through(self, rng):
        lay = SystemLayout((3,))
        h0 = DenseOperator(lay, np.diag([0.0, 0.0, 1.0]).astype(complex), hermitian=True)
        minus = Subspace.from_basis(lay, np.eye(3, dtype=complex)[:, :2])
        h1 = DenseOperator(lay, np.diag([0.1, -0.2, 0.05]).astype(complex), hermitian=True)
        prob = SWProblem(h0=h0, h1=h1, delta=1.0, minus=minus)
        order1 = sw_series(prob, 1)[1]
        assert np.abs(order1.entries - np.diag([0.1, -0.2, 0.0])).max() <= 1e-12

    def test_order_beyond_one_rejected(self):
        with pytest.raises(ValueError, match="out of scope"):
            sw_series(two_level_problem(0.1), 2)

    def test_kitaev_first_order_matrix_elements(self):
        # elements of the first-order term between history states match
        # kappa/(T+1) (delta_ab - Q_ab) in the computational witness basis
        circuit = cnot_verifier()
        kappa = 0.05
        kh = build_kitaev(circuit, kappa)
        h0 = kh.h0()
        gap0 = spectral_gap_above(h0, 1e-8)
        lay = kh.layout
        kernel = ground_space(h0, 1e-8)
        h0_norm = DenseOperator(lay, h0.entries / gap0, hermitian=True)
        h1 = DenseOperator(lay, kappa * kh.h_out.entries, hermitian=True)
        prob = SWProblem(h0=h0_norm, h1=h1, delta=gap0, minus=kernel)
        order1 = sw_series(prob, 1)[1].entries
        t_steps = circuit.n_steps
        basis = np.eye(circuit.witness_dim, dtype=complex)
        etas = [history_state(circuit, basis[:, i]).vector for i in range(circuit.witness_dim)]
        q = acceptance_operator(circuit).q.entries
        for i in range(len(etas)):
            for j in range(len(etas)):
                measured = np.vdot(etas[i], order1 @ etas[j])
                expected = kappa / (t_steps + 1) * ((i == j) - q[i, j])
                assert abs(measured - expected) <= 1e-9


class TestSWBounds:
    def test_zero_perturbation_all_zero(self):
        bounds = sw_bounds(two_level_problem(0.0))
        assert bounds.s_norm_measured <= 1e-12
        assert bounds.truncation_measured <= 1e-12
        assert bounds.ok

    def test_two_level_sweep_within_bound(self):
        delta = 1.0
        for v in (0.1, 0.05, 0.025, 0.0125):
            bounds = sw_bounds(two_level_problem(v, delta))
            closed = abs((delta - np.sqrt(delta**2 + 4 * v**2)) / 2)
            assert bounds.truncation_measured == pytest.approx(closed, abs=1e-12)
            assert bounds.truncation_measured <= v**2 / delta + 2 * v**4 / delta**3
            assert bounds.ok

    def test_truncation_slope_is_order_plus_one(self):
        delta = 1.0
        vs = np.array([0.1 / 2**k for k in range(5)])
        errs = np.array([sw_bounds(two_level_problem(v, delta)).truncation_measured for v in vs])
        slope = np.polyfit(np.log(vs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) <= 0.1

    def test_random_instances_within_bounds(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            prob = random_problem(rng, dim)
            bounds = sw_bounds(prob)
            assert bounds.s_norm_measured <= bounds.s_norm_bound + 1e-12
            assert bounds.truncation_measured <= bounds.truncation_bound + 1e-12


class TestSinThetaOnKitaev:
    def test_low_space_close_to_history_span(self):
        circuit = cnot_verifier()
        for kappa in (0.05, 0.025, 0.0125):
            kh = build_kitaev(circuit, kappa)
            h_mk = kh.h_mk()
            vals, vecs = np.linalg.eigh(h_mk.entries)
            keep = vals <= kappa / 2
            basis = np.eye(circuit.witness_dim, dtype=complex)
            etas = np.stack(
                [history_state(circuit, basis[:, i]).vector for i in range(2)], axis=1
            )
            p_r = vecs[:, keep] @ vecs[:, keep].conj().T
            p_g = etas @ etas.conj().T
            assert int(keep.sum()) == 2
            assert np.linalg.norm(p_r - p_g, 2) <= circuit.n_steps**3 * kappa
