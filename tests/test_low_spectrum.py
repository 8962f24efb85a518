"""Low-spectrum solvers: dense agreement, determinism, and the Kahan count certificate under
the clock construction's gap floor."""

import ctypes
import importlib
import logging
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import hamuniv.kitaev as kitaev
import hamuniv.operators as operators
import hamuniv.universality as universality
from hamuniv.circuits import (
    Gate,
    VerifierCircuit,
    acceptance_gap,
    acceptance_operator,
    idle_prefix,
)
from hamuniv.config import DEFAULT
from hamuniv.kitaev import (
    _SHIFT_INVERT_DIM,
    _SI_OVERSAMPLE,
    ClockRep,
    LowSpectrum,
    _dense_entries,
    _low_spectrum,
    build_kitaev,
    check_hmk_lemma,
    default_kappa,
    hmk_excited_floor,
    kappa_limit,
    spectral_gap_above,
)
from hamuniv.operators import (
    DenseOperator,
    Register,
    SpectrumCertificateError,
    SystemLayout,
    expm_i,
)
from hamuniv.simulation import check_partition_function, plain_encoding, verify_simulation
from hamuniv.universality import TargetHamiltonian, end_to_end, qpe_verifier

from conftest import random_hermitian, random_unitary


def spectator_verifier(seed: int, n_spectators: int, n_ancilla: int, t_steps: int) -> VerifierCircuit:
    """Random two-site gates that never touch the spectator witness qubits.

    H_MK commutes with every operator on the spectators, so each of its
    eigenvalues is 2^n_spectators-fold degenerate.
    """
    rng = np.random.default_rng(seed)
    n_witness = 1 + n_spectators
    dims = (2,) * (1 + n_witness + n_ancilla)
    layout = SystemLayout(
        dims,
        registers=(
            Register("flag", (0,), role="flag"),
            Register("witness", tuple(range(1, 1 + n_witness)), role="witness"),
            Register("ancilla", tuple(range(1 + n_witness, len(dims))), role="ancilla"),
        ),
    )
    active = [0, 1] + list(range(1 + n_witness, len(dims)))
    gates = []
    for k in range(t_steps):
        pair = tuple(int(s) for s in rng.choice(active, size=2, replace=False))
        gates.append(Gate.from_matrix(random_unitary(rng, 4), pair, layout, label=f"g{k}"))
    return VerifierCircuit(
        layout=layout,
        gates=tuple(gates),
        witness_register=("witness",),
        output_site=0,
        completeness=1.0,
        soundness=0.5,
    )


def spectator_hmk(
    seed: int, n_spectators: int, n_ancilla: int, t_steps: int, kappa_share: float = 0.5
) -> tuple:
    """(H_MK, w, the floor on its (w+1)-th eigenvalue) at kappa_share of the kappa limit."""
    circuit = spectator_verifier(seed, n_spectators, n_ancilla, t_steps)
    kh = build_kitaev(circuit, kappa_share * kappa_limit(t_steps), ClockRep.CLOCK_SUBSPACE)
    return kh.h_mk_operator(), circuit.witness_dim, hmk_excited_floor(t_steps)


def cluster_ranges(vals: np.ndarray, tol: float) -> list[tuple[int, int]]:
    edges = [0] + [i for i in range(1, len(vals)) if vals[i] - vals[i - 1] > tol] + [len(vals)]
    return list(zip(edges[:-1], edges[1:]))


@pytest.fixture(scope="module")
def large_hmk():
    """Clock-subspace H_MK above the dense switch (D = 128 x 11) with 4-fold clusters."""
    h, w, _ = spectator_hmk(seed=5, n_spectators=2, n_ancilla=3, t_steps=10)
    assert h.shape[0] > _SHIFT_INVERT_DIM
    dense = _dense_entries(h)
    vals, vecs = np.linalg.eigh(dense)
    return h, w, dense, vals, vecs


LARGE_ABOVE = hmk_excited_floor(10)  # large_hmk's floor on its (w+1)-th eigenvalue


ROADMAP_TARGET = TargetHamiltonian.from_matrix(np.diag([0.0, 0.5]).astype(complex), (2,))
ROADMAP_C_DIM = 648  # circuit states of the ROADMAP verifier; its clock has T' + 1 = 5 states
ROADMAP_ABOVE = hmk_excited_floor(4)


@pytest.fixture(scope="module")
def roadmap_hmk():
    """The ROADMAP instance's clock-subspace H_MK (c_dim = 648, T' = 4, D = 3240)."""
    circuit = idle_prefix(qpe_verifier(ROADMAP_TARGET, 2.0, 2, tau=np.pi), 1)
    h = build_kitaev(
        circuit, 0.5 * kappa_limit(circuit.n_steps), ClockRep.CLOCK_SUBSPACE
    ).h_mk_operator()
    return h, circuit.witness_dim


class TestShiftInvertAgreesWithDense:
    def test_certified_pairs_match_dense(self, large_hmk):
        h, w, dense, vals, vecs = large_hmk
        low = _low_spectrum(h, w, floor=0.0, above=LARGE_ABOVE)
        norm = float(np.abs(dense).sum(axis=1).max())
        assert low.certificate == (LARGE_ABOVE, w)
        assert np.abs(low.values[:w] - vals[:w]).max() <= 1e-12 * norm
        # Ritz values beyond the certified pairs are upper bounds
        assert np.all(low.values[w:] >= vals[w : len(low.values)] - 1e-12 * norm)
        gram = low.vectors.conj().T @ low.vectors
        assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-12
        recomputed = np.linalg.norm(dense @ low.vectors - low.vectors * low.values, axis=0)
        assert np.allclose(low.residuals, recomputed, rtol=1e-6, atol=1e-15)
        assert low.residuals[:w].max() <= 1e-12 * norm

    def test_floor_moves_with_a_shifted_matrix(self, large_hmk):
        # H_MK - 5 has the floor -5: the shift-invert solve shifts below it and
        # certifies H_MK's values minus 5
        h, w, dense = large_hmk[:3]
        low = _low_spectrum(h, w, floor=0.0, above=LARGE_ABOVE)
        shifted = h - 5.0 * scipy.sparse.identity(h.shape[0], format="csr")
        moved = _low_spectrum(shifted, w, floor=-5.0, above=LARGE_ABOVE - 5.0)
        norm = float(np.abs(dense).sum(axis=1).max())
        assert moved.certificate == (LARGE_ABOVE - 5.0, w)
        assert np.abs(moved.values[:w] - (low.values[:w] - 5.0)).max() <= 1e-12 * norm

    def test_sparse_solve_without_floor_raises(self, large_hmk):
        # a sparse solve never assumes a positive semidefinite matrix; nor does
        # verify_simulation on a sparse h_prime it is not handed the spectrum of
        h, w = large_hmk[:2]
        with pytest.raises(ValueError, match="lower bound on the spectrum"):
            _low_spectrum(h, w)
        enc = plain_encoding(np.eye(h.shape[0], w), w)
        with pytest.raises(ValueError, match="lower bound on the spectrum"):
            verify_simulation(np.zeros((w, w)), h, enc, 1.0)

    def test_sparse_solve_without_above_raises(self, large_hmk):
        # the certificate rests on a bound on the (n+1)-th eigenvalue that only the
        # caller can give
        h, w = large_hmk[:2]
        with pytest.raises(ValueError, match=r"lower bound on the \(n\+1\)-th eigenvalue"):
            _low_spectrum(h, w, floor=0.0)

    def test_cluster_projectors_match_dense(self, large_hmk):
        h, w, _, vals, vecs = large_hmk
        low = _low_spectrum(h, w, floor=0.0, above=LARGE_ABOVE)
        clusters = cluster_ranges(vals[: w + 1], 1e-9)
        assert any(stop - start > 1 for start, stop in clusters[:-1])
        for start, stop in clusters[:-1]:  # whole clusters inside the certified band
            p_dense = vecs[:, start:stop] @ vecs[:, start:stop].conj().T
            b = low.vectors[:, start:stop]
            assert np.abs(b @ b.conj().T - p_dense).max() <= 1e-10

    def test_repeated_call_is_bit_identical(self, large_hmk):
        h, w = large_hmk[:2]
        first, second = (_low_spectrum(h, w, floor=0.0, above=LARGE_ABOVE) for _ in range(2))
        for name in ("values", "vectors", "residuals"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert first.certificate == second.certificate


class TestShiftInvertSteps:
    @pytest.mark.parametrize("a", [2.0, 32.0])
    def test_roadmap_solves_take_few_steps(self, a, caplog):
        # the tight shift converges H_MK, started from the w_dim history
        # states, in at most five steps, and H_sim, started from H_MK's
        # eigenvectors, in at most four
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            report = end_to_end(ROADMAP_TARGET, a, 2, idle_steps=1, tau=np.pi)
        solves = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("shift-invert")
        ]
        steps = [int(re.search(r"steps=(\d+)", msg).group(1)) for msg in solves]
        warm = [int(re.search(r"warm=(\d+)", msg).group(1)) for msg in solves]
        w_dim = len(report.hmk.rows)
        assert len(solves) == 2 and warm[0] == w_dim and warm[1] > 0
        assert steps[0] <= 5 and steps[1] <= 4

    def test_warm_start_is_bit_identical_and_exact(self, large_hmk):
        h, w, dense, vals, _ = large_hmk
        start = _low_spectrum(h, w, floor=0.0, above=LARGE_ABOVE).vectors
        first, second = (
            _low_spectrum(h, w, start=start, floor=0.0, above=LARGE_ABOVE) for _ in range(2)
        )
        for name in ("values", "vectors", "residuals"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert first.certificate == second.certificate
        norm = float(np.abs(dense).sum(axis=1).max())
        assert np.abs(first.values[:w] - vals[:w]).max() <= 1e-12 * norm

    def test_cholesky_breakdown_raises(self, large_hmk, monkeypatch):
        h, w = large_hmk[:2]
        cholesky, calls = np.linalg.cholesky, []

        def indefinite_third_gram(gram):
            calls.append(gram)
            if len(calls) == 3:  # the scaled Gram matrix has a unit diagonal
                gram = gram - 2.0 * np.eye(len(gram))
            return cholesky(gram)

        monkeypatch.setattr(np.linalg, "cholesky", indefinite_third_gram)
        with pytest.raises(SpectrumCertificateError, match="broke down at step 3"):
            _low_spectrum(h, w, floor=0.0, above=LARGE_ABOVE)

    def test_lost_orthonormality_raises(self, large_hmk, monkeypatch):
        h, w = large_hmk[:2]
        ritz = kitaev._cholesky_ritz

        def stretched(*args):
            vals, c = ritz(*args)
            return vals, c * (1.0 + 1e-9)

        monkeypatch.setattr(kitaev, "_cholesky_ritz", stretched)
        with pytest.raises(SpectrumCertificateError, match="orthonormality"):
            _low_spectrum(h, w, floor=0.0, above=LARGE_ABOVE)

    def test_roadmap_solve_holds_three_blocks(self, roadmap_hmk):
        # z, its conjugate (then the new block) and H z are the only D x m
        # arrays live at once; a fourth would break the bound, which is
        # 5.6 MB here, against a 4.7 MB peak
        h, w = roadmap_hmk
        _low_spectrum(h, w, floor=0.0, above=ROADMAP_ABOVE)  # imports scipy.sparse.linalg
        tracemalloc.start()
        try:
            _low_spectrum(h, w, floor=0.0, above=ROADMAP_ABOVE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * h.shape[0] * (w + 1 + _SI_OVERSAMPLE) * 16

    def test_roadmap_certificate_holds_under_one_and_a_half_blocks(self, roadmap_hmk):
        # R = H V - V Theta is formed in one D x (w + 1) array, and the Gram matrix of V
        # without a copy of V: no D x w temporary is made beside it
        h, w = roadmap_hmk
        low = _low_spectrum(h, w, floor=0.0, above=ROADMAP_ABOVE)
        a = h.tocsc()
        norm = float(abs(a).sum(axis=1).max())
        tracemalloc.start()
        try:
            certificate = kitaev._kahan_certificate(a, low, w, ROADMAP_ABOVE, norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certificate == (ROADMAP_ABOVE, w)
        assert peak < 1.5 * a.shape[0] * w * 16


def recorded_solves(monkeypatch) -> list:
    """Route every _low_spectrum call through a wrapper that records (pairs returned, n, start,
    result)."""
    calls = []

    def record(h, n, start=None, floor=None, above=None, sectors=None):
        low = _low_spectrum(h, n, start, floor, above, sectors)
        calls.append((len(low.values), n, start, low))
        return low

    for module in (kitaev, universality):
        monkeypatch.setattr(module, "_low_spectrum", record)
    return calls


def recorded_assembly(monkeypatch, h) -> tuple[list, list]:
    """Record the CSC conversions of `h` and the matrices every Kahan certificate reads."""
    tocsc, kahan, converted, certified = type(h).tocsc, kitaev._kahan_certificate, [], []

    def record_tocsc(self, *args, **kwargs):
        out = tocsc(self, *args, **kwargs)
        if self is h:
            converted.append(out)
        return out

    def record_kahan(a, *args):
        certified.append(a)
        return kahan(a, *args)

    monkeypatch.setattr(type(h), "tocsc", record_tocsc)
    monkeypatch.setattr(kitaev, "_kahan_certificate", record_kahan)
    return converted, certified


class TestSolvesSizedToTheCertificate:
    def test_history_started_hmk_matches_cold_solve(self, monkeypatch):
        circuit = idle_prefix(qpe_verifier(ROADMAP_TARGET, 2.0, 2, tau=np.pi), 1)
        gap = acceptance_gap(acceptance_operator(circuit), circuit.completeness).gap
        kh = build_kitaev(circuit, default_kappa(gap, circuit.n_steps), ClockRep.CLOCK_SUBSPACE)
        h, w = kh.h_mk_operator(), circuit.witness_dim
        calls = recorded_solves(monkeypatch)
        check_hmk_lemma(kh)
        [(k, n, start, warm)] = calls
        history = kitaev._history_columns(
            circuit, np.eye(w, dtype=complex), ClockRep.CLOCK_SUBSPACE
        )
        assert (k, n) == (w + 1, w) and np.array_equal(start, history)
        cold = _low_spectrum(h, w, floor=0.0, above=ROADMAP_ABOVE)
        norm = float(abs(h).sum(axis=1).max())
        assert np.abs(warm.values[:w] - cold.values[:w]).max() <= 1e-12 * norm
        assert warm.certificate == cold.certificate == (ROADMAP_ABOVE, w)

    def test_end_to_end_solves_return_one_value_above_the_count(self, monkeypatch):
        calls = recorded_solves(monkeypatch)
        for a in (2.0, 8.0, 32.0):
            report = end_to_end(ROADMAP_TARGET, a, 2, idle_steps=1, tau=np.pi)
            w = len(report.hmk.rows)
            assert len(calls) == 2
            for k, n, _, low in calls:
                assert (k, n) == (w + 1, w)
                assert len(low.values) == w + 1 and low.certificate[1] == w
            calls.clear()

    def test_hermitian_factor_is_smaller(self, roadmap_hmk, monkeypatch):
        # the minimum-degree ordering of H - sigma's symmetric pattern with
        # diagonal pivots: 27 412 L + U nonzeros, against 32 557 with the
        # default column ordering and partial pivoting; the certificate
        # factors nothing
        h, w = roadmap_hmk
        splu, factors = scipy.sparse.linalg.splu, []

        def record(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(scipy.sparse.linalg, "splu", record)
        _low_spectrum(h, w, floor=0.0, above=ROADMAP_ABOVE)
        [solve] = factors
        assert solve.L.nnz + solve.U.nnz < 30_000


# the CI rotated target V diag(0, 1/2) V^dag, V the real rotation with cosine 0.6 and sine 0.8
ROTATED_TARGET = TargetHamiltonian.from_matrix(
    np.array([[0.32, -0.24], [-0.24, 0.18]], dtype=complex), (2,)
)


def hsim_solve(monkeypatch, target: TargetHamiltonian, a: float = 2.0, **kwargs) -> tuple:
    """Run end_to_end and return (report, the keywords of its H_sim solve, that solve's result)."""
    calls = []

    def record(h, n, start=None, floor=None, above=None, sectors=None):
        low = _low_spectrum(h, n, start, floor, above, sectors)
        calls.append((dict(h=h, n=n, start=start, floor=floor, above=above, sectors=sectors), low))
        return low

    monkeypatch.setattr(universality, "_low_spectrum", record)
    report = end_to_end(target, a, 2, idle_steps=1, tau=np.pi, **kwargs)
    (mk_call, _), (sim_call, sim) = calls
    assert mk_call["above"] == ROADMAP_ABOVE and mk_call["sectors"] is None
    return report, sim_call, sim


def sector_eigvalsh(h: scipy.sparse.spmatrix) -> np.ndarray:
    """The spectrum of a sparse Hermitian h: the union of the dense spectra of the connected
    components of its pattern, over which h is block diagonal."""
    from scipy.sparse.csgraph import connected_components

    a = h.tocsr()
    pattern = scipy.sparse.csr_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    count, labels = connected_components(pattern, directed=False)
    blocks = (np.flatnonzero(labels == c) for c in range(count))
    return np.sort(np.concatenate([np.linalg.eigvalsh(a[r][:, r].toarray()) for r in blocks]))


class TestHsimOnTheHmkCertificate:
    """end_to_end solves H_MK under hmk_excited_floor and H_sim under the Weyl bound derived
    from it, in H_MK's sectors; the Kahan bound certifies both counts."""

    @pytest.mark.parametrize("a", [2.0, 8.0, 32.0])
    def test_two_kahan_bounds_one_labelling(self, a, monkeypatch, caplog):
        # per end_to_end: one certificate for each solve, one labelling for H_MK
        counted = {"_kahan_certificate": 0, "_sector_labels": 0}
        for name in counted:

            def counting(*args, _fn=getattr(kitaev, name), _name=name):
                counted[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(kitaev, name, counting)
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            report = end_to_end(ROADMAP_TARGET, a, 2, idle_steps=1, tau=np.pi)
        assert report.ok and counted == {"_kahan_certificate": 2, "_sector_labels": 1}
        solves = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("shift-invert")
        ]
        assert all("by the Kahan bound" in msg for msg in solves) and len(solves) == 2
        # the same sectors hold the same start columns, and H_sim's blocks take no extra ones
        blocks = [int(re.search(r"block=(\d+)", msg).group(1)) for msg in solves]
        assert blocks[1] == blocks[0] - _SI_OVERSAMPLE

    @pytest.mark.parametrize("target", [ROADMAP_TARGET, ROTATED_TARGET], ids=["roadmap", "rotated"])
    def test_weyl_bound_agrees_with_eigvalsh(self, target, monkeypatch):
        report, call, sim = hsim_solve(monkeypatch, target)
        w = len(report.hmk.rows)
        assert call["h"].shape[0] > _SHIFT_INVERT_DIM
        assert sim.certificate == (call["above"], w)
        vals = sector_eigvalsh(call["h"])
        assert np.count_nonzero(vals < call["above"]) == w

    def test_bound_under_the_last_value_raises(self, monkeypatch):
        # no other certificate stands behind the Kahan bound: the split and the whole
        # matrix are both refused
        report, call, sim = hsim_solve(monkeypatch, ROADMAP_TARGET)
        w = len(report.hmk.rows)
        call["above"] = float(sim.values[w - 1]) * (1 - 1e-9)
        with pytest.raises(SpectrumCertificateError, match="not below the bound"):
            _low_spectrum(**call)

    @pytest.mark.parametrize("delta", [None, 1e7, 1e6])
    def test_user_delta_certifies(self, delta, caplog):
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            report = end_to_end(ROTATED_TARGET, 2.0, 2, idle_steps=1, tau=np.pi, delta=delta)
        solves = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("shift-invert")
        ]
        assert report.ok and "by the Kahan bound" in solves[1]

    def test_user_delta_too_small_for_the_cutoff_is_refused(self):
        # the composite cutoff delta gap_mk / 2 = 1.95 holds 5 values of H_sim, not the target's 2
        with pytest.raises(ValueError, match="low-energy dimension"):
            end_to_end(ROTATED_TARGET, 2.0, 2, idle_steps=1, tau=np.pi, delta=1e5)


def sector_problem(spectra: list, seed: int = 11) -> tuple:
    """A sparse Hermitian matrix with one dense sector per spectrum, its rows scattered by a
    fixed permutation: (matrix, sector of each row, each sector's eigenvectors on its rows)."""
    rng = np.random.default_rng(seed)
    owner = rng.permutation(np.repeat(np.arange(len(spectra)), [len(s) for s in spectra]))
    dense = np.zeros((owner.size, owner.size), dtype=complex)
    bases = []
    for c, spectrum in enumerate(spectra):
        rows = np.flatnonzero(owner == c)
        u = random_unitary(rng, len(spectrum))
        dense[np.ix_(rows, rows)] = operators.hermitize((u * spectrum) @ u.conj().T)
        bases.append(u)
    return scipy.sparse.csr_matrix(dense), owner, bases


def sector_start(owner: np.ndarray, bases: list, picks: list, seed: int = 12) -> np.ndarray:
    """Orthonormal columns near the picked (sector, index) eigenvectors, zero outside their
    sectors."""
    rng = np.random.default_rng(seed)
    start = np.zeros((owner.size, len(picks)), dtype=complex)
    for c in sorted({c for c, _ in picks}):
        cols = [i for i, (s, _) in enumerate(picks) if s == c]
        rows = np.flatnonzero(owner == c)
        near = bases[c][:, [picks[i][1] for i in cols]]
        near = near + 1e-3 * rng.standard_normal(near.shape)
        start[np.ix_(rows, cols)] = np.linalg.qr(near)[0]
    return start


def logged_sectors(caplog) -> tuple[int, int]:
    [msg] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("shift-invert")]
    found = re.search(r"sectors=(\d+) largest=(\d+)", msg)
    return int(found.group(1)), int(found.group(2))


class TestSectorSplit:
    """Four sectors of 60, 50, 40 and 70 states; the three lowest values 0, 0.05 and 0.1 lie
    in the first two, and the next at 1 (sector 0) unless a spectrum below moves it, so 0.5
    bounds the fourth eigenvalue from below."""

    @staticmethod
    def spectra(third_low: float = 3.0, second_next: float = 1.2) -> list:
        return [
            np.concatenate([[0.0, 0.1], np.linspace(1.0, 2.0, 58)]),
            np.concatenate([[0.05, second_next], np.linspace(1.3, 2.2, 48)]),
            np.linspace(third_low, third_low + 1.0, 40),
            np.linspace(4.0, 5.0, 70),
        ]

    @pytest.fixture(autouse=True)
    def switch(self, monkeypatch):
        monkeypatch.setattr(kitaev, "_SHIFT_INVERT_DIM", 32)

    def test_history_aligned_start_splits(self, monkeypatch, caplog):
        h, owner, bases = sector_problem(self.spectra())
        start = sector_start(owner, bases, [(0, 0), (0, 1), (1, 0)])
        cold = _low_spectrum(h, 3, floor=0.0, above=0.5)
        converted, certified = recorded_assembly(monkeypatch, h)
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            low = _low_spectrum(h, 3, start=start, floor=0.0, above=0.5)
        assert logged_sectors(caplog) == (2, 60)  # sectors 2 and 3 are not solved
        assert len(converted) == 1 and len(certified) == 1 and certified[0] is converted[0]
        norm = float(abs(h).sum(axis=1).max())
        assert low.certificate == cold.certificate == (0.5, 3)
        assert np.abs(low.values[:3] - cold.values[:3]).max() <= 1e-12 * norm
        assert np.abs(low.values[:3] - [0.0, 0.05, 0.1]).max() <= 1e-12 * norm
        for column in low.vectors.T:
            assert np.unique(owner[np.flatnonzero(column)]).size == 1
        gram = low.vectors.conj().T @ low.vectors
        assert np.abs(gram - np.eye(4)).max() <= 1e-12

    def test_start_across_sectors_solves_the_whole_matrix(self, monkeypatch, caplog):
        h, owner, bases = sector_problem(self.spectra())
        start = sector_start(owner, bases, [(0, 0), (0, 1), (1, 0)])
        start[np.flatnonzero(owner == 2)[0], 2] = 1e-3  # the third column reaches sector 2
        start[:, 2] /= np.linalg.norm(start[:, 2])
        splu, factors = scipy.sparse.linalg.splu, []

        def record(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(scipy.sparse.linalg, "splu", record)
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            low = _low_spectrum(h, 3, start=start, floor=0.0, above=0.5)
        [solve] = factors
        assert solve.shape == h.shape and logged_sectors(caplog) == (1, h.shape[0])
        assert low.certificate == (0.5, 3)

    def test_one_held_sector_among_several_fills_the_whole_block(self, caplog):
        spectra = self.spectra()
        spectra[1] = spectra[1] + 1.0  # sector 1 above 1: sector 0 holds the two lowest
        h, owner, bases = sector_problem(spectra)
        start = sector_start(owner, bases, [(0, 0), (0, 1)])
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            low = _low_spectrum(h, 2, start=start, floor=0.0, above=0.5)
        assert logged_sectors(caplog) == (1, 60)
        assert low.vectors.shape == (h.shape[0], 3) and not low.vectors[owner != 0].any()
        vals = np.linalg.eigvalsh(h.toarray())
        norm = float(abs(h).sum(axis=1).max())
        assert np.abs(low.values[:2] - vals[:2]).max() <= 1e-12 * norm
        assert vals[2] - 1e-12 * norm <= low.values[2]  # a Ritz value: an upper bound
        assert low.certificate == (0.5, 2)

    def test_sector_breakdown_falls_back_to_the_whole_matrix(self, monkeypatch, caplog):
        # the Rayleigh-Ritz step breaks down on the sectors' blocks (11 and 10 columns),
        # never on the whole matrix's (3 + 1 + 8)
        h, owner, bases = sector_problem(self.spectra())
        start = sector_start(owner, bases, [(0, 0), (0, 1), (1, 0)])
        ritz, widths = kitaev._cholesky_ritz, []

        def narrow_blocks_break_down(gram, proj, step):
            widths.append(len(gram))
            if len(gram) < 3 + 1 + _SI_OVERSAMPLE:
                raise SpectrumCertificateError(f"Cholesky Rayleigh-Ritz broke down at step {step}")
            return ritz(gram, proj, step)

        monkeypatch.setattr(kitaev, "_cholesky_ritz", narrow_blocks_break_down)
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            low = _low_spectrum(h, 3, start=start, floor=0.0, above=0.5)
        assert widths[0] < 3 + 1 + _SI_OVERSAMPLE  # the split was tried first
        assert logged_sectors(caplog) == (1, h.shape[0])
        vals = np.linalg.eigvalsh(h.toarray())
        norm = float(abs(h).sum(axis=1).max())
        assert np.abs(low.values[:3] - vals[:3]).max() <= 1e-12 * norm
        assert low.certificate == (0.5, 3)

    @pytest.mark.parametrize(
        "spectra, picks, above",
        [
            # the start misses sector 1, whose 0.05 lies below the bound 0.3: the
            # merged third value, sector 2's 0.5, does not clear it
            ({"third_low": 0.5}, [(0, 0), (0, 1), (2, 0)], 0.3),
            # sector 1's second value, 0.07, lies below sector 0's second, 0.1:
            # the merge refuses
            ({"second_next": 0.07}, [(0, 0), (0, 1), (1, 0)], 0.09),
        ],
        ids=["unsolved-sector-below-mu", "start-misplaces-the-low-space"],
    )
    def test_split_that_does_not_certify_falls_back(self, spectra, picks, above, caplog):
        h, owner, bases = sector_problem(self.spectra(**spectra))
        start = sector_start(owner, bases, picks)
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            low = _low_spectrum(h, 3, start=start, floor=0.0, above=above)
        assert logged_sectors(caplog) == (1, h.shape[0])
        vals = np.linalg.eigvalsh(h.toarray())
        norm = float(abs(h).sum(axis=1).max())
        assert np.abs(low.values[:3] - vals[:3]).max() <= 1e-12 * norm
        assert vals[3] - 1e-12 * norm <= low.values[3] < 1.0
        assert low.certificate == (above, 3)


def test_small_clock_blocks_take_the_dense_path():
    h, w, _ = spectator_hmk(seed=1, n_spectators=1, n_ancilla=1, t_steps=4)
    assert h.shape[0] <= _SHIFT_INVERT_DIM
    low = _low_spectrum(h, w, floor=0.0)
    vals, vecs = np.linalg.eigh(_dense_entries(h))
    assert low.certificate is None
    assert np.array_equal(low.values, vals[: w + 1])
    assert np.array_equal(low.vectors, vecs[:, : w + 1])


def test_a_dense_operator_above_the_switch_reads_its_cached_spectrum(monkeypatch):
    # a D = 48 simulator of a 3-level target, its 45 other levels above delta
    monkeypatch.setattr(kitaev, "_SHIFT_INVERT_DIM", 32)
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 3)
    delta = float(np.linalg.norm(h, 2)) + 1.0
    entries = np.zeros((48, 48), dtype=complex)
    entries[:3, :3] = h
    entries[3:, 3:] = (delta + 2.0) * np.eye(45) + random_hermitian(rng, 45, scale=0.05)
    h_prime = DenseOperator(SystemLayout((48,)), entries, hermitian=True)
    solves = []

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            if np.shape(a) == (48, 48):
                solves.append(fn)
            return fn(a, *args, **kwargs)

        return wrapper

    for module, name in [(np.linalg, "eigh"), (np.linalg, "eigvalsh"), (scipy.linalg, "eigh")]:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    enc = plain_encoding(np.eye(48, 3), 3)
    report = verify_simulation(h, h_prime, enc, delta)
    check_partition_function(h, h_prime, enc, delta, beta=1.0, report=report)
    assert len(solves) == 1
    low = _low_spectrum(h_prime, 3)
    vals, vecs = h_prime.spectrum
    assert low.certificate is None
    assert np.array_equal(low.values, vals[:4])
    assert np.array_equal(low.vectors, vecs[:, :4])
    assert spectral_gap_above(h_prime, delta) == vals[3] - vals[2]
    for t in (0.5, 2.0):
        u = expm_i(h_prime, t).entries
        assert np.array_equal(u, (vecs * np.exp(1j * vals * t)) @ vecs.conj().T)
    assert len(solves) == 1


def dense_pairs(h: scipy.sparse.spmatrix) -> LowSpectrum:
    dense = _dense_entries(h)
    vals, vecs = np.linalg.eigh(dense)
    return LowSpectrum(vals, vecs, np.linalg.norm(dense @ vecs - vecs * vals, axis=0))


def drop_pair(low: LowSpectrum, j: int) -> LowSpectrum:
    keep = np.arange(len(low.values)) != j
    return LowSpectrum(low.values[keep], low.vectors[:, keep], low.residuals[keep])


small_hmk = st.builds(
    spectator_hmk,
    seed=st.integers(0, 2**16),
    n_spectators=st.just(1),
    n_ancilla=st.integers(1, 2),
    t_steps=st.integers(2, 5),
    kappa_share=st.floats(0.01, 0.99),
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def crossval_circuit(monkeypatch) -> VerifierCircuit:
    """The benchmark's clock_crossval circuit 2 at seed 1 (D = 1664, one sector)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    rng = workloads._rng(1, "clock_crossval")
    return [workloads.random_verifier(rng, spec) for spec, _ in workloads.CLOCK_CIRCUITS][2]


def always_accepting_verifier() -> VerifierCircuit:
    """X on the flag, then 11 Haar two-qubit gates on sites 1-6 (D = 1664, w = 2)."""
    rng = np.random.default_rng(5)
    layout = SystemLayout(
        (2,) * 7,
        registers=(
            Register("flag", (0,), role="flag"),
            Register("witness", (1,), role="witness"),
            Register("ancilla", tuple(range(2, 7)), role="ancilla"),
        ),
    )
    gates = [Gate.from_matrix(np.array([[0, 1], [1, 0]], dtype=complex), (0,), layout, "x")]
    for k in range(11):
        pair = tuple(int(s) for s in rng.choice(range(1, 7), size=2, replace=False))
        gates.append(Gate.from_matrix(random_unitary(rng, 4), pair, layout, label=f"g{k}"))
    return VerifierCircuit(
        layout=layout,
        gates=tuple(gates),
        witness_register=("witness",),
        output_site=0,
        completeness=1.0,
        soundness=0.5,
    )


def default_kappa_of(circuit: VerifierCircuit) -> float:
    gap = acceptance_gap(acceptance_operator(circuit), circuit.completeness).gap
    return default_kappa(gap, circuit.n_steps)


class TestExcitedFloor:
    """hmk_excited_floor lies above lambda_w and at or below lambda_{w+1} of H_MK."""

    @settings(max_examples=25, deadline=None)
    @given(hw=small_hmk)
    def test_floor_separates_the_low_space(self, hw):
        h, w, floor = hw
        vals = np.linalg.eigvalsh(_dense_entries(h))
        assert vals[w - 1] < floor <= vals[w]

    @pytest.mark.parametrize("instance", ["roadmap", "crossval", "always-accepting"])
    def test_floor_separates_the_low_space_of_the_named_instances(self, instance, monkeypatch):
        if instance == "roadmap":
            circuit = idle_prefix(qpe_verifier(ROADMAP_TARGET, 2.0, 2, tau=np.pi), 1)
            kappa = default_kappa_of(circuit)
        elif instance == "crossval":
            circuit = crossval_circuit(monkeypatch)
            kappa = default_kappa_of(circuit)
        else:  # accepts every witness, so its gap is undefined: half the limit
            circuit = always_accepting_verifier()
            kappa = 0.5 * kappa_limit(circuit.n_steps)
        h = build_kitaev(circuit, kappa).h_mk_operator()
        w, floor = circuit.witness_dim, hmk_excited_floor(circuit.n_steps)
        assert h.shape[0] > _SHIFT_INVERT_DIM
        vals = sector_eigvalsh(h)
        assert vals[w - 1] < floor <= vals[w]
        report = check_hmk_lemma(build_kitaev(circuit, kappa))
        assert len(report.rows) == w

    def test_roadmap_floor(self):
        # (1 - cos(pi/5)) (1 - sqrt(4/5)), against lambda_{w+1} = 0.0489 and lambda_w = 3.9e-5
        assert 0.0201 < hmk_excited_floor(4) < 0.0202


def dense_pairs(h: scipy.sparse.spmatrix) -> LowSpectrum:
    dense = _dense_entries(h)
    vals, vecs = np.linalg.eigh(dense)
    return LowSpectrum(vals, vecs, np.linalg.norm(dense @ vecs - vecs * vals, axis=0))


def drop_pair(low: LowSpectrum, j: int) -> LowSpectrum:
    keep = np.arange(len(low.values)) != j
    return LowSpectrum(low.values[keep], low.vectors[:, keep], low.residuals[keep])


def kahan(h: scipy.sparse.spmatrix, low: LowSpectrum, n: int, above: float) -> tuple:
    a = h.tocsc()
    return kitaev._kahan_certificate(a, low, n, above, float(abs(a).sum(axis=1).max()))


class TestCountCertificate:
    """The Kahan bound certifies that n returned pairs are all the eigenvalues below a given
    lower bound on the (n+1)-th."""

    @settings(max_examples=25, deadline=None)
    @given(hw=small_hmk, data=st.data())
    def test_missing_cluster_member_raises(self, hw, data):
        # without one of the w lowest pairs, the w-th value returned is lambda_{w+1},
        # which lies at or above the floor
        h, w, floor = hw
        low = dense_pairs(h)
        assert kahan(h, low, w, floor) == (floor, w)  # the complete result certifies
        j = data.draw(st.integers(0, w - 1), label="dropped")
        with pytest.raises(SpectrumCertificateError, match="not below the bound"):
            kahan(h, drop_pair(low, j), w, floor)

    @settings(max_examples=25, deadline=None)
    @given(hw=small_hmk, data=st.data())
    def test_cut_inside_cluster_raises(self, hw, data):
        # the (n+1)-th eigenvalue of a cut inside a cluster is the n-th, up to
        # rounding: no bound on it lies above the n-th value by the residual bound
        h = hw[0]
        low = dense_pairs(h)
        tol = DEFAULT.cluster_rtol * max(1.0, float(np.abs(low.values).max()))
        clusters = cluster_ranges(low.values, tol)
        n = data.draw(
            st.sampled_from([i for start, stop in clusters for i in range(start + 1, stop)]),
            label="cut",
        )
        with pytest.raises(SpectrumCertificateError, match="not below the bound"):
            kahan(h, low, n, float(low.values[n]))

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_blocks_count_as_eigvalsh(self, seed, monkeypatch):
        # block tridiagonal with dense random blocks: the factor fills in, and the
        # certified count below each midpoint is eigvalsh's
        monkeypatch.setattr(kitaev, "_SHIFT_INVERT_DIM", 32)
        rng = np.random.default_rng(seed)
        c_dim, n_clock = 12, 4
        shape = (c_dim, c_dim)
        grid = [[None] * n_clock for _ in range(n_clock)]
        for t in range(n_clock):
            grid[t][t] = random_hermitian(rng, c_dim)
        for t in range(1, n_clock):
            grid[t][t - 1] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            grid[t - 1][t] = grid[t][t - 1].conj().T
        h = scipy.sparse.bmat(grid, format="csc")
        vals = np.linalg.eigvalsh(h.toarray())
        norm = float(abs(h).sum(axis=1).max())
        for n in range(1, 13):
            mu = 0.5 * float(vals[n - 1] + vals[n])
            low = _low_spectrum(h, n, floor=float(vals[0]) - 1.0, above=mu)
            assert low.certificate == (mu, int(np.sum(vals < mu)))
            assert np.abs(low.values[:n] - vals[:n]).max() <= 1e-10 * norm

    def test_one_assembly_per_solve(self, monkeypatch):
        # the solve converts H_MK to CSC once, and its certificate reads that same matrix
        circuit = idle_prefix(qpe_verifier(ROADMAP_TARGET, 2.0, 2, tau=np.pi), 1)
        kh = build_kitaev(circuit, 0.5 * kappa_limit(circuit.n_steps), ClockRep.CLOCK_SUBSPACE)
        h, w = kh.h_mk_operator(), circuit.witness_dim
        converted, certified = recorded_assembly(monkeypatch, h)
        low = _low_spectrum(h, w, floor=0.0, above=hmk_excited_floor(circuit.n_steps))
        assert low.certificate[1] == w and len(converted) == 1
        assert len(certified) == 1 and certified[0] is converted[0]

    def test_count_logs_one_debug_record(self, large_hmk, caplog):
        h, w = large_hmk[:2]
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            _low_spectrum(h, w, floor=0.0, above=LARGE_ABOVE)
        records = [r for r in caplog.records if "certified by" in r.getMessage()]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        message = records[0].getMessage()
        assert f"{w} eigenvalues below {LARGE_ABOVE:.6g} certified by the Kahan bound" in message


@pytest.fixture
def scipy_blas_threads():
    """scipy's OpenBLAS thread-count getter, the count pinned to 3 (no default) for the test."""
    control = operators._scipy_blas_thread_control()
    if control is None:
        pytest.skip("scipy's BLAS is not the bundled OpenBLAS")
    get, set_ = control
    original = get()
    set_(3)
    yield get
    set_(original)


class TestSerialScipyBlas:
    def test_count_is_one_inside_and_restored_after(self, scipy_blas_threads):
        with operators._serial_scipy_blas() as threads:
            assert threads == (3, 1) and scipy_blas_threads() == 1
        assert scipy_blas_threads() == 3

    def test_count_is_restored_after_a_raising_body(self, scipy_blas_threads):
        with pytest.raises(RuntimeError, match="body"):
            with operators._serial_scipy_blas():
                raise RuntimeError("body")
        assert scipy_blas_threads() == 3

    def test_nested_scopes_restore_the_outer_count(self, scipy_blas_threads):
        with operators._serial_scipy_blas():
            with operators._serial_scipy_blas() as inner:
                assert inner == (1, 1)
            assert scipy_blas_threads() == 1
        assert scipy_blas_threads() == 3

    def test_failed_symbol_lookup_leaves_the_count_alone(self, scipy_blas_threads, monkeypatch):
        class NoSymbols:  # a BLAS library without OpenBLAS's thread control
            def __init__(self, path):
                pass

        lookup = operators._scipy_blas_thread_control
        monkeypatch.setattr(ctypes, "CDLL", NoSymbols)
        lookup.cache_clear()
        try:
            with operators._serial_scipy_blas() as threads:
                assert threads == (None, None) and scipy_blas_threads() == 3
        finally:
            monkeypatch.undo()
            lookup.cache_clear()
        assert scipy_blas_threads() == 3

    def test_end_to_end_solves_serially_and_restores_the_count(self, scipy_blas_threads, caplog):
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            end_to_end(ROADMAP_TARGET, 2.0, 2, idle_steps=1, tau=np.pi)
        solves = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("shift-invert")
        ]
        assert len(solves) == 2
        assert all(msg.endswith("scipy BLAS threads 3 on entry, 1 inside") for msg in solves)
        assert scipy_blas_threads() == 3

    def test_raising_solve_restores_the_count(self, scipy_blas_threads, large_hmk, monkeypatch):
        h, w = large_hmk[:2]

        def breakdown(*args):
            raise SpectrumCertificateError("Cholesky Rayleigh-Ritz broke down")

        monkeypatch.setattr(kitaev, "_cholesky_ritz", breakdown)
        with pytest.raises(SpectrumCertificateError):
            _low_spectrum(h, w, floor=0.0, above=LARGE_ABOVE)
        assert scipy_blas_threads() == 3

    def test_bundled_openblas_resolves_the_thread_symbols(self):
        # a renamed wheel symbol would otherwise silently drop the serial scope
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas["name"] != "scipy-openblas":
            pytest.skip(f"scipy is built on {blas['name']}, not the bundled OpenBLAS")
        assert operators._scipy_blas_thread_control() is not None
