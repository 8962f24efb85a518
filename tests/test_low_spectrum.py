"""Low-spectrum solvers: dense agreement, determinism and the inertia count certificate."""

import ctypes
import logging
import re
import tracemalloc

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
    _count_certificate,
    _dense_entries,
    _low_spectrum,
    build_kitaev,
    check_hmk_lemma,
    default_kappa,
    kappa_limit,
    spectral_gap_above,
)
from hamuniv.operators import (
    ClusterSplitError,
    DenseOperator,
    Register,
    SpectrumCertificateError,
    SystemLayout,
    expm_i,
    negative_count,
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


def spectator_hmk(seed: int, n_spectators: int, n_ancilla: int, t_steps: int) -> tuple:
    circuit = spectator_verifier(seed, n_spectators, n_ancilla, t_steps)
    kh = build_kitaev(circuit, 0.5 * kappa_limit(t_steps), ClockRep.CLOCK_SUBSPACE)
    return kh.h_mk_operator(), circuit.witness_dim


def cluster_ranges(vals: np.ndarray, tol: float) -> list[tuple[int, int]]:
    edges = [0] + [i for i in range(1, len(vals)) if vals[i] - vals[i - 1] > tol] + [len(vals)]
    return list(zip(edges[:-1], edges[1:]))


@pytest.fixture(scope="module")
def large_hmk():
    """Clock-subspace H_MK above the dense switch (D = 128 x 11) with 4-fold clusters."""
    h, w = spectator_hmk(seed=5, n_spectators=2, n_ancilla=3, t_steps=10)
    assert h.shape[0] > _SHIFT_INVERT_DIM
    dense = _dense_entries(h)
    vals, vecs = np.linalg.eigh(dense)
    return h, w, dense, vals, vecs


ROADMAP_TARGET = TargetHamiltonian.from_matrix(np.diag([0.0, 0.5]).astype(complex), (2,))
ROADMAP_C_DIM = 648  # circuit states of the ROADMAP verifier; its clock has T' + 1 = 5 states


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
        low = _low_spectrum(h, w, floor=0.0)
        norm = float(np.abs(dense).sum(axis=1).max())
        assert low.certificate is not None and low.certificate[1] == w
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
        low = _low_spectrum(h, w, floor=0.0)
        shifted = h - 5.0 * scipy.sparse.identity(h.shape[0], format="csr")
        moved = _low_spectrum(shifted, w, floor=-5.0)
        norm = float(np.abs(dense).sum(axis=1).max())
        assert moved.certificate is not None and moved.certificate[1] == w
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

    def test_cluster_projectors_match_dense(self, large_hmk):
        h, w, _, vals, vecs = large_hmk
        low = _low_spectrum(h, w, floor=0.0)
        clusters = cluster_ranges(vals[: w + 1], 1e-9)
        assert any(stop - start > 1 for start, stop in clusters[:-1])
        for start, stop in clusters[:-1]:  # whole clusters inside the certified band
            p_dense = vecs[:, start:stop] @ vecs[:, start:stop].conj().T
            b = low.vectors[:, start:stop]
            assert np.abs(b @ b.conj().T - p_dense).max() <= 1e-10

    def test_repeated_call_is_bit_identical(self, large_hmk):
        h, w = large_hmk[:2]
        first, second = _low_spectrum(h, w, floor=0.0), _low_spectrum(h, w, floor=0.0)
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
        start = _low_spectrum(h, w, floor=0.0).vectors
        first, second = (_low_spectrum(h, w, start=start, floor=0.0) for _ in range(2))
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
            _low_spectrum(h, w, floor=0.0)

    def test_lost_orthonormality_raises(self, large_hmk, monkeypatch):
        h, w = large_hmk[:2]
        ritz = kitaev._cholesky_ritz

        def stretched(*args):
            vals, c = ritz(*args)
            return vals, c * (1.0 + 1e-9)

        monkeypatch.setattr(kitaev, "_cholesky_ritz", stretched)
        with pytest.raises(SpectrumCertificateError, match="orthonormality"):
            _low_spectrum(h, w, floor=0.0)

    def test_roadmap_solve_holds_three_blocks(self, roadmap_hmk):
        # z, its conjugate (then the new block) and H z are the only D x m
        # arrays live at once; a fourth would break the bound, which is
        # 5.6 MB here, against a 4.7 MB peak
        h, w = roadmap_hmk
        _low_spectrum(h, w, floor=0.0)  # imports scipy.sparse.linalg
        tracemalloc.start()
        try:
            _low_spectrum(h, w, floor=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * h.shape[0] * (w + 1 + _SI_OVERSAMPLE) * 16


def recorded_solves(monkeypatch) -> list:
    """Route every _low_spectrum call through a wrapper that records (pairs returned, n, start,
    result)."""
    calls = []

    def record(h, n, config=None, start=None, floor=None):
        low = _low_spectrum(h, n, config, start, floor)
        calls.append((len(low.values), n, start, low))
        return low

    for module in (kitaev, universality):
        monkeypatch.setattr(module, "_low_spectrum", record)
    return calls


def recorded_assembly(monkeypatch, h) -> tuple[list, list]:
    """Record the CSC conversions of `h` and the matrices every inertia count factors."""
    tocsc, inertia, converted, counted = type(h).tocsc, kitaev._inertia, [], []

    def record_tocsc(self, *args, **kwargs):
        out = tocsc(self, *args, **kwargs)
        if self is h:
            converted.append(out)
        return out

    def record_inertia(a, *args):
        counted.append(a)
        return inertia(a, *args)

    monkeypatch.setattr(type(h), "tocsc", record_tocsc)
    monkeypatch.setattr(kitaev, "_inertia", record_inertia)
    return converted, counted


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
        cold = _low_spectrum(h, w, floor=0.0)
        norm = float(abs(h).sum(axis=1).max())
        assert np.abs(warm.values[:w] - cold.values[:w]).max() <= 1e-12 * norm
        assert warm.certificate == (0.5 * float(warm.values[w - 1] + warm.values[w]), w)
        assert cold.certificate[1] == w

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
        # default column ordering and partial pivoting
        h, w = roadmap_hmk
        splu, factors = scipy.sparse.linalg.splu, []

        def record(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(scipy.sparse.linalg, "splu", record)
        _low_spectrum(h, w, floor=0.0)
        solve, _ = factors  # H - sigma for the solve, then H - mu for its count
        assert solve.L.nnz + solve.U.nnz < 30_000


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
    in the first two, and the next at 1 (sector 0) unless a spectrum below moves it."""

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
        cold = _low_spectrum(h, 3, floor=0.0)
        converted, counted = recorded_assembly(monkeypatch, h)
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            low = _low_spectrum(h, 3, start=start, floor=0.0)
        assert logged_sectors(caplog) == (2, 60)  # sectors 2 and 3 are not solved
        assert len(converted) == 1 and len(counted) == 1 and counted[0] is converted[0]
        norm = float(abs(h).sum(axis=1).max())
        assert low.certificate[1] == cold.certificate[1] == 3
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
            low = _low_spectrum(h, 3, start=start, floor=0.0)
        solve, _ = factors  # H - sigma for the solve, then H - mu for its count
        assert solve.shape == h.shape and logged_sectors(caplog) == (1, h.shape[0])
        assert low.certificate[1] == 3

    def test_one_held_sector_among_several_fills_the_whole_block(self, caplog):
        spectra = self.spectra()
        spectra[1] = spectra[1] + 1.0  # sector 1 above 1: sector 0 holds the two lowest
        h, owner, bases = sector_problem(spectra)
        start = sector_start(owner, bases, [(0, 0), (0, 1)])
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            low = _low_spectrum(h, 2, start=start, floor=0.0)
        assert logged_sectors(caplog) == (1, 60)
        assert low.vectors.shape == (h.shape[0], 3) and not low.vectors[owner != 0].any()
        vals = np.linalg.eigvalsh(h.toarray())
        norm = float(abs(h).sum(axis=1).max())
        assert np.abs(low.values[:2] - vals[:2]).max() <= 1e-12 * norm
        assert vals[2] - 1e-12 * norm <= low.values[2]  # a Ritz value: an upper bound
        assert low.certificate == (0.5 * float(low.values[1] + low.values[2]), 2)

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
            low = _low_spectrum(h, 3, start=start, floor=0.0)
        assert widths[0] < 3 + 1 + _SI_OVERSAMPLE  # the split was tried first
        assert logged_sectors(caplog) == (1, h.shape[0])
        vals = np.linalg.eigvalsh(h.toarray())
        norm = float(abs(h).sum(axis=1).max())
        assert np.abs(low.values[:3] - vals[:3]).max() <= 1e-12 * norm
        assert low.certificate == (0.5 * float(low.values[2] + low.values[3]), 3)

    @pytest.mark.parametrize(
        "spectra",
        [
            # sector 2's lowest value, 0.5, lies below the merged mu of 0.55
            {"third_low": 0.5},
            # sector 1's second value, 0.07, lies below sector 0's second, 0.1
            {"second_next": 0.07},
        ],
        ids=["unsolved-sector-below-mu", "start-misplaces-the-low-space"],
    )
    def test_split_that_does_not_certify_falls_back(self, spectra, caplog):
        h, owner, bases = sector_problem(self.spectra(**spectra))
        start = sector_start(owner, bases, [(0, 0), (0, 1), (1, 0)])
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            low = _low_spectrum(h, 3, start=start, floor=0.0)
        assert logged_sectors(caplog) == (1, h.shape[0])
        vals = np.linalg.eigvalsh(h.toarray())
        norm = float(abs(h).sum(axis=1).max())
        assert np.abs(low.values[:3] - vals[:3]).max() <= 1e-12 * norm
        assert vals[3] - 1e-12 * norm <= low.values[3] < 1.0
        assert low.certificate == (0.5 * float(low.values[2] + low.values[3]), 3)


def test_small_clock_blocks_take_the_dense_path():
    h, w = spectator_hmk(seed=1, n_spectators=1, n_ancilla=1, t_steps=4)
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
)


class TestCountCertificate:
    @settings(max_examples=25, deadline=None)
    @given(hw=small_hmk, data=st.data())
    def test_missing_cluster_member_raises(self, hw, data):
        h, _ = hw
        low = dense_pairs(h)
        tol = DEFAULT.cluster_rtol * max(1.0, float(np.abs(low.values).max()))
        bounds = [stop for _, stop in cluster_ranges(low.values, tol)[:-1]]
        n = data.draw(st.sampled_from(bounds), label="cut")
        a = h.tocsc()
        assert _count_certificate(a, low, n, DEFAULT)[1] == n  # the complete result certifies
        j = data.draw(st.integers(0, n - 1), label="dropped")
        with pytest.raises(SpectrumCertificateError):
            _count_certificate(a, drop_pair(low, j), n - 1, DEFAULT)

    @settings(max_examples=25, deadline=None)
    @given(hw=small_hmk, data=st.data())
    def test_cut_inside_cluster_raises(self, hw, data):
        h, _ = hw
        low = dense_pairs(h)
        tol = DEFAULT.cluster_rtol * max(1.0, float(np.abs(low.values).max()))
        clusters = cluster_ranges(low.values, tol)
        cut = data.draw(
            st.sampled_from([(i, stop) for start, stop in clusters for i in range(start + 1, stop)]),
            label="cut",
        )
        n, stop = cut
        a = h.tocsc()
        with pytest.raises(ClusterSplitError):
            _count_certificate(a, low, n, DEFAULT)
        # a solver that misplaces the cluster's upper members feigns a gap at
        # the cut; only the inertia count can see the members left below it
        vals = low.values
        lift = vals[stop] - vals[n - 1] if stop < len(vals) else 1.0
        feigned = LowSpectrum(
            np.concatenate([vals[:n], vals[n:] + lift]), low.vectors, low.residuals
        )
        with pytest.raises(SpectrumCertificateError):
            _count_certificate(a, feigned, n, DEFAULT)

    def test_negative_count_holds_few_dense_blocks(self):
        # three clock states (T = 2) of c_dim = 512 circuit states: the count's
        # arrays stay below four dense c_dim x c_dim blocks
        h, _ = spectator_hmk(seed=3, n_spectators=3, n_ancilla=4, t_steps=2)
        c_dim = h.shape[0] // 3
        assert c_dim >= 512
        a = h.tocsc()
        tracemalloc.start()
        try:
            count = negative_count(a, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * c_dim * c_dim * 16
        assert count == int(np.sum(np.linalg.eigvalsh(_dense_entries(h)) < 0.3))

    @settings(max_examples=25, deadline=None)
    @given(hw=small_hmk, frac=st.floats(0.0, 1.0))
    def test_negative_count_matches_dense(self, hw, frac):
        h, _ = hw
        vals = np.linalg.eigvalsh(_dense_entries(h))
        mu = float(vals[0] - 0.1 + frac * (vals[-1] - vals[0] + 0.2))
        if np.abs(vals - mu).min() < 1e-8:
            return
        assert negative_count(h.tocsc(), mu) == int(np.sum(vals < mu))

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_blocks_count_as_eigvalsh(self, seed):
        # block tridiagonal with dense random blocks: the factor fills in, and the
        # unpivoted LDL^dag still counts right
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
        for mu in np.linspace(vals[0] - 1.0, vals[-1] + 1.0, 41):
            if np.abs(vals - mu).min() > 1e-8:
                assert negative_count(h, mu) == int(np.sum(vals < mu))

    def test_shift_on_isolated_diagonal_entry_raises(self):
        h, _ = spectator_hmk(seed=2, n_spectators=1, n_ancilla=1, t_steps=3)
        c_dim = h.shape[0] // 4  # T = 3: four clock states
        s_0 = h[:c_dim, :c_dim].tocsc()  # the t = 0 block
        off_diagonal = abs(s_0 - scipy.sparse.diags(s_0.diagonal()))
        isolated = np.flatnonzero(
            (np.asarray(off_diagonal.sum(axis=0)).ravel() == 0)
            & (np.asarray(off_diagonal.sum(axis=1)).ravel() == 0)
        )
        assert len(isolated) > 0
        mu = float(np.real(s_0.diagonal()[isolated[0]]))
        # mu zeroes that diagonal entry: the factor of H_MK - mu, and of the t = 0
        # block alone, meets a zero pivot
        for a in (h.tocsc(), s_0):
            with pytest.raises(SpectrumCertificateError):
                negative_count(a, mu)

    def test_roadmap_count_holds_less_than_one_dense_block(self, roadmap_hmk):
        h, _ = roadmap_hmk
        a = h.tocsc()
        assert a.shape[0] == 5 * ROADMAP_C_DIM
        assert negative_count(a, 0.025) == 18  # the first count also imports scipy.sparse.linalg
        tracemalloc.start()
        try:
            negative_count(a, 0.025)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ROADMAP_C_DIM * ROADMAP_C_DIM * 16

    def test_backward_error_above_the_cluster_tolerance_refuses(self):
        # H - mu = [[eps, 1], [1, -eps]]: the unpivoted factor takes the pivot eps,
        # so L D L^dag holds entries of 1e12, and its backward error (about 1e-4,
        # bounded at about 3e-3) cannot resolve a cut at the 1e-9 cluster
        # tolerance, though the count itself is right
        eps = 1e-12
        m = np.array([[eps, 1.0], [1.0, -eps]], dtype=complex)
        h = scipy.sparse.csc_matrix(m)
        vals, vecs = np.linalg.eigh(m)
        low = LowSpectrum(vals, vecs, np.linalg.norm(m @ vecs - vecs * vals, axis=0))
        assert 0.5 * (vals[0] + vals[1]) == 0.0 and negative_count(h, 0.0) == 1
        with pytest.raises(SpectrumCertificateError, match="backward error"):
            _count_certificate(h, low, 1, DEFAULT)

    def test_one_assembly_per_solve(self, monkeypatch):
        # the solve converts H_MK to CSC once, and its count factors that same matrix
        circuit = idle_prefix(qpe_verifier(ROADMAP_TARGET, 2.0, 2, tau=np.pi), 1)
        kh = build_kitaev(circuit, 0.5 * kappa_limit(circuit.n_steps), ClockRep.CLOCK_SUBSPACE)
        h, w = kh.h_mk_operator(), circuit.witness_dim
        converted, counted = recorded_assembly(monkeypatch, h)
        low = _low_spectrum(h, w, floor=0.0)
        assert low.certificate[1] == w and len(converted) == 1
        assert len(counted) == 1 and counted[0] is converted[0]

    def test_count_factor_holds_less_than_one_dense_block(self, roadmap_hmk, monkeypatch):
        h, _ = roadmap_hmk
        splu, factors = scipy.sparse.linalg.splu, []

        def record(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(scipy.sparse.linalg, "splu", record)
        assert negative_count(h.tocsc(), 0.025) == 18
        [lu] = factors
        assert lu.L.nnz + lu.U.nnz < ROADMAP_C_DIM * ROADMAP_C_DIM

    def test_count_logs_one_debug_record(self, caplog):
        h, _ = spectator_hmk(seed=4, n_spectators=1, n_ancilla=1, t_steps=3)
        a = h.tocsc()
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            count = negative_count(a, 0.3)
        records = [r for r in caplog.records if "inertia count" in r.getMessage()]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        message = records[0].getMessage()
        assert f"{count} eigenvalues below 0.3," in message
        error = float(re.search(r"backward error (\S+),", message).group(1))
        assert 0 <= error < 1e-12


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
            _low_spectrum(h, w, floor=0.0)
        assert scipy_blas_threads() == 3

    def test_bundled_openblas_resolves_the_thread_symbols(self):
        # a renamed wheel symbol would otherwise silently drop the serial scope
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas["name"] != "scipy-openblas":
            pytest.skip(f"scipy is built on {blas['name']}, not the bundled OpenBLAS")
        assert operators._scipy_blas_thread_control() is not None
