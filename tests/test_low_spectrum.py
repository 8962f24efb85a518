"""Low-spectrum solvers: dense agreement, determinism and the inertia count certificate."""

import ctypes
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
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
    _PARTIAL_EIGH_DIM,
    _SI_OVERSAMPLE,
    ClockRep,
    LowSpectrum,
    _count_certificate,
    _low_spectrum,
    build_kitaev,
    check_hmk_lemma,
    default_kappa,
    kappa_limit,
)
from hamuniv.operators import (
    ClockBlocks,
    ClusterSplitError,
    Register,
    SpectrumCertificateError,
    SystemLayout,
)
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
    assert h.dim > _PARTIAL_EIGH_DIM
    dense = h.dense()
    vals, vecs = np.linalg.eigh(dense)
    return h, w, dense, vals, vecs


ROADMAP_TARGET = TargetHamiltonian.from_matrix(np.diag([0.0, 0.5]).astype(complex), (2,))


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
        low = _low_spectrum(h, w + 8, w)
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

    def test_cluster_projectors_match_dense(self, large_hmk):
        h, w, _, vals, vecs = large_hmk
        low = _low_spectrum(h, w + 8, w)
        clusters = cluster_ranges(vals[: w + 1], 1e-9)
        assert any(stop - start > 1 for start, stop in clusters[:-1])
        for start, stop in clusters[:-1]:  # whole clusters inside the certified band
            p_dense = vecs[:, start:stop] @ vecs[:, start:stop].conj().T
            b = low.vectors[:, start:stop]
            assert np.abs(b @ b.conj().T - p_dense).max() <= 1e-10

    def test_repeated_call_is_bit_identical(self, large_hmk):
        h, w = large_hmk[:2]
        first, second = _low_spectrum(h, w + 8, w), _low_spectrum(h, w + 8, w)
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
        start = _low_spectrum(h, w + 8, w).vectors
        first, second = (_low_spectrum(h, w + 8, w, start=start) for _ in range(2))
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
            _low_spectrum(h, w + 8, w)

    def test_lost_orthonormality_raises(self, large_hmk, monkeypatch):
        h, w = large_hmk[:2]
        ritz = kitaev._cholesky_ritz

        def stretched(*args):
            vals, c = ritz(*args)
            return vals, c * (1.0 + 1e-9)

        monkeypatch.setattr(kitaev, "_cholesky_ritz", stretched)
        with pytest.raises(SpectrumCertificateError, match="orthonormality"):
            _low_spectrum(h, w + 8, w)

    def test_roadmap_solve_holds_three_blocks(self, roadmap_hmk):
        # z, its conjugate (then the new block) and H z are the only D x m
        # arrays live at once; a fourth would break the bound, which is
        # 7.05 MB here and so under 9 MB
        h, w = roadmap_hmk
        _low_spectrum(h, w + 8, w)  # imports scipy.sparse.linalg and csgraph
        tracemalloc.start()
        try:
            _low_spectrum(h, w + 8, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * h.dim * (w + 8 + _SI_OVERSAMPLE) * 16


def recorded_solves(monkeypatch) -> list:
    """Route every _low_spectrum call through a wrapper that records (k, n, start, result)."""
    calls = []

    def record(h, k, n, config=None, start=None):
        low = _low_spectrum(h, k, n, config, start)
        calls.append((k, n, start, low))
        return low

    for module in (kitaev, universality):
        monkeypatch.setattr(module, "_low_spectrum", record)
    return calls


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
        cold = _low_spectrum(h, w + 1, w)
        norm = float(abs(h.sparse()).sum(axis=1).max())
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
        _low_spectrum(h, w + 1, w)
        [lu] = factors
        assert lu.L.nnz + lu.U.nnz < 30_000


def test_small_clock_blocks_take_the_dense_path():
    h, w = spectator_hmk(seed=1, n_spectators=1, n_ancilla=1, t_steps=4)
    assert h.dim <= _PARTIAL_EIGH_DIM
    low = _low_spectrum(h, w + 8, w)
    vals, vecs = np.linalg.eigh(h.dense())
    assert low.certificate is None
    assert np.array_equal(low.values, vals[: w + 8])
    assert np.array_equal(low.vectors, vecs[:, : w + 8])


def dense_pairs(h: ClockBlocks) -> LowSpectrum:
    dense = h.dense()
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
        assert _count_certificate(h, low, n, DEFAULT)[1] == n  # the complete result certifies
        j = data.draw(st.integers(0, n - 1), label="dropped")
        with pytest.raises(SpectrumCertificateError):
            _count_certificate(h, drop_pair(low, j), n - 1, DEFAULT)

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
        with pytest.raises(ClusterSplitError):
            _count_certificate(h, low, n, DEFAULT)
        # a solver that misplaces the cluster's upper members feigns a gap at
        # the cut; only the inertia count can see the members left below it
        vals = low.values
        lift = vals[stop] - vals[n - 1] if stop < len(vals) else 1.0
        feigned = LowSpectrum(
            np.concatenate([vals[:n], vals[n:] + lift]), low.vectors, low.residuals
        )
        with pytest.raises(SpectrumCertificateError):
            _count_certificate(h, feigned, n, DEFAULT)

    def test_negative_count_holds_few_dense_blocks(self):
        # three clock blocks of c_dim = 512: the Schur complement carried from one
        # step to the next is released, and no step keeps more than three arrays
        h, _ = spectator_hmk(seed=3, n_spectators=3, n_ancilla=4, t_steps=2)
        c_dim = h.c_dim
        assert c_dim >= 512 and len(h.diag) == 3
        tracemalloc.start()
        try:
            count = h.negative_count(0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * c_dim * c_dim * 16
        assert count == int(np.sum(np.linalg.eigvalsh(h.dense()) < 0.3))

    @settings(max_examples=25, deadline=None)
    @given(hw=small_hmk, frac=st.floats(0.0, 1.0))
    def test_negative_count_matches_dense(self, hw, frac):
        h, _ = hw
        vals = np.linalg.eigvalsh(h.dense())
        mu = float(vals[0] - 0.1 + frac * (vals[-1] - vals[0] + 0.2))
        if np.abs(vals - mu).min() < 1e-8:
            return
        assert h.negative_count(mu) == int(np.sum(vals < mu))

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_blocks_count_as_eigvalsh(self, seed):
        # dense random blocks: every Schur complement is one component, factored whole
        rng = np.random.default_rng(seed)
        c_dim, n_clock = 12, 4
        shape = (c_dim, c_dim)
        h = ClockBlocks(
            SystemLayout((c_dim, n_clock)),
            tuple(scipy.sparse.csr_matrix(random_hermitian(rng, c_dim)) for _ in range(n_clock)),
            tuple(
                scipy.sparse.csr_matrix(rng.normal(size=shape) + 1j * rng.normal(size=shape))
                for _ in range(n_clock - 1)
            ),
            floor=-np.inf,
        )
        vals = np.linalg.eigvalsh(h.dense())
        for mu in np.linspace(vals[0] - 1.0, vals[-1] + 1.0, 41):
            if np.abs(vals - mu).min() > 1e-8:
                assert h.negative_count(mu) == int(np.sum(vals < mu))

    def test_shift_on_isolated_diagonal_entry_raises(self):
        h, _ = spectator_hmk(seed=2, n_spectators=1, n_ancilla=1, t_steps=3)
        s_0 = h.diag[0]
        off_diagonal = abs(s_0 - scipy.sparse.diags(s_0.diagonal()))
        isolated = np.flatnonzero(
            (np.asarray(off_diagonal.sum(axis=0)).ravel() == 0)
            & (np.asarray(off_diagonal.sum(axis=1)).ravel() == 0)
        )
        assert len(isolated) > 0
        mu = float(np.real(s_0.diagonal()[isolated[0]]))
        # S_0 alone is also the last complement, whose zero pivot no later step meets
        first_block = ClockBlocks(SystemLayout((h.c_dim,)), h.diag[:1], (), h.floor)
        for blocks in (h, first_block):
            with pytest.raises(SpectrumCertificateError):
                blocks.negative_count(mu)

    def test_roadmap_count_holds_less_than_one_dense_block(self, roadmap_hmk):
        h, _ = roadmap_hmk
        assert h.c_dim == 648
        assert h.negative_count(0.025) == 18  # the first count also imports csgraph
        tracemalloc.start()
        try:
            h.negative_count(0.025)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < h.c_dim * h.c_dim * 16

    def test_count_logs_one_debug_record(self, caplog):
        h, _ = spectator_hmk(seed=4, n_spectators=1, n_ancilla=1, t_steps=3)
        with caplog.at_level(logging.DEBUG, logger="hamuniv"):
            h.negative_count(0.3)
        records = [r for r in caplog.records if "Schur steps" in r.getMessage()]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        assert "4 Schur steps" in records[0].getMessage()


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
            _low_spectrum(h, w + 8, w)
        assert scipy_blas_threads() == 3

    def test_bundled_openblas_resolves_the_thread_symbols(self):
        # a renamed wheel symbol would otherwise silently drop the serial scope
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas["name"] != "scipy-openblas":
            pytest.skip(f"scipy is built on {blas['name']}, not the bundled OpenBLAS")
        assert operators._scipy_blas_thread_control() is not None


MAPPED_AFTER_A_FREED_16_MIB_BLOCK = """
import ctypes, numpy as np
import hamuniv.operators as operators

class MallInfo2(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
held = operators._glibc() is not None if HOLD else False
big = np.ones(16 << 20, dtype=np.uint8)  # glibc's own rule lifts its mmap threshold to 16 MiB
del big
before = libc.mallinfo2().hblkhd
block = np.ones(4 << 20, dtype=np.uint8)
print(held, libc.mallinfo2().hblkhd - before >= block.nbytes)
"""


class TestMallocThresholds:
    @pytest.mark.parametrize("hold", [True, False])
    def test_a_4_mib_block_is_mapped_after_a_16_mib_one_is_freed_only_when_held(self, hold):
        if not hasattr(ctypes.CDLL(None), "mallinfo2"):
            pytest.skip("the C library is not glibc >= 2.33")
        src = str(Path(operators.__file__).resolve().parent.parent)
        out = subprocess.run(  # a new process: the test process's heap may hold a free 4 MiB block
            [sys.executable, "-c", f"HOLD = {hold}\n" + MAPPED_AFTER_A_FREED_16_MIB_BLOCK],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == [str(hold), str(hold)]

    def test_another_c_library_is_left_alone(self, monkeypatch):
        class NoGlibc:  # a C library without gnu_get_libc_version, mallopt or malloc_trim
            def __init__(self, path):
                pass

        monkeypatch.setattr(ctypes, "CDLL", NoGlibc)
        operators._glibc.cache_clear()
        try:
            assert operators._glibc() is None
            with operators._steady_heap():
                pass
        finally:
            monkeypatch.undo()
            operators._glibc.cache_clear()

    def test_freed_heap_is_returned_after_a_raising_body(self, monkeypatch):
        class Libc:
            trims = []

            def malloc_trim(self, pad):
                self.trims.append(pad)

        monkeypatch.setattr(operators, "_glibc", Libc)
        with pytest.raises(RuntimeError, match="body"):
            with operators._steady_heap():
                assert Libc.trims == []
                raise RuntimeError("body")
        assert Libc.trims == [0]
