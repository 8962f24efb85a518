"""Low-spectrum solvers: dense agreement, determinism and the inertia count certificate."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamuniv.circuits import Gate, VerifierCircuit
from hamuniv.config import DEFAULT
from hamuniv.kitaev import (
    _PARTIAL_EIGH_DIM,
    ClockRep,
    LowSpectrum,
    _count_certificate,
    _low_spectrum,
    build_kitaev,
    kappa_limit,
)
from hamuniv.operators import (
    ClockBlocks,
    ClusterSplitError,
    Register,
    SpectrumCertificateError,
    SystemLayout,
)

from conftest import random_unitary


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
