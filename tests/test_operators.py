import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamuniv.config import DEFAULT
from hamuniv.kitaev import LowSpectrum
from hamuniv.operators import (
    PHASE_TOL,
    DenseOperator,
    DimensionCapError,
    Register,
    Subspace,
    SystemLayout,
    _first_significant,
    _fix_phases,
    basis_vector,
    cluster_bounds,
    direct_rotation,
    direct_rotation_factored,
    eigh,
    expm_i,
    op_norm,
    projector_distance_from_bases,
    sparse_embed,
    subspace_distance,
    tensor_embed,
)
from hamuniv.simulation import plain_encoding, verify_simulation

from conftest import random_hermitian, random_unitary, random_state

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def one_site(matrix, d=2):
    return DenseOperator(SystemLayout((d,)), matrix, hermitian=True)


def kron_chain(*site_ops):
    """Explicit little-endian Kronecker oracle: site 0 fastest, so it goes last."""
    out = np.array([[1.0]], dtype=complex)
    for op in reversed(site_ops):
        out = np.kron(out, op)
    return out


class TestLayout:
    def test_total_dim_and_registers(self):
        lay = SystemLayout((2, 3, 2), registers=(Register("a", (0, 1), "witness"),))
        assert lay.total_dim == 12
        assert lay.register("a").sites == (0, 1)

    def test_register_overlap_rejected(self):
        with pytest.raises(ValueError, match="more than one register"):
            SystemLayout((2, 2), registers=(Register("a", (0,)), Register("b", (0,))))

    def test_non_contiguous_register_rejected(self):
        with pytest.raises(ValueError, match="not contiguous"):
            Register("a", (0, 2))

    def test_dim_cap(self):
        with pytest.raises(DimensionCapError):
            SystemLayout((2,) * 10, dim_cap=512)

    def test_small_site_dim_rejected(self):
        with pytest.raises(ValueError):
            SystemLayout((2, 1))


class TestDenseOperator:
    def test_hermitian_flag_checked(self):
        lay = SystemLayout((2,))
        with pytest.raises(ValueError, match="hermitian"):
            DenseOperator(lay, np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)

    def test_entries_frozen(self):
        op = one_site(Z)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestTensorEmbed:
    def test_x_on_site0_identity_padding(self):
        lay = SystemLayout((2, 2))
        emb = tensor_embed(one_site(X), (0,), lay)
        assert np.abs(emb.entries - kron_chain(X, np.eye(2))).max() == 0.0

    def test_identity_any_sites(self):
        lay = SystemLayout((2, 3, 2))
        emb = tensor_embed(DenseOperator(SystemLayout((3,)), np.eye(3), hermitian=True), (1,), lay)
        assert np.abs(emb.entries - np.eye(12)).max() == 0.0

    def test_z_site1_of_three_qubits_vs_kron_loop(self):
        lay = SystemLayout((2, 2, 2))
        emb = tensor_embed(one_site(Z), (1,), lay)
        oracle = kron_chain(np.eye(2), Z, np.eye(2))
        assert np.abs(emb.entries - oracle).max() <= 1e-14

    def test_two_site_embed_with_reordered_targets(self, rng):
        lay = SystemLayout((2, 2, 2))
        u = random_hermitian(rng, 4)
        loc = DenseOperator(SystemLayout((2, 2)), u, hermitian=True)
        # targets (2, 0): local index = site2 + 2 * site0
        emb = tensor_embed(loc, (2, 0), lay).entries
        # brute-force oracle over basis states
        oracle = np.zeros((8, 8), dtype=complex)
        for col in range(8):
            d0, d1, d2 = col & 1, (col >> 1) & 1, (col >> 2) & 1
            for l_row in range(4):
                n2, n0 = l_row & 1, (l_row >> 1) & 1
                row = n0 + 2 * d1 + 4 * n2
                oracle[row, col] += u[l_row, d2 + 2 * d0]
        assert np.abs(emb - oracle).max() <= 1e-14

    def test_commuting_disjoint_embeds(self, rng):
        lay = SystemLayout((2, 2, 2))
        a = tensor_embed(one_site(random_hermitian(rng, 2)), (0,), lay).entries
        b = tensor_embed(one_site(random_hermitian(rng, 2)), (2,), lay).entries
        assert np.abs(a @ b - b @ a).max() <= 1e-12

    def test_dimension_mismatch(self):
        lay = SystemLayout((2, 3))
        with pytest.raises(ValueError, match="match"):
            tensor_embed(one_site(X), (1,), lay)


# zeros of both signs, and nonzero entries whose real or imaginary part is -0.0
_EMBED_ENTRIES = st.sampled_from(
    [0j, complex(-0.0, -0.0), complex(1.0, -0.0), complex(-0.0, 2.5), complex(-0.5, 0.75)]
)


@st.composite
def embed_cases(draw):
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4)))
    order = draw(st.permutations(range(len(dims))))
    targets = tuple(order[: draw(st.integers(1, min(2, len(dims))))])
    local_dims = tuple(dims[t] for t in targets)
    d_loc = int(np.prod(local_dims))
    entries = draw(st.lists(_EMBED_ENTRIES, min_size=d_loc**2, max_size=d_loc**2))
    local = DenseOperator(SystemLayout(local_dims), np.array(entries).reshape(d_loc, d_loc))
    return local, targets, SystemLayout(dims)


class TestSparseEmbed:
    @settings(max_examples=60, deadline=None)
    @given(case=embed_cases())
    def test_matches_dense_embedding_and_digit_oracle(self, case):
        local, targets, lay = case
        emb = sparse_embed(local, targets, lay)
        assert emb.has_canonical_format  # each row's columns ascend, as the H_prop fill needs
        emb = emb.tocoo()
        dense = tensor_embed(local, targets, lay).entries
        # oracle: <r|O|c> = local[r's target digits, c's target digits] when r and
        # c agree on every other site, else 0
        digits = lay.digit_table()
        loc_strides = np.cumprod((1,) + local.layout.site_dims[:-1])
        loc_index = sum(digits[t] * stride for t, stride in zip(targets, loc_strides))
        rest = [s for s in range(lay.n_sites) if s not in targets]
        same_rest = np.all(digits[rest][:, :, None] == digits[rest][:, None, :], axis=0)
        oracle = np.where(same_rest, local.entries[np.ix_(loc_index, loc_index)], 0)
        pattern = set(zip(*np.nonzero(oracle)))
        assert set(zip(emb.row, emb.col)) == pattern == set(zip(*np.nonzero(dense)))
        assert emb.nnz == len(pattern)  # no explicit zeros
        # the same entries, bit for bit, signs of zero parts included
        assert emb.data.tobytes() == oracle[emb.row, emb.col].tobytes()
        assert emb.data.tobytes() == dense[emb.row, emb.col].tobytes()
        # and the entries left unassigned are +0.0, as np.zeros made them
        dense = dense.copy()
        dense[emb.row, emb.col] = 1.0
        assert not np.signbit(dense.view(float)).any()


class TestEigh:
    def test_sorted_values(self):
        es = eigh(one_site(np.diag([3.0, 1.0, 2.0]).astype(complex), d=3))
        assert np.allclose(es.values, [1.0, 2.0, 3.0])

    def test_pauli_x_eigensystem(self):
        es = eigh(one_site(X))
        assert np.allclose(es.values, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.abs(es.vectors[:, 0] - minus).max() <= 1e-12  # phase fixed: first comp positive
        assert np.abs(es.vectors[:, 1] - plus).max() <= 1e-12

    def test_reconstruction_oracle(self, rng):
        h = random_hermitian(rng, 8)
        op = DenseOperator(SystemLayout((8,)), h, hermitian=True)
        es = eigh(op)
        recon = (es.vectors * es.values) @ es.vectors.conj().T
        assert np.abs(recon - h).max() <= 1e-10

    def test_eigenvector_residuals_and_orthonormality(self, rng):
        h = random_hermitian(rng, 12)
        op = DenseOperator(SystemLayout((12,)), h, hermitian=True)
        es = eigh(op)
        scale = max(1.0, op_norm(op))
        for i in range(12):
            assert np.linalg.norm(h @ es.vectors[:, i] - es.values[i] * es.vectors[:, i]) <= 1e-9 * scale
        gram = es.vectors.conj().T @ es.vectors
        assert np.abs(gram - np.eye(12)).max() <= 1e-10

    def test_phase_convention(self, rng):
        h = random_hermitian(rng, 6)
        es = eigh(DenseOperator(SystemLayout((6,)), h, hermitian=True))
        for i in range(6):
            col = es.vectors[:, i]
            anchor = np.nonzero(np.abs(col) > 1e-8)[0][0]
            assert col[anchor].real > 0
            assert abs(col[anchor].imag) <= 1e-12

    def test_requires_hermitian_flag(self):
        op = DenseOperator(SystemLayout((2,)), X)  # flag not set
        with pytest.raises(ValueError):
            eigh(op)

    def test_rayleigh_extremes_match_op_norm(self, rng):
        h = random_hermitian(rng, 9)
        op = DenseOperator(SystemLayout((9,)), h, hermitian=True)
        es = eigh(op)
        assert abs(max(abs(es.values[0]), abs(es.values[-1])) - op_norm(op)) <= 1e-9


class TestOpNorm:
    def test_diagonal(self):
        assert op_norm(one_site(np.diag([1.0, -2.0]).astype(complex))) == pytest.approx(2.0)

    def test_unitary(self, rng):
        u = random_unitary(rng, 6)
        assert abs(op_norm(DenseOperator(SystemLayout((6,)), u)) - 1.0) <= 1e-12

    def test_rank_one(self, rng):
        u = 2.0 * random_state(rng, 5)
        v = 3.0 * random_state(rng, 5)
        m = np.outer(u, v.conj())
        assert op_norm(DenseOperator(SystemLayout((5,)), m)) == pytest.approx(6.0, abs=1e-10)


class TestExpmI:
    def test_zero_hamiltonian(self):
        u = expm_i(one_site(np.zeros((2, 2), dtype=complex)), 1.7)
        assert np.abs(u.entries - np.eye(2)).max() <= 1e-14

    def test_pauli_z_quarter_turn(self):
        u = expm_i(one_site(Z), np.pi / 2)
        expected = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)])
        assert np.abs(u.entries - expected).max() <= 1e-12

    def test_inverse_check(self, rng):
        h = DenseOperator(SystemLayout((4,)), random_hermitian(rng, 4), hermitian=True)
        prod = expm_i(h, 0.83).entries @ expm_i(h, -0.83).entries
        assert np.abs(prod - np.eye(4)).max() <= 1e-10


def _span(layout, columns):
    return Subspace.from_basis(layout, np.asarray(columns, dtype=complex).T)


class TestSubspaceDistance:
    def test_identical(self):
        lay = SystemLayout((2,))
        s = _span(lay, [[1.0, 0.0]])
        assert subspace_distance(s, s) == 0.0

    def test_orthogonal_qubit_states(self):
        lay = SystemLayout((2,))
        s0 = _span(lay, [[1.0, 0.0]])
        s1 = _span(lay, [[0.0, 1.0]])
        assert subspace_distance(s0, s1) == pytest.approx(1.0, abs=1e-12)

    def test_principal_angle_oracle(self):
        theta = 0.3
        lay = SystemLayout((2,))
        s0 = _span(lay, [[1.0, 0.0]])
        s1 = _span(lay, [[np.cos(theta), np.sin(theta)]])
        assert subspace_distance(s0, s1) == pytest.approx(np.sin(theta), abs=1e-12)

    def test_metric_on_random_triples(self, rng):
        lay = SystemLayout((8,))
        for _ in range(20):
            spaces = []
            for _ in range(3):
                b = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
                q, _r = np.linalg.qr(b)
                spaces.append(Subspace.from_basis(lay, q))
            d01 = subspace_distance(spaces[0], spaces[1])
            d10 = subspace_distance(spaces[1], spaces[0])
            d12 = subspace_distance(spaces[1], spaces[2])
            d02 = subspace_distance(spaces[0], spaces[2])
            assert abs(d01 - d10) <= 1e-10
            assert d02 <= d01 + d12 + 1e-10


class TestDirectRotation:
    def test_identity_for_equal_subspaces(self):
        lay = SystemLayout((2, 2))
        s = _span(lay, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        w = direct_rotation(s, s)
        assert np.abs(w.entries - np.eye(4)).max() <= 1e-12

    def test_qubit_rotation_closed_form(self):
        theta = 0.4
        lay = SystemLayout((2,))
        s0 = _span(lay, [[1.0, 0.0]])
        s1 = _span(lay, [[np.cos(theta), np.sin(theta)]])
        w = direct_rotation(s0, s1)
        expected = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
        )
        assert np.abs(w.entries - expected).max() <= 1e-12
        norm_dev = op_norm(DenseOperator(lay, w.entries - np.eye(2)))
        assert norm_dev == pytest.approx(2 * np.sin(theta / 2), abs=1e-12)
        assert norm_dev <= np.sqrt(2) * np.sin(theta) + 1e-12

    def test_random_subspaces_conjugation_and_bound(self, rng):
        lay = SystemLayout((8,))
        for _ in range(10):
            b1, _ = np.linalg.qr(rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)))
            b2, _ = np.linalg.qr(rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)))
            s1, s2 = Subspace.from_basis(lay, b1), Subspace.from_basis(lay, b2)
            if subspace_distance(s1, s2) >= 1 - 1e-9:
                continue
            w = direct_rotation(s1, s2).entries
            conj = w @ s1.projector.entries @ w.conj().T
            assert np.abs(conj - s2.projector.entries).max() <= 1e-9
            assert np.linalg.norm(w - np.eye(8), 2) <= np.sqrt(2) * subspace_distance(s1, s2) + 1e-9

    def test_round_trip_composes_to_identity(self, rng):
        lay = SystemLayout((8,))
        b1, _ = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
        b2, _ = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
        s1, s2 = Subspace.from_basis(lay, b1), Subspace.from_basis(lay, b2)
        w12 = direct_rotation(s1, s2).entries
        w21 = direct_rotation(s2, s1).entries
        assert np.abs(w21 @ w12 - np.eye(8)).max() <= 1e-8

    def test_orthogonal_subspaces_rejected(self):
        lay = SystemLayout((2,))
        s0 = _span(lay, [[1.0, 0.0]])
        s1 = _span(lay, [[0.0, 1.0]])
        with pytest.raises(ValueError, match="distance"):
            direct_rotation(s0, s1)


def test_basis_vector():
    lay = SystemLayout((2, 3))
    v = basis_vector(lay, {0: 1, 1: 2})
    assert v[1 + 2 * 2] == 1.0
    assert np.linalg.norm(v) == 1.0


# The joint-span forms that the principal-angle helper replaced, kept as the reference:
# each orthonormalizes the stacked pair [B1, B2] by Householder QR.


def _qr_rotation(basis_from, basis_to):
    q, _ = np.linalg.qr(np.hstack([basis_from, basis_to]))
    pf = q.conj().T @ basis_from
    pt = q.conj().T @ basis_to
    pf, pt = pf @ pf.conj().T, pt @ pt.conj().T
    eye = np.eye(q.shape[1])
    u, _, vh = np.linalg.svd(pt @ pf + (eye - pt) @ (eye - pf))
    return lambda m: m + q @ ((u @ vh - eye) @ (q.conj().T @ m))


def _qr_distance(b1, b2):
    q, _ = np.linalg.qr(np.hstack([b1, b2]))
    x1, x2 = q.conj().T @ b1, q.conj().T @ b2
    return np.linalg.norm(x1 @ x1.conj().T - x2 @ x2.conj().T, 2)


def _qr_eta_epsilon(v, low_vecs, low_vals, core):
    v_tilde = _qr_rotation(v, low_vecs)(v)
    q, _ = np.linalg.qr(np.hstack([low_vecs, v_tilde]))
    x_low, x_vt = q.conj().T @ low_vecs, q.conj().T @ v_tilde
    compressed = (x_low * low_vals) @ x_low.conj().T - x_vt @ core @ x_vt.conj().T
    return np.linalg.norm(v_tilde - v, 2), np.linalg.norm(compressed, 2)


def _rotated_pair(rng, d, w, angles):
    """Bases of span(a) and of its rotation by the given principal angles, each in a random basis."""
    full = random_unitary(rng, d)
    a = full[:, :w]
    b = np.cos(angles) * a + np.sin(angles) * full[:, w : 2 * w]
    return a @ random_unitary(rng, w), b @ random_unitary(rng, w)


def _verify_eta_epsilon(v, low_vecs, low_vals, h):
    """verify_simulation's eta and epsilon for the low pairs (low_vals, low_vecs) of an H'."""
    d = v.shape[0]
    h_prime = (low_vecs * low_vals) @ low_vecs.conj().T + 10.0 * (
        np.eye(d) - low_vecs @ low_vecs.conj().T
    )
    low = LowSpectrum(low_vals, low_vecs, np.zeros(len(low_vals)))
    report = verify_simulation(h, h_prime, plain_encoding(v), 5.0, _low=low)
    return report.eta_measured, report.epsilon_measured


class TestPrincipalAngles:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 16),
        kind=st.sampled_from(["random", "identical", "small", "mixed"]),
    )
    def test_agrees_with_joint_span_qr(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(1, d // 2 + 1))
        if kind == "random":
            a = random_unitary(rng, d)[:, :w]
            b = random_unitary(rng, d)[:, :w]
        else:
            angles = {
                "identical": np.zeros(w),
                "small": np.full(w, 1e-9),
                "mixed": rng.choice([0.0, 1e-9, 0.3, 1.4], size=w),
            }[kind]
            a, b = _rotated_pair(rng, d, w, angles)
        m = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        try:
            rotation = direct_rotation_factored(a, b)
        except ValueError:  # a random pair at an angle of nearly pi/2
            assert np.linalg.svd(a.conj().T @ b, compute_uv=False).min() <= 1e-12
            return
        assert np.abs(rotation.apply_left(m) - _qr_rotation(a, b)(m)).max() <= 1e-12
        q = rotation.q_span
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= 1e-12
        assert abs(projector_distance_from_bases(a, b) - _qr_distance(a, b)) <= 1e-12
        h = random_hermitian(rng, w)
        low_vals = np.sort(rng.uniform(0.0, 1.0, size=w))
        eta, epsilon = _verify_eta_epsilon(a, b, low_vals, h)
        ref_eta, ref_epsilon = _qr_eta_epsilon(a, b, low_vals, h)
        assert abs(eta - ref_eta) <= 1e-12
        assert abs(epsilon - ref_epsilon) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 16))
    def test_identical_bases_read_zero(self, seed, d):
        rng = np.random.default_rng(seed)
        a = random_unitary(rng, d)[:, : int(rng.integers(1, d + 1))]
        w = a.shape[1]
        # the residual a - a (a^dag a) reads the basis' own orthonormality defect, about
        # 1e-15 here; past that, the two numbers add less than 1e-15 of rounding
        defect = np.linalg.norm(a.conj().T @ a - np.eye(w), 2)
        assert projector_distance_from_bases(a, a) < 1e-15 + defect
        eta, _ = _verify_eta_epsilon(a, a, np.arange(w) / w, random_hermitian(rng, w))
        assert eta < 1e-15 + defect

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(4, 16))
    def test_one_small_angle_recovered(self, seed, d):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(2, d // 2 + 1))
        theta = 1e-9
        angles = np.zeros(w)
        angles[0] = theta
        a, b = _rotated_pair(rng, d, w, angles)
        assert abs(projector_distance_from_bases(a, b) - np.sin(theta)) <= 1e-15
        eta, _ = _verify_eta_epsilon(a, b, np.arange(w) / w, random_hermitian(rng, w))
        assert abs(eta - 2 * np.sin(theta / 2)) <= 1e-15

    @pytest.mark.parametrize("w1, w2", [(1, 2), (3, 1), (0, 2)])
    def test_unequal_widths_are_at_distance_one(self, rng, w1, w2):
        b1 = random_unitary(rng, 8)[:, :w1]
        b2 = random_unitary(rng, 8)[:, :w2]
        dense = np.linalg.norm(b1 @ b1.conj().T - b2 @ b2.conj().T, 2)
        assert dense == pytest.approx(1.0, abs=1e-12)
        assert projector_distance_from_bases(b1, b2) == pytest.approx(dense, abs=1e-12)

    def test_angle_near_half_pi_raises(self, rng):
        a, b = _rotated_pair(rng, 6, 2, np.array([0.2, np.pi / 2 - 5e-14]))
        assert projector_distance_from_bases(a, b) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="distance >= 1"):
            direct_rotation_factored(a, b)
        with pytest.raises(ValueError, match="distance >= 1"):
            _verify_eta_epsilon(a, b, np.array([0.0, 0.5]), np.eye(2))


def _loop_first_significant(col):
    """Per-column reference: first entry above PHASE_TOL in magnitude, else the largest."""
    sig = np.nonzero(np.abs(col) > PHASE_TOL)[0]
    return int(sig[0]) if sig.size else int(np.argmax(np.abs(col)))


def _loop_fix_phases(vectors):
    """Per-column reference for the phase convention, one Python step per column."""
    out = vectors.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        a = col[_loop_first_significant(col)]
        if abs(a) > 0:
            out[:, i] = col * (a.conjugate() / abs(a))
    return out


def _loop_eigh(op):
    """Per-column reference for eigh: phases, then each degenerate cluster sorted by its keys."""
    values, vectors = np.linalg.eigh(op.entries)
    vectors = _loop_fix_phases(vectors)
    tol = DEFAULT.cluster_rtol * max(1.0, float(np.abs(values).max(initial=0.0)))
    for start, stop in cluster_bounds(values, tol):
        if stop - start > 1:
            keys = [_loop_first_significant(vectors[:, j]) for j in range(start, stop)]
            order = np.argsort(keys, kind="stable") + start
            vectors[:, start:stop] = vectors[:, order]
    return values, vectors


def _phase_case(rng, d, kind):
    """A Hermitian matrix: random, with a degenerate spectrum, or diagonal with repeats."""
    if kind == "random":
        return random_hermitian(rng, d)
    values = rng.integers(0, 3, size=d).astype(float)
    if kind == "diagonal":
        return np.diag(values).astype(complex)
    u = random_unitary(rng, d)
    return (u * values) @ u.conj().T


class TestVectorizedPhases:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 48),
        kind=st.sampled_from(["random", "degenerate", "diagonal"]),
    )
    def test_eigh_matches_per_column_loop(self, seed, d, kind):
        op = DenseOperator(
            SystemLayout((d,)), _phase_case(np.random.default_rng(seed), d, kind), hermitian=True
        )
        es = eigh(op)
        values, vectors = _loop_eigh(op)
        assert np.array_equal(es.values, values)
        assert np.array_equal(es.vectors, vectors)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 64), n=st.integers(1, 8))
    def test_fix_phases_matches_loop_on_tiny_columns(self, seed, d, n):
        # d >= 2, as in every layout: numpy rounds a one-element product by another loop
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
        vectors /= np.linalg.norm(vectors, axis=0)
        vectors[:, 0] *= 1e-9  # no entry above PHASE_TOL: the largest one anchors
        if n > 1:
            vectors[:, 1] = 0.0  # no anchor at all: left as it is
        if n > 2:
            vectors[: d // 2, 2] *= 1e-10  # anchored past the tiny head
        assert np.array_equal(_fix_phases(vectors), _loop_fix_phases(vectors))
        assert np.array_equal(
            _first_significant(vectors), [_loop_first_significant(c) for c in vectors.T]
        )

    def test_large_random_eigenbasis(self, rng):
        h = random_hermitian(rng, 512)
        op = DenseOperator(SystemLayout((512,)), h, hermitian=True)
        values, vectors = _loop_eigh(op)
        assert np.array_equal(eigh(op).vectors, vectors)


class TestSubspaceDistanceFromBases:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 16), equal=st.booleans())
    def test_agrees_with_dense_projector_difference(self, seed, d, equal):
        rng = np.random.default_rng(seed)
        w1 = int(rng.integers(1, d + 1))
        w2 = w1 if equal else int(rng.integers(1, d + 1))
        lay = SystemLayout((d,))
        s1 = Subspace.from_basis(lay, random_unitary(rng, d)[:, :w1])
        s2 = Subspace.from_basis(lay, random_unitary(rng, d)[:, :w2])
        assert (s1.dim, s2.dim) == (w1, w2)
        dense = np.linalg.norm(s1.projector.entries - s2.projector.entries, 2)
        assert abs(subspace_distance(s1, s2) - dense) <= 1e-12

    @pytest.mark.parametrize("digits", [[0], [1, 3], [0, 1, 2, 3]])
    def test_identical_unit_vector_bases_read_zero(self, digits):
        lay = SystemLayout((4,))
        s = Subspace.from_basis(lay, np.stack([basis_vector(lay, {0: k}) for k in digits], axis=1))
        assert subspace_distance(s, s) == 0.0

    def test_different_ambient_dimensions_rejected(self):
        s1 = Subspace.from_basis(SystemLayout((2,)), np.eye(2, 1))
        s2 = Subspace.from_basis(SystemLayout((3,)), np.eye(3, 1))
        with pytest.raises(ValueError, match="ambient"):
            subspace_distance(s1, s2)
