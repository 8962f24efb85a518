"""Circuit-to-Hamiltonian compilation and spectral diagnostics.

Builds the modified clock Hamiltonian H_MK = H_in + H_prop + kappa H_out +
H_clock for a verifier circuit, in either of two clock representations:

  * CLOCK_SUBSPACE: one clock site of dimension T+1 (default; H_clock = 0);
  * UNARY_FULL_SPACE: T clock qubits with time t encoded as |1^t 0^(T-t)>,
    plus the penalty H_clock that pushes illegal clock states to energy >= 1;
    below 1 its H_MK has the clock-subspace spectrum (see check_hmk_lemma).

The propagation term uses the standard endpoint forms (at t = 1 condition
only on clock qubit 2 being 0, at t = T only on qubit T-1 being 1); history
states annihilate H_0 = H_in + H_prop + H_clock by construction, which the
tests assert rather than trusting index bookkeeping.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from .circuits import (
    AcceptanceOperator,
    VerifierCircuit,
    acceptance_gap,
    acceptance_operator,
    accepting_eigenvectors,
    apply_gate_to_vector,
    initial_state,
)
from .config import DEFAULT, Config
from .operators import (
    ClockBlocks,
    DenseOperator,
    Register,
    SpectrumCertificateError,
    Subspace,
    SystemLayout,
    _full_eigh,
    _principal_residual,
    _serial_scipy_blas,
    _steady_heap,
    cluster_bounds,
    eigh,
    guard_cut,
    hermitize,
    projector_distance_from_bases,
    sparse_embed,
)

# above this dimension, dense inputs (a verify-sim h_prime) go to the subset
# eigensolver and clock blocks (every H_MK, H_sim) to shift-invert iteration
_PARTIAL_EIGH_DIM = 1200
# shift-invert subspace iteration: extra block vectors, iteration cap, and the
# distance of the shift below the spectrum's floor, relative to max(1, |floor|)
_SI_OVERSAMPLE = 8
_SI_MAX_ITER = 100
_SI_MARGIN = 1e-5

_log = logging.getLogger("hamuniv")


class ClockRep(enum.Enum):
    CLOCK_SUBSPACE = "clock-subspace"
    UNARY_FULL_SPACE = "unary-full-space"


def kappa_limit(t_steps: int) -> float:
    """Upper limit 1/(2 T^3) for the output-penalty weight."""
    return 1.0 / (2.0 * t_steps**3)


def default_kappa(gap: float, t_steps: int) -> float:
    """kappa = g / (4 T^3 (T+1)): factor-2 margin inside the lemma hypothesis."""
    return gap / (4.0 * t_steps**3 * (t_steps + 1))


def _kitaev_layout(circuit: VerifierCircuit, rep: ClockRep) -> SystemLayout:
    base = circuit.layout
    t = circuit.n_steps
    if rep is ClockRep.CLOCK_SUBSPACE:
        clock_dims: tuple[int, ...] = (t + 1,)
    else:
        clock_dims = (2,) * t
    clock_sites = tuple(range(base.n_sites, base.n_sites + len(clock_dims)))
    registers = base.registers + (Register("clock", clock_sites, role="clock"),)
    return SystemLayout(base.site_dims + clock_dims, registers, dim_cap=base.dim_cap)


@dataclass(frozen=True)
class KitaevHamiltonian:
    """Components of the modified clock Hamiltonian for one verifier circuit.

    `parts` holds (H_in, H_prop, H_out, H_clock) as ClockBlocks in the clock
    subspace and as sparse CSR matrices in the unary representation. Each gate
    enters through its sparse embedding and the pin and reject penalties as
    diagonals without stored zeros, so no dense c_dim x c_dim array is formed.
    The h_* properties, h0() and h_mk() materialize dense operators on demand.
    """

    parts: tuple
    kappa: float
    t_steps: int
    circuit: VerifierCircuit
    rep: ClockRep
    layout: SystemLayout

    h_in = property(lambda self: self._dense(self.parts[0]))
    h_prop = property(lambda self: self._dense(self.parts[1]))
    h_out = property(lambda self: self._dense(self.parts[2]))
    h_clock = property(lambda self: self._dense(self.parts[3]))

    def _dense(self, m: ClockBlocks | scipy.sparse.csr_matrix) -> DenseOperator:
        entries = m.dense() if isinstance(m, ClockBlocks) else m.toarray()
        return DenseOperator(self.layout, entries, hermitian=True, validate=False)

    def h0_operator(self) -> ClockBlocks | scipy.sparse.csr_matrix:
        h_in, h_prop, _, h_clock = self.parts
        return h_in + h_prop + h_clock

    def h_mk_operator(self) -> ClockBlocks | scipy.sparse.csr_matrix:
        """H_MK in its stored form, as the low-spectrum solver takes it."""
        return self.h0_operator() + self.kappa * self.parts[2]

    def h0(self) -> DenseOperator:
        """Unpenalized part H_in + H_prop + H_clock (annihilates history states)."""
        return self._dense(self.h0_operator())

    def h_mk(self) -> DenseOperator:
        return self._dense(self.h_mk_operator())


def build_kitaev(
    circuit: VerifierCircuit,
    kappa: float,
    rep: ClockRep = ClockRep.CLOCK_SUBSPACE,
) -> KitaevHamiltonian:
    t_steps = circuit.n_steps
    if not 0 < kappa < kappa_limit(t_steps):
        raise ValueError(f"kappa {kappa} outside (0, 1/(2 T^3)) = (0, {kappa_limit(t_steps)})")
    layout = _kitaev_layout(circuit, rep)
    c_dim = circuit.layout.total_dim

    # diagonal penalties, stored without zeros: at t = 0 one unit for each of the
    # flag qubit and ancillas off |0>, at t = T one for an output qubit off |1>
    digits = circuit.layout.digit_table()
    pin_count = (digits[list(circuit.ancilla_sites)] != 0).sum(axis=0)
    pin = scipy.sparse.diags(pin_count.astype(complex), format="csr")
    reject = scipy.sparse.diags((digits[circuit.output_site] != 1).astype(complex), format="csr")
    embedded = [sparse_embed(g.unitary, g.targets, circuit.layout) for g in circuit.gates]

    eye_c = scipy.sparse.identity(c_dim, dtype=complex, format="csr")
    if rep is ClockRep.CLOCK_SUBSPACE:
        zero = scipy.sparse.csr_matrix((c_dim, c_dim), dtype=complex)

        def blocks(diag: dict[int, object], lower: list | None = None) -> ClockBlocks:
            # every term is positive semidefinite: floor 0
            return ClockBlocks(
                layout,
                tuple(diag.get(t, zero) for t in range(t_steps + 1)),
                tuple(lower) if lower is not None else (zero,) * t_steps,
                0.0,
            )

        h_in = blocks({0: pin})
        h_out = blocks({t_steps: reject})
        for u in embedded:  # -U_t/2 as 0.0 - 0.5 U_t, not -0.5 U_t: every zero part is +0.0
            u.data = 0.0 - 0.5 * u.data
        # H_prop: 1/2 on each end of every step, -U_t/2 from time t-1 to t
        h_prop = blocks(
            {t: (0.5 * ((t > 0) + (t < t_steps))) * eye_c for t in range(t_steps + 1)}, embedded
        )
        h_clock = blocks({})
    else:
        eye2 = np.eye(2, dtype=complex)
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        proj1 = np.diag([0.0, 1.0]).astype(complex)
        flip01 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|

        def term(clock: dict[int, np.ndarray], circ) -> scipy.sparse.csr_matrix:
            # clock (x) circ with the clock the slow factor; clock maps a clock
            # qubit k (1-based, at digit k-1) to a 2x2 matrix, identity elsewhere
            lo, hi = min(clock), max(clock)
            local = np.ones((1, 1), dtype=complex)
            for k in range(hi, lo - 1, -1):
                local = np.kron(local, clock.get(k, eye2))
            factor = scipy.sparse.kron(scipy.sparse.identity(2 ** (t_steps - hi)), local)
            factor = scipy.sparse.kron(factor, scipy.sparse.identity(2 ** (lo - 1)))
            return scipy.sparse.kron(factor, circ, format="csr")

        h_in = term({1: proj0}, pin)
        h_out = term({t_steps: proj1}, reject)
        h_clock = scipy.sparse.csr_matrix((layout.total_dim,) * 2, dtype=complex)
        for t in range(1, t_steps):
            h_clock += term({t: proj0, t + 1: proj1}, eye_c)
        h_prop = scipy.sparse.csr_matrix((layout.total_dim,) * 2, dtype=complex)
        for t in range(1, t_steps + 1):
            # qubit t-1 is 1 and qubit t+1 is 0 around step t; the endpoints drop one
            window = ({t - 1: proj1} if t > 1 else {}) | ({t + 1: proj0} if t < t_steps else {})
            fwd = term(window | {t: flip01}, embedded[t - 1])
            stay = term(window | {t: proj0}, eye_c) + term(window | {t: proj1}, eye_c)
            h_prop += 0.5 * (stay - fwd - fwd.conj().T)

    # every component is an elementwise-Hermitian combination of Hermitian
    # blocks and adjoint pairs, so no symmetrization pass is needed
    return KitaevHamiltonian(
        parts=(h_in, h_prop, h_out, h_clock),
        kappa=kappa,
        t_steps=t_steps,
        circuit=circuit,
        rep=rep,
        layout=layout,
    )


@dataclass(frozen=True)
class HistoryState:
    """Uniform superposition over partially applied circuit states with the clock."""

    vector: np.ndarray
    witness: np.ndarray
    rep: ClockRep
    idle_split: int | None = None

    def __post_init__(self):
        norm = float(np.linalg.norm(self.vector))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"history state norm {norm} deviates from 1 beyond 1e-12")


def _history_columns(
    circuit: VerifierCircuit,
    witnesses: np.ndarray,
    rep: ClockRep,
    idle_steps: int | None = None,
) -> np.ndarray:
    """History states of a (w,) witness or the columns of a (w, n) block, in one circuit pass.

    The clock factor is the slow index: rows of the clock x circuit matrix are
    clock states, time t at row t in the clock subspace and at row 2^t - 1,
    |1^t 0^(T-t)> with clock qubit k at digit k-1, in the unary representation.
    With `idle_steps` = L, only the normalized part over times 0..L is kept;
    the caller guarantees that the first L gates are identities, so each of
    those snapshots is the input configuration.
    """
    t_steps = circuit.n_steps
    last = t_steps if idle_steps is None else idle_steps
    state = initial_state(circuit, witnesses)
    clock_dim = t_steps + 1 if rep is ClockRep.CLOCK_SUBSPACE else 2**t_steps
    blocks = np.zeros((clock_dim,) + state.shape, dtype=complex)
    for t in range(last + 1):
        blocks[t if rep is ClockRep.CLOCK_SUBSPACE else (1 << t) - 1] = state
        if idle_steps is None and t < t_steps:
            state = apply_gate_to_vector(state, circuit.gates[t], circuit.layout)
    return blocks.reshape((clock_dim * state.shape[0],) + state.shape[1:]) / np.sqrt(last + 1)


def history_state(
    circuit: VerifierCircuit,
    witness: np.ndarray,
    rep: ClockRep = ClockRep.CLOCK_SUBSPACE,
    idle_split: int | None = None,
) -> HistoryState:
    witness = np.asarray(witness, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(witness) - 1.0) > 1e-12:
        raise ValueError("witness state must be normalized")
    vec = _history_columns(circuit, witness, rep)
    return HistoryState(vector=vec, witness=witness, rep=rep, idle_split=idle_split)


def _check_idle_window(circuit: VerifierCircuit, idle_steps: int) -> None:
    """Raise ValueError unless 0 <= L <= T and the first L gates are identities."""
    if not 0 <= idle_steps <= circuit.n_steps:
        raise ValueError(f"idle window {idle_steps} outside [0, {circuit.n_steps}]")
    for g in circuit.gates[:idle_steps]:
        if not g.is_identity():
            raise ValueError(f"gate {g.label!r} inside the idle window is not the identity")


def idling_state(
    circuit: VerifierCircuit,
    witness: np.ndarray,
    idle_steps: int,
    rep: ClockRep = ClockRep.CLOCK_SUBSPACE,
) -> np.ndarray:
    """Normalized component of the history state over clock times 0..L.

    Requires the first L gates to act as the identity, so every retained
    snapshot equals the input configuration. A (w, n) block of witnesses
    gives the n idling states as columns.
    """
    _check_idle_window(circuit, idle_steps)
    return _history_columns(circuit, witness, rep, idle_steps)


@dataclass(frozen=True)
class LowSpectrum:
    """Lowest eigenpairs in ascending order, with residuals |H v - lambda v|.

    `certificate` is (mu, n) when an inertia count made apart from the
    eigensolver showed that exactly the n lowest returned values lie below mu,
    a point in the gap above them; None for the dense solvers.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    certificate: tuple[float, int] | None = None


def _low_spectrum(
    h: ClockBlocks | DenseOperator | np.ndarray,
    k: int,
    n: int,
    config: Config | None = None,
    start: np.ndarray | None = None,
) -> LowSpectrum:
    """Lowest k eigenpairs (ascending); switches solver by dimension and storage.

    n < k is the number of lowest pairs the caller reads as a complete low
    space. The callers ask for k = n + 1: the count certificate reads the
    one value above the n, and nothing reads further. Dense matrices, and
    clock blocks up to _PARTIAL_EIGH_DIM made dense, go to the dense
    eigensolver (subset eigh above it); a Hermitian DenseOperator there
    reuses its cached spectrum. Clock blocks above it go to shift-invert
    subspace iteration, which converges the n lowest pairs and certifies
    their count with ClockBlocks.negative_count; a mismatch raises
    SpectrumCertificateError. `start`, orthonormal columns near the low
    space (history states, or a nearby operator's eigenvectors), seeds that
    iteration; the dense solvers ignore it.
    """
    if isinstance(h, ClockBlocks):
        if h.dim > _PARTIAL_EIGH_DIM:
            return _shift_invert_spectrum(h, k, n, config or DEFAULT, start)
        h = h.dense()
    m = h.entries if isinstance(h, DenseOperator) else h
    d = m.shape[0]
    k = min(k, d)
    if d <= _PARTIAL_EIGH_DIM or k == d:
        vals, vecs = _full_eigh(h)
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        vals, vecs = scipy.linalg.eigh(m, subset_by_index=(0, k - 1), driver="evr")
    return LowSpectrum(vals, vecs, np.linalg.norm(m @ vecs - vecs * vals, axis=0))


def _shift_invert_spectrum(
    h: ClockBlocks, k: int, n: int, cfg: Config, start: np.ndarray | None = None
) -> LowSpectrum:
    """Block shift-invert subspace iteration with a Rayleigh-Ritz step per iteration.

    Factors H - sigma once, sigma just below h.floor, and iterates a block of
    k + _SI_OVERSAMPLE vectors, the columns of `start` first and fixed-seed
    random ones after them. H - sigma is Hermitian positive definite, so
    SuperLU orders its symmetric pattern by minimum degree and pivots on the
    diagonal: Gaussian elimination on a positive definite matrix is stable
    without row exchanges, and the factor is smaller. Each step solves
    Z = (H - sigma)^-1 Q and takes the Ritz pairs of H in span(Z) through the
    Cholesky factor of Z's Gram matrix (_cholesky_ritz). The first Z, solved
    from a (partly) random start, is ill-conditioned, so Householder QR
    orthonormalizes it first. The iteration stops when the residuals of the
    n lowest Ritz pairs fall below 64 u |H|_inf and stop shrinking (the
    round-off floor). Ritz values beyond n are upper bounds of the
    eigenvalues with their residuals; the n lowest pairs carry the count
    certificate. A Cholesky breakdown, or a returned block that is not
    orthonormal to 1e-12, raises SpectrumCertificateError. The factor, the
    steps and the count run with scipy's BLAS held to one thread
    (operators._serial_scipy_blas) and under fixed malloc thresholds, the
    freed heap returned at the end (_steady_heap).
    """
    # imported here: only this path needs it, and a module-level import
    # would lengthen every process's start-up
    import scipy.sparse.linalg

    with _serial_scipy_blas() as threads, _steady_heap():
        a = h.sparse()
        d = h.dim
        k = min(k, d)
        m = min(k + _SI_OVERSAMPLE, d)
        sigma = h.floor - _SI_MARGIN * max(1.0, abs(h.floor))
        # Hermitian positive definite: a symmetric ordering, diagonal pivots
        lu = scipy.sparse.linalg.splu(
            a - sigma * scipy.sparse.identity(d, format="csc"),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        rng = np.random.default_rng(0)
        q = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        warm = 0 if start is None else min(start.shape[1], m)
        if warm:
            q[:, :warm] = start[:, :warm]
        tol = 64 * np.finfo(float).eps * float(abs(a).sum(axis=1).max())
        previous = np.inf
        for steps in range(1, _SI_MAX_ITER + 1):
            # at most three D x m blocks are live: z, its C-ordered conjugate
            # (a @ z would copy the Fortran-ordered solve) and H z
            z = lu.solve(q)
            del q
            if steps == 1:
                z = np.linalg.qr(z)[0]
            zc = np.array(z, order="C")
            hz = a @ zc
            np.conjugate(zc, out=zc)
            vals, c = _cholesky_ritz(zc.T @ z, hermitize(zc.T @ hz), steps)
            q = np.matmul(z, c, out=zc)
            del z
            hq = hz @ c
            np.multiply(q, vals, out=hz)
            np.subtract(hq, hz, out=hz)
            del hq
            # column norms through one real scratch block (np.linalg.norm takes two complex ones)
            squares = np.square(hz.view(float)).sum(axis=0)
            residuals = np.sqrt(squares[0::2] + squares[1::2])
            worst = float(residuals[:n].max())
            if worst <= tol and worst > previous / 4:
                break
            previous = worst
            del hz
        else:
            raise SpectrumCertificateError(
                f"shift-invert iteration left residual {worst:.3e} > {tol:.3e} "
                f"after {_SI_MAX_ITER} steps"
            )
        drift = float(np.abs(np.conjugate(q, out=hz).T @ q - np.eye(m)).max())
        if drift > 1e-12:
            raise SpectrumCertificateError(
                f"shift-invert block lost orthonormality: max |Q^H Q - I| = {drift:.3e}"
            )
        # a compact copy: the block and its scratch are freed before the count runs
        low = LowSpectrum(vals[:k], q[:, :k].copy(), residuals[:k])
        del q, hz
        low = replace(low, certificate=_count_certificate(h, low, n, cfg))
    _log.debug(
        "shift-invert D=%d block=%d warm=%d steps=%d sigma=%.6g max residual of %d pairs "
        "%.3e, %d eigenvalues below %.6g certified, scipy BLAS threads %s on entry, %s inside",
        d, m, warm, steps, sigma, n, worst, low.certificate[1], low.certificate[0], *threads,
    )
    return low


def _cholesky_ritz(gram: np.ndarray, proj: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values and coefficients c, with Q = Z c orthonormal, from Z^H Z and Z^H H Z.

    Z is first scaled to unit columns, D = diag(gram)^-1/2, which acts on the
    m x m matrices only. With D gram D = L L^H, the Ritz values are the
    eigenvalues of L^-1 (D proj D) L^-H = rot diag(vals) rot^H, and c is
    D L^-H rot (Stathopoulos & Wu, SIAM J. Sci. Comput. 23 (2002); Yamamoto
    et al., ETNA 44 (2015)).
    """
    s = 1.0 / np.sqrt(gram.diagonal().real)
    scale = np.outer(s, s)
    try:
        inv = np.linalg.inv(np.linalg.cholesky(gram * scale))
    except np.linalg.LinAlgError as exc:
        raise SpectrumCertificateError(
            f"Cholesky Rayleigh-Ritz broke down at step {step}: {exc}"
        ) from None
    vals, rot = np.linalg.eigh(hermitize(inv @ (proj * scale) @ inv.conj().T))
    return vals, s[:, None] * (inv.conj().T @ rot)


def _count_certificate(
    h: ClockBlocks, low: LowSpectrum, n: int, cfg: Config
) -> tuple[float, int]:
    """(mu, n): mu halfway between the n-th and (n+1)-th returned values holds n eigenvalues below it.

    Raises ClusterSplitError when those two values are not separated by more
    than the cluster tolerance plus the n-th residual, and
    SpectrumCertificateError when the inertia count below mu differs from n,
    i.e. the solver missed or invented a pair.
    """
    vals = low.values
    if not 0 < n < len(vals):
        raise ValueError(f"certified count {n} needs 1 <= n < {len(vals)} returned values")
    guard_cut(vals, n, cfg, slack=float(low.residuals[n - 1]))
    mu = 0.5 * float(vals[n - 1] + vals[n])
    count = h.negative_count(mu)
    if count != n:
        raise SpectrumCertificateError(
            f"{count} eigenvalues lie below {mu}, the eigensolver returned {n}"
        )
    return mu, count


def ground_space(
    h: DenseOperator, threshold: float, config: Config | None = None
) -> Subspace:
    """Span of eigenvectors with eigenvalue <= threshold (cluster-guarded cut)."""
    es = eigh(h, config)
    k = int(np.searchsorted(es.values, threshold, side="right"))
    guard_cut(es.values, k, config)
    return Subspace.from_basis(h.layout, es.vectors[:, :k])


def spectral_gap_above(
    h: DenseOperator, threshold: float, config: Config | None = None
) -> float:
    """lambda_(k+1) - lambda_k where k = dim ground_space(h, threshold)."""
    vals = eigh(h, config).values
    k = int(np.searchsorted(vals, threshold, side="right"))
    if k == len(vals):
        raise ValueError("threshold above the full spectrum: no gap is defined")
    if k == 0:
        raise ValueError("no eigenvalue at or below the threshold")
    guard_cut(vals, k, config)
    return float(vals[k] - vals[k - 1])


@dataclass(frozen=True)
class HmkRow:
    q_eigenvalue: float
    predicted: float
    matched: float
    deviation: float
    within_bound: bool


@dataclass(frozen=True)
class HmkReport:
    """Per-eigenvalue comparison of H_MK's low band against kappa (1 - lambda_i)/(T+1)."""

    rows: tuple[HmkRow, ...]
    kappa: float
    t_steps: int
    acceptance_gap: float
    deviation_bound: float
    projector_distance: float
    projector_bound: float
    gap_above_low_space: float
    low_space_dim: int
    deviations_ok: bool
    projector_ok: bool

    @property
    def ok(self) -> bool:
        return self.deviations_ok and self.projector_ok


def _lemma_hypothesis(
    circuit: VerifierCircuit, kappa: float, cfg: Config
) -> tuple[AcceptanceOperator, float, np.ndarray]:
    """(Q, g, accepting eigenvectors) once the acceptance gap g exceeds 2 T^3 (T+1) kappa.

    No eigenvalue below completeness means the hypothesis holds vacuously, with g = inf.
    """
    t = circuit.n_steps
    acc = acceptance_operator(circuit, cfg)
    gap_info = acceptance_gap(acc, circuit.completeness)
    g = gap_info.gap if gap_info.gapped else float("inf")
    hypothesis = 2.0 * t**3 * (t + 1) * kappa
    if g <= hypothesis:
        raise ValueError(
            f"acceptance gap g = {g} does not exceed 2 T^3 (T+1) kappa = {hypothesis}"
        )
    return acc, g, accepting_eigenvectors(acc, circuit.completeness)


def check_hmk_lemma(
    kh: KitaevHamiltonian,
    config: Config | None = None,
    _low: LowSpectrum | None = None,
) -> HmkReport:
    """Compare H_MK's low spectrum and low subspace with the first-order predictions.

    Requires the acceptance gap hypothesis g > 2 T^3 (T+1) kappa; reports, for
    every acceptance eigenvalue, the matched H_MK eigenvalue, its deviation
    from kappa (1 - lambda)/(T+1) against C_dev T^3 kappa^2, and the distance
    between the measured low subspace and the accepting history-state span
    against C_proj T^3 kappa.

    Both representations read the clock-subspace H_MK (`_low`: its low pairs,
    when the caller has them). The unary H_MK is block diagonal: the legal
    clock strings carry the clock-subspace H_MK, and on the illegal ones
    H_clock >= 1 and the other terms are PSD. So the spectra agree below 1,
    and a read value at or above 1 raises SpectrumCertificateError.
    """
    cfg = config or DEFAULT
    circuit = kh.circuit
    t = kh.t_steps
    kappa = kh.kappa
    acc, g, phis = _lemma_hypothesis(circuit, kappa, cfg)

    w = circuit.witness_dim
    unary = kh.rep is ClockRep.UNARY_FULL_SPACE
    if _low is None:
        clock = build_kitaev(circuit, kappa) if unary else kh
        # the history states span the kernel of H_0, H_MK at kappa = 0
        history = _history_columns(circuit, np.eye(w, dtype=complex), ClockRep.CLOCK_SUBSPACE)
        _low = _low_spectrum(clock.h_mk_operator(), w + 1, w, cfg, start=history)
    vals, vecs = _low.values, _low.vectors

    q_desc = np.sort(acc.eigen.values)[::-1]
    predicted = kappa * (1.0 - q_desc) / (t + 1)
    matched = vals[:w]
    dev_bound = cfg.c_dev * t**3 * kappa**2
    rows = tuple(
        HmkRow(
            q_eigenvalue=float(q_desc[i]),
            predicted=float(predicted[i]),
            matched=float(matched[i]),
            deviation=float(abs(matched[i] - predicted[i])),
            within_bound=bool(abs(matched[i] - predicted[i]) <= dev_bound),
        )
        for i in range(w)
    )

    threshold = kappa * (1.0 - circuit.completeness) / (t + 1) + t**3 * kappa**2
    k_low = int(np.searchsorted(vals, threshold, side="right"))
    read = float(vals[: max(w, k_low + 1)].max())
    if unary and read >= 1.0:
        raise SpectrumCertificateError(
            f"H_MK value {read} read by the report is not below the illegal-clock floor 1"
        )
    guard_cut(vals, k_low, cfg)
    s0_basis = vecs[:, :k_low]
    c0_basis = _history_columns(circuit, phis, ClockRep.CLOCK_SUBSPACE)
    proj_distance = projector_distance_from_bases(s0_basis, c0_basis)
    proj_bound = cfg.c_proj * t**3 * kappa
    gap_above = float(vals[k_low] - vals[k_low - 1]) if k_low > 0 else float(vals[0])

    return HmkReport(
        rows=rows,
        kappa=kappa,
        t_steps=t,
        acceptance_gap=float(g),
        deviation_bound=float(dev_bound),
        projector_distance=float(proj_distance),
        projector_bound=float(proj_bound),
        gap_above_low_space=gap_above,
        low_space_dim=k_low,
        deviations_ok=all(r.within_bound for r in rows),
        projector_ok=bool(proj_distance <= proj_bound),
    )


@dataclass(frozen=True)
class IdlingReport:
    """Distance between accepting history states and their idling encodings."""

    idle_steps: int
    t_steps: int
    accepting_dim: int
    measured_distance: float
    measured_squared: float
    bound: float
    ok: bool


def check_idling_faithfulness(
    circuit: VerifierCircuit,
    idle_steps: int,
    kappa: float,
    rep: ClockRep = ClockRep.CLOCK_SUBSPACE,
    config: Config | None = None,
) -> IdlingReport:
    """Check |P_C0 - P_E(L)|^2 <= 2 (1 - sqrt(L / T')) on an idled circuit.

    `circuit` is the already-idled circuit of length T'; its first
    `idle_steps` gates must be identities. The idling encoding maps each
    accepting eigenvector phi to |phi, 0> (x) uniform clock over times 0..L.
    """
    _check_idle_window(circuit, idle_steps)
    t_prime = circuit.n_steps
    _, _, phis = _lemma_hypothesis(circuit, kappa, config or DEFAULT)
    bound = 2.0 * (1.0 - np.sqrt(idle_steps / t_prime))
    c0 = _history_columns(circuit, phis, rep)
    enc = _history_columns(circuit, phis, rep, idle_steps)
    distance = projector_distance_from_bases(c0, enc)
    squared = distance**2
    return IdlingReport(
        idle_steps=idle_steps,
        t_steps=t_prime,
        accepting_dim=phis.shape[1],
        measured_distance=float(distance),
        measured_squared=float(squared),
        bound=float(bound),
        ok=bool(squared <= bound + 1e-9),
    )


@dataclass(frozen=True)
class GeometricalReport:
    bound: float
    actual: float
    a1: float
    a2: float
    gap: float
    angle: float

    @property
    def ok(self) -> bool:
        return self.actual >= self.bound - 1e-9


def geometrical_bound(
    h1: DenseOperator, h2: DenseOperator, config: Config | None = None
) -> GeometricalReport:
    """Ground energy of h1 + h2 against a1 + a2 + 2 Lambda sin^2(theta/2).

    a_i are the ground energies, Lambda the smaller of the two gaps above the
    (possibly degenerate) ground clusters, theta the minimal principal angle
    between the ground spaces.
    """
    cfg = config or DEFAULT
    reports = []
    for h in (h1, h2):
        es = eigh(h, cfg)
        vals = es.values
        tol = cfg.cluster_rtol * max(1.0, float(np.abs(vals).max()))
        start, stop = cluster_bounds(vals, tol)[0]
        if stop == len(vals):
            raise ValueError("ground cluster spans the full spectrum: zero gap")
        reports.append((float(vals[0]), float(vals[stop] - vals[0]), es.vectors[:, :stop]))
    (a1, gap1, b1), (a2, gap2, b2) = reports
    lam = min(gap1, gap2)
    wide, narrow = (b1, b2) if b1.shape[1] >= b2.shape[1] else (b2, b1)
    x, resid = _principal_residual(wide, narrow)  # one cosine and one sine per angle
    sin_min = np.linalg.svd(resid, compute_uv=False).min()
    theta = float(np.arctan2(sin_min, np.linalg.svd(x, compute_uv=False).max()))  # smallest angle
    bound = a1 + a2 + 2.0 * lam * np.sin(theta / 2.0) ** 2
    total = DenseOperator(
        h1.layout, hermitize(h1.entries + h2.entries), hermitian=True
    )
    actual = float(np.linalg.eigvalsh(total.entries)[0])
    return GeometricalReport(
        bound=float(bound), actual=actual, a1=a1, a2=a2, gap=float(lam), angle=theta
    )
