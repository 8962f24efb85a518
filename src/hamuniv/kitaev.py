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
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .circuits import (
    UNITARITY_TOL,
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
    DenseOperator,
    Register,
    SpectrumCertificateError,
    Subspace,
    SystemLayout,
    _cluster_tol,
    _hermitian,
    _principal_residual,
    _serial_scipy_blas,
    cluster_bounds,
    eigh,
    guard_cut,
    hermitize,
    projector_distance_from_bases,
    sparse_sum,
)

# above this dimension sparse matrices (every H_MK, H_sim) go to shift-invert
# iteration; dense inputs of any size, and sparse ones up to it, to the full eigh
_SHIFT_INVERT_DIM = 1200
# shift-invert subspace iteration: extra block vectors (none in an earlier solve's
# sectors, started from its converged vectors), iteration cap, and the distance of
# the shift below the spectrum's floor, relative to max(1, |floor|)
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


def hmk_excited_floor(t_steps: int) -> float:
    """A lower bound on lambda_{w+1} of the clock-subspace H_MK of any T-step circuit, at any
    kappa build_kitaev admits, w the witness dimension.

    H_prop is 1/2 the path Laplacian of the T + 1 clock states, conjugated by
    the gates, as KitaevHamiltonian.parts builds it from the clock graph of
    _clock_steps: its kernel is the history states, its gap 1 - cos(pi/(T+1)).
    H_in >= 1 off the valid inputs, and the two kernels meet in the w
    valid-input history states. Outside them, a history state of an invalid
    input keeps T/(T+1) of its weight in H_in's kernel, so the kernels meet
    at an angle phi with cos^2 phi <= T/(T+1). Kitaev's geometric lemma
    (Kitaev, Shen & Vyalyi 2002, ch. 14) puts the rest of H_in + H_prop's
    spectrum at or above the smaller gap times 1 - cos phi, and Weyl's
    inequality keeps lambda_{w+1} there when kappa H_out >= 0 is added.
    Every kappa admitted puts lambda_w <= kappa/(T+1) < 1/(2 T^3 (T+1)) below
    this floor. The slack covers the gates' |U^dag U - 1|_2 <= UNITARITY_TOL,
    which moves H_prop by at most that from its polar factors' H_prop, and
    the one rounded assembly sum, 1/2 + kappa on the t = T diagonal.
    """
    t1 = t_steps + 1
    lemma = 2.0 * np.sin(np.pi / (2 * t1)) ** 2 * (1.0 - np.sqrt(t_steps / t1))
    return float(lemma) - UNITARITY_TOL - 4 * np.finfo(float).eps


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


def _clock_steps(rep: ClockRep, t_steps: int) -> list[tuple[tuple[int, ...], int, int]]:
    """The clock graph's edges, one per step t: (window, before, after), the clock sites step t
    reads (0 the first clock site, the fastest local digit) and their local index before and
    after it. In the clock subspace, level t - 1 moves to t; in the unary representation, clock
    qubit t flips 0 -> 1 where qubit t - 1 is 1 and qubit t + 1 is 0, a condition each endpoint
    drops."""
    if rep is ClockRep.CLOCK_SUBSPACE:
        return [((0,), t - 1, t) for t in range(1, t_steps + 1)]
    steps = []
    for t in range(1, t_steps + 1):  # qubit k is clock site k - 1
        window = tuple(range(max(t - 2, 0), min(t + 1, t_steps)))
        before = int(t > 1)  # qubit t - 1 reads 1
        steps.append((window, before, before + 2 ** int(t > 1)))
    return steps


def _diagonal(targets: tuple[int, ...], weights: np.ndarray, level: int = 0) -> tuple:
    """sparse_sum term of the diagonal operator with `weights` on the local index of the leading
    targets, where the remaining ones read local index `level`; zero weights are not stored."""
    rows = np.flatnonzero(weights)
    return targets, rows + level * weights.size, rows + level * weights.size, weights[rows] + 0j


@dataclass(frozen=True)
class KitaevHamiltonian:
    """The modified clock Hamiltonian of one verifier circuit, kept as its recipe.

    `parts`, assembled on first read and then kept, holds (H_in, H_prop,
    H_out, H_clock) as CSR matrices, each written by one operators.sparse_sum
    call from local terms on the Kitaev layout, where the clock is one site
    or T qubit sites after the circuit's. H_prop is 1/2 the gate-labelled
    Laplacian of the clock graph (_clock_steps): step t's hop is U_t on its
    targets times the clock move it makes, and its diagonal is 1/2 each clock
    state's degree. H_in, H_out and H_clock are diagonals, a clock weight
    times a circuit diagonal. No dense D x D or c_dim x c_dim array is
    formed, and no zero is stored. The h_* properties, h0() and h_mk()
    materialize dense operators on demand.
    """

    circuit: VerifierCircuit
    kappa: float
    rep: ClockRep
    layout: SystemLayout

    h_in = property(lambda self: self._dense(self.parts[0]))
    h_prop = property(lambda self: self._dense(self.parts[1]))
    h_out = property(lambda self: self._dense(self.parts[2]))
    h_clock = property(lambda self: self._dense(self.parts[3]))
    t_steps = property(lambda self: self.circuit.n_steps)

    @cached_property
    def parts(self) -> tuple:
        circuit, layout = self.circuit, self.layout
        first, last = circuit.layout.n_sites, layout.n_sites - 1  # the clock sites
        clock_sites = tuple(range(first, last + 1))
        clock = SystemLayout(layout.site_dims[first:], dim_cap=layout.dim_cap)
        steps = _clock_steps(self.rep, self.t_steps)
        # H_prop first: its assembly is the peak, and holds nothing else then. Step t's hop
        # -U_t/2 is 0.0 - 0.5 U_t, not -0.5 U_t, so every zero part is +0.0; its adjoint adds
        # 0.0 to restore the zero parts that conj() flips
        bits = clock.digit_table()  # each clock state's digits
        degree = np.zeros(clock.total_dim)  # each clock state's steps to or from it
        forward, backward = [], []
        for g, (window, before, after) in zip(circuit.gates, steps):
            rows, cols = np.nonzero(g.unitary.entries)
            hop = 0.0 - 0.5 * g.unitary.entries[rows, cols]
            targets, d = g.targets + tuple(first + s for s in window), g.unitary.dim
            forward.append((targets, rows + d * after, cols + d * before, hop))
            backward.append((targets, cols + d * before, rows + d * after, np.conj(hop) + 0.0))
            dims = [clock.site_dims[s] for s in window]
            local = np.ravel_multi_index(bits[list(window)], dims, order="F")
            degree += (local == before) | (local == after)
        # each row's columns ascend: hops from lower clock states (larger steps first), the
        # diagonal, hops to higher clock states (smaller steps first)
        laplacian = forward[::-1] + [_diagonal(clock_sites, 0.5 * degree)] + backward
        h_prop = sparse_sum(layout, laplacian)
        # H_in: one unit for each of the flag qubit and ancillas off |0>, where the first
        # clock site is at level 0 (t = 0); H_out: one where the output qubit is off |1> and
        # the last clock site is at its top level (t = T)
        ancillas = circuit.ancilla_sites
        ancilla_dims = tuple(layout.site_dims[s] for s in ancillas)
        pin = (SystemLayout(ancilla_dims, dim_cap=layout.dim_cap).digit_table() != 0).sum(axis=0)
        h_in = sparse_sum(layout, [_diagonal(ancillas + (first,), pin)])
        reject = np.arange(layout.site_dims[circuit.output_site]) != 1
        top = layout.site_dims[last] - 1
        h_out = sparse_sum(layout, [_diagonal((circuit.output_site, last), reject, top)])
        # H_clock: one unit for each clock qubit at 0 followed by one at 1; the clock
        # subspace's one site has no such pair
        illegal = ((bits[:-1] == 0) & (bits[1:] == 1)).sum(axis=0)
        h_clock = sparse_sum(layout, [_diagonal(clock_sites, illegal)])
        # every part is an elementwise-Hermitian combination of Hermitian
        # blocks and adjoint pairs, so no symmetrization pass is needed
        return h_in, h_prop, h_out, h_clock

    def _dense(self, m: scipy.sparse.csr_matrix) -> DenseOperator:
        return DenseOperator(self.layout, _dense_entries(m), hermitian=True, validate=False)

    def h0_operator(self) -> scipy.sparse.csr_matrix:
        h_in, h_prop, _, h_clock = self.parts
        return h_in + h_prop + h_clock

    def h_mk_operator(self) -> scipy.sparse.csr_matrix:
        """H_MK in its stored form, as the low-spectrum solver takes it."""
        return self.h0_operator() + self.kappa * self.parts[2]

    def h0(self) -> DenseOperator:
        """Unpenalized part H_in + H_prop + H_clock (annihilates history states)."""
        return self._dense(self.h0_operator())

    def h_mk(self) -> DenseOperator:
        return self._dense(self.h_mk_operator())


def _dense_entries(m: scipy.sparse.spmatrix) -> np.ndarray:
    """m.toarray() with every zero part +0.0.

    conj() and complex products leave -0.0 parts in sparse sums; adding 0.0
    turns them into +0.0, so the dense matrix (and a dense eigensolver's
    output) does not depend on how the sum was formed.
    """
    out = m.toarray()
    out += 0.0
    return out


def build_kitaev(
    circuit: VerifierCircuit,
    kappa: float,
    rep: ClockRep = ClockRep.CLOCK_SUBSPACE,
) -> KitaevHamiltonian:
    """Check kappa and lay out the clock (so a cap fails before any allocation); no assembly."""
    t_steps = circuit.n_steps
    if not 0 < kappa < kappa_limit(t_steps):
        raise ValueError(f"kappa {kappa} outside (0, 1/(2 T^3)) = (0, {kappa_limit(t_steps)})")
    return KitaevHamiltonian(circuit, kappa, rep, _kitaev_layout(circuit, rep))


@dataclass(frozen=True)
class HistoryState:
    """Uniform superposition over partially applied circuit states with the clock."""

    vector: np.ndarray
    witness: np.ndarray
    rep: ClockRep

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
    blocks /= np.sqrt(last + 1)
    return blocks.reshape((clock_dim * state.shape[0],) + state.shape[1:])


def history_state(
    circuit: VerifierCircuit,
    witness: np.ndarray,
    rep: ClockRep = ClockRep.CLOCK_SUBSPACE,
) -> HistoryState:
    witness = np.asarray(witness, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(witness) - 1.0) > 1e-12:
        raise ValueError("witness state must be normalized")
    vec = _history_columns(circuit, witness, rep)
    return HistoryState(vector=vec, witness=witness, rep=rep)


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
    """The n + 1 lowest eigenpairs in ascending order, with residuals |H v - lambda v|.

    `certificate` is (above, n) when Kahan's residual bound, made apart from
    the eigensolver, placed n eigenvalues below `above`, a lower bound on the
    (n+1)-th eigenvalue that the caller certified: they are then all the
    eigenvalues below it, and the n lowest pairs approximate them. None for
    the dense solvers. `sectors` labels each index with the sector the sparse
    solve took it in (all zeros: the whole matrix was one); None for the
    dense solvers.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    certificate: tuple[float, int] | None = None
    sectors: np.ndarray | None = None


def _low_spectrum(
    h: scipy.sparse.spmatrix | DenseOperator | np.ndarray,
    n: int,
    start: np.ndarray | None = None,
    floor: float | None = None,
    above: float | None = None,
    sectors: np.ndarray | None = None,
) -> LowSpectrum:
    """The n + 1 lowest eigenpairs (ascending); switches solver by dimension and storage.

    The caller reads the n lowest as a complete low space, and nothing reads
    further. Sparse matrices above _SHIFT_INVERT_DIM go to shift-invert
    subspace iteration (_shift_invert_spectrum), which converges the n lowest
    pairs and certifies them with Kahan's bound under `above`; a refusal
    raises SpectrumCertificateError. Such a solve needs two bounds, and
    raises ValueError without either: `floor`, a lower bound on the spectrum
    (0 for the positive semidefinite clock Hamiltonians), just below which
    the iteration shifts, so that a wrong floor can only make the solve
    refuse; and `above`, a lower bound on the (n+1)-th eigenvalue that the
    caller has certified (H_MK's from hmk_excited_floor, H_sim's by Weyl's
    inequality from it), on which the certificate rests. `start`,
    orthonormal columns near the low space (history states, or a nearby
    operator's eigenvectors), seeds that iteration and decides its sectors:
    the whole matrix is the one sector unless each start column lies inside
    one of several connected components of h's nonzero pattern. `sectors`,
    the labels of an earlier solve of a matrix with the same off-diagonal
    pattern, whose vectors are `start`, replaces that labelling.
    Everything else, dense matrices of any size and sparse ones made dense,
    goes to the full dense eigh, which ignores `start`, `above` and
    `sectors`. A dense h must pass operators._hermitian: a DenseOperator
    needs the hermitian flag and reads its cached spectrum, and a plain
    array is checked once. A sparse h made dense is taken as built, as the
    sparse solve takes it.
    """
    if scipy.sparse.issparse(h) and h.shape[0] > _SHIFT_INVERT_DIM:
        if floor is None:
            raise ValueError("a sparse solve needs floor, a lower bound on the spectrum")
        if above is None:
            raise ValueError("a sparse solve needs above, a lower bound on the (n+1)-th eigenvalue")
        return _shift_invert_spectrum(h, n, start, floor, above, sectors)
    m = _dense_entries(h) if scipy.sparse.issparse(h) else _hermitian(h, "h")
    vals, vecs = h.spectrum if isinstance(h, DenseOperator) else np.linalg.eigh(m)
    vals, vecs = vals[: n + 1], vecs[:, : n + 1]
    return LowSpectrum(vals, vecs, np.linalg.norm(m @ vecs - vecs * vals, axis=0))


def _shift_invert_spectrum(
    h: scipy.sparse.spmatrix,
    n: int,
    start: np.ndarray | None,
    floor: float,
    above: float,
    sectors: np.ndarray | None,
) -> LowSpectrum:
    """Block shift-invert subspace iteration of the sectors that hold the low space.

    Converts h to CSC once: every factor, sector and the certificate read
    that one matrix. The sectors (_sector_labels, unless `sectors` gives
    them) are the connected components of its nonzero pattern, invariant
    subspaces of h. Only those holding some of the first n start columns are
    solved (_solve_sectors), and _kahan_certificate places the n lowest
    merged pairs below `above`. Since `above` bounds the (n+1)-th eigenvalue
    of the whole matrix, no unsolved sector can hold a value below it. A
    refusal by a sector's solve, the merge or the certificate retries the
    whole matrix as the one sector; a refusal there raises. Each held
    sector's block is its n_c + 1 returned columns and _SI_OVERSAMPLE more,
    or none more when `sectors` is given: the start is then an earlier
    solve's converged vectors.

    Each solve (_subspace_iteration) runs with scipy's BLAS and LAPACK held
    to one thread (operators._serial_scipy_blas) and stops when the
    residuals of its n_c lowest Ritz pairs fall below 64 u |H|_inf, |H| the
    whole matrix, and stop shrinking (the round-off floor). The (n + 1)-th
    Ritz value is an upper bound of its eigenvalue with its residual; the n
    lowest pairs carry the certificate, made after every block and factor
    is freed.
    """
    with _serial_scipy_blas() as threads:
        a = h.tocsc()
        sigma = floor - _SI_MARGIN * max(1.0, abs(floor))
        norm = float(abs(a).sum(axis=1).max())
        tol = 64 * np.finfo(float).eps * norm
        labels = _sector_labels(a, start) if sectors is None else sectors
        oversample = _SI_OVERSAMPLE if sectors is None else 0
        plans = [labels, np.zeros_like(labels)] if labels.any() else [labels]
        for i, plan in enumerate(plans):
            try:
                low, stats = _solve_sectors(a, n, start, plan, sigma, tol, oversample)
                certificate = _kahan_certificate(a, low, n, above, norm)
                low = replace(low, certificate=certificate, sectors=plan)
                break
            except SpectrumCertificateError:  # e.g. the start misplaced the low space
                if i == len(plans) - 1:
                    raise
    _log.debug(
        "shift-invert D=%d sectors=%d largest=%d block=%d warm=%d steps=%d sigma=%.6g max "
        "residual of %d pairs %.3e, %d eigenvalues below %.6g certified by the Kahan bound, "
        "scipy BLAS threads %s on entry, %s inside",
        a.shape[0], *stats[:5], sigma, n, stats[5], *low.certificate[::-1], *threads,
    )
    return low


def _sector_labels(a: scipy.sparse.csc_matrix, start: np.ndarray | None) -> np.ndarray:
    """The sector, the connected component of a's nonzero pattern, of each index; all zeros,
    the whole matrix one sector, without `start` or when a start column straddles sectors."""
    if start is None:
        return np.zeros(a.shape[0], dtype=np.int32)
    from scipy.sparse.csgraph import connected_components  # here: it slows every start-up

    # a real pattern: the cast of complex entries to float warns
    pattern = scipy.sparse.csc_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    labels = connected_components(pattern, directed=False)[1]
    for column in start.T:
        sectors = labels[np.flatnonzero(column)]
        if sectors.size == 0 or np.any(sectors != sectors[0]):
            return np.zeros_like(labels)
    return labels


def _solve_sectors(
    a: scipy.sparse.csc_matrix,
    n: int,
    start: np.ndarray | None,
    labels: np.ndarray,
    sigma: float,
    tol: float,
    oversample: int,
) -> tuple[LowSpectrum, tuple]:
    """The n + 1 lowest pairs of the sectors holding the first n start columns, merged by
    value (stable order) and uncertified, with (sectors solved, largest, widest block, start
    columns used, most steps, worst residual).

    A sector holding n_c of those columns is sliced out and solved for n_c + 1 pairs, with a
    block of n_c + 1 + `oversample` columns, from every start column inside it, its vectors
    exactly zero outside it; all-zero labels make
    `a` and `start`, uncopied, the one sector. Raises SpectrumCertificateError unless the n
    lowest merged pairs are each sector's n_c converged ones.
    """
    whole = not labels.any()
    if whole:
        held = np.array([n])
    else:
        homes = labels[np.argmax(start != 0, axis=0)]  # each column's sector, at its first nonzero
        held = np.bincount(homes[:n])
    solved = np.flatnonzero(held)
    solves = []
    for c in solved:
        if whole:
            sector, columns = a, start
        else:
            rows = np.flatnonzero(labels == c)
            sector, columns = a[:, rows][rows, :], start[np.ix_(rows, np.flatnonzero(homes == c))]
        solves.append(_subspace_iteration(sector, int(held[c]), sigma, columns, tol, oversample))
    lows, stats = zip(*solves)
    values = np.concatenate([low.values for low in lows])
    owner = np.repeat(np.arange(len(lows)), [len(low.values) for low in lows])
    order = np.argsort(values, kind="stable")[: n + 1]
    if order.size <= n or not np.array_equal(np.bincount(owner[order[:n]]), held[solved]):
        raise SpectrumCertificateError(
            f"the {n} lowest merged pairs are not each sector's converged ones"
        )
    size, block, warm, steps, worst = zip(*stats)
    summary = (len(lows), max(size), max(block), sum(warm), max(steps), max(worst))
    if whole:  # the one sector's pairs are the merged ones, in order
        return lows[0], summary
    vectors = np.zeros((a.shape[0], n + 1), dtype=complex)
    first = 0
    for i, (c, low) in enumerate(zip(solved, lows)):
        cols = np.flatnonzero(owner[order] == i)
        vectors[np.ix_(labels == c, cols)] = low.vectors[:, order[cols] - first]
        first += len(low.values)
    residuals = np.concatenate([low.residuals for low in lows])[order]
    return LowSpectrum(values[order], vectors, residuals), summary


def _subspace_iteration(
    a: scipy.sparse.csc_matrix,
    n: int,
    sigma: float,
    start: np.ndarray | None,
    tol: float,
    oversample: int,
) -> tuple[LowSpectrum, tuple[int, int, int, int, float]]:
    """The n + 1 lowest Ritz pairs of `a` (uncertified), with (dimension, block, start columns
    used, steps, worst residual of the n lowest).

    Factors a - sigma once (_hermitian_splu; positive definite, so diagonal
    pivots are stable) and iterates a block of n + 1 + `oversample` vectors:
    the columns of `start`, then fixed-seed random ones drawn only for the
    columns it leaves free. Each step solves Z = (a - sigma)^-1 Q and takes
    the Ritz pairs of a in span(Z) through the Cholesky factor of Z's Gram
    matrix (_cholesky_ritz); the first Z can be numerically singular even
    from a warm start (H_sim's column-scaled Gram matrix passes 1e15 on the
    ROADMAP instance at a >= 8), so scipy's economic Householder QR
    orthonormalizes it first. Stops when the n lowest residuals are below
    `tol` and stop shrinking. A Cholesky breakdown, or a returned block that
    is not orthonormal to 1e-12, raises SpectrumCertificateError.
    """
    d, k = a.shape[0], n + 1
    m = min(k + oversample, d)
    lu = _hermitian_splu(a - sigma * scipy.sparse.identity(d, format="csc"))
    warm = 0 if start is None else min(start.shape[1], m)
    free = (d, m - warm)
    rng = np.random.default_rng(0)
    q = np.empty((d, m), dtype=complex)
    if warm:
        q[:, :warm] = start[:, :warm]
    q[:, warm:] = rng.standard_normal(free) + 1j * rng.standard_normal(free)
    previous = np.inf
    for steps in range(1, _SI_MAX_ITER + 1):
        # at most three D x m blocks are live: z, its C-ordered conjugate
        # (a @ z would copy the Fortran-ordered solve) and H z
        z = lu.solve(q)
        del q
        if steps == 1:
            z = scipy.linalg.qr(z, mode="economic", overwrite_a=True, check_finite=False)[0]
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
    # a compact copy: the block, its scratch and the factor are freed on return
    return LowSpectrum(vals[:k], q[:, :k].copy(), residuals[:k]), (d, m, warm, steps, worst)


def _hermitian_splu(a: scipy.sparse.csc_matrix):
    """SuperLU factor of a Hermitian positive definite matrix: the minimum-degree ordering of its
    symmetric pattern, and diagonal pivots, which are stable on such a matrix and give a smaller
    factor than partial pivoting."""
    import scipy.sparse.linalg  # here: a module-level import would slow every start-up

    return scipy.sparse.linalg.splu(
        a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )


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


def _kahan_certificate(
    a: scipy.sparse.csc_matrix, low: LowSpectrum, n: int, above: float, norm: float
) -> tuple[float, int]:
    """(above, n): the n lowest returned pairs hold n eigenvalues below `above`, a certified
    lower bound on the (n+1)-th eigenvalue, so they are all the eigenvalues below it.

    For orthonormal V, the n lowest vectors, with values Theta and R = a V -
    V Theta, n eigenvalues lie within |R|_2 of Theta (Kahan; Parlett, *The
    Symmetric Eigenvalue Problem*, ch. 11). R is formed here, and rho bounds
    |R|_F: the computed norm plus the product's rounding, gamma (|a| + max
    |Theta|) sqrt(2 n), with gamma = (terms per row + 4) eps and |a| =
    `norm`, a's largest absolute row sum. The drift d = n max |V^dag V - I|
    bounds |V^dag V - I|_2; for d <= 1e-6, through the orthonormal V (V^dag
    V)^-1/2 and Ostrowski's theorem, those n eigenvalues lie at or below
    theta_n + 2 rho + 4 d (rho + max |Theta|). Raises SpectrumCertificateError
    unless that clears `above`.

    R is formed in one D x (n + 1) array: the product with the contiguous
    returned block (scipy copies a column view first), V Theta subtracted a
    column at a time, and the last column zeroed. The Gram matrix is BLAS's
    Hermitian rank-k update of the same block, the conjugate of V^dag V,
    since V^dag would be a copy.
    """
    vals, vectors = low.values[:n], low.vectors[:, : n + 1]
    r = a @ vectors
    for j, value in enumerate(vals):
        r[:, j] -= value * vectors[:, j]
    r[:, n:] = 0.0
    gram = np.triu(scipy.linalg.blas.zherk(1.0, vectors.T)[:n, :n])  # its upper triangle
    drift = n * float(np.abs(gram - np.eye(n)).max())
    theta = float(np.abs(vals).max())
    gamma = (np.diff(a.indptr).max() + 4) * np.finfo(float).eps
    rho = float(np.sqrt(np.vdot(r, r).real)) + gamma * (norm + theta) * np.sqrt(2 * n)
    top = float(vals[-1]) + 2 * rho + 4 * drift * (rho + theta)
    if not (drift <= 1e-6 and top < above):
        raise SpectrumCertificateError(
            f"the {n} lowest pairs reach {top:.6g} (drift {drift:.3e}), "
            f"not below the bound {above:.6g} on the next eigenvalue"
        )
    return float(above), n


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
    """lambda_(k+1) - lambda_k, k = dim ground_space(h, threshold), from h's cached spectrum."""
    vals = h.spectrum[0]
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
    circuit: VerifierCircuit, kappa: float, cfg: Config, acc: AcceptanceOperator | None = None
) -> tuple[AcceptanceOperator, float, np.ndarray]:
    """(Q, g, accepting eigenvectors) once the acceptance gap g exceeds 2 T^3 (T+1) kappa.

    `acc` is the circuit's Q when the caller has built it. No eigenvalue below
    completeness means the hypothesis holds vacuously, with g = inf.
    """
    t = circuit.n_steps
    acc = acc if acc is not None else acceptance_operator(circuit, cfg)
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
    _acc: AcceptanceOperator | None = None,
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
    and a read value at or above 1 raises SpectrumCertificateError. `_acc`
    is the circuit's acceptance operator, when the caller has built it.
    """
    cfg = config or DEFAULT
    circuit = kh.circuit
    t = kh.t_steps
    kappa = kh.kappa
    acc, g, phis = _lemma_hypothesis(circuit, kappa, cfg, _acc)

    w = circuit.witness_dim
    unary = kh.rep is ClockRep.UNARY_FULL_SPACE
    if _low is None:
        clock = build_kitaev(circuit, kappa) if unary else kh
        # the history states span the kernel of H_0, H_MK at kappa = 0
        history = _history_columns(circuit, np.eye(w, dtype=complex), ClockRep.CLOCK_SUBSPACE)
        _low = _low_spectrum(
            clock.h_mk_operator(), w, start=history, floor=0.0, above=hmk_excited_floor(t)
        )
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
    _acc: AcceptanceOperator | None = None,
) -> IdlingReport:
    """Check |P_C0 - P_E(L)|^2 <= 2 (1 - sqrt(L / T')) on an idled circuit.

    `circuit` is the already-idled circuit of length T'; its first
    `idle_steps` gates must be identities. The idling encoding maps each
    accepting eigenvector phi to |phi, 0> (x) uniform clock over times 0..L.
    `_acc` is the circuit's acceptance operator, when the caller has built it.
    """
    _check_idle_window(circuit, idle_steps)
    t_prime = circuit.n_steps
    _, _, phis = _lemma_hypothesis(circuit, kappa, config or DEFAULT, _acc)
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
        start, stop = cluster_bounds(vals, _cluster_tol(vals, cfg))[0]
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
    actual = float(np.linalg.eigvalsh(hermitize(h1.entries + h2.entries))[0])
    return GeometricalReport(
        bound=float(bound), actual=actual, a1=a1, a2=a2, gap=float(lam), angle=theta
    )
