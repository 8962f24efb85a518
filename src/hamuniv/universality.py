"""Verifier-based universality pipeline.

Builds the phase-estimation verifier whose acceptance operator picks out the
witness family w_mu = (psi_mu (x) (a|#..#> + |E_mu digits>)) / sqrt(a^2+1),
compiles it through the clock construction, assembles the flag-weighted
simulator Hamiltonian, and certifies the resulting chain of simulations down
to the original target.

Register layout of the verifier (site 0 fastest):
  site 0            output qubit (swap-test ancilla, accept state |1>)
  sites 1..n        state register (n qudits of dimension d), role witness
  sites n+1..n+m    readout register (m qutrits), role readout; witness too
  next m sites      scratch register (m qutrits), role ancilla
  last site         control qubit, role control
Qutrits order their basis (|0>, |1>, |#>), so binary digit strings coincide
with base-3 digit strings and |#> is index 2. The control qubit's state 0
plays the |#> role of the flag branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .circuits import (
    Gate,
    VerifierCircuit,
    acceptance_gap,
    acceptance_operator,
    idle_prefix,
)
from .config import DEFAULT, Config
from .kitaev import (
    ClockRep,
    _history_columns,
    _low_spectrum,
    build_kitaev,
    check_hmk_lemma,
    default_kappa,
    idling_state,
)
from .operators import (
    DenseOperator,
    Register,
    SystemLayout,
    eigh,
    hermitize,
    op_norm,
)
from .simulation import (
    SimulationReport,
    compose_simulations,
    plain_encoding,
    verify_simulation,
)

HASH_STATE = 2  # qutrit index of |#>


@dataclass(frozen=True)
class TargetHamiltonian:
    """The Hamiltonian to be simulated, with its spectral data."""

    op: DenseOperator
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    norm: float

    @classmethod
    def from_operator(cls, op: DenseOperator, config: Config | None = None) -> "TargetHamiltonian":
        es = eigh(op, config)
        return cls(
            op=op, eigenvalues=es.values, eigenvectors=es.vectors, norm=op_norm(op)
        )

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, site_dims: tuple[int, ...], config: Config | None = None
    ) -> "TargetHamiltonian":
        layout = SystemLayout(site_dims)
        return cls.from_operator(DenseOperator(layout, matrix, hermitian=True), config)

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True)
class WitnessFamily:
    """w_mu = psi_mu (x) (a |#^m> + |E_mu>) / sqrt(a^2+1) on state (x) readout."""

    a: float
    m: int
    tau: float
    shift: float
    energies: np.ndarray
    phases: np.ndarray  # (E_mu + shift) tau / 2 pi, folded to [0, 1)
    readout_ints: np.ndarray  # nearest m-bit grid point of each phase
    psi: np.ndarray  # target eigenvector columns
    states: np.ndarray  # w_mu columns on the witness space, dim d^n 3^m
    exact_phases: bool

    @property
    def energy_quantum(self) -> float:
        """Energy represented by one readout unit: 2 pi / (2^m tau)."""
        return 2.0 * np.pi / (2.0**self.m * self.tau)

    def readout_basis_index(self, j: int) -> int:
        """Flat qutrit-register index of the binary string for integer j."""
        return int(_binary_indices(self.m)[j])

    @property
    def hash_string_index(self) -> int:
        return _hash_index(self.m)


def witness_family(
    target: TargetHamiltonian,
    a: float,
    m: int,
    tau: float | None = None,
    config: Config | None = None,
) -> WitnessFamily:
    """Construct the witness family; errors on readout collisions between distinct energies.

    tau defaults to pi / (2 (|H_target| + 1)); a given tau must be positive,
    else ValueError, since one readout unit is 2 pi / (2^m tau) of energy.
    """
    if a <= 0:
        raise ValueError("flag weight a must be positive")
    if m < 1:
        raise ValueError("readout precision m must be at least 1")
    cfg = config or DEFAULT
    shift = target.norm
    if tau is None:
        tau = np.pi / (2.0 * (target.norm + 1.0))
    elif not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if (target.norm + shift) * tau >= 2.0 * np.pi - 1e-12:
        raise ValueError("tau too large: shifted phases would wrap past 2 pi")
    energies = target.eigenvalues
    phases = ((energies + shift) * tau / (2.0 * np.pi)) % 1.0
    grid = phases * 2.0**m
    readout = np.round(grid).astype(np.int64) % 2**m
    exact = bool(np.abs(grid - np.round(grid)).max(initial=0.0) < 1e-12)
    tol = cfg.cluster_rtol * max(1.0, target.norm)
    for i in range(len(energies)):
        for j in range(i + 1, len(energies)):
            if abs(energies[i] - energies[j]) > tol and readout[i] == readout[j]:
                raise ValueError(
                    f"readout collision: energies {energies[i]} and {energies[j]} "
                    f"round to the same {m}-bit string {readout[i]:0{m}b}"
                )
    d_state = target.dim
    d_readout = 3**m
    s_norm = np.sqrt(a**2 + 1.0)
    binary_idx = _binary_indices(m)
    states = np.zeros((d_state * d_readout, len(energies)), dtype=complex)
    for mu in range(len(energies)):
        readout_vec = np.zeros(d_readout, dtype=complex)
        readout_vec[_hash_index(m)] = a / s_norm
        readout_vec[binary_idx[readout[mu]]] += 1.0 / s_norm
        states[:, mu] = np.kron(readout_vec, target.eigenvectors[:, mu])
    gram = states.conj().T @ states
    if np.abs(gram - np.eye(states.shape[1])).max() > 1e-9:
        raise ValueError("witness family is not orthonormal to 1e-9")
    return WitnessFamily(
        a=float(a),
        m=int(m),
        tau=float(tau),
        shift=float(shift),
        energies=energies,
        phases=phases,
        readout_ints=readout,
        psi=target.eigenvectors,
        states=states,
        exact_phases=exact,
    )


def _hadamard_power(m: int) -> np.ndarray:
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    out = np.array([[1.0]], dtype=complex)
    for _ in range(m):
        out = np.kron(out, h)
    return out


def _qft(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def _phase_readout_matrix(phase: float, m: int) -> np.ndarray:
    """QFT^dag D(phase) H^(x)m on the 2^m-dimensional binary register."""
    n = 2**m
    d = np.exp(2j * np.pi * np.arange(n) * phase)
    return _qft(n).conj().T @ (d[:, None] * _hadamard_power(m))


def _binary_indices(m: int) -> np.ndarray:
    """Qutrit-register flat indices of all m-bit strings, ordered by integer value.

    Bit k of the integer is the digit of qutrit k, the (k+1)-th fastest.
    """
    bits = (np.arange(2**m, dtype=np.int64)[:, None] >> np.arange(m)) & 1
    return bits @ 3 ** np.arange(m, dtype=np.int64)


def _hash_index(m: int) -> int:
    """Qutrit-register flat index of the all-|#> string."""
    return HASH_STATE * (3**m - 1) // 2


def _embed_binary(g: np.ndarray, m: int) -> np.ndarray:
    """Extend a 2^m unitary to the 3^m qutrit register, identity off the binary sector."""
    d = 3**m
    out = np.eye(d, dtype=complex)
    idx = _binary_indices(m)
    out[np.ix_(idx, idx)] = g
    return out


def _swap_matrix(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d), dtype=complex)
    for a_idx in range(d):
        for b_idx in range(d):
            s[b_idx + d * a_idx, a_idx + d * b_idx] = 1.0
    return s


def qpe_verifier(
    target: TargetHamiltonian,
    a: float,
    m: int,
    tau: float | None = None,
    fam: WitnessFamily | None = None,
    config: Config | None = None,
) -> VerifierCircuit:
    """Phase-estimation verifier with coarse gates: flag rotation, energy prep, swap test.

    The energy-prep gate marks the scratch register with |#^m> on the flag
    branch of the control, runs phase estimation into it on the other branch,
    and uncomputes the control against the (orthogonal) scratch sectors; the
    final swap test between readout and scratch accepts on output |1>.
    """
    fam = fam if fam is not None else witness_family(target, a, m, tau, config)
    n_state = target.op.layout.n_sites
    d_state = target.dim
    dims = (
        (2,)
        + target.op.layout.site_dims
        + (3,) * m  # readout
        + (3,) * m  # scratch
        + (2,)  # control
    )
    state_sites = tuple(range(1, 1 + n_state))
    readout_sites = tuple(range(1 + n_state, 1 + n_state + m))
    scratch_sites = tuple(range(1 + n_state + m, 1 + n_state + 2 * m))
    control_site = 1 + n_state + 2 * m
    layout = SystemLayout(
        dims,
        registers=(
            Register("flag", (0,), role="flag"),
            Register("witness", state_sites, role="witness"),
            Register("readout", readout_sites, role="readout"),
            Register("scratch", scratch_sites, role="ancilla"),
            Register("control", (control_site,), role="control"),
        ),
        dim_cap=target.op.layout.dim_cap,
    )

    s_norm = np.sqrt(fam.a**2 + 1.0)
    rot = np.array([[fam.a, -1.0], [1.0, fam.a]], dtype=complex) / s_norm
    g_rotation = Gate.from_matrix(rot, (control_site,), layout, label="flag-rotation")

    d_scratch = 3**m
    eye_state = np.eye(d_state, dtype=complex)
    eye_scratch = np.eye(d_scratch, dtype=complex)
    x_hash = np.eye(3, dtype=complex)[:, [HASH_STATE, 1, 0]]  # swap |0> and |#>
    mark = np.array([[1.0]], dtype=complex)
    for _ in range(m):
        mark = np.kron(mark, x_hash)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    x2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u_mark = np.kron(p0, np.kron(mark, eye_state)) + np.kron(
        p1, np.kron(eye_scratch, eye_state)
    )
    qpe_ba = np.zeros((d_scratch * d_state, d_scratch * d_state), dtype=complex)
    for mu in range(d_state):
        g_mu = _embed_binary(_phase_readout_matrix(float(fam.phases[mu]), m), m)
        proj = np.outer(fam.psi[:, mu], fam.psi[:, mu].conj())
        qpe_ba += np.kron(g_mu, proj)
    u_qpe = np.kron(p1, qpe_ba) + np.kron(p0, np.eye(d_scratch * d_state, dtype=complex))
    bin_idx = _binary_indices(m)
    pi_bin = np.zeros((d_scratch, d_scratch), dtype=complex)
    pi_bin[bin_idx, bin_idx] = 1.0
    u_unc = np.kron(x2, np.kron(pi_bin, eye_state)) + np.kron(
        np.eye(2, dtype=complex), np.kron(eye_scratch - pi_bin, eye_state)
    )
    g_energy = Gate.from_matrix(
        u_unc @ u_qpe @ u_mark,
        state_sites + scratch_sites + (control_site,),
        layout,
        label="energy-prep",
    )

    h2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    swap = _swap_matrix(d_scratch)
    eye_pair = np.eye(d_scratch * d_scratch, dtype=complex)
    cswap = np.kron(swap, p1) + np.kron(eye_pair, p0)
    g_swap = Gate.from_matrix(
        np.kron(eye_pair, x2 @ h2) @ cswap @ np.kron(eye_pair, h2),
        (0,) + readout_sites + scratch_sites,
        layout,
        label="swap-test",
    )

    return VerifierCircuit(
        layout=layout,
        gates=(g_rotation, g_energy, g_swap),
        witness_register=("witness", "readout"),
        output_site=0,
        completeness=1.0,
        soundness=0.5,
    )


def _rank_one_sum(
    target: TargetHamiltonian, fam: WitnessFamily, weights: np.ndarray
) -> DenseOperator:
    """sum_mu weights[mu] |w_mu><w_mu| on the state (x) readout space, under the target's cap."""
    base = target.op.layout
    layout = SystemLayout(base.site_dims + (3,) * fam.m, dim_cap=base.dim_cap)
    h = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for weight, w in zip(weights, fam.states.T):
        h += weight * np.outer(w, w.conj())
    return DenseOperator(layout, hermitize(h), hermitian=True, validate=False)


def build_hprime(target: TargetHamiltonian, fam: WitnessFamily) -> DenseOperator:
    """H' = sum_mu E_mu |w_mu><w_mu| on the state (x) readout space."""
    return _rank_one_sum(target, fam, fam.energies)


@dataclass(frozen=True)
class WtildeReport:
    """Comparison of the local (W) and exact (W~) witness encodings."""

    w_local: np.ndarray
    w_tilde: np.ndarray
    norm_diff: float
    norm_diff_squared: float
    formula_value: float  # 2 (1 - a / sqrt(a^2 + 1)); equals the squared norm
    exceeds_formula: bool
    frame_shift: float
    sim_report: SimulationReport


def wtilde_encodings(
    target: TargetHamiltonian, fam: WitnessFamily, config: Config | None = None
) -> WtildeReport:
    """W, W~, their distance, and a certificate that H' simulates the target.

    The certificate runs in the frame H_target - (|H_target| + 1) 1, placing
    the witness band strictly below the untouched complement of H', so a
    cutoff of -1/2 isolates it; there the spectra agree exactly.
    """
    cfg = config or DEFAULT
    d_state = target.dim
    hash_vec = np.zeros(3**fam.m, dtype=complex)
    hash_vec[fam.hash_string_index] = 1.0
    w_local = np.kron(hash_vec[:, None], np.eye(d_state, dtype=complex))
    w_tilde = fam.states @ fam.psi.conj().T
    diff = float(np.linalg.norm(w_local - w_tilde, 2))
    formula = 2.0 * (1.0 - fam.a / np.sqrt(fam.a**2 + 1.0))
    lam_sh = target.norm + 1.0
    h_sh = target.op.entries - lam_sh * np.eye(d_state)
    hp_sh = _rank_one_sum(target, fam, fam.energies - lam_sh)
    enc = plain_encoding(w_local, d_state, target_layout=target.op.layout, sim_layout=hp_sh.layout)
    report = verify_simulation(h_sh, hp_sh, enc, delta=-0.5, config=cfg)
    return WtildeReport(
        w_local=w_local,
        w_tilde=w_tilde,
        norm_diff=diff,
        norm_diff_squared=diff**2,
        formula_value=float(formula),
        exceeds_formula=bool(diff > formula + 1e-9),
        frame_shift=lam_sh,
        sim_report=report,
    )


def build_hsim(
    h_ls: scipy.sparse.spmatrix,
    lam_min: float,
    flag_terms: tuple[tuple[int, int], ...],
    delta: float,
    a: float,
    layout: SystemLayout,
) -> scipy.sparse.csr_matrix:
    """Delta (H_LS - lam_min 1) + sum_k a 2^k P_k, as a CSR matrix.

    The k-th flag term (site, level) gives P_k, the projector onto the basis
    states whose `site` digit is `level`, so the flags add only to the
    diagonal. `layout` is H_LS's, which the digits are read from. A level
    outside 0 <= level < site_dims[site] raises ValueError.
    """
    diag = np.zeros(layout.total_dim)
    diag -= delta * lam_min
    digit_table = layout.digit_table()
    for k, (site, level) in enumerate(flag_terms):
        if not 0 <= level < layout.site_dims[site]:
            raise ValueError(
                f"flag level {level} outside site {site}'s levels 0..{layout.site_dims[site] - 1}"
            )
        diag += a * 2.0**k * (digit_table[site] == level)
    return (delta * h_ls + scipy.sparse.diags(diag)).tocsr()


@dataclass(frozen=True)
class FirstOrderReport:
    """Measured conclusions of the first-order simulation bound."""

    isometry_error: float
    isometry_bound: float
    energy_error: float
    energy_bound: float
    requirement_slack: float

    @property
    def ok(self) -> bool:
        return (
            self.isometry_error <= self.isometry_bound
            and self.energy_error <= self.energy_bound
        )


def first_order_sim_check(
    h0: DenseOperator,
    h1: DenseOperator,
    delta: float,
    u_iso: np.ndarray,
    h_target: np.ndarray,
    epsilon: float,
    config: Config | None = None,
) -> FirstOrderReport:
    """Check both conclusions of the first-order simulation lemma.

    Preconditions (violations raise with the measured slack): H0 vanishes on
    the range of u_iso and its next eigenvalue is at least 1; the compressed
    perturbation matches u_iso h_target u_iso^dag to epsilon/2.
    """
    cfg = config or DEFAULT
    u = np.asarray(u_iso, dtype=complex)
    rank = u.shape[1]
    if np.abs(u.conj().T @ u - np.eye(rank)).max() > 1e-10:
        raise ValueError("u_iso is not an isometry")
    ground_residual = float(np.linalg.norm(h0.entries @ u, 2))
    if ground_residual > 1e-9:
        raise ValueError(f"H0 does not vanish on the encoded space: |H0 U| = {ground_residual:.3e}")
    vals0 = np.linalg.eigvalsh(h0.entries)
    if len(vals0) > rank and vals0[rank] < 1.0 - 1e-9:
        raise ValueError(f"H0 next eigenvalue {vals0[rank]} is below 1")
    pi = u @ u.conj().T
    compressed = pi @ h1.entries @ pi
    requirement = float(np.linalg.norm(u @ np.asarray(h_target) @ u.conj().T - compressed, 2))
    if requirement > epsilon / 2.0 + 1e-12:
        raise ValueError(
            f"first-order requirement violated: measured {requirement:.3e} > eps/2 = {epsilon / 2:.3e}"
        )
    # the conclusions are the (eta, epsilon) certificate of H_sim below delta/2
    h_sim = hermitize(delta * h0.entries + h1.entries)
    sim = verify_simulation(h_target, h_sim, plain_encoding(u), delta / 2.0, config=cfg)
    h1_norm = op_norm(h1)
    return FirstOrderReport(
        isometry_error=sim.eta_measured,
        isometry_bound=float(cfg.c_first_order * h1_norm / delta),
        energy_error=sim.epsilon_measured,
        energy_bound=float(cfg.c_first_order * h1_norm**2 / delta + epsilon / 2.0),
        requirement_slack=requirement,
    )


@dataclass(frozen=True)
class PipelineReport:
    """End-to-end universality demonstration for one target."""

    a: float
    m: int
    tau: float
    kappa: float
    idle_steps: int
    t_steps: int
    acceptance_gap: float
    delta_multiplier: float
    delta_hat: float
    delta_prime: float
    flag_prefactor: float
    alignment_shift: float
    frame_shift: float
    hmk: object
    wtilde: WtildeReport
    bridge: SimulationReport
    composite: SimulationReport
    final_table: tuple[tuple[float, float, float], ...]  # (target E, simulated E, |diff|)
    eta_prime: float
    epsilon_prime: float
    # largest residual |H v - lambda v| of the H_MK and H_sim eigenpairs the
    # certificates read: floating-point error next to eta' and epsilon'
    hmk_residual: float
    hsim_residual: float

    @property
    def ok(self) -> bool:
        table_ok = all(
            diff <= self.epsilon_prime + 1e-9 for _, _, diff in self.final_table
        )
        return bool(self.hmk.ok and table_ok)


def end_to_end(
    target: TargetHamiltonian,
    a: float,
    m: int,
    kappa: float | None = None,
    idle_steps: int = 1,
    delta: float | None = None,
    delta_prime: float | None = None,
    tau: float | None = None,
    config: Config | None = None,
) -> PipelineReport:
    """Run verifier -> clock Hamiltonian -> H_sim -> composed certificate for the target.

    delta is the multiplier on (H_LS - lam_min); when omitted it is chosen so
    the rescaled gap is 10 (a^2+1) times the flag-term norm. delta_prime is
    the composite certificate's cutoff (default: half the rescaled gap).
    """
    cfg = config or DEFAULT
    if target.dim > 4 or m > 2:
        raise ValueError("end-to-end runs are restricted to tiny instances (dim <= 4, m <= 2)")
    if delta is not None and not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    fam = witness_family(target, a, m, tau, cfg)
    circuit = qpe_verifier(target, a, m, tau, fam=fam, config=cfg)
    idled = idle_prefix(circuit, idle_steps)
    t_prime = idled.n_steps
    if t_prime > 8:
        raise ValueError(f"idled circuit length {t_prime} exceeds the desk-scale limit 8")

    acc = acceptance_operator(idled, cfg)
    gap_info = acceptance_gap(acc, idled.completeness)
    if not gap_info.gapped:
        raise ValueError("verifier acceptance operator is ungapped")
    g = gap_info.gap
    kap = kappa if kappa is not None else default_kappa(g, t_prime)
    kh = build_kitaev(idled, kap, ClockRep.CLOCK_SUBSPACE)
    h_mk = kh.h_mk_operator()

    w_dim = idled.witness_dim
    # the history states span the kernel of H_0, H_MK at kappa = 0: they
    # start the solve. Both solves go through this module's _low_spectrum,
    # H_MK first, which is how perfbench's tracer tells them apart
    history = _history_columns(idled, np.eye(w_dim, dtype=complex), ClockRep.CLOCK_SUBSPACE)
    mk = _low_spectrum(h_mk, w_dim, cfg, start=history, floor=0.0)
    hmk_report = check_hmk_lemma(kh, cfg, _low=mk, _acc=acc)
    lam_min = float(mk.values[0])
    gap_mk = hmk_report.gap_above_low_space

    readout_sites = idled.layout.register("readout").sites
    flags = tuple((site, 1) for site in readout_sites)

    e_quantum = fam.energy_quantum
    flag_prefactor = e_quantum * (fam.a**2 + 1.0)
    flag_sum_norm = flag_prefactor * (2.0**m - 1.0)
    if delta is None:
        delta_hat = 10.0 * (fam.a**2 + 1.0) * max(flag_sum_norm, 1.0)
        delta = delta_hat / gap_mk
    else:
        delta_hat = delta * gap_mk
    lam_sh = target.norm + 1.0
    alignment = fam.shift + lam_sh
    h_sim = build_hsim(h_mk, lam_min, flags, delta, flag_prefactor, kh.layout)
    h_sim = h_sim - alignment * scipy.sparse.identity(kh.layout.total_dim)
    # H_sim's low space lies near H_MK's: its eigenvectors start the solve. H_MK
    # and the flag terms are positive semidefinite, and delta > 0, so H_sim's
    # spectrum lies at or above -delta lam_min - alignment
    floor = -delta * lam_min - alignment
    sim = _low_spectrum(h_sim, w_dim, cfg, start=mk.vectors, floor=floor)

    wtilde = wtilde_encodings(target, fam, cfg)

    enc_idle = plain_encoding(
        idling_state(idled, np.eye(w_dim, dtype=complex), idle_steps),
        w_dim,
        target_layout=idled.witness_layout(),
        sim_layout=kh.layout,
    )
    bridge_delta = 10.0 * delta_hat
    bridge = verify_simulation(
        wtilde.sim_report.h_prime,
        h_sim,
        enc_idle,
        bridge_delta,
        config=cfg,
        _low=sim,
    )

    dp = delta_prime if delta_prime is not None else delta_hat / 2.0
    composite = compose_simulations(
        wtilde.sim_report, bridge, delta=dp, config=cfg, _low=sim
    )

    table = tuple(
        (
            float(row.lambda_target + lam_sh),
            float(row.lambda_sim + lam_sh),
            float(row.difference),
        )
        for row in composite.eigen_table
    )
    return PipelineReport(
        a=float(a),
        m=int(m),
        tau=fam.tau,
        kappa=float(kap),
        idle_steps=int(idle_steps),
        t_steps=t_prime,
        acceptance_gap=float(g),
        delta_multiplier=float(delta),
        delta_hat=float(delta_hat),
        delta_prime=float(dp),
        flag_prefactor=float(flag_prefactor),
        alignment_shift=float(alignment),
        frame_shift=float(lam_sh),
        hmk=hmk_report,
        wtilde=wtilde,
        bridge=bridge,
        composite=composite,
        final_table=table,
        eta_prime=float(composite.eta_measured),
        epsilon_prime=float(composite.epsilon_measured),
        hmk_residual=float(mk.residuals[:w_dim].max()),
        hsim_residual=float(sim.residuals[:w_dim].max()),
    )
