"""Encodings and certification of approximate Hamiltonian simulations.

An encoding acts as E(M) = V (M (x) P + conj(M) (x) Q) V^dag with V an
isometry from target (x) ancilla into the simulator space, and P + Q the
identity on the rank-(p+q) ancilla factor. The composite index convention is
ancilla-fastest: domain index = anc + (p+q) * target (matching numpy kron
with the ancilla as the second factor).

verify_simulation realizes the existential rotated encoding constructively:
V~ = W V with W the direct rotation from range E(1) onto the low-energy
subspace below the cutoff, so the measured eta upper-bounds the optimal one.
epsilon is |H' P_low - E~(H)|. Both are read in w x w principal-angle coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Config
from .kitaev import LowSpectrum, _low_spectrum
from .operators import (
    ClockBlocks,
    DenseOperator,
    SystemLayout,
    _full_eigh,
    _norm_tall,
    _principal_residual,
    guard_cut,
    hermitize,
    tensor_embed,
)


@dataclass(frozen=True)
class Encoding:
    """Isometry with ancilla projector pair implementing E(M) = V(M(x)P + conj(M)(x)Q)V^dag."""

    v: np.ndarray  # shape (D_sim, D_target * (p + q))
    p_anc: np.ndarray  # (p+q) x (p+q) projector
    q_anc: np.ndarray  # (p+q) x (p+q) projector, may be zero
    target_dim: int
    target_layout: SystemLayout | None = None
    sim_layout: SystemLayout | None = None

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        p = np.asarray(self.p_anc, dtype=complex)
        q = np.asarray(self.q_anc, dtype=complex)
        anc = p.shape[0]
        if v.shape[1] != self.target_dim * anc:
            raise ValueError(
                f"isometry domain {v.shape[1]} != target_dim {self.target_dim} x ancilla {anc}"
            )
        if np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() > 1e-10:
            raise ValueError("V is not an isometry to 1e-10")
        for name, m in (("P", p), ("Q", q)):
            if np.abs(m @ m - m).max() > 1e-10 or np.abs(m - m.conj().T).max() > 1e-10:
                raise ValueError(f"{name} is not an orthogonal projector")
        if np.abs(p @ q).max() > 1e-10:
            raise ValueError("P and Q are not orthogonal to each other")
        if np.abs(p + q - np.eye(anc)).max() > 1e-10:
            raise ValueError("P + Q must be the identity on the rank-(p+q) ancilla factor")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "p_anc", p)
        object.__setattr__(self, "q_anc", q)

    @property
    def anc_dim(self) -> int:
        return self.p_anc.shape[0]

    @property
    def q_rank(self) -> int:
        return int(round(float(np.real(np.trace(self.q_anc)))))

    @property
    def conjugation_split(self) -> bool:
        return self.q_rank > 0

    @property
    def sim_dim(self) -> int:
        return self.v.shape[0]

    def core(self, m: np.ndarray) -> np.ndarray:
        """M (x) P + conj(M) (x) Q: E(M) = V core V^dag."""
        m = np.asarray(m, dtype=complex)
        core = np.kron(m, self.p_anc)
        if self.conjugation_split:
            core = core + np.kron(m.conj(), self.q_anc)
        return core

    def apply(self, m: np.ndarray) -> np.ndarray:
        return self.v @ self.core(m) @ self.v.conj().T

    def image_projector(self) -> np.ndarray:
        """E(1) = V V^dag."""
        return self.v @ self.v.conj().T


def plain_encoding(
    v: np.ndarray, target_dim: int | None = None, **layouts
) -> Encoding:
    """Encoding with trivial rank-1 ancilla and no conjugation branch."""
    v = np.asarray(v, dtype=complex)
    d_t = target_dim if target_dim is not None else v.shape[1]
    return Encoding(
        v=v,
        p_anc=np.eye(1, dtype=complex),
        q_anc=np.zeros((1, 1), dtype=complex),
        target_dim=d_t,
        **layouts,
    )


def identity_encoding(dim: int, layout: SystemLayout | None = None) -> Encoding:
    return plain_encoding(
        np.eye(dim, dtype=complex), dim, target_layout=layout, sim_layout=layout
    )


def apply_encoding(enc: Encoding, m: DenseOperator | np.ndarray) -> np.ndarray:
    """E(M); Hermitian input gives Hermitian output."""
    mat = m.entries if isinstance(m, DenseOperator) else np.asarray(m, dtype=complex)
    if mat.shape != (enc.target_dim, enc.target_dim):
        raise ValueError(f"operator shape {mat.shape} != target dimension {enc.target_dim}")
    return enc.apply(mat)


def _hermitian_site_basis(d: int) -> list[np.ndarray]:
    basis = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j
            m[j, i] = 1j
            basis.append(m)
    return basis


@dataclass(frozen=True)
class LocalityReport:
    local: bool
    tolerance: float
    residuals: tuple[tuple[int, float], ...]  # (target site, worst residual over its basis)


def check_local_encoding(
    enc: Encoding,
    site_map: dict[int, tuple[int, ...]] | None = None,
    tolerance: float = 1e-8,
) -> LocalityReport:
    """Check E(A_j (x) 1) = (A'_j (x) 1) E(1) for a basis of single-site observables.

    site_map sends each target site to the simulator site group carrying it
    (default: same index). A'_j is fitted by least squares on each group;
    the encoding is local when every residual stays at or below `tolerance`.
    """
    if enc.target_layout is None or enc.sim_layout is None:
        raise ValueError("locality check needs target and simulator layouts on the encoding")
    t_layout, s_layout = enc.target_layout, enc.sim_layout
    mapping = site_map or {j: (j,) for j in range(t_layout.n_sites)}
    e_one = enc.image_projector()
    results = []
    for j in range(t_layout.n_sites):
        group = tuple(mapping[j])
        group_dims = tuple(s_layout.site_dims[s] for s in group)
        group_dim = int(np.prod(group_dims, dtype=np.int64))
        columns = []
        for b in _hermitian_site_basis(group_dim):
            local = DenseOperator(SystemLayout(group_dims), b, hermitian=True)
            embedded = tensor_embed(local, group, s_layout).entries
            columns.append((embedded @ e_one).reshape(-1))
        design = np.stack(columns, axis=1)
        design_ri = np.vstack([design.real, design.imag])
        worst = 0.0
        d_j = t_layout.site_dims[j]
        for a in _hermitian_site_basis(d_j):
            local = DenseOperator(SystemLayout((d_j,)), a, hermitian=True)
            lhs_full = apply_encoding(
                enc, tensor_embed(local, (j,), t_layout).entries
            )
            rhs = lhs_full.reshape(-1)
            rhs_ri = np.concatenate([rhs.real, rhs.imag])
            coeff, *_ = np.linalg.lstsq(design_ri, rhs_ri, rcond=None)
            residual_mat = (design @ coeff - rhs).reshape(lhs_full.shape)
            worst = max(worst, float(np.linalg.norm(residual_mat, 2)))
        results.append((j, worst))
    return LocalityReport(
        local=all(r <= tolerance for _, r in results),
        tolerance=tolerance,
        residuals=tuple(results),
    )


@dataclass(frozen=True)
class EigenRow:
    index_target: int
    lambda_target: float
    index_sim: int
    lambda_sim: float
    difference: float


@dataclass(frozen=True)
class SimulationReport:
    """Measured (Delta, eta, epsilon) certificate with the eigenvalue transfer table."""

    delta: float
    eta_measured: float
    epsilon_measured: float
    eigen_table: tuple[EigenRow, ...]
    conditions: dict[str, bool]
    h: np.ndarray
    h_values: np.ndarray  # ascending eigenvalues of h
    h_prime: np.ndarray | ClockBlocks
    encoding: Encoding

    @property
    def ok(self) -> bool:
        return all(self.conditions.values())


def verify_simulation(
    h: DenseOperator | np.ndarray,
    h_prime: DenseOperator | ClockBlocks | np.ndarray,
    enc: Encoding,
    delta: float,
    eta_target: float | None = None,
    epsilon_target: float | None = None,
    config: Config | None = None,
    _low: LowSpectrum | None = None,
) -> SimulationReport:
    """Certify h_prime as a simulation of h below the cutoff delta.

    Preconditions: the number of h_prime eigenvalues at or below delta equals
    (p+q) * dim(h), and delta falls in a spectral gap (cluster-guarded).
    The lowest (p+q) dim(h) + 1 pairs of h_prime come from _low_spectrum,
    or from `_low` when the caller already solved for them.

    With L the w low vectors, V~ = L M where M = polar(L^dag V) is w x w:
    eta = 2 sin(theta_max / 2) with sin theta_max = |V - L L^dag V|, and
    epsilon = |diag(lambda_low) - M core M^dag|. Neither W nor V~ is formed.
    """
    cfg = config or DEFAULT
    h_mat = h.entries if isinstance(h, DenseOperator) else np.asarray(h, dtype=complex)
    if not isinstance(h_prime, (DenseOperator, ClockBlocks)):
        h_prime = np.asarray(h_prime, dtype=complex)
    hp_mat = h_prime.entries if isinstance(h_prime, DenseOperator) else h_prime
    d_t = h_mat.shape[0]
    expected = d_t * enc.anc_dim
    if enc.target_dim != d_t:
        raise ValueError(f"encoding target dimension {enc.target_dim} != dim(h) = {d_t}")
    if enc.sim_dim != hp_mat.shape[0]:
        raise ValueError("encoding simulator dimension does not match h_prime")
    low = _low if _low is not None else _low_spectrum(h_prime, expected + 1, expected, cfg)
    vals = low.values
    k = int(np.searchsorted(vals, delta, side="right"))
    if k != expected:
        raise ValueError(
            f"low-energy dimension below delta = {delta} is {k}, expected (p+q) dim(h) = {expected}"
        )
    guard_cut(vals, k, cfg)
    low_vals, low_vecs = vals[:k], low.vectors[:, :k]

    x, resid = _principal_residual(low_vecs, enc.v)
    u, cosines, vh = np.linalg.svd(x)
    if cosines.min() <= 1e-12:
        raise ValueError("subspace distance >= 1: direct rotation not uniquely defined")
    eta = float(2.0 * np.sin(np.arctan2(_norm_tall(resid), cosines.min()) / 2.0))
    m = u @ vh
    epsilon = float(np.linalg.norm(np.diag(low_vals) - m @ enc.core(h_mat) @ m.conj().T, 2))

    t_vals = np.linalg.eigvalsh(h_mat)
    pq = enc.anc_dim
    rows = []
    for i in range(d_t):
        for j in range(i * pq, (i + 1) * pq):
            rows.append(
                EigenRow(
                    index_target=i + 1,
                    lambda_target=float(t_vals[i]),
                    index_sim=j + 1,
                    lambda_sim=float(low_vals[j]),
                    difference=float(abs(t_vals[i] - low_vals[j])),
                )
            )
    conditions = {"low_space_dimension": True}
    if eta_target is not None:
        conditions["eta_within_target"] = bool(eta <= eta_target)
    if epsilon_target is not None:
        conditions["epsilon_within_target"] = bool(epsilon <= epsilon_target)
    return SimulationReport(
        delta=float(delta),
        eta_measured=eta,
        epsilon_measured=epsilon,
        eigen_table=tuple(rows),
        conditions=conditions,
        h=h_mat,
        h_values=t_vals,
        h_prime=hp_mat,
        encoding=enc,
    )


def check_partition_function(
    h: DenseOperator | np.ndarray,
    h_prime: DenseOperator | np.ndarray,
    enc: Encoding,
    delta: float,
    beta: float,
    report: SimulationReport | None = None,
    config: Config | None = None,
) -> tuple[float, float, bool]:
    """Relative partition-function error against its certified bound at inverse temperature beta."""
    rep = report if report is not None else verify_simulation(h, h_prime, enc, delta, config=config)
    h_mat, hp_mat, vals_t = rep.h, rep.h_prime, rep.h_values
    pq = enc.anc_dim
    vals_s = _full_eigh(h_prime)[0] if isinstance(h_prime, DenseOperator) else np.linalg.eigvalsh(hp_mat)
    z_t = float(np.exp(-beta * vals_t).sum())
    z_s = float(np.exp(-beta * vals_s).sum())
    rel_err = abs(z_s - pq * z_t) / (pq * z_t)
    d_sim = hp_mat.shape[0]
    d_t = h_mat.shape[0]
    h_norm = float(np.abs(vals_t).max(initial=0.0))
    bound = (d_sim * np.exp(-beta * delta)) / (pq * d_t * np.exp(-beta * h_norm)) + (
        np.exp(rep.epsilon_measured * beta) - 1.0
    )
    return float(rel_err), float(bound), bool(rel_err <= bound + 1e-9)


def check_dynamics(
    h: DenseOperator | np.ndarray,
    h_prime: DenseOperator | np.ndarray,
    enc: Encoding,
    rho_prime: np.ndarray,
    t: float,
    epsilon: float,
    eta: float,
) -> tuple[float, float, bool]:
    """Trace-norm deviation of time evolution under h_prime vs under E(h), against 2 eps t + 4 eta.

    rho_prime = V r V^dag lies in the encoded image, where E(h) acts as
    V core V^dag, so e^(-i E(h) t) rho_prime e^(i E(h) t) is
    V e^(-i core t) r e^(i core t) V^dag. Both evolved states have rank at
    most dim r, and the trace norm of their difference is taken in the joint
    span of their column spaces.
    """
    rho = np.asarray(rho_prime, dtype=complex)
    v = enc.v
    r = v.conj().T @ rho @ v
    if np.abs(v @ r @ v.conj().T - rho).max() > 1e-9:
        raise ValueError("rho_prime is not supported in the encoded subspace")
    h_mat = h.entries if isinstance(h, DenseOperator) else np.asarray(h, dtype=complex)
    vals, vecs = _full_eigh(h_prime)
    core_vals, core_vecs = np.linalg.eigh(hermitize(enc.core(h_mat)))
    x = vecs @ (np.exp(-1j * vals * t)[:, None] * (vecs.conj().T @ v))  # e^(-i h' t) V
    y = v @ (core_vecs * np.exp(-1j * core_vals * t)) @ core_vecs.conj().T  # V e^(-i core t)
    # x r x^dag - y r y^dag = q (ux r ux^dag - uy r uy^dag) q^dag with [x y] = q [ux uy]
    _, upper = np.linalg.qr(np.hstack([x, y]))
    n = r.shape[0]
    upper_x, upper_y = upper[:, :n], upper[:, n:]
    diff = upper_x @ r @ upper_x.conj().T - upper_y @ r @ upper_y.conj().T
    distance = float(np.abs(np.linalg.eigvalsh(hermitize(diff))).sum())
    bound = 2.0 * epsilon * abs(t) + 4.0 * eta
    return distance, float(bound), bool(distance <= bound + 1e-9)


def compose_encodings(enc_ab: Encoding, enc_bc: Encoding) -> Encoding:
    """E_AC = E_BC o E_AB for plain (Q = 0) encodings."""
    if enc_ab.conjugation_split or enc_bc.conjugation_split:
        raise NotImplementedError("composition with an active conjugation branch is not supported")
    if enc_bc.target_dim != enc_ab.sim_dim:
        raise ValueError(
            f"middle dimensions differ: E_AB maps into {enc_ab.sim_dim}, "
            f"E_BC encodes {enc_bc.target_dim}"
        )
    v_ac = enc_bc.v @ np.kron(enc_ab.v, np.eye(enc_bc.anc_dim))
    return Encoding(
        v=v_ac,
        p_anc=np.kron(enc_ab.p_anc, enc_bc.p_anc),
        q_anc=np.zeros((enc_ab.anc_dim * enc_bc.anc_dim,) * 2, dtype=complex),
        target_dim=enc_ab.target_dim,
        target_layout=enc_ab.target_layout,
        sim_layout=enc_bc.sim_layout,
    )


def compose_simulations(
    report_ab: SimulationReport,
    report_bc: SimulationReport,
    delta: float | None = None,
    config: Config | None = None,
    _low: LowSpectrum | None = None,
) -> SimulationReport:
    """Certify the composite encoding directly on (H_A, H_C).

    Precondition: the B-layer operators agree (report_ab.h_prime is
    report_bc.h). The composite cutoff defaults to report_bc.delta.
    """
    if report_ab.h_prime.shape != report_bc.h.shape or not np.allclose(
        report_ab.h_prime, report_bc.h, atol=1e-9
    ):
        raise ValueError("B-layer operators of the two reports do not agree")
    enc_ac = compose_encodings(report_ab.encoding, report_bc.encoding)
    return verify_simulation(
        report_ab.h,
        report_bc.h_prime,
        enc_ac,
        delta if delta is not None else report_bc.delta,
        config=config,
        _low=_low,
    )
