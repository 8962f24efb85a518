"""Numerical Schrieffer-Wolff transformation and its error bounds.

For H~ = Delta H0 + H1 with H0 block-diagonal against Pi_-/Pi_+, the
generator S is obtained exactly: e^S is the direct rotation carrying the
perturbed low spectral subspace R onto H_-, and S its principal matrix
logarithm (valid since |S| < pi/2 by construction for admissible problems).
Series coefficients are produced only through first order, which is all the
low-band analysis needs; higher coefficients are out of scope.

The direct rotation is the identity outside the joint span of R and H_-
(Bravyi, DiVincenzo & Loss, Ann. Phys. 326, 2793 (2011)), a space of
dimension r <= 2 dim H_-. The logarithm and every norm of S are taken there,
and every other product has dim H_- columns, so no D x D factorization
beyond the one eigendecomposition of H~ is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .config import DEFAULT, Config
from .operators import (
    DenseOperator,
    Subspace,
    _hermitian,
    direct_rotation_factored,
    guard_cut,
    hermitize,
)

OFF_BLOCK_TOL = 1e-10
HIGH_FLOOR = 1.0 - 1e-9  # the least accepted h0 eigenvalue on H_+
SW_ORDER = 1  # the truncation order of SWExpansion.bounds


def _unitary_log(w: np.ndarray) -> np.ndarray:
    """Principal logarithm of a unitary matrix, through its complex Schur form.

    A unitary matrix is normal, so its Schur form w = z t z^dag has a
    diagonal t up to rounding, and log(w) = z log(diag t) z^dag.
    """
    t, z = scipy.linalg.schur(w, output="complex")
    return (z * np.log(t.diagonal())) @ z.conj().T


def _norm(m: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, from its eigenvalues.

    LAPACK returns a diagonal matrix's eigenvalues exactly as the real parts of
    its diagonal, so a diagonal m skips the eigensolver bit for bit.
    """
    d = m.diagonal()
    if np.count_nonzero(m) == np.count_nonzero(d):
        return float(np.abs(d.real).max(initial=0.0))
    return float(np.abs(np.linalg.eigvalsh(m)).max(initial=0.0))


@dataclass(frozen=True)
class SWProblem:
    """H~ = delta * h0 + h1 with a designated low block H_- of h0.

    h0 must be block-diagonal against the H_-/H_+ split, with spectrum on
    H_- inside [0, lambda0], lambda0 < 1, and spectrum on H_+ at or above 1
    (the normalized-gap convention; callers rescale). |h1| < delta/2. Both
    must carry the hermitian flag (operators._hermitian).
    """

    h0: DenseOperator
    h1: DenseOperator
    delta: float
    minus: Subspace
    lambda0: float = field(init=False)  # largest h0 eigenvalue on H_-, set from h0
    # sw_exact's bounds by config, then by order, so sw_bounds does not repeat it; floats
    # only, since an SWExpansion here would make a reference cycle
    _bounds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _hermitian(self.h0, "h0")
        _hermitian(self.h1, "h1")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        b = self.minus.basis
        b_h0 = b.conj().T @ self.h0.entries
        low_block = b_h0 @ b
        off = float(np.linalg.norm(b_h0 - low_block @ b.conj().T, 2))  # |Pi_- h0 Pi_+|
        if off > OFF_BLOCK_TOL:
            raise ValueError(f"h0 off-block norm {off:.3e} exceeds {OFF_BLOCK_TOL}")
        low_vals = np.linalg.eigvalsh(hermitize(low_block))
        if low_vals.size and low_vals.min() < -1e-9:
            raise ValueError("h0 has negative eigenvalues on H_-")
        lam0 = float(low_vals.max(initial=0.0))
        if lam0 >= 1.0:
            raise ValueError(f"largest h0 eigenvalue on H_- is {lam0} >= 1")
        object.__setattr__(self, "lambda0", lam0)
        if self.minus.dim < self.h0.dim:
            # lifting H_- by 2 puts it above 1, so a value below 1 lies on H_+;
            # the shifted lift has a Cholesky factor iff all lie above HIGH_FLOOR.
            # numpy's, not scipy's: scipy's BLAS pool would spin beside numpy's
            lifted = self.h0.entries + 2.0 * self.minus.projector.entries
            lifted[np.diag_indices_from(lifted)] -= HIGH_FLOOR
            try:
                np.linalg.cholesky(lifted)
            except np.linalg.LinAlgError:
                lifted = self.h0.entries + 2.0 * self.minus.projector.entries
                high_min = float(np.linalg.eigvalsh(lifted)[0])
                if high_min < HIGH_FLOOR:
                    raise ValueError(
                        f"h0 spectrum on H_+ starts at {high_min}, below the normalized gap 1"
                    ) from None
        if self.h1_norm >= self.delta / 2:
            raise ValueError(f"|h1| = {self.h1_norm} is not below delta/2 = {self.delta / 2}")

    @cached_property
    def h1_norm(self) -> float:
        return _norm(self.h1.entries)

    def perturbed(self) -> DenseOperator:
        """H~, one operator per problem, so that its spectrum is computed once."""
        return self._perturbed

    @cached_property
    def _perturbed(self) -> DenseOperator:
        m = self.delta * self.h0.entries + self.h1.entries
        return DenseOperator(self.h0.layout, hermitize(m), hermitian=True, validate=False)


@dataclass(frozen=True)
class SWExpansion:
    """Exact generator and effective Hamiltonian, plus first-order data and bounds."""

    s_exact: np.ndarray  # anti-Hermitian generator, block-off-diagonal
    h_eff_exact: DenseOperator  # supported on H_-
    h_eff_orders: tuple[DenseOperator, DenseOperator]  # (Delta H0 Pi_-, Pi_- H1 Pi_-)
    bounds: dict[str, float]
    problem: SWProblem

    def h_eff_restricted(self) -> np.ndarray:
        """h_eff_exact in the H_- basis (dim_- x dim_- matrix)."""
        b = self.problem.minus.basis
        return hermitize(b.conj().T @ self.h_eff_exact.entries @ b)


def sw_series(prob: SWProblem, k: int = 1) -> list[DenseOperator]:
    """Leading effective-Hamiltonian terms [Delta H0 Pi_-, Pi_- H1 Pi_-]."""
    if k > 1:
        raise ValueError("series coefficients beyond first order are out of scope")
    b = prob.minus.basis
    b_dag = b.conj().T
    layout = prob.h0.layout
    order0 = hermitize(prob.delta * (prob.h0.entries @ b) @ b_dag)
    terms = [DenseOperator(layout, order0, hermitian=True, validate=False)]
    if k >= 1:
        order1 = hermitize(b @ (b_dag @ prob.h1.entries @ b) @ b_dag)
        terms.append(DenseOperator(layout, order1, hermitian=True, validate=False))
    return terms


def sw_exact(prob: SWProblem, config: Config | None = None) -> SWExpansion:
    """Exact block-diagonalizing rotation e^S and effective Hamiltonian on H_-."""
    cfg = config or DEFAULT
    h_t = prob.perturbed()
    vals, vecs = h_t.spectrum
    k = prob.minus.dim
    guard_cut(vals, k, cfg)
    h_scale = max(1.0, float(np.abs(vals).max()))
    b = prob.minus.basis
    rot = direct_rotation_factored(vecs[:, :k], b)
    q, w = rot.q_span, rot.w_small
    # e^S = 1 + q (w - 1) q^dag, so S = q log(w) q^dag
    s_small = _unitary_log(w)
    s_small = (s_small - s_small.conj().T) / 2  # scrub rounding: the generator is anti-Hermitian
    s_norm = _norm(1j * s_small)
    if s_norm >= np.pi / 2:
        raise ValueError(f"|S| = {s_norm} reached pi/2: principal branch invalid")
    # Pi_- and Pi_+ act on span(q) as bq bq^dag and 1 - bq bq^dag, with b = q bq
    bq = q.conj().T @ b
    plus = np.eye(q.shape[1]) - bq @ bq.conj().T
    block_diag = _norm(1j * (bq.conj().T @ s_small @ bq)) + _norm(1j * (plus @ s_small @ plus))
    if block_diag > 1e-9:
        raise ValueError(f"generator has block-diagonal residue {block_diag:.3e}")
    # y = e^S H~ e^-S b: its part off H_- is the off-block part of the rotated H~
    y = rot.apply_left(h_t.entries @ (b + q @ (w.conj().T @ bq - bq)))
    m = b.conj().T @ y
    off = float(np.linalg.norm(y - b @ m, 2))
    if off > 1e-9 * h_scale:
        raise ValueError(f"e^S failed to block-diagonalize: off-block norm {off:.3e}")
    h_eff = DenseOperator(h_t.layout, hermitize(b @ m @ b.conj().T), hermitian=True, validate=False)
    orders = tuple(sw_series(prob, 1))
    # the bounds at truncation orders 0 and 1, for sw_bounds; h_eff and the series
    # terms act within the span of b and h0 b, and one D x D remainder is held at a time
    factor = 1.0 + prob.lambda0 / (np.pi * prob.delta)
    s_bound = cfg.c_sw * prob.h1_norm / prob.delta * factor
    span, _ = np.linalg.qr(np.hstack([b, prob.h0.entries @ b]))
    bounds = {}
    for order in range(len(orders)):
        rest = span.conj().T @ (h_eff.entries - sum(t.entries for t in orders[: order + 1]))
        trunc_bound = cfg.c_sw * prob.delta ** (-order) * prob.h1_norm ** (order + 1) * factor
        bounds[order] = {
            "s_norm_measured": s_norm,
            "s_norm_bound": float(s_bound),
            "truncation_order": float(order),
            "truncation_measured": _norm(rest @ span),
            "truncation_bound": float(trunc_bound),
        }
    prob._bounds[cfg] = bounds
    s = q @ s_small @ q.conj().T
    return SWExpansion(
        s_exact=(s - s.conj().T) / 2,
        h_eff_exact=h_eff,
        h_eff_orders=orders,
        bounds=dict(bounds[SW_ORDER]),
        problem=prob,
    )


@dataclass(frozen=True)
class SWBounds:
    s_norm_measured: float
    s_norm_bound: float
    truncation_measured: float
    truncation_bound: float
    order: int

    @property
    def ok(self) -> bool:
        return (
            self.s_norm_measured <= self.s_norm_bound + 1e-12
            and self.truncation_measured <= self.truncation_bound + 1e-12
        )


def sw_bounds(prob: SWProblem, k: int = 1, config: Config | None = None) -> SWBounds:
    """Evaluate the |S| and order-k truncation bounds next to their measured values.

    sw_exact measures both orders; its values on prob are reused, and it runs
    only on a problem it has not measured yet.
    """
    if not 0 <= k <= 1:
        raise ValueError(f"truncation order {k} is not 0 or 1: higher orders are out of scope")
    cfg = config or DEFAULT
    if cfg not in prob._bounds:
        sw_exact(prob, cfg)
    values = prob._bounds[cfg][k]
    return SWBounds(
        s_norm_measured=values["s_norm_measured"],
        s_norm_bound=values["s_norm_bound"],
        truncation_measured=values["truncation_measured"],
        truncation_bound=values["truncation_bound"],
        order=k,
    )
