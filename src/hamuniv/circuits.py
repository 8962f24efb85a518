"""Gate-level circuit model, verifier circuits, acceptance operators, idling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config
from .operators import (
    DenseOperator,
    EigenSystem,
    SystemLayout,
    _site_offsets,
    eigh,
    hermitize,
    tensor_embed,
)

UNITARITY_TOL = 1e-10
ACCEPT_TOL = 1e-9  # an acceptance eigenvalue within this of completeness accepts


def _unitarity_defect(u: np.ndarray) -> float:
    """|U^dag U - I|_F of a square U. Entry (j, k) of U^dag U sums conj(U[i, j]) U[i, k]
    over the rows i, one term per pair of nonzeros in a row; where those terms outnumber
    the n^2 entries of U^dag U, the dense product is formed instead, in as much memory."""
    n = len(u)
    # row-major nonzero entries: the halved flat indices of nonzero float parts
    flat = np.flatnonzero(np.ascontiguousarray(u).view(float) != 0) >> 1
    rows, cols = np.divmod(np.unique(flat), n)
    width = np.bincount(rows, minlength=n)[rows]  # the nonzeros in each one's row
    if width.sum() > n * n:
        return float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    left = np.repeat(np.arange(rows.size), width)  # each nonzero once per partner in its row
    first = np.searchsorted(rows, rows) - np.cumsum(width) + width  # row start, less group start
    right = np.repeat(first, width) + np.arange(left.size)
    keys, slot = np.unique(cols[left] * n + cols[right], return_inverse=True)
    terms = u[rows[left], cols[left]].conj() * u[rows[right], cols[right]]
    gram = np.bincount(slot, terms.real) + 1j * np.bincount(slot, terms.imag)
    on_diagonal = keys % (n + 1) == 0  # key j n + j
    gram[on_diagonal] -= 1.0
    # a diagonal entry of U^dag U without terms is 0, one away from the identity's
    return float(np.sqrt(np.vdot(gram, gram).real + (n - np.count_nonzero(on_diagonal))))


@dataclass(frozen=True)
class Gate:
    """A unitary on a tuple of target sites; targets[0] is the fastest local index."""

    unitary: DenseOperator
    targets: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"gate {self.label!r}: duplicate target sites {targets}")
        u = self.unitary.entries
        # the Frobenius norm of U^dag U - I bounds its 2-norm from above: the
        # dense product and its SVD run only when it fails
        if _unitarity_defect(u) > UNITARITY_TOL and (
            np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2) > UNITARITY_TOL
        ):
            raise ValueError(f"gate {self.label!r} is not unitary to {UNITARITY_TOL}")

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        targets: tuple[int, ...],
        layout: SystemLayout,
        label: str = "",
    ) -> "Gate":
        local_dims = tuple(layout.site_dims[t] for t in targets)
        local_layout = SystemLayout(local_dims, dim_cap=layout.dim_cap)
        return cls(DenseOperator(local_layout, matrix), tuple(targets), label)

    def is_identity(self) -> bool:
        u = self.unitary.entries
        return bool(np.abs(u - np.eye(u.shape[0])).max() <= 1e-9)


def identity_gate(layout: SystemLayout, site: int, label: str = "idle") -> Gate:
    return Gate.from_matrix(np.eye(layout.site_dims[site], dtype=complex), (site,), layout, label)


@dataclass(frozen=True)
class VerifierCircuit:
    """Gate sequence with witness/ancilla roles and a designated output site.

    All non-witness sites are ancillas initialized to |0>; acceptance is
    projection onto |1> of output_site after the last gate. witness_register
    may name several layout registers; the witness space is their union,
    ordered by site index.
    """

    layout: SystemLayout
    gates: tuple[Gate, ...]
    witness_register: tuple[str, ...]
    output_site: int
    completeness: float
    soundness: float

    def __post_init__(self):
        wr = self.witness_register
        object.__setattr__(self, "witness_register", (wr,) if isinstance(wr, str) else tuple(wr))
        object.__setattr__(self, "gates", tuple(self.gates))
        if len(self.gates) < 1:
            raise ValueError("a verifier circuit needs at least one gate (T >= 1)")
        if not 0 < self.completeness <= 1:
            raise ValueError(f"completeness {self.completeness} not in (0, 1]")
        if not 0 <= self.soundness < self.completeness:
            raise ValueError("soundness must satisfy 0 <= s < c")
        if not 0 <= self.output_site < self.layout.n_sites:
            raise ValueError(f"output site {self.output_site} outside layout")
        witness = self.witness_sites
        if self.output_site in witness:
            raise ValueError("output site cannot be part of the witness register")
        for g in self.gates:
            for t, d in zip(g.targets, g.unitary.layout.site_dims):
                if self.layout.site_dims[t] != d:
                    raise ValueError(f"gate {g.label!r} dimension mismatch at site {t}")

    @property
    def n_steps(self) -> int:
        return len(self.gates)

    @property
    def witness_sites(self) -> tuple[int, ...]:
        sites: list[int] = []
        for name in self.witness_register:
            sites.extend(self.layout.register(name).sites)
        return tuple(sorted(sites))

    @property
    def ancilla_sites(self) -> tuple[int, ...]:
        witness = set(self.witness_sites)
        return tuple(s for s in range(self.layout.n_sites) if s not in witness)

    @property
    def witness_dim(self) -> int:
        return int(np.prod([self.layout.site_dims[s] for s in self.witness_sites], dtype=np.int64))

    def witness_layout(self) -> SystemLayout:
        dims = tuple(self.layout.site_dims[s] for s in self.witness_sites)
        return SystemLayout(dims, dim_cap=self.layout.dim_cap)


@dataclass(frozen=True)
class AcceptanceOperator:
    """Q(U) on the witness space; <psi|Q|psi> is the accept probability of |psi>."""

    q: DenseOperator
    eigen: EigenSystem

    def __post_init__(self):
        vals = self.eigen.values
        if vals.size and (vals.min() < -1e-9 or vals.max() > 1 + 1e-9):
            raise ValueError("acceptance operator spectrum leaves [0, 1]")


def apply_gate_to_vector(vec: np.ndarray, gate: Gate, layout: SystemLayout) -> np.ndarray:
    """Apply an embedded gate to a statevector without forming the full matrix.

    `vec` is one (D,) state or a (D, n) block of states as columns; the column
    axis trails through the contraction, so a block costs one pass.
    """
    dims = layout.site_dims
    n = len(dims)
    k = len(gate.targets)
    psi = vec.reshape(tuple(reversed(dims)) + vec.shape[1:])  # tensor axis a holds site n-1-a
    local_dims = gate.unitary.layout.site_dims
    g = gate.unitary.entries.reshape(tuple(reversed(local_dims)) * 2)
    # column axis k+i of g corresponds to target[k-1-i]
    axes_psi = [n - 1 - gate.targets[k - 1 - i] for i in range(k)]
    out = np.tensordot(g, psi, axes=(list(range(k, 2 * k)), axes_psi))
    # row axis i of out corresponds to target[k-1-i]; put it back in place
    dest = [n - 1 - gate.targets[k - 1 - i] for i in range(k)]
    return np.moveaxis(out, list(range(k)), dest).reshape(vec.shape)


def compile_gates(layout: SystemLayout, gates: tuple[Gate, ...] | list[Gate]) -> DenseOperator:
    """Product of embedded gate unitaries in time order (empty product = identity)."""
    u = np.eye(layout.total_dim, dtype=complex)
    for gate in gates:
        u = tensor_embed(gate.unitary, gate.targets, layout).entries @ u
    return DenseOperator(layout, u, hermitian=False)


def compile_unitary(circuit: VerifierCircuit) -> DenseOperator:
    return compile_gates(circuit.layout, circuit.gates)


def initial_state(circuit: VerifierCircuit, witness: np.ndarray) -> np.ndarray:
    """Full-space state with ancillas in |0> and the witness register in `witness`.

    A (w,) witness gives a (D,) state; a (w, n) block of witnesses as columns
    gives the (D, n) block of their states.
    """
    witness = np.asarray(witness, dtype=complex)
    if witness.shape[0] != circuit.witness_dim:
        raise ValueError(f"witness dimension {witness.shape[0]} != {circuit.witness_dim}")
    layout = circuit.layout
    vec = np.zeros((layout.total_dim,) + witness.shape[1:], dtype=complex)
    vec[_site_offsets(layout, circuit.witness_sites)] = witness  # the flat witness indices
    return vec


def run_circuit(circuit: VerifierCircuit, witness: np.ndarray) -> np.ndarray:
    state = initial_state(circuit, witness)
    for gate in circuit.gates:
        state = apply_gate_to_vector(state, gate, circuit.layout)
    return state


def acceptance_operator(circuit: VerifierCircuit, config: Config | None = None) -> AcceptanceOperator:
    """Q(U) = <0|_anc U^dag P_out U |0>_anc on the witness space.

    The circuit runs once, on the (D, w) block of all witness basis states.
    """
    columns = run_circuit(circuit, np.eye(circuit.witness_dim, dtype=complex))
    accept_mask = circuit.layout.digit_table()[circuit.output_site] == 1
    q = hermitize(columns.conj().T @ (accept_mask[:, None] * columns))
    q_op = DenseOperator(circuit.witness_layout(), q, hermitian=True, validate=False)
    return AcceptanceOperator(q=q_op, eigen=eigh(q_op, config))


@dataclass(frozen=True)
class AcceptanceGap:
    """Gap below completeness: g = c - max{eigenvalue < c}, or ungapped if none."""

    gapped: bool
    gap: float | None
    eigenvalues: np.ndarray
    completeness: float


def acceptance_gap(acc: AcceptanceOperator, c: float) -> AcceptanceGap:
    vals = acc.eigen.values
    below = vals[vals < c - ACCEPT_TOL]
    if below.size == 0:
        return AcceptanceGap(gapped=False, gap=None, eigenvalues=vals, completeness=c)
    return AcceptanceGap(gapped=True, gap=float(c - below.max()), eigenvalues=vals, completeness=c)


def accepting_eigenvectors(acc: AcceptanceOperator, c: float) -> np.ndarray:
    """Columns spanning {|phi> : Q|phi> = lambda|phi>, lambda >= c} (numerically c - ACCEPT_TOL)."""
    keep = acc.eigen.values >= c - ACCEPT_TOL
    return acc.eigen.vectors[:, keep]


def idle_prefix(circuit: VerifierCircuit, idle_steps: int) -> VerifierCircuit:
    """Prepend identity gates so the computation idles before running."""
    if idle_steps < 0:
        raise ValueError("idle step count must be >= 0")
    if idle_steps == 0:
        return circuit
    idles = tuple(identity_gate(circuit.layout, circuit.output_site) for _ in range(idle_steps))
    return VerifierCircuit(
        layout=circuit.layout,
        gates=idles + circuit.gates,
        witness_register=circuit.witness_register,
        output_site=circuit.output_site,
        completeness=circuit.completeness,
        soundness=circuit.soundness,
    )
