"""Complex operator algebra on multi-site layouts: dense, and clock-block sparse.

Conventions used throughout the package:
  * little-endian site ordering: site 0 is the fastest-varying index of the
    flattened Hilbert space, so an operator O on site 1 of a two-site system
    has matrix kron(O, eye(d0));
  * Hermitian eigendecompositions are deterministic: ascending eigenvalues,
    degenerate clusters ordered by the index of each vector's first
    significant component, phases fixed so that component is real positive.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import InitVar, dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .config import DEFAULT, Config

PHASE_TOL = 1e-8  # first component above this magnitude anchors the phase
ZERO_ANGLE = 1e-13  # a principal-angle sine at or below this is rounding: no rotation there

_log = logging.getLogger("hamuniv")


class DimensionCapError(ValueError):
    """A construction would exceed the configured dense-dimension cap."""


class ClusterSplitError(ValueError):
    """A spectral threshold lands inside a degeneracy cluster."""


class SpectrumCertificateError(ValueError):
    """A low-spectrum result cannot be certified.

    An eigenvalue count made apart from the eigensolver contradicts it, or the
    iterative solver did not converge.
    """


@cache
def _scipy_blas_thread_control():
    """(get, set) of scipy's bundled OpenBLAS thread count as ctypes functions, or None.

    The scipy wheel bundles its own OpenBLAS, apart from numpy's, and
    exports its thread control under the scipy_openblas_ prefix. Any other
    BLAS (a system OpenBLAS that numpy may share, MKL, Accelerate) lacks
    those names, and its threads are not controlled here.
    """
    # imported here: only the sparse solve asks, and only once per process
    import ctypes

    import scipy.linalg.cython_blas

    lib = ctypes.CDLL(scipy.linalg.cython_blas.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads", None)
    if get is None or set_ is None:
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@contextmanager
def _serial_scipy_blas():
    """Hold scipy's OpenBLAS to one thread inside the block, then restore its count.

    numpy and scipy each bundle an OpenBLAS with its own thread pool, and a
    pool's workers spin-wait after every threaded call. A sparse solve that
    switches between scipy (SuperLU, zhetrf/zhetri) and numpy (GEMM, QR)
    every millisecond keeps both pools spinning, one worker per pool next to
    the main thread. Holding scipy's pool to one thread leaves numpy's, and
    the dense solvers, all the cores. Yields (count on entry, count inside),
    both None where scipy's BLAS is not the bundled OpenBLAS.
    """
    control = _scipy_blas_thread_control()
    if control is None:
        yield None, None
        return
    get, set_ = control
    previous = get()
    set_(1)
    try:
        yield previous, get()
    finally:
        set_(previous)


@cache
def _glibc():
    """The C library through ctypes, its malloc thresholds fixed, where it is glibc; else None.

    glibc raises its mmap threshold to the largest mapped block freed so far
    (up to 32 MiB) and keeps twice that free at the top of the heap. Once a
    sparse solve frees its 7 MB factor arrays, later factors land in the heap,
    whose layout, different in every process, decides whether their pages go
    back to the system: the peak RSS of three end_to_end calls varied by 6 MB
    from run to run. Fixed at 3 MiB and 6 MiB, larger blocks are mapped on
    their own, and the smaller D x m solve blocks still reuse the heap.
    """
    import ctypes  # imported here: only the sparse solve asks, once per process

    libc = ctypes.CDLL(None)
    if getattr(libc, "gnu_get_libc_version", None) is None:
        return None
    libc.mallopt(-3, 3 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 6 << 20)  # M_TRIM_THRESHOLD
    return libc


@contextmanager
def _steady_heap():
    """Run the block under glibc's fixed malloc thresholds and return its freed heap pages on exit."""
    libc = _glibc()
    try:
        yield
    finally:
        if libc is not None:
            libc.malloc_trim(0)


@dataclass(frozen=True)
class Register:
    """Named contiguous range of sites with a role tag (witness, clock, ...)."""

    name: str
    sites: tuple[int, ...]
    role: str = ""

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        if len(sites) == 0:
            raise ValueError(f"register {self.name!r} has no sites")
        if list(sites) != list(range(sites[0], sites[0] + len(sites))):
            raise ValueError(f"register {self.name!r} sites {sites} not contiguous ascending")


@dataclass(frozen=True)
class SystemLayout:
    """Ordered site dimensions plus named registers; the coordinate system of every operator."""

    site_dims: tuple[int, ...]
    registers: tuple[Register, ...] = ()
    dim_cap: int = DEFAULT.dim_cap

    def __post_init__(self):
        dims = tuple(int(d) for d in self.site_dims)
        object.__setattr__(self, "site_dims", dims)
        object.__setattr__(self, "registers", tuple(self.registers))
        if any(d < 2 for d in dims):
            raise ValueError(f"site dimensions must be >= 2, got {dims}")
        total = 1
        for d in dims:
            total *= d
            if total > self.dim_cap:
                raise DimensionCapError(
                    f"total dimension {'x'.join(map(str, dims))} exceeds cap {self.dim_cap}"
                )
        seen: set[int] = set()
        for reg in self.registers:
            for s in reg.sites:
                if not 0 <= s < len(dims):
                    raise ValueError(f"register {reg.name!r} site {s} outside layout")
                if s in seen:
                    raise ValueError(f"site {s} belongs to more than one register")
                seen.add(s)

    @property
    def n_sites(self) -> int:
        return len(self.site_dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.site_dims, dtype=np.int64))

    def register(self, name: str) -> Register:
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise KeyError(f"no register named {name!r}")

    def strides(self) -> np.ndarray:
        """stride[k] multiplies site k's digit in the flat index (little-endian)."""
        return np.concatenate(([1], np.cumprod(self.site_dims[:-1]))).astype(np.int64)

    def digit_table(self) -> np.ndarray:
        """(n_sites, total_dim) array: digit_table[k, i] is site k's digit of index i."""
        out = np.empty((self.n_sites, self.total_dim), dtype=np.int64)
        rem = np.arange(self.total_dim, dtype=np.int64)
        for k, d in enumerate(self.site_dims):
            out[k] = rem % d
            rem //= d
        return out

    def basis_index(self, digits: dict[int, int]) -> int:
        """Flat index of the product basis state with the given site digits (others 0)."""
        strides = self.strides()
        idx = 0
        for site, digit in digits.items():
            if not 0 <= digit < self.site_dims[site]:
                raise ValueError(f"digit {digit} out of range for site {site}")
            idx += digit * strides[site]
        return int(idx)


def basis_vector(layout: SystemLayout, digits: dict[int, int] | None = None) -> np.ndarray:
    vec = np.zeros(layout.total_dim, dtype=complex)
    vec[layout.basis_index(digits or {})] = 1.0
    return vec


@dataclass(frozen=True)
class DenseOperator:
    """Complex square matrix tagged with its layout and a Hermitian flag.

    validate=False skips the Hermitian residual check and the defensive copy;
    it is for internal constructors that hand over ownership of an array that
    is Hermitian by construction.
    """

    layout: SystemLayout
    entries: np.ndarray
    hermitian: bool = False
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool = True):
        m = np.asarray(self.entries, dtype=complex)
        d = self.layout.total_dim
        if m.shape != (d, d):
            raise ValueError(f"entries shape {m.shape} does not match layout dimension {d}")
        if validate:
            if self.hermitian:
                scale = np.abs(m).max()
                asym = np.abs(m - m.conj().T).max()
                if scale > 0 and asym > 1e-12 * scale:
                    raise ValueError(
                        "operator flagged hermitian is not hermitian to 1e-12 (max norm): "
                        f"max asymmetry {asym:.3e}"
                    )
            m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, vectors) of np.linalg.eigh, computed once: the entries are read-only."""
        if not self.hermitian:
            raise ValueError("spectrum requires the hermitian flag")
        values, vectors = np.linalg.eigh(self.entries)
        values.flags.writeable = False
        vectors.flags.writeable = False
        return values, vectors

    @classmethod
    def identity(cls, layout: SystemLayout) -> "DenseOperator":
        return cls(layout, np.eye(layout.total_dim, dtype=complex), hermitian=True)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Average away sub-tolerance asymmetry accumulated by sums of products."""
    return (m + m.conj().T) / 2


@dataclass(frozen=True)
class ClockBlocks:
    """Hermitian operator on a clock-subspace layout, stored by clock blocks.

    The clock is the slowest site, so flat index = circuit index + c_dim * t.
    diag[t] is the block <t|H|t> and lower[t - 1] the block <t|H|t-1>, both
    sparse c_dim x c_dim; the upper blocks are their adjoints and blocks more
    than one clock step apart vanish. floor is a lower bound on the spectrum
    that the algebra below carries along (0 for the positive semidefinite
    clock-Hamiltonian terms).
    """

    layout: SystemLayout
    diag: tuple
    lower: tuple
    floor: float

    @property
    def c_dim(self) -> int:
        return self.diag[0].shape[0]

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def __add__(self, other: "ClockBlocks") -> "ClockBlocks":
        return ClockBlocks(
            self.layout,
            tuple(a + b for a, b in zip(self.diag, other.diag)),
            tuple(a + b for a, b in zip(self.lower, other.lower)),
            self.floor + other.floor,
        )

    def __rmul__(self, c: float) -> "ClockBlocks":
        if c < 0:
            raise ValueError("a negative multiple has no floor from this one")
        return ClockBlocks(
            self.layout,
            tuple(c * a for a in self.diag),
            tuple(c * b for b in self.lower),
            c * self.floor,
        )

    def plus_diagonal(self, values: np.ndarray | float) -> "ClockBlocks":
        """self + diag(values); a scalar shifts every diagonal entry."""
        values = np.broadcast_to(np.asarray(values, dtype=float), (self.dim,))
        c = self.c_dim
        diag = tuple(
            (a + scipy.sparse.diags(values[t * c : (t + 1) * c])).tocsr()
            for t, a in enumerate(self.diag)
        )
        return ClockBlocks(self.layout, diag, self.lower, self.floor + float(values.min()))

    def sparse(self) -> scipy.sparse.csc_matrix:
        n = len(self.diag)
        grid = [[None] * n for _ in range(n)]
        for t, a in enumerate(self.diag):
            grid[t][t] = a
        for t, b in enumerate(self.lower, start=1):
            grid[t][t - 1] = b
            grid[t - 1][t] = b.conj().T
        return scipy.sparse.bmat(grid, format="csc")

    def dense(self) -> np.ndarray:
        out = self.sparse().toarray()
        # conj() turns the +0.0 imaginary parts of real entries into -0.0;
        # adding 0.0 restores them, so the dense matrix (and a dense
        # eigensolver's output) does not depend on which triangle held a block
        out += 0.0
        return out

    def negative_count(self, mu: float) -> int:
        """Number of eigenvalues below mu, from the inertia of a block LDL^dag of H - mu.

        Haynsworth additivity: the inertia of H - mu is the sum of the
        inertias of the clock-block Schur complements S_0 = A_0 - mu,
        S_t = A_t - mu - B_t S_(t-1)^-1 B_t^dag. Each S_t stays sparse and is
        split into the connected components of its sparsity pattern; a
        permutation similarity makes it block diagonal, so its inertia is
        the sum of the components' (Sylvester, Haynsworth). A one-index
        component is read off the diagonal; a larger one is factored once by
        Bunch-Kaufman (zhetrf), whose block-diagonal factor has its inertia,
        and zhetri turns that factor into the component's inverse. The
        block-diagonal S_t^-1 keeps the next update a sparse product. When
        nothing splits, S_t is one component with one dense factorization.

        Dense off-diagonal blocks B_t are not optimized for: each update is
        then a dense product carried in sparse storage, and at c_dim = 648 one
        count takes 8.5 s against 2.0 s for a dense count. No Hamiltonian
        this package builds has such blocks.
        """
        count = 0
        largest = []
        schur = None
        identity = scipy.sparse.identity(self.c_dim, format="csr")
        for t, a in enumerate(self.diag):
            s = a - mu * identity
            if schur is not None:
                s = s - schur
            invert = t < len(self.lower)
            try:
                negatives, size, inverse = _component_inertia(s.tocsr(), invert)
            except np.linalg.LinAlgError:
                raise SpectrumCertificateError(
                    f"Schur complement {t} is singular at {mu}"
                ) from None
            count += negatives
            largest.append(size)
            if invert:
                b = self.lower[t]
                schur = b @ inverse @ b.conj().T
        _log.debug(
            "inertia count: %d eigenvalues below %.6g, %d Schur steps, "
            "largest component per step %s",
            count, mu, len(largest), largest,
        )
        return count


def _component_inertia(
    s: scipy.sparse.csr_matrix, invert: bool
) -> tuple[int, int, scipy.sparse.csr_matrix | None]:
    """(negative eigenvalues, largest component, s^-1 or None) of a sparse Hermitian s.

    The components of s's sparsity pattern are gathered, grouped by size, into
    dense blocks and each block is factored once; raises LinAlgError when s is
    singular.
    """
    # imported here: only the count needs it, and csgraph brings
    # scipy.sparse.linalg with it, about 3 MB resident in every process
    from scipy.sparse.csgraph import connected_components

    pattern = scipy.sparse.csr_matrix(
        (np.ones(s.nnz, dtype=np.int8), s.indices, s.indptr), shape=s.shape
    )
    _, labels = connected_components(pattern, directed=False)
    node_size = np.bincount(labels)[labels]  # the size of each node's component

    single = np.flatnonzero(node_size == 1)
    d = np.real(s.diagonal()[single])
    if np.any(d == 0):
        raise np.linalg.LinAlgError("zero pivot")
    negatives = int(np.count_nonzero(d < 0))
    rows, cols, values = [single], [single], [1.0 / d]

    for k in np.unique(node_size[node_size > 1]):
        nodes = np.flatnonzero(node_size == k)
        # one row per component, its nodes ascending
        members = nodes[np.argsort(labels[nodes], kind="stable")].reshape(-1, k)
        part = s[members.ravel()][:, members.ravel()].tocoo()  # block diagonal
        blocks = np.zeros((len(members), k, k), dtype=complex)
        blocks[part.row // k, part.row % k, part.col % k] = part.data
        # the Bunch-Kaufman factors' diagonals, subdiagonals and pivots, end to end
        diag = np.empty((len(members), k))
        sub = np.zeros((len(members), k))
        pivots = np.empty((len(members), k), dtype=np.intc)
        lwork = int(scipy.linalg.lapack.zhetrf_lwork(k, lower=1)[0].real)
        for j, block in enumerate(blocks):
            ldu, ipiv, info = scipy.linalg.lapack.zhetrf(block, lower=1, lwork=lwork)
            if info != 0:
                raise np.linalg.LinAlgError("zero pivot")
            diag[j], sub[j, :-1], pivots[j] = ldu.diagonal().real, np.abs(ldu.diagonal(-1)), ipiv
            if invert:  # zhetri fills the lower triangle of the inverse
                block[:] = scipy.linalg.lapack.zhetri(ldu, ipiv, lower=1, overwrite_a=1)[0]
        negatives += _bunch_kaufman_negatives(diag.ravel(), sub.ravel(), pivots.ravel())
        if invert:
            upper = np.triu_indices(k, 1)
            blocks[:, upper[0], upper[1]] = blocks[:, upper[1], upper[0]].conj()
            rows.append(np.broadcast_to(members[:, :, None], blocks.shape).ravel())
            cols.append(np.broadcast_to(members[:, None, :], blocks.shape).ravel())
            values.append(blocks.ravel())
    inverse = None
    if invert:
        inverse = scipy.sparse.csr_matrix(
            (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))), shape=s.shape
        )
    return negatives, int(node_size.max()), inverse


def _bunch_kaufman_negatives(d: np.ndarray, sub: np.ndarray, ipiv: np.ndarray) -> int:
    """Negative eigenvalues of the 1x1 / 2x2 block-diagonal factors of lower zhetrf calls.

    d is the real diagonal, sub the absolute subdiagonal and ipiv the pivots
    of one factor or of several laid end to end; no 2x2 block straddles two.
    """
    count = 0
    k = 0
    while k < len(d):
        if ipiv[k] < 0:  # 2x2 block on rows k, k+1
            det = d[k] * d[k + 1] - sub[k] ** 2
            count += 1 if det < 0 else 2 * int(d[k] < 0)
            k += 2
        else:
            count += int(d[k] < 0)
            k += 1
    return count


@dataclass(frozen=True)
class EigenSystem:
    """Deterministic spectral data of a Hermitian operator."""

    values: np.ndarray
    vectors: np.ndarray  # orthonormal columns, vectors[:, i] <-> values[i]
    source: DenseOperator


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis with its projector."""

    basis: np.ndarray  # shape (D, dim)
    projector: DenseOperator
    dim: int

    @classmethod
    def from_basis(cls, layout: SystemLayout, basis: np.ndarray) -> "Subspace":
        b = np.asarray(basis, dtype=complex)
        if b.ndim == 1:
            b = b[:, None]
        gram = b.conj().T @ b
        if np.abs(gram - np.eye(b.shape[1])).max() > 1e-10:
            raise ValueError("basis columns are not orthonormal to 1e-10")
        proj = DenseOperator(layout, hermitize(b @ b.conj().T), hermitian=True)
        return cls(basis=b, projector=proj, dim=b.shape[1])


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        a = col[_first_significant(col)]
        if abs(a) > 0:
            out[:, i] = col * (a.conjugate() / abs(a))
    return out


def _first_significant(col: np.ndarray) -> int:
    sig = np.nonzero(np.abs(col) > PHASE_TOL)[0]
    return int(sig[0]) if sig.size else int(np.argmax(np.abs(col)))


def cluster_bounds(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Half-open [start, stop) index ranges of degeneracy clusters in ascending values."""
    bounds = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            bounds.append((start, i))
            start = i
    bounds.append((start, len(values)))
    return bounds


def guard_cut(
    values: np.ndarray, k: int, config: Config | None = None, slack: float = 0.0
) -> None:
    """Raise ClusterSplitError when a cut after the k lowest ascending values splits a cluster.

    The cut is sound when values[k] - values[k-1] exceeds
    cluster_rtol * max(1, max |values|) + slack; a cut at either end is.
    """
    if not 0 < k < len(values):
        return
    tol = (config or DEFAULT).cluster_rtol * max(1.0, float(np.abs(values).max())) + slack
    if values[k] - values[k - 1] <= tol:
        raise ClusterSplitError(
            f"cut after {k} eigenvalues splits a degeneracy cluster: "
            f"{values[k - 1]} and {values[k]} lie within {tol:.3e}"
        )


def eigh(op: DenseOperator, config: Config | None = None) -> EigenSystem:
    """Full Hermitian eigendecomposition with the deterministic ordering/phase convention."""
    if not op.hermitian:
        raise ValueError("eigh requires the hermitian flag")
    cfg = config or DEFAULT
    values, vectors = np.linalg.eigh(op.entries)
    vectors = _fix_phases(vectors)
    tol = cfg.cluster_rtol * max(1.0, float(np.abs(values).max(initial=0.0)))
    for start, stop in cluster_bounds(values, tol):
        if stop - start > 1:
            keys = [_first_significant(vectors[:, j]) for j in range(start, stop)]
            order = np.argsort(keys, kind="stable") + start
            vectors[:, start:stop] = vectors[:, order]
    values = values.copy()
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenSystem(values=values, vectors=vectors, source=op)


def op_norm(op: DenseOperator | np.ndarray) -> float:
    """Largest singular value."""
    m = op.entries if isinstance(op, DenseOperator) else np.asarray(op)
    return float(np.linalg.norm(m, 2))


def expm_i(op: DenseOperator, t: float) -> DenseOperator:
    """exp(i H t) via eigendecomposition; exact unitarity up to rounding."""
    if not op.hermitian:
        raise ValueError("expm_i requires a Hermitian operator")
    values, vectors = np.linalg.eigh(op.entries)
    u = (vectors * np.exp(1j * values * t)) @ vectors.conj().T
    return DenseOperator(op.layout, u, hermitian=False)


def sparse_embed(
    local_op: DenseOperator, target_sites: tuple[int, ...] | list[int], layout: SystemLayout
) -> scipy.sparse.csr_matrix:
    """CSR matrix of an operator on target_sites embedded in the full layout (identity elsewhere).

    The local operator's own layout lists the target sites' dimensions in
    target order, with target_sites[0] the fastest-varying local index. Each
    nonzero local entry is stored once per basis state of the other sites,
    bit for bit; zero local entries are not stored.
    """
    targets = tuple(int(t) for t in target_sites)
    if len(set(targets)) != len(targets):
        raise ValueError("target sites must be distinct")
    for t in targets:
        if not 0 <= t < layout.n_sites:
            raise ValueError(f"target site {t} outside layout")
    local_dims = tuple(layout.site_dims[t] for t in targets)
    if local_op.layout.site_dims != local_dims:
        raise ValueError(
            f"local operator dims {local_op.layout.site_dims} do not match "
            f"target site dims {local_dims}"
        )
    # flat index = offset of the target sites' digits + offset of the other sites' digits
    strides = layout.strides()
    rest = [s for s in range(layout.n_sites) if s not in targets]
    rest_layout = SystemLayout(tuple(layout.site_dims[s] for s in rest), dim_cap=layout.dim_cap)
    loc_offset = local_op.layout.digit_table().T @ strides[list(targets)]
    rest_offset = rest_layout.digit_table().T @ strides[rest]
    a, b = np.nonzero(local_op.entries)
    rows = (loc_offset[a, None] + rest_offset).ravel()
    cols = (loc_offset[b, None] + rest_offset).ravel()
    data = np.repeat(local_op.entries[a, b], rest_offset.size)
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(layout.total_dim,) * 2)


def tensor_embed(
    local_op: DenseOperator, target_sites: tuple[int, ...] | list[int], layout: SystemLayout
) -> DenseOperator:
    """sparse_embed(local_op, target_sites, layout) as a dense operator."""
    emb = sparse_embed(local_op, target_sites, layout).tocoo()
    out = np.zeros(emb.shape, dtype=complex)
    # assigned, not summed into zeros as toarray() does, which would turn -0.0 into +0.0
    out[emb.row, emb.col] = emb.data
    return DenseOperator(layout, out, hermitian=local_op.hermitian)


def subspace_distance(s1: Subspace, s2: Subspace) -> float:
    """Operator norm of the projector difference (sine of the largest principal angle)."""
    p1, p2 = s1.projector.entries, s2.projector.entries
    if p1.shape != p2.shape:
        raise ValueError("subspaces live in different ambient dimensions")
    return float(np.linalg.norm(p1 - p2, 2))


@dataclass(frozen=True)
class DirectRotation:
    """Unitary acting as w_small on span(q_span) and as the identity elsewhere.

    q_span is the first basis followed by an orthonormal basis of the second
    one's directions off it at a nonzero principal angle. The rotation is
    nontrivial only there, so it is kept factored.
    """

    q_span: np.ndarray  # orthonormal columns, shape (D, r)
    w_small: np.ndarray  # r x r unitary
    dim: int

    def apply_left(self, m: np.ndarray) -> np.ndarray:
        """W @ m without forming the D x D matrix."""
        qm = self.q_span.conj().T @ m
        return m + self.q_span @ (self.w_small @ qm - qm)


def _principal_residual(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a^dag b, b - a a^dag b) for orthonormal a and b, b no wider than a: the cosines and the
    sines of the principal angles, the sines accurate at small angles (Knyazev & Argentati 2002)."""
    x = a.conj().T @ b
    return x, b - a @ x


def _norm_tall(r: np.ndarray) -> float:
    """Largest singular value of a tall matrix, from its column Gram matrix; 0 without columns."""
    return float(np.sqrt(max(np.linalg.eigvalsh(r.conj().T @ r).max(initial=0.0), 0.0)))


def direct_rotation_factored(basis_from: np.ndarray, basis_to: np.ndarray) -> DirectRotation:
    """Factored polar form of P_to P_from + (1 - P_to)(1 - P_from), the identity at zero angles:
    q_span keeps only the residual's directions whose sines exceed ZERO_ANGLE."""
    if basis_from.shape != basis_to.shape:
        raise ValueError(f"subspace shapes differ: {basis_from.shape} vs {basis_to.shape}")
    d, w = basis_from.shape
    x, resid = _principal_residual(basis_from, basis_to)
    e, sines, _ = np.linalg.svd(resid, full_matrices=False)
    e = e[:, sines > ZERO_ANGLE]
    # a small sine leaves its direction off span(basis_from) only to rounding / sine
    e = np.linalg.qr(e - basis_from @ (basis_from.conj().T @ e))[0]
    q = np.hstack([basis_from, e])
    bt = np.vstack([x, e.conj().T @ basis_to])  # basis_to in q coordinates
    p_to = bt @ bt.conj().T
    # P_from is the identity on the first w coordinates of q and 0 on the rest
    a_small = np.hstack([p_to[:, :w], (np.eye(q.shape[1]) - p_to)[:, w:]])
    u, s, vh = np.linalg.svd(a_small)
    if s.size and s.min() <= 1e-12:
        raise ValueError("subspace distance >= 1: direct rotation not uniquely defined")
    return DirectRotation(q_span=q, w_small=u @ vh, dim=d)


def direct_rotation(s_from: Subspace, s_to: Subspace) -> DenseOperator:
    """Minimal unitary W with W P_from W^dag = P_to (polar form of the direct rotation).

    W is the unitary polar factor of P_to P_from + (1 - P_to)(1 - P_from),
    defined whenever the subspace distance is below 1, and satisfies
    |W - 1| <= sqrt(2) |P_from - P_to|.
    """
    rot = direct_rotation_factored(s_from.basis, s_to.basis)
    w = rot.apply_left(np.eye(rot.dim, dtype=complex))
    return DenseOperator(s_from.projector.layout, w, hermitian=False)


def projector_distance_from_bases(b1: np.ndarray, b2: np.ndarray) -> float:
    """|B1 B1^dag - B2 B2^dag|, the larger of |(1 - P1) B2| and |(1 - P2) B1|, for any widths."""
    return max(_norm_tall(_principal_residual(a, b)[1]) for a, b in ((b1, b2), (b2, b1)))
