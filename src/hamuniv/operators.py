"""Complex operators on multi-site layouts: dense algebra, and sparse Hermitian inertia counts.

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
    switches between scipy (SuperLU, the first step's QR) and numpy (GEMM)
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
                _hermitian(m, "operator flagged hermitian")
            m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, vectors) of np.linalg.eigh, computed once from the read-only entries; without
        the hermitian flag, ValueError (_hermitian), since eigh reads only the lower triangle."""
        values, vectors = np.linalg.eigh(_hermitian(self, "operator"))
        values.flags.writeable = False
        vectors.flags.writeable = False
        return values, vectors

    @classmethod
    def identity(cls, layout: SystemLayout) -> "DenseOperator":
        return cls(layout, np.eye(layout.total_dim, dtype=complex), hermitian=True)


def _hermitian(h: DenseOperator | np.ndarray, name: str) -> np.ndarray:
    """The matrix of h, admitted as Hermitian, or ValueError naming the argument `name`.

    The one admission rule of the package: a DenseOperator is admitted by its
    hermitian flag, and its entries are not scanned again; a plain array when
    max |m - m^dag| <= 1e-12 max |m|, the check the flag was given by.
    """
    if isinstance(h, DenseOperator):
        if not h.hermitian:
            raise ValueError(f"{name} does not carry the hermitian flag")
        return h.entries
    m = np.asarray(h, dtype=complex)
    asym = np.abs(m - m.conj().T).max(initial=0.0)
    if asym > 1e-12 * np.abs(m).max(initial=0.0):
        raise ValueError(f"{name} is not hermitian to 1e-12 (max norm): max asymmetry {asym:.3e}")
    return m


def _full_eigh(h: DenseOperator | np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of an array, or a DenseOperator's cached spectrum, once _hermitian admits
    h as `name`; sparse raises ValueError."""
    if scipy.sparse.issparse(h):
        raise ValueError("no full spectrum of a sparse operator is formed")
    m = _hermitian(h, name)
    return h.spectrum if isinstance(h, DenseOperator) else np.linalg.eigh(m)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Average away sub-tolerance asymmetry accumulated by sums of products."""
    return (m + m.conj().T) / 2


def negative_count(a: scipy.sparse.csc_matrix, mu: float) -> int:
    """Number of eigenvalues of the Hermitian CSC matrix `a` below mu, from the inertia of an
    LDL^dag factor of a - mu.

    SuperLU factors a - mu as the solve factors H - sigma (_hermitian_splu),
    P (a - mu) P^T = L U with U = D L^dag up to rounding and D = Re diag(U),
    and by Sylvester's law of inertia the count is D's negative entries. It
    is exact for the Hermitian L D L^dag, within the factor's backward error
    of a - mu. Unpivoted elimination does not bound that error, so _inertia
    bounds it from the factor and _count_certificate refuses a cut it does
    not resolve. Raises SpectrumCertificateError when a - mu is exactly
    singular, or the factor exchanges a row (no congruence) or has a zero or
    non-finite pivot. Dense off-diagonal clock blocks fill the factor: 4
    random dense blocks of 648 x 648 took 2.0 s and about 56 such arrays. No
    Hamiltonian this package builds has such blocks.
    """
    return _inertia(a, mu)[0]


def _inertia(a: scipy.sparse.csc_matrix, mu: float, tol: float = np.inf) -> tuple[int, float]:
    """(eigenvalues of the Hermitian CSC matrix `a` below mu, a bound on the factor's 2-norm
    backward error).

    While the bound is not below `tol`, up to three times, the pivots whose
    L columns grew past 64 are delayed to the end of the order and a - mu is
    factored again, as multifrontal solvers delay pivots (Duff & Reid, ACM
    TOMS 9 (1983)); the smallest bound is kept.
    """
    shifted = a - mu * scipy.sparse.identity(a.shape[0], format="csc")
    order, found = None, []  # SuperLU's minimum-degree ordering first
    for _ in range(4):
        *result, order, grown = _ldl_inertia(shifted, order, tol)
        found.append(result)
        if result[1] < tol:
            break
        order = np.concatenate([order[~grown], order[grown]])
    count, error, nnz = min(found, key=lambda r: r[1])
    _log.debug(
        "inertia count: %d eigenvalues below %.6g, backward error %.3e, L + U nonzeros %d",
        count, mu, error, nnz,
    )
    return count, error


def _ldl_inertia(
    a: scipy.sparse.csc_matrix, order: np.ndarray | None, tol: float
) -> tuple[int, float, int, np.ndarray, np.ndarray]:
    """LDL^dag of a Hermitian `a` in SuperLU's minimum-degree ordering, or in `order`: (negative
    pivots, backward-error bound, L + U nonzeros, elimination order, pivots that grew L).

    L D L^dag - P a P^T = (L U - P a P^T) + L (D L^dag - U), and the first term is
    at most gamma |L| |U| entrywise (Higham 2002, Theorem 9.3 and §3.6), gamma =
    (terms per entry + 4) eps, which also covers forming D L^dag - U. Where that
    bound is not below `tol`, the residual is formed and its rounding added.
    """
    permuted = a if order is None else a[order][:, order]
    try:
        lu = _hermitian_splu(permuted, "MMD_AT_PLUS_A" if order is None else "NATURAL")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SpectrumCertificateError(f"H - mu has no LDL^dag factor: {exc}") from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SpectrumCertificateError("the factor of H - mu exchanged rows: no congruence")
    low, up = lu.L, lu.U
    pivots = up.diagonal().real
    if not np.all(np.isfinite(pivots)) or np.any(pivots == 0):
        raise SpectrumCertificateError("the factor of H - mu has a zero or non-finite pivot")
    scaled = low.conj().T  # D L^dag, CSR: row j is column j of L times pivot j
    scaled.data *= np.repeat(pivots, np.diff(scaled.indptr))
    gamma = (np.bincount(low.indices, minlength=low.shape[0]).max() + 4) * np.finfo(float).eps
    error = float(gamma * _abs_product_norm(low, up) + _abs_product_norm(low, scaled - up))
    eliminated = np.argsort(lu.perm_c)  # eliminated[k]: the index of permuted factored k-th
    if not error < tol:  # G D G^dag - permuted, G = P^T L: L's rows relabelled
        g = scipy.sparse.csc_matrix((low.data, eliminated[low.indices], low.indptr), low.shape)
        dg = scipy.sparse.csr_matrix((scaled.data, eliminated[scaled.indices], scaled.indptr))
        residual = float(np.linalg.norm((g @ dg - permuted).data))
        rounding = _abs_product_norm(low, scaled) + abs(permuted).sum(axis=0).max()
        error = min(error, residual + float(gamma * rounding))
    grown = np.maximum.reduceat(np.abs(low.data), low.indptr[:-1]) > 64.0
    order = eliminated if order is None else order[eliminated]
    return int(np.count_nonzero(pivots < 0)), error, low.nnz + up.nnz, order, grown


def _abs_product_norm(a: scipy.sparse.spmatrix, b: scipy.sparse.spmatrix) -> float:
    """sqrt(|M|_1 |M|_inf) for M = |a| |b|, a bound on |M|_2 from four products with vectors."""
    a, b = abs(a), abs(b)
    ones = np.ones(b.shape[1])
    return float(np.sqrt((ones @ a @ b).max() * (a @ (b @ ones)).max()))


def _hermitian_splu(a: scipy.sparse.csc_matrix, ordering: str = "MMD_AT_PLUS_A"):
    """SuperLU factor of a Hermitian matrix in a symmetric ordering, by default minimum degree,
    with diagonal pivots: without row exchanges it is a congruence P a P^T = L U, and on a
    positive definite matrix it is stable and smaller than with partial pivoting."""
    import scipy.sparse.linalg  # here: a module-level import would slow every start-up

    return scipy.sparse.linalg.splu(
        a, permc_spec=ordering, diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )


@dataclass(frozen=True)
class EigenSystem:
    """Deterministic spectral data of a Hermitian operator."""

    values: np.ndarray
    vectors: np.ndarray  # orthonormal columns, vectors[:, i] <-> values[i]


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis with its projector."""

    basis: np.ndarray  # shape (D, dim)
    projector: DenseOperator

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_basis(cls, layout: SystemLayout, basis: np.ndarray) -> "Subspace":
        b = np.asarray(basis, dtype=complex)
        if b.ndim == 1:
            b = b[:, None]
        gram = b.conj().T @ b
        if np.abs(gram - np.eye(b.shape[1])).max() > 1e-10:
            raise ValueError("basis columns are not orthonormal to 1e-10")
        proj = DenseOperator(layout, hermitize(b @ b.conj().T), hermitian=True, validate=False)
        return cls(basis=b, projector=proj)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Each column times the phase that makes its first significant entry real positive."""
    a = vectors[_first_significant(vectors), np.arange(vectors.shape[1])]
    size = np.hypot(a.real, a.imag)  # abs(a) bit for bit
    return vectors * np.divide(a.conj(), size, out=np.ones_like(a), where=size > 0)


def _first_significant(vectors: np.ndarray) -> np.ndarray:
    """Per column, the first row above PHASE_TOL in magnitude, else the largest one."""
    mags = np.abs(vectors)
    sig = mags > PHASE_TOL
    return np.where(sig.any(axis=0), sig.argmax(axis=0), mags.argmax(axis=0))


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


def _cluster_tol(values: np.ndarray, config: Config | None = None) -> float:
    """cluster_rtol * max(1, max |values|): values closer than this form one degeneracy cluster."""
    return (config or DEFAULT).cluster_rtol * max(1.0, float(np.abs(values).max(initial=0.0)))


def guard_cut(
    values: np.ndarray, k: int, config: Config | None = None, slack: float = 0.0
) -> None:
    """Raise ClusterSplitError when a cut after the k lowest ascending values splits a cluster.

    The cut is sound when values[k] - values[k-1] exceeds
    cluster_rtol * max(1, max |values|) + slack; a cut at either end is.
    """
    if not 0 < k < len(values):
        return
    tol = _cluster_tol(values, config) + slack
    if values[k] - values[k - 1] <= tol:
        raise ClusterSplitError(
            f"cut after {k} eigenvalues splits a degeneracy cluster: "
            f"{values[k - 1]} and {values[k]} lie within {tol:.3e}"
        )


def eigh(op: DenseOperator, config: Config | None = None) -> EigenSystem:
    """Full Hermitian eigendecomposition with the deterministic ordering/phase convention."""
    values, vectors = np.linalg.eigh(_hermitian(op, "op"))
    vectors = _fix_phases(vectors)
    for start, stop in cluster_bounds(values, _cluster_tol(values, config)):
        if stop - start > 1:
            keys = _first_significant(vectors[:, start:stop])
            order = np.argsort(keys, kind="stable") + start
            vectors[:, start:stop] = vectors[:, order]
    values = values.copy()
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenSystem(values=values, vectors=vectors)


def op_norm(op: DenseOperator | np.ndarray) -> float:
    """Largest singular value."""
    m = op.entries if isinstance(op, DenseOperator) else np.asarray(op)
    return float(np.linalg.norm(m, 2))


def expm_i(op: DenseOperator, t: float) -> DenseOperator:
    """exp(i H t) from op's cached spectrum (hermitian flag required); unitary up to rounding."""
    values, vectors = op.spectrum
    u = (vectors * np.exp(1j * values * t)) @ vectors.conj().T
    return DenseOperator(op.layout, u, hermitian=False)


def _embedding_rows(layout: SystemLayout, targets: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(local, offset) for an operator on `targets`, targets[0] its fastest local digit: flat
    index i is offset[local[i]], the offset of the local index its target digits read, plus
    the other sites' part, which an embedding keeps."""
    strides, index = layout.strides(), np.arange(layout.total_dim)
    local, offset = np.zeros_like(index), np.zeros(1, dtype=np.int64)
    for s in targets:  # each site the slower local digit, weighted by the local size so far
        local += index // strides[s] % layout.site_dims[s] * offset.size
        offset = (np.arange(layout.site_dims[s])[:, None] * strides[s] + offset).ravel()
    return local, offset


def _row_lengths(rows: np.ndarray, embedding: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Entries in each flat row of the embedding of local nonzeros in local rows `rows`."""
    local, offset = embedding
    return np.bincount(rows, minlength=offset.size)[local]


def _write_embedded(rows, cols, values, embedding, data, indices, cursor, column_offset=0) -> None:
    """Write local nonzeros (rows, cols, values), embedded by the _embedding_rows map, into CSR
    arrays: flat row i's entries go to data and indices from cursor[i] on, their columns
    ascending and shifted by column_offset, and cursor[i] moves past them. One pass per slot
    of the longest local row, on flat-dimension arrays: no temporary grows with the entries."""
    local, offset = embedding
    order = np.lexsort((offset[cols], rows))  # by local row, then by flat column
    rows, cols, values = rows[order], cols[order], values[order]
    first = np.searchsorted(rows, np.arange(offset.size))  # each local row's first triplet
    length = _row_lengths(rows, embedding)
    shift = np.arange(local.size) - offset[local] + column_offset
    for k in range(length.max(initial=0)):
        live = np.flatnonzero(length > k)
        pick = first[local[live]] + k
        at = cursor[live]
        data[at] = values[pick]
        indices[at] = shift[live] + offset[cols[pick]]
        cursor[live] += 1


def sparse_embed(
    local_op: DenseOperator, target_sites: tuple[int, ...] | list[int], layout: SystemLayout
) -> scipy.sparse.csr_matrix:
    """CSR matrix of an operator on target_sites embedded in the full layout (identity elsewhere).

    The local operator's own layout lists the target sites' dimensions in
    target order, with target_sites[0] the fastest-varying local index. Each
    nonzero local entry is stored once per basis state of the other sites,
    bit for bit; zero local entries are not stored. Each row's columns ascend.
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
    rows, cols = np.nonzero(local_op.entries)
    embedding = _embedding_rows(layout, targets)
    indptr = np.zeros(layout.total_dim + 1, dtype=np.int32)
    np.cumsum(_row_lengths(rows, embedding), out=indptr[1:])
    data = np.empty(indptr[-1], dtype=complex)
    indices = np.empty(indptr[-1], dtype=np.int32)
    values = local_op.entries[rows, cols]
    _write_embedded(rows, cols, values, embedding, data, indices, indptr[:-1].copy())
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(layout.total_dim,) * 2)


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
    if s1.basis.shape[0] != s2.basis.shape[0]:
        raise ValueError("subspaces live in different ambient dimensions")
    return projector_distance_from_bases(s1.basis, s2.basis)


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
