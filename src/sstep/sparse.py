"""Sparse CSR storage, Matrix Market parsing, test-problem generators, equilibration.

All matrices are square with float64 values.  Within each row the column
indices are sorted strictly increasing, so the accumulation order of every
product is fixed left to right and repeated runs are bitwise reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as _sp


def _index_dtype(n: int, nnz: int):
    return np.int32 if max(n, nnz) < 2**31 else np.int64


@dataclass
class SparseMatrix:
    """Square sparse matrix in CSR form.

    Parameters
    ----------
    n : int
        Matrix dimension.
    indptr : ndarray of int32 or int64, shape (n + 1,)
        Row pointer array.
    indices : ndarray of int32 or int64
        Column indices, sorted strictly increasing within each row.
    data : ndarray of float64
        Nonzero values, row-major.

    Index arrays are stored as int32 when n and nnz are below 2**31 and
    as int64 otherwise, the types scipy picks, so the scipy handle shares
    them instead of holding converted copies.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _handle: _sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        nnz = len(self.data)
        indptr, indices = np.asarray(self.indptr), np.asarray(self.indices)
        # checked before the cast, which would wrap an out-of-range value
        if indptr.shape != (self.n + 1,):
            raise ValueError("indptr must have length n + 1")
        if indptr[0] != 0 or indptr[-1] != nnz:
            raise ValueError("indptr endpoints inconsistent with data length")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if len(indices) != nnz:
            raise ValueError("indices and data length mismatch")
        if nnz and (indices.min() < 0 or indices.max() >= self.n):
            raise ValueError("column index out of range")
        idx = _index_dtype(self.n, nnz)
        self.indptr = np.ascontiguousarray(indptr, dtype=idx)
        self.indices = np.ascontiguousarray(indices, dtype=idx)
        # strictly increasing columns per row also rules out duplicates; the
        # pair (p, p + 1) spans two rows when p + 1 starts a row
        bad = np.diff(self.indices) <= 0
        starts = self.indptr[1:-1]
        bad[starts[(starts > 0) & (starts < len(self.indices))] - 1] = False
        if bad.any():
            i = int(np.searchsorted(self.indptr, np.argmax(bad), side="right")) - 1
            raise ValueError(f"row {i}: column indices not strictly increasing")

    @classmethod
    def from_coo(cls, n: int, rows, cols, vals) -> "SparseMatrix":
        """Build from triplets; duplicate entries are summed."""
        m = _sp.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
        ).tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(n, m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense input must be square")
        rows, cols = np.nonzero(a)
        return cls.from_coo(a.shape[0], rows, cols, a[rows, cols])

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _scipy(self) -> _sp.csr_matrix:
        if self._handle is None:
            self._handle = _sp.csr_matrix(
                (self.data, self.indices, self.indptr), shape=(self.n, self.n)
            )
        return self._handle

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A x with fixed left-to-right accumulation within each row."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"operand length {x.shape} incompatible with n={self.n}")
        return self._scipy().dot(x)

    def diagonal(self) -> np.ndarray:
        return self._scipy().diagonal()

    def column_norms(self) -> np.ndarray:
        """Euclidean norm of each column."""
        return np.sqrt(np.bincount(self.indices, weights=self.data**2, minlength=self.n))

    def scale_columns(self, c: np.ndarray) -> "SparseMatrix":
        """Return A diag(c)."""
        c = np.asarray(c, dtype=np.float64)
        return SparseMatrix(self.n, self.indptr.copy(), self.indices.copy(), self.data * c[self.indices])

    def scale_values(self, a: float) -> "SparseMatrix":
        """Return a A."""
        return SparseMatrix(self.n, self.indptr.copy(), self.indices.copy(), self.data * a)

    def to_dense(self) -> np.ndarray:
        return self._scipy().toarray()


def _fail(lineno: int, msg: str):
    raise ValueError(f"line {lineno}: {msg}")


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _read_entries(body: list, n: int, nnz: int, symmetric: bool):
    """The entry lines as 0-based (rows, cols, vals), read by one np.loadtxt call.

    Returns None when the read fails or any entry breaks a rule: the count,
    an index outside 1..n, a non-finite value, or an entry above the
    diagonal of a symmetric file.  The caller then reads line by line to
    name the offending line.
    """
    try:
        with warnings.catch_warnings():  # an empty body warns; its count check fails
            warnings.simplefilter("ignore", UserWarning)
            ent = np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1)
    except ValueError:
        return None
    i, j, v = ent["i"], ent["j"], ent["v"]
    if (len(ent) != nnz or not np.isfinite(v).all()
            or min(i.min(), j.min()) < 1 or max(i.max(), j.max()) > n
            or (symmetric and (j > i).any())):
        return None
    return i - 1, j - 1, v


def parse_matrix_market(path) -> SparseMatrix:
    """Read a square real Matrix Market coordinate file.

    Supports the ``general`` and ``symmetric`` qualifiers.  Symmetric files
    must store the lower triangle and are expanded eagerly.  Duplicate
    entries are summed.  Malformed input raises ValueError naming the
    offending line number, and so does a size line with fewer entries than
    it takes to give every row one (a row with no entry makes the matrix
    singular).  The entry lines are read in one vectorized pass; only a
    file that breaks a rule is read again line by line, to find the line.
    """
    with open(path, "r", encoding="ascii", errors="replace") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ValueError("line 1: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        _fail(1, "expected header '%%MatrixMarket matrix coordinate <field> <symmetry>'")
    _, obj, fmt, fieldkind, sym = (w.lower() for w in header)
    if obj != "matrix":
        _fail(1, f"unsupported object '{obj}'")
    if fmt != "coordinate":
        _fail(1, f"unsupported format '{fmt}' (only coordinate)")
    if fieldkind != "real":
        _fail(1, f"unsupported field '{fieldkind}' (only real)")
    if sym not in ("general", "symmetric"):
        _fail(1, f"unsupported symmetry '{sym}' (only general or symmetric)")

    k = 1
    while k < len(lines) and (lines[k].startswith("%") or not lines[k].strip()):
        k += 1
    if k == len(lines):
        _fail(len(lines), "missing size line")
    size = lines[k].split()
    if len(size) != 3:
        _fail(k + 1, "size line must be 'rows cols nnz'")
    try:
        nrows, ncols, nnz = (int(w) for w in size)
    except ValueError:
        _fail(k + 1, "size line entries must be integers")
    if nrows != ncols:
        _fail(k + 1, f"matrix must be square, got {nrows} x {ncols}")
    if nrows <= 0 or nnz < 0:
        _fail(k + 1, "dimensions must be positive")
    # a stored entry fills one row, or two when it mirrors across the diagonal
    if nrows > (2 * nnz if sym == "symmetric" else nnz):
        _fail(k + 1, f"{nnz} {sym} entries cannot give each of {nrows} rows an entry")

    entries = _read_entries(lines[k + 1 :], nrows, nnz, sym == "symmetric")
    if entries is None:
        entries = _read_entries_by_line(lines, k + 1, nrows, nnz, sym == "symmetric")
    rows, cols, vals = entries
    if sym == "symmetric":
        off = rows != cols
        mirror_r, mirror_c, mirror_v = cols[off], rows[off], vals[off]
        rows = np.concatenate([rows, mirror_r])
        cols = np.concatenate([cols, mirror_c])
        vals = np.concatenate([vals, mirror_v])
    return SparseMatrix.from_coo(nrows, rows, cols, vals)


def _read_entries_by_line(lines: list, start: int, n: int, nnz: int, symmetric: bool):
    """_read_entries one line at a time from lines[start], failing at the first bad line."""
    cap = min(nnz, len(lines) - start)  # an oversized count fails as a short file
    rows = np.empty(cap, dtype=np.int64)
    cols = np.empty(cap, dtype=np.int64)
    vals = np.empty(cap, dtype=np.float64)
    got = 0
    for lineno in range(start, len(lines)):
        text = lines[lineno].strip()
        if not text:
            continue
        if got >= nnz:
            _fail(lineno + 1, f"more than {nnz} entries")
        parts = text.split()
        if len(parts) != 3:
            _fail(lineno + 1, "entry must be 'row col value'")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            _fail(lineno + 1, f"cannot parse entry '{text}'")
        if not math.isfinite(v):
            _fail(lineno + 1, f"non-finite value '{parts[2]}'")
        if not (1 <= i <= n and 1 <= j <= n):
            _fail(lineno + 1, f"index ({i}, {j}) outside 1..{n}")
        if symmetric and j > i:
            _fail(lineno + 1, "symmetric file must store the lower triangle")
        rows[got], cols[got], vals[got] = i - 1, j - 1, v
        got += 1
    if got != nnz:
        _fail(len(lines), f"expected {nnz} entries, found {got}")
    return rows, cols, vals


def gen_diagonal(n: int, lo: float, hi: float) -> SparseMatrix:
    """Diagonal matrix with n evenly spaced entries from lo to hi inclusive."""
    if n < 1:
        raise ValueError("n must be positive")
    d = np.linspace(lo, hi, n) if n > 1 else np.array([float(lo)])
    idx = _index_dtype(n, n)
    return SparseMatrix(n, np.arange(n + 1, dtype=idx), np.arange(n, dtype=idx), d)


def _grid_laplacian(n: int, dim: int) -> SparseMatrix:
    """(2 dim + 1)-point Laplacian on an n^dim grid with Dirichlet boundaries.

    Nodes are ordered lexicographically, so the neighbors of node j along
    axis k are j -+ n**k, and j has no neighbor at j - n**k when it is
    first along that axis: (j // n**k) % n == 0.  Diagonal entries are
    2 dim, neighbor entries are -1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    N = n**dim
    bands, offsets = [np.full(N, 2.0 * dim)], [0]
    # n = 1 leaves one node and no room for a band
    for s in (n**k for k in range(dim) if n**k < N):
        j = np.arange(s, N)
        band = np.where((j // s) % n == 0, 0.0, -1.0)
        bands += [band, band]
        offsets += [s, -s]
    m = _sp.diags(bands, offsets, format="csr")
    m.eliminate_zeros()
    m.sort_indices()
    return SparseMatrix(N, m.indptr, m.indices, m.data)


def gen_laplace2d(n: int) -> SparseMatrix:
    """5-point Laplacian on an n x n grid with Dirichlet boundaries.

    Node (i, j) -> i n + j; diagonal entries are 4, neighbor entries -1.
    """
    return _grid_laplacian(n, 2)


def gen_laplace3d(n: int) -> SparseMatrix:
    """7-point Laplacian on an n x n x n grid with Dirichlet boundaries.

    Node (i, j, k) -> (i n + j) n + k; diagonal entries are 6, neighbor
    entries -1.
    """
    return _grid_laplacian(n, 3)


@dataclass
class Equilibration:
    """Diagonal scaling record for A' = D_r A D_c.

    The transformed system is A' x' = D_r b with x = D_c x'.
    ``row_scale`` and ``col_scale`` are scalars, arrays, or None (identity).
    """

    mode: str
    row_scale: object = None
    col_scale: object = None

    def apply_rhs(self, b: np.ndarray) -> np.ndarray:
        if self.row_scale is None:
            return b
        return b * self.row_scale

    def recover_solution(self, x: np.ndarray) -> np.ndarray:
        if self.col_scale is None:
            return x
        return x * self.col_scale


def equilibrate(a: SparseMatrix, mode: str, spectral_radius: float | None = None):
    """Scale a matrix for solving, returning (scaled matrix, Equilibration).

    mode 'none'   : identity.
    mode 'scalar' : D_r = D_c = I / sqrt(alpha) with alpha = spectral_radius,
                    so A' = A / alpha.
    mode 'column' : D_r = I, D_c = diag(1 / column 2-norm), unit-norm columns.
    """
    if mode == "none":
        return a, Equilibration("none")
    if mode == "scalar":
        if spectral_radius is None:
            raise ValueError("scalar equilibration needs a spectral radius estimate")
        alpha = float(spectral_radius)
        if not np.isfinite(alpha) or alpha <= 0.0:
            raise ValueError(f"spectral radius must be positive, got {alpha}")
        s = 1.0 / np.sqrt(alpha)
        return a.scale_values(1.0 / alpha), Equilibration("scalar", row_scale=s, col_scale=s)
    if mode == "column":
        norms = a.column_norms()
        zero = np.nonzero(norms == 0.0)[0]
        if len(zero):
            raise ValueError(f"column {zero[0]} has zero norm, cannot equilibrate")
        c = 1.0 / norms
        return a.scale_columns(c), Equilibration("column", row_scale=None, col_scale=c)
    raise ValueError(f"unknown equilibration mode '{mode}'")
