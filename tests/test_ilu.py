"""Incomplete LU factorization with zero fill."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from sstep import SparseMatrix, ZeroPivotError, gen_laplace2d, ilu0


def reference_ilu0(a: SparseMatrix):
    """ILU(0) by the row-by-row IKJ loop: the L and U factors in CSR form.

    This is the loop the level-scheduled factorization replaced; it must
    give the same factors bit for bit and stop at the same zero pivot.
    """
    n = a.n
    indptr, indices = a.indptr, a.indices
    luval = a.data.copy()

    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        s, e = indptr[i], indptr[i + 1]
        p = s + np.searchsorted(indices[s:e], i)
        if p == e or indices[p] != i:
            raise ZeroPivotError(f"row {i}: diagonal entry missing from sparsity pattern")
        diag_pos[i] = p

    for i in range(n):
        s, e = indptr[i], indptr[i + 1]
        cols_i = indices[s:e]
        dpos = diag_pos[i]
        for pos in range(s, dpos):
            k = cols_i[pos - s]
            ukk = luval[diag_pos[k]]
            if ukk == 0.0:
                raise ZeroPivotError(f"row {k}: zero pivot")
            lik = luval[pos] / ukk
            luval[pos] = lik
            ks, ke = diag_pos[k] + 1, indptr[k + 1]
            if ks < ke:
                ucols = indices[ks:ke]
                # positions of row k's upper columns inside row i's pattern
                idx = np.searchsorted(cols_i, ucols)
                idx_c = np.minimum(idx, len(cols_i) - 1)
                match = (idx < len(cols_i)) & (cols_i[idx_c] == ucols)
                if match.any():
                    luval[s + idx[match]] -= lik * luval[ks:ke][match]

    zero_diag = np.nonzero(luval[diag_pos] == 0.0)[0]
    if len(zero_diag):
        raise ZeroPivotError(f"row {zero_diag[0]}: zero pivot")

    rowidx = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    low = indices < rowidx
    upp = ~low
    eye = np.arange(n, dtype=np.int64)
    l_factor = sp.csr_matrix(
        (np.concatenate([luval[low], np.ones(n)]),
         (np.concatenate([rowidx[low], eye]), np.concatenate([indices[low], eye]))),
        shape=(n, n),
    )
    u_factor = sp.csr_matrix((luval[upp], (rowidx[upp], indices[upp])), shape=(n, n))
    l_factor.sort_indices()
    u_factor.sort_indices()
    return l_factor, u_factor


def random_pattern(seed, n, density, no_lower=0.0):
    """Nonsymmetric random sparse matrix with a dominant diagonal.

    A share no_lower of the rows (and always row 0) keeps no entry left
    of the diagonal.
    """
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    bare = rng.random(n) < no_lower
    d[np.tril(np.ones((n, n), dtype=bool), -1) & bare[:, None]] = 0.0
    np.fill_diagonal(d, np.abs(d).sum(axis=1) + 1.0)
    return SparseMatrix.from_dense(d)


def chain(n):
    """Tridiagonal matrix: each row waits on the one before it."""
    i = np.arange(n)
    return SparseMatrix.from_coo(n, np.r_[i, i[1:], i[:-1]], np.r_[i, i[:-1], i[1:]],
                                 np.r_[np.full(n, 4.0), np.full(2 * n - 2, -1.0)])


def assert_same_bytes(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


ORACLE_CASES = {
    **{f"random-{seed}": random_pattern(seed, 60 + 20 * seed, 0.08) for seed in range(5)},
    "no-lower-rows": random_pattern(11, 150, 0.05, no_lower=0.3),
    "chain": chain(400),
    "chain-4000": chain(4000),
    "lap2d-30": gen_laplace2d(30),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_factors_are_bitwise_those_of_the_row_loop(name):
    a = ORACLE_CASES[name]
    want_l, want_u = reference_ilu0(a)
    # no explicit zeros, which the SuperLU form drops
    assert np.all(want_l.data != 0) and np.all(want_u.data != 0)
    fac = ilu0(a)
    assert_same_bytes(fac.l_factor, want_l)
    assert_same_bytes(fac.u_factor, want_u)


def _csr(n, rows):
    """SparseMatrix from {row: {col: value}}, keeping explicit zeros."""
    indptr, indices, data = [0], [], []
    for i in range(n):
        entry = rows.get(i, {i: 1.0})
        indices += sorted(entry)
        data += [entry[c] for c in sorted(entry)]
        indptr.append(len(indices))
    return SparseMatrix(n, indptr, indices, data)


ERROR_CASES = {
    # row 3's pivot is 0.5 - 0.5 * 1 = 0; row 4 uses it
    "interior-zero-pivot": _csr(6, {2: {2: 2.0, 3: 1.0}, 3: {2: 1.0, 3: 0.5, 4: 1.0},
                                    4: {3: 1.0, 4: 3.0}}),
    # the same zero pivot, but no later row uses it
    "unused-zero-pivot": _csr(6, {2: {2: 2.0, 3: 1.0}, 3: {2: 1.0, 3: 0.5}}),
    # rows 3 and 5 have zero pivots; row 6 uses row 5 before row 7 uses row 3
    "first-use-names-later-row": _csr(8, {3: {3: 0.0}, 5: {5: 0.0}, 6: {5: 1.0, 6: 2.0},
                                          7: {3: 1.0, 7: 2.0}}),
    "missing-interior-diagonal": _csr(5, {2: {1: 1.0, 3: 1.0}}),
}


@pytest.mark.parametrize("name", ERROR_CASES)
def test_zero_pivot_messages_match_the_row_loop(name):
    a = ERROR_CASES[name]
    with pytest.raises(ZeroPivotError) as want:
        reference_ilu0(a)
    with pytest.raises(ZeroPivotError) as got:
        ilu0(a)
    assert str(got.value) == str(want.value)
    assert str(got.value) != "row 0: zero pivot"


def test_tridiagonal_equals_exact_lu():
    # no fill-in can occur for a tridiagonal matrix, so ILU(0) is exact
    n = 8
    a = (np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1)
         + np.diag(np.full(n - 1, -1.0), -1))
    fac = ilu0(SparseMatrix.from_dense(a))
    lu = fac.l_factor.toarray() @ fac.u_factor.toarray()
    npt.assert_allclose(lu, a, rtol=0, atol=1e-14)
    # independent oracle for the same factorization: dense LU without pivoting
    p, l, u = sla.lu(a)
    npt.assert_allclose(p, np.eye(n), atol=0)
    npt.assert_allclose(fac.l_factor.toarray(), l, atol=1e-14)
    npt.assert_allclose(fac.u_factor.toarray(), u, atol=1e-13)


def test_residual_vanishes_on_pattern():
    a = gen_laplace2d(4)
    fac = ilu0(a)
    gap = fac.l_factor.toarray() @ fac.u_factor.toarray() - a.to_dense()
    mask = a.to_dense() != 0
    npt.assert_allclose(gap[mask], 0.0, atol=1e-13)
    assert np.max(np.abs(gap)) > 0.01  # fill-in outside the pattern was dropped


@pytest.mark.parametrize("a", [gen_laplace2d(5), random_pattern(21, 120, 0.06)],
                         ids=["lap2d-5", "random-nonsymmetric"])
def test_solve_matches_dense_triangular_oracle(a):
    rng = np.random.default_rng(7)
    fac = ilu0(a)
    r = rng.standard_normal(a.n)
    y = sla.solve_triangular(fac.l_factor.toarray(), r, lower=True, unit_diagonal=True)
    want = sla.solve_triangular(fac.u_factor.toarray(), y, lower=False)
    npt.assert_allclose(fac.solve(r), want, rtol=1e-12, atol=1e-12)


def column_substitution(l_factor, u_factor, r):
    """L^{-1} then U^{-1} on r, one column at a time, in Python floats.

    The forward sweep subtracts column j of L from the entries below it once
    x_j is final; the backward sweep divides x_j by u_jj, then subtracts
    column j of U from the entries above it.
    """
    lc, uc = l_factor.tocsc(), u_factor.tocsc()
    x = r.tolist()
    n = len(x)
    for j in range(n):
        for p in range(lc.indptr[j], lc.indptr[j + 1]):
            if lc.indices[p] > j:
                x[lc.indices[p]] -= x[j] * float(lc.data[p])
    for j in reversed(range(n)):
        col = range(uc.indptr[j], uc.indptr[j + 1])
        x[j] /= next(float(uc.data[p]) for p in col if uc.indices[p] == j)
        for p in col:
            if uc.indices[p] < j:
                x[uc.indices[p]] -= x[j] * float(uc.data[p])
    return np.array(x)


SOLVE_CASES = {
    "lap2d-12": gen_laplace2d(12),
    "random-nonsymmetric": random_pattern(22, 200, 0.04, no_lower=0.1),
    "chain": chain(300),
    "diagonal": SparseMatrix.from_dense(np.diag(np.linspace(0.5, 3.0, 20))),
}


@pytest.mark.parametrize("name", SOLVE_CASES)
def test_triangles_are_stored_as_the_solve_reads_them(name):
    a = SOLVE_CASES[name]
    fac = ilu0(a)
    lower, upper = fac.lower, fac.upper
    assert lower.format == upper.format == "csc"
    assert lower.nnz + upper.nnz == a.nnz
    for t in (lower, upper):
        assert t.indices.dtype == t.indptr.dtype == np.int32
        cols = np.repeat(np.arange(a.n), np.diff(t.indptr))
        # sorted within each column: strictly increasing unless a column starts
        step = np.diff(t.indices) > 0
        assert np.all(step | (np.diff(cols) > 0))
    low_cols = np.repeat(np.arange(a.n), np.diff(lower.indptr))
    assert np.all(lower.indices >= low_cols)
    npt.assert_array_equal(lower.indices[lower.indptr[:-1]], np.arange(a.n))
    assert np.all(upper.indices < np.repeat(np.arange(a.n), np.diff(upper.indptr)))
    if name == "diagonal":
        assert upper.nnz == 0


@pytest.mark.parametrize("name", SOLVE_CASES)
def test_solve_is_bitwise_the_column_substitution(name):
    a = SOLVE_CASES[name]
    want_l, want_u = reference_ilu0(a)
    r = np.random.default_rng(5).standard_normal(a.n)
    assert ilu0(a).solve(r).tobytes() == column_substitution(want_l, want_u, r).tobytes()


def test_solve_leaves_its_argument_unchanged():
    fac = ilu0(gen_laplace2d(6))
    r = np.random.default_rng(6).standard_normal(36)
    kept = r.copy()
    x = fac.solve(r)
    assert r.tobytes() == kept.tobytes()
    assert not np.shares_memory(x, r)
    # a strided view and a list are taken too
    block = np.random.default_rng(7).standard_normal((36, 3))
    assert fac.solve(block[:, 1]).tobytes() == fac.solve(block[:, 1].tolist()).tobytes()


def test_solve_into_out_is_bitwise_the_new_array():
    # out may be r itself: the solve reads its copy of r, not out
    fac = ilu0(gen_laplace2d(6))
    rows = np.random.default_rng(8).standard_normal((2, 36))
    want = fac.solve(rows[0])
    row = rows[1]
    assert fac.solve(rows[0], out=row) is row and row.tobytes() == want.tobytes()
    row = rows[0]
    assert fac.solve(row, out=row) is row and row.tobytes() == want.tobytes()


def test_scipy_without_the_private_solve(tmp_path):
    # a scipy without gstrs still imports sstep and solves without ILU(0);
    # ilu0 and the command line name the missing symbol
    code = ("import sys\n"
            "sys.modules['scipy.sparse.linalg._dsolve._superlu'] = None\n"
            "import sstep, sstep.cli\n"
            "assert sstep.ilu.gstrs is None\n"
            "try:\n"
            "    sstep.ilu0(sstep.gen_laplace2d(3))\n"
            "except ValueError as exc:\n"
            "    assert 'gstrs' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('ilu0 ran without gstrs')\n"
            "out = sys.argv[1]\n"
            "print(sstep.cli.main(['--matrix', 'lap2d:6', '--out', out]),\n"
            "      sstep.cli.main(['--matrix', 'lap2d:6', '--precond', 'ilu0', '--out', out]))\n")
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "1"]
    assert "sstep: error: ilu0 needs scipy.sparse.linalg._dsolve._superlu.gstrs" in proc.stderr


def test_l_unit_lower_u_upper():
    fac = ilu0(gen_laplace2d(3))
    l, u = fac.l_factor.toarray(), fac.u_factor.toarray()
    npt.assert_array_equal(np.diag(l), np.ones(9))
    assert np.max(np.abs(np.triu(l, 1))) == 0
    assert np.max(np.abs(np.tril(u, -1))) == 0


def test_zero_pivot_raises():
    with pytest.raises(ZeroPivotError, match="row 0"):
        ilu0(SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]]))


def test_overflowing_elimination_names_the_row():
    # l_10 = 1e10 / 1e-300 overflows and u_11 = 1 - l_10 * 1e10 with it: no
    # pivot is zero, but the factors are not finite, and every apply would
    # return inf or nan
    a = SparseMatrix.from_dense([[1e-300, 1e10], [1e10, 1.0]])
    with pytest.raises(ZeroPivotError, match="^row 1: factor entry is not finite"):
        ilu0(a)


def test_missing_diagonal_raises():
    a = SparseMatrix.from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
    with pytest.raises(ZeroPivotError):
        ilu0(a)
