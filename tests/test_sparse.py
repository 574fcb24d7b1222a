"""Sparse storage, file parsing, problem generators, equilibration."""

import os
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

import sstep.sparse
from sstep import (
    SparseMatrix,
    equilibrate,
    gen_convdiff2d,
    gen_diagonal,
    gen_laplace2d,
    gen_laplace3d,
    parse_matrix_market,
)

ROOT = Path(__file__).resolve().parent.parent


def dense_from_triplets(n, rows, cols, vals):
    # independent oracle: plain accumulation loop, no scipy involved
    a = np.zeros((n, n))
    for i, j, v in zip(rows, cols, vals):
        a[i, j] += v
    return a


class TestSparseMatrix:
    def test_from_coo_sums_duplicates(self):
        a = SparseMatrix.from_coo(3, [0, 0, 1], [0, 0, 2], [1.0, 2.0, 5.0])
        npt.assert_array_equal(a.to_dense(), [[3, 0, 0], [0, 0, 5], [0, 0, 0]])

    def test_matvec_matches_triplet_oracle(self):
        rng = np.random.default_rng(1)
        n = 23
        rows = rng.integers(0, n, 140)
        cols = rng.integers(0, n, 140)
        vals = rng.standard_normal(140)
        a = SparseMatrix.from_coo(n, rows, cols, vals)
        d = dense_from_triplets(n, rows, cols, vals)
        x = rng.standard_normal(n)
        npt.assert_allclose(a.matvec(x), d @ x, rtol=0, atol=1e-13)
        npt.assert_allclose(a.to_dense(), d, rtol=0, atol=0)

    def test_matvec_rejects_wrong_length(self):
        a = gen_diagonal(4, 1.0, 2.0)
        with pytest.raises(ValueError, match="incompatible"):
            a.matvec(np.ones(5))

    @pytest.mark.parametrize("kernel", ["csr_matvec", "public product"])
    def test_matvec_into_out_is_bitwise_the_new_vector(self, kernel, monkeypatch):
        # the zeroed row is accumulated into as .dot accumulates into its
        # fresh zeros; without the private kernel the product is copied in
        if kernel == "public product":
            monkeypatch.setattr(sstep.sparse, "csr_matvec", None)
        a = gen_laplace2d(9)
        rows = np.full((3, a.n), np.nan)
        x = np.random.default_rng(4).standard_normal(2 * a.n)[::2]  # a strided view
        x[3] = -0.0
        row = rows[1]
        assert a.matvec(x, out=row) is row
        assert row.tobytes() == a.matvec(x).tobytes()
        assert np.isnan(rows[[0, 2]]).all()

    @pytest.mark.parametrize("make_out,msg", [
        (lambda n: np.empty(n + 1), "C-contiguous float64 array of length"),
        (lambda n: np.empty(n, dtype=np.float32), "C-contiguous float64 array of length"),
        (lambda n: np.empty(2 * n)[::2], "C-contiguous float64 array of length"),
        (lambda n: np.empty(n).tolist(), "C-contiguous float64 array of length"),
    ], ids=["length", "dtype", "strided", "list"])
    def test_matvec_refuses_an_out_it_cannot_write(self, make_out, msg):
        a = gen_diagonal(5, 1.0, 2.0)
        with pytest.raises(ValueError, match=msg):
            a.matvec(np.ones(5), out=make_out(5))

    def test_matvec_refuses_out_overlapping_the_operand(self):
        a = gen_diagonal(5, 1.0, 2.0)
        v = np.ones(5)
        with pytest.raises(ValueError, match="overlap"):
            a.matvec(v, out=v)

    def test_column_norms_match_dense(self):
        rng = np.random.default_rng(2)
        a = SparseMatrix.from_dense(rng.standard_normal((9, 9)) * (rng.random((9, 9)) > 0.6))
        npt.assert_allclose(a.column_norms(), np.linalg.norm(a.to_dense(), axis=0),
                            rtol=0, atol=1e-14)

    def test_scale_columns_and_values(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((5, 5))
        a = SparseMatrix.from_dense(d)
        c = rng.random(5) + 0.5
        npt.assert_allclose(a.scale_columns(c).to_dense(), d @ np.diag(c), atol=1e-15)
        npt.assert_allclose(a.scale_values(0.25).to_dense(), 0.25 * d, atol=0)

    def test_validation_rejects_unsorted_row(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrix(2, [0, 2, 2], [1, 0], [1.0, 2.0])

    def test_validation_names_middle_row_with_decreasing_pair(self):
        # row 1 holds 2, 1; the pair 3 | 0 across the rows 0 and 1 is allowed
        with pytest.raises(ValueError, match=r"^row 1: column indices not strictly increasing$"):
            SparseMatrix(4, [0, 2, 4, 5, 6], [0, 3, 2, 1, 0, 3], np.ones(6))

    def test_validation_names_last_row_with_duplicate_column(self):
        with pytest.raises(ValueError, match=r"^row 2: column indices not strictly increasing$"):
            SparseMatrix(3, [0, 1, 2, 4], [2, 0, 1, 1], np.ones(4))

    @pytest.mark.parametrize("indptr,indices", [
        ([0, 0, 2, 2, 3, 3], [0, 4, 0]),  # rows 0, 2 and 4 empty
        ([0, 0, 0, 0, 0, 0], []),  # every row empty
        ([0, 3, 3, 3, 3, 3], [0, 2, 4]),  # all but the first row empty
    ])
    def test_validation_accepts_empty_rows(self, indptr, indices):
        a = SparseMatrix(5, indptr, indices, np.ones(len(indices)))
        assert a.nnz == len(indices)

    @pytest.mark.parametrize("indptr,indices,row", [
        ([0, 0, 2, 2, 4, 4], [1, 3, 3, 3], 3),  # empty rows around the bad row
        ([0, 0, 0, 0, 0, 2], [1, 1], 4),  # the bad row follows four empty ones
        ([0, 2, 2, 2, 2, 2], [2, 2], 0),  # the bad row is followed by empty ones
    ])
    def test_validation_names_bad_row_among_empty_rows(self, indptr, indices, row):
        with pytest.raises(ValueError, match=rf"^row {row}: "):
            SparseMatrix(5, indptr, indices, np.ones(len(indices)))

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            SparseMatrix(2, [0, 1], [0], [1.0])
        with pytest.raises(ValueError, match="nondecreasing"):
            SparseMatrix(3, [0, 2, 1, 2], [0, 1], [1.0, 1.0])

    def test_out_of_range_index_is_checked_before_the_int32_cast(self):
        # 2**32 would wrap to column 0 in int32
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix(2, [0, 1, 2], np.array([0, 2**32], dtype=np.int64), [1.0, 1.0])

    def test_scipy_handle_shares_index_arrays(self):
        a = gen_laplace2d(100)
        assert a.indices.dtype == a.indptr.dtype == np.int32
        h = a._scipy()
        assert np.shares_memory(h.indices, a.indices)
        assert np.shares_memory(h.indptr, a.indptr)
        assert np.shares_memory(h.data, a.data)


class TestGenerators:
    def test_diagonal_spacing(self):
        d = gen_diagonal(5, 1.0, 3.0)
        npt.assert_array_equal(d.diagonal(), [1.0, 1.5, 2.0, 2.5, 3.0])
        npt.assert_array_equal(gen_diagonal(1, 7.0, 9.0).diagonal(), [7.0])

    def test_laplace2d_matches_kron_oracle(self):
        # independent oracle: A = I (x) T + T (x) I with T = tridiag(-1, 2, -1)
        for n in (1, 2, 3, 5):
            t = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
            oracle = np.kron(np.eye(n), t) + np.kron(t, np.eye(n))
            npt.assert_array_equal(gen_laplace2d(n).to_dense(), oracle)

    def test_laplace3d_matches_kron_oracle(self):
        for n in (1, 2, 3):
            t = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
            i = np.eye(n)
            oracle = (np.kron(np.kron(t, i), i) + np.kron(np.kron(i, t), i)
                      + np.kron(np.kron(i, i), t))
            npt.assert_array_equal(gen_laplace3d(n).to_dense(), oracle)

    @pytest.mark.parametrize("dim,n", [(2, 1), (2, 2), (2, 7), (2, 40),
                                       (3, 1), (3, 2), (3, 7), (3, 12)])
    def test_grid_csr_matches_scipy_kronecker_sum(self, dim, n):
        # independent oracle at sizes past the dense ones: a sparse Kronecker
        # sum of the 1-D stencil, compared array for array in CSR form
        t = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        oracle = t
        for _ in range(dim - 1):
            oracle = sp.kronsum(oracle, t)
        oracle = sp.csr_matrix(oracle)
        oracle.sort_indices()
        a = (gen_laplace2d if dim == 2 else gen_laplace3d)(n)
        assert a.n == n**dim
        npt.assert_array_equal(a.indptr, oracle.indptr)
        npt.assert_array_equal(a.indices, oracle.indices)
        npt.assert_array_equal(a.data, oracle.data)

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_convdiff2d_without_convection_or_reaction_is_laplace2d(self, n):
        a, lap = gen_convdiff2d(n, 0.0, 0.0, 0.0), gen_laplace2d(n)
        npt.assert_array_equal(a.indptr, lap.indptr)
        npt.assert_array_equal(a.indices, lap.indices)
        npt.assert_array_equal(a.data, lap.data)

    def test_convdiff2d_matches_the_benchmark_reference(self):
        # the benchmark's own scipy Kronecker sum, with reaction on its x stencil
        w = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
        ref = w["reference_matrix"]("convdiff", w["CONVDIFF_GRID"])
        ref.sort_indices()
        a = gen_convdiff2d(w["CONVDIFF_GRID"], w["PECLET_X"], w["PECLET_Y"], w["REACTION"])
        npt.assert_array_equal(a.indptr, ref.indptr)
        npt.assert_array_equal(a.indices, ref.indices)
        npt.assert_array_equal(a.data, ref.data)

    def test_generators_reject_nonpositive_n(self):
        for gen in (gen_laplace2d, gen_laplace3d, lambda n: gen_convdiff2d(n, 0.5, 0.3, 0.0)):
            with pytest.raises(ValueError):
                gen(0)


class TestMatrixMarket:
    def write(self, tmp_path, text):
        # as bytes: write_text would turn "\n" into the platform's line end
        p = tmp_path / "m.mtx"
        p.write_bytes(text.encode("ascii"))
        return p

    def test_general_with_duplicates(self, tmp_path):
        p = self.write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate real general",
            "% comment line",
            "",
            "3 3 4",
            "1 1 2.0",
            "1 1 0.5",
            "2 3 -1.0",
            "3 2 4.0",
        ]))
        a = parse_matrix_market(p)
        npt.assert_array_equal(a.to_dense(), [[2.5, 0, 0], [0, 0, -1], [0, 4, 0]])

    def test_symmetric_expansion(self, tmp_path):
        p = self.write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate real symmetric",
            "3 3 4",
            "1 1 2.0",
            "2 1 -1.0",
            "3 3 5.0",
            "3 2 7.0",
        ]))
        a = parse_matrix_market(p).to_dense()
        npt.assert_array_equal(a, a.T)
        npt.assert_array_equal(a, [[2, -1, 0], [-1, 0, 7], [0, 7, 5]])

    @pytest.mark.parametrize("text,lineno,msg", [
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n", 1, "coordinate"),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", 1, "real"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1\n", 1, "symmetry"),
        ("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n", 2, "square"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 one\n1 1 1.0\n", 2, "integers"),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n2 1 1.0\n", 3, "outside"),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 x 1.0\n", 3, "parse"),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n", 3, "non-finite"),
        # too few entries to give every row one, refused before any allocation
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n", 2, "each of 2 rows"),
        ("%%MatrixMarket matrix coordinate real general\n100000000000000 100000000000000 1\n"
         "1 1 1.0\n", 2, "each of 100000000000000 rows"),
        ("%%MatrixMarket matrix coordinate real symmetric\n5 5 2\n2 1 1.0\n4 3 1.0\n", 2,
         "each of 5 rows"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n1 2 1.0\n"
         "2 1 1.0\n", 6, "more than 3 entries"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0 0\n", 4,
         "row col value"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 -inf\n", 4, "non-finite"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", 3, "expected 2 entries"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 100000000000000\n1 1 1.0\n", 3,
         "expected 100000000000000 entries, found 1"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 3.0\n", 3, "lower triangle"),
    ])
    def test_errors_name_line(self, tmp_path, text, lineno, msg):
        p = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=f"line {lineno}:.*{msg}"):
            parse_matrix_market(p)

    @pytest.mark.parametrize("sym", ["general", "symmetric"])
    def test_vectorized_read_matches_line_by_line(self, tmp_path, sym):
        # the line-by-line read is the reference: same entries, same bits
        rng = np.random.default_rng(7)
        n, nnz = 60, 400
        rows = rng.integers(1, n + 1, nnz)
        cols = rng.integers(1, n + 1, nnz)
        if sym == "symmetric":
            rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
        vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-200, 200, nnz)
        lines = ["%%MatrixMarket matrix coordinate real " + sym, f"{n} {n} {nnz}"]
        lines += [f"{r} {c} {float(v)!r}" for r, c, v in zip(rows, cols, vals)]
        a = parse_matrix_market(self.write(tmp_path, "\n".join(lines) + "\n"))
        assert sstep.sparse._read_entries(lines[2:], n, nnz, sym == "symmetric") is not None
        r, c, v = sstep.sparse._read_entries_by_line(lines, 2, n, nnz, sym == "symmetric")
        if sym == "symmetric":
            off = r != c
            r, c, v = (np.concatenate([r, c[off]]), np.concatenate([c, r[off]]),
                       np.concatenate([v, v[off]]))
        ref = SparseMatrix.from_coo(n, r, c, v)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, name), getattr(ref, name))

    def test_entry_the_vectorized_read_refuses_is_read_line_by_line(self, tmp_path):
        # Python's float() takes digit grouping, which np.loadtxt refuses
        p = self.write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                                 "2 2 2\n1 1 1_000.5\n2 2 2.0\n")
        npt.assert_array_equal(parse_matrix_market(p).to_dense(), [[1000.5, 0], [0, 2.0]])

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            parse_matrix_market(self.write(tmp_path, ""))

    ENTRIES = ["1 1 2.5", "3 1 -1e-300", "2 3 7", "1 1 0.125", "3 3 1.7976931348623157e308"]

    @pytest.mark.parametrize("body", [
        "\r\n".join(ENTRIES) + "\r\n",
        "\r".join(ENTRIES) + "\r",
        "\n".join(ENTRIES),  # no final newline
        "\n".join("\t".join(e.split()) for e in ENTRIES) + "\n",
        "\n".join(e + " \t " for e in ENTRIES) + "\n  \n",
    ], ids=["crlf", "cr", "no-final-newline", "tabs", "trailing-blanks"])
    def test_line_ends_and_blanks_are_read_on_the_fast_path(self, tmp_path, monkeypatch, body):
        head = "%%MatrixMarket matrix coordinate real general\n3 3 5\n"
        ref = SparseMatrix.from_coo(3, *sstep.sparse._read_entries_by_line(
            ["", ""] + self.ENTRIES, 2, 3, 5, False))

        def refuse(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(sstep.sparse, "_read_entries_by_line", refuse)
        a = parse_matrix_market(self.write(tmp_path, head + body))
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, name), getattr(ref, name))

    def test_form_feed_and_vertical_tab_separate_fields(self, tmp_path):
        # lines end only at LF, CR and CR LF; str.splitlines also ends them
        # at a form feed or vertical tab, and the reader once refused these
        head = "%%MatrixMarket matrix coordinate real general\n% a\fcomment\n2 2 2\n"
        p = self.write(tmp_path, head + "1 1\f2.0\n2\v2 3.0\n")
        npt.assert_array_equal(parse_matrix_market(p).to_dense(), [[2.0, 0], [0, 3.0]])
        # the line-by-line read that names a bad line counts lines the same way
        p = self.write(tmp_path, head + "1 1\f2.0\n2 2 nan\n")
        with pytest.raises(ValueError, match="line 5: non-finite"):
            parse_matrix_market(p)

    def test_parse_peak_memory_is_at_most_five_times_the_matrix(self, tmp_path):
        # the entries stream from the file into one record array: no copy of
        # the text and no string per line is held
        a = gen_laplace2d(110)
        rows = np.repeat(np.arange(a.n), np.diff(a.indptr))
        p = tmp_path / "m.mtx"
        with open(p, "w", encoding="ascii") as f:
            f.write(f"%%MatrixMarket matrix coordinate real general\n{a.n} {a.n} {a.nnz}\n")
            np.savetxt(f, np.column_stack([rows + 1, a.indices + 1, a.data * np.pi]),
                       fmt="%d %d %.17g")
        assert a.nnz >= 50_000
        tracemalloc.start()
        try:
            m = parse_matrix_market(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        npt.assert_array_equal(m.indices, a.indices)
        assert peak <= 5 * (m.indptr.nbytes + m.indices.nbytes + m.data.nbytes)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_reading_798400_entries_raises_rss_by_at_most_45_mb(self, tmp_path):
        # the benchmark's convection-diffusion matrix on a 400 x 400 grid, an
        # 18 MB file, read in a fresh process so nothing else sets its peak.
        # VmHWM is the process's own high-water mark; ru_maxrss would start
        # from that of the forking test process
        workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
        path = tmp_path / "convdiff400.mtx"
        workloads["write_matrix_market"](workloads["reference_matrix"]("convdiff", 400), path)
        code = ("import sys, sstep\n"
                "def hwm():\n"
                "    with open('/proc/self/status') as f:\n"
                "        return next(int(x.split()[1]) for x in f if x.startswith('VmHWM:'))\n"
                "before = hwm()\n"
                "a = sstep.parse_matrix_market(sys.argv[1])\n"
                "print(a.nnz, (hwm() - before) / 1024)\n")  # VmHWM is in KiB
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        assert int(out[0]) == 798_400
        assert float(out[1]) <= 45.0


class TestEquilibration:
    def test_none_is_identity(self):
        a = gen_laplace2d(3)
        a2, eq = equilibrate(a, "none")
        assert a2 is a
        b = np.arange(9.0)
        npt.assert_array_equal(eq.apply_rhs(b), b)
        npt.assert_array_equal(eq.recover_solution(b), b)

    def test_scalar_mode_round_trip(self):
        a = gen_diagonal(4, 1.0, 4.0)
        a2, eq = equilibrate(a, "scalar", spectral_radius=4.0)
        npt.assert_allclose(a2.to_dense(), a.to_dense() / 4.0, atol=0)
        # solving A' x' = D_r b then x = D_c x' must reproduce A x = b
        rng = np.random.default_rng(5)
        b = rng.standard_normal(4)
        xp = np.linalg.solve(a2.to_dense(), eq.apply_rhs(b))
        x = eq.recover_solution(xp)
        npt.assert_allclose(a.to_dense() @ x, b, atol=1e-14)

    def test_column_mode_unit_norms(self):
        rng = np.random.default_rng(6)
        a = SparseMatrix.from_dense(rng.standard_normal((6, 6)))
        a2, eq = equilibrate(a, "column")
        npt.assert_allclose(a2.column_norms(), np.ones(6), atol=1e-14)
        b = rng.standard_normal(6)
        x = eq.recover_solution(np.linalg.solve(a2.to_dense(), eq.apply_rhs(b)))
        npt.assert_allclose(a.to_dense() @ x, b, atol=1e-12)

    def test_column_mode_rejects_zero_column(self):
        a = SparseMatrix.from_dense([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="column 1"):
            equilibrate(a, "column")

    def test_scalar_mode_needs_radius(self):
        a = gen_diagonal(2, 1.0, 2.0)
        with pytest.raises(ValueError, match="spectral radius"):
            equilibrate(a, "scalar")
        with pytest.raises(ValueError, match="positive"):
            equilibrate(a, "scalar", spectral_radius=-1.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown"):
            equilibrate(gen_diagonal(2, 1.0, 2.0), "rows")
