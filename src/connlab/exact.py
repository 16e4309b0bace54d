"""Exact linear algebra over the integers and prime fields.

One matrix class, IntMatrix, holds every operator; FieldMatrix is an
IntMatrix whose entries are kept reduced mod a prime p.  Everything here is
arbitrary precision: determinants by fraction-free (Bareiss) elimination;
L^-1 is the bundle's certified g, and ranks come from operators.forest_rank.
No floating point enters this module; conversion to float happens only via
IntMatrix.to_float().

The connection side of operators does not go through this module's O(n^3)
routines: OperatorBundle certifies L @ g = I by the sparse product of L and
g and reads det L and the reciprocity of charpoly(L^2) off the Schur
complement of L's identity vertex block; products multiplies the factors'
determinants.  Bareiss det gives det J(L) in
scripts/newton_perturbation_sweep.py and is the test oracle for the Schur
det, as the dense product in tests/oracles.py is for L g = I and for @.

An IntMatrix stores its nonzero entries one way, as compressed rows:
IntMatrix.csr holds indptr, the columns row by row and the values as numpy
arrays.  Every matrix is built by from_csr, from_triplets or an operation,
each of which sets them; no constructor reads dense rows (the tests build
their fixtures from dense rows through from_triplets).  IntMatrix.rows
builds fresh dense lists on every read.  Values are held in int64 while
every one has absolute value below 2^63, else as Python ints (object
arrays).  An operation computes in int64 only while a bound keeps every
result exact: for @, the largest entries of the two factors times the
terms of one entry stay below 2^63, for sums the largest value times the
terms of one entry; past the bound it computes on Python ints.  What leaves
an IntMatrix (dense rows, sums, max_abs, apply) is Python ints.

Every operation that forms a matrix runs through one aggregation kernel,
IntMatrix.from_triplets: (row, column, value) triplets sorted by row *
ncols + column, the values of equal keys summed by np.add.reduceat and the
zeros dropped.  @ is the row-by-row (Gustavson) product: each nonzero
(i, j, a) of the left factor is expanded over row j of the right one
(IntMatrix.row_terms), and the kernel sums the products; +, - and
linear_combination concatenate signed triplets; kron pairs every two
nonzero entries; transpose is a stable sort by column.  The L g = I
certificate, the Schur complement and the hydrogen residual in operators
are these operations.  No kernel allocates n x n scratch: memory grows with
the nonzero entries.  IntMatrix.step reads the compressed rows laid out
once more for mat-vecs (the positions of the entries other than 1 and
those entries), so each mat-vec is one gather of the vector, one multiply
of the terms whose entry is not 1 and one segmented sum, O(nnz) and on
exact Python ints throughout.  step also takes an n x k block of vectors,
one per column: the gather takes whole rows of the block, the factors
scale each row of terms and the segmented sum runs along axis 0, so k
mat-vecs cost one call.  FieldMatrix.step is the same mat-vec over the
signed residues of the entries, in (-p/2, p/2], followed by reduction to
0..p-1, run in int64 while the largest row sum of their absolute values
times (p - 1) stays below 2^63 and on Python ints past it;
IntMatrix.step_dtype names the dtype a step returns.  block_diagonal lays
two matrices' compressed rows side by side, so that one step of diag(L, g)
advances both time directions of an orbit.
Every orbit, power and round trip in dynamics, products and the CLI steps
through step; apply is step returned as a tuple.  In this module only
Bareiss det and dump_matrix read dense rows, and only to_float (for
floating-point spectra) builds a dense array; no mat-vec does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class ShapeError(ValueError):
    pass


class SingularMatrixError(ArithmeticError):
    pass


_WORD = 2**63  # int64 holds exactly the integers of absolute value below 2^63


def _narrowed(values) -> np.ndarray:
    """values (a sequence or an array of ints) in int64 when every one has
    absolute value below 2^63, else as an array of Python ints (object)."""
    try:
        out = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)
    # -2^63 fits in int64 but its negation and abs do not
    return np.asarray(values, dtype=object) if len(out) and out.min() == -_WORD else out


def _max_abs(values: np.ndarray) -> int:
    if not len(values):
        return 0
    if values.dtype == object:
        return max(map(abs, values.tolist()))
    return max(int(values.max()), -int(values.min()))


def _exact(values: np.ndarray, bound: int) -> np.ndarray:
    """values as Python ints once bound, a bound on the results computed
    from them, reaches 2^63; below it, as they are."""
    return values.astype(object) if bound >= _WORD else values


class IntMatrix:
    """Integer matrix with exact arithmetic, stored as its compressed rows.

    `csr` is (indptr, cols, values): row i's columns are cols[indptr[i]:
    indptr[i+1]], increasing, and its nonzero entries the values there, in
    int64 when every one has absolute value below 2^63, else as Python
    ints, so entries never overflow.  Every matrix comes from from_csr,
    from_triplets or an operation, and each sets it; no constructor takes
    dense rows.  The shape is stored explicitly, so 0-row and 0-column
    matrices round-trip.  `rows` builds fresh dense lists of Python ints on
    every read, so writing into them never changes the matrix.
    """

    # csr is the one store of the entries; _rows (the row of each entry),
    # _plan and _largest are caches derived from it
    __slots__ = ("nrows", "ncols", "csr", "_rows", "_plan", "_largest")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _new(cls, nrows: int, ncols: int, csr, rows=None) -> "IntMatrix":
        """The matrix of the compressed rows csr; rows, when given, is the
        row of each entry."""
        m = cls.__new__(cls)
        m.nrows, m.ncols, m.csr, m._rows = nrows, ncols, csr, rows
        m._plan = m._largest = None
        return m

    @classmethod
    def from_csr(cls, indptr, cols, values, nrows: int, ncols: int) -> "IntMatrix":
        """The nrows x ncols matrix whose row i has the columns
        cols[indptr[i]:indptr[i+1]], increasing, with the nonzero values at
        the same positions.  The arrays are kept, not copied."""
        if len(indptr) != nrows + 1:
            raise ShapeError(f"{len(indptr) - 1} rows of compressed rows for {nrows} rows")
        csr = (np.asarray(indptr, dtype=np.intp), np.asarray(cols, dtype=np.intp), _narrowed(values))
        return cls._new(nrows, ncols, csr)

    @staticmethod
    def from_triplets(rows, cols, values, nrows: int, ncols: int) -> "IntMatrix":
        """The matrix whose (rows[t], cols[t]) entry sums values[t] over t.

        The aggregation kernel of every operation: the triplets are sorted
        by rows * ncols + cols, the values of equal keys summed by
        np.add.reduceat, and the sums that are 0 dropped.  The sums run in
        int64 while the largest value times the most terms of one entry
        stays below 2^63, else on Python ints.
        """
        values = _narrowed(values)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        return _assemble(rows, cols, values, nrows, ncols, _max_abs(values))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_csr(np.arange(n + 1), np.arange(n), np.ones(n, dtype=np.int64), n, n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        empty = np.zeros(0, dtype=np.int64)
        return cls.from_csr(np.zeros(nrows + 1, dtype=np.intp), empty, empty, nrows, ncols)

    # -- storage -----------------------------------------------------------

    @property
    def rows(self) -> list[list[int]]:
        """The dense rows, built afresh on every read."""
        return self._dense_rows()

    @property
    def nnz(self) -> int:
        return len(self.csr[1])

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the nonzero entries, in row order."""
        indptr, cols, values = self.csr
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.nrows), indptr[1:] - indptr[:-1])
        return self._rows, cols, values

    def row_terms(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries of rows index[0], index[1], ... in turn, as
        (t, cols, values) with t the position in index that each comes
        from: the gather of the row-by-row (Gustavson) product."""
        indptr, cols, values = self.csr
        starts = indptr[index]
        counts = indptr[index + 1] - starts
        t = np.repeat(np.arange(len(index)), counts)
        at = np.arange(len(t)) + (starts - counts.cumsum() + counts)[t]
        return t, cols[at], values[at]

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "IntMatrix":
        """Rows r0..r1-1 and columns c0..c1-1, cut from the compressed rows."""
        indptr, cols, values = self.csr
        lo, hi = indptr[r0], indptr[r1]
        cols, values = cols[lo:hi], values[lo:hi]
        kept = (cols >= c0) & (cols < c1)
        # row i keeps the entries kept before its end
        indptr = np.concatenate(([0], kept.cumsum()))[indptr[r0 : r1 + 1] - lo]
        return IntMatrix._new(r1 - r0, c1 - c0, (indptr, cols[kept] - c0, values[kept]))

    def _dense_rows(self) -> list[list[int]]:
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for i, j, a in zip(*(x.tolist() for x in self.triplets())):
            rows[i][j] = a
        return rows

    # -- basic algebra -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix) or self.shape != other.shape:
            return False
        (indptr, cols, values), (indptr_b, cols_b, values_b) = self.csr, other.csr
        return len(cols) == len(cols_b) and bool(
            (indptr == indptr_b).all() and (cols == cols_b).all() and (values == values_b).all()
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return linear_combination((self, 1), (other, 1))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return linear_combination((self, 1), (other, -1))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The product row by row (Gustavson): row i sums a * (row j of
        other) for each nonzero (j, a) of row i, gathered for every nonzero
        at once and summed by from_triplets, so the cost is the number of
        nonzero products, and entries that cancel are dropped."""
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        rows, cols, a = self.triplets()
        t, out_cols, b = other.row_terms(cols)
        largest = self.max_abs() * other.max_abs()
        products = _exact(a, largest)[t] * _exact(b, largest)
        return _assemble(rows[t], out_cols, products, self.nrows, other.ncols, largest)

    def _step_plan(self) -> tuple:
        """(cols, starts, scaled, filled, dtype): the compressed rows laid
        out for step.

        starts is where each nonempty row begins in cols, and filled lists
        those rows, or is None when no row is empty.  dtype is the one
        mat-vecs run in (_matvec_dtype).  scaled is (at, factors), the
        positions in cols of the factors (_factors) other than 1 and those
        factors, or None when every factor is 1; in int64, at is every
        position.
        """
        if self._plan is None:
            indptr, cols, _ = self.csr
            values = self._factors()
            filled = np.flatnonzero(indptr[1:] - indptr[:-1])
            dtype = self._matvec_dtype(values)
            if dtype is object:
                # products by 1 are skipped: on big ints they are most of the cost
                at = np.flatnonzero(values != 1)
                scaled = (at, values[at].astype(object)) if len(at) else None
            else:
                # in int64 multiplying every term costs less than picking some out
                scaled = None if (values == 1).all() else (slice(None), values.astype(dtype))
            self._plan = (
                cols,
                indptr[filled],
                scaled,
                None if len(filled) == self.nrows else filled,
                dtype,
            )
        return self._plan

    def _factors(self) -> np.ndarray:
        """The values that step multiplies by: the entries themselves."""
        return self.csr[2]

    def _matvec_dtype(self, factors: np.ndarray):
        """Mat-vecs of an integer matrix run on exact Python ints."""
        return object

    @property
    def step_dtype(self):
        """The dtype step returns: object (Python ints) or np.int64."""
        return self._step_plan()[-1]

    def step(self, vec) -> np.ndarray:
        """m @ vec as an array of step_dtype: one gather of vec, one
        multiply of the terms whose entry is not 1 and one segmented sum
        over the nonzero entries.  vec may be a sequence or an array; an
        array of that dtype is used as it is.  vec may also be an ncols x k
        block of vectors, one per column: the gather takes whole rows of it,
        the sum runs along axis 0, and the result is the nrows x k block of
        their products."""
        if len(vec) != self.ncols:
            raise ShapeError("vector length does not match column count")
        cols, starts, scaled, filled, dtype = self._step_plan()
        vec = np.asarray(vec, dtype=dtype)
        if not len(cols):
            return np.zeros((self.nrows,) + vec.shape[1:], dtype=dtype)
        terms = vec[cols]
        if scaled is not None:
            at, factors = scaled
            terms[at] *= factors if vec.ndim == 1 else factors[:, None]
        # reduceat sums terms[starts[k]:starts[k+1]]; an empty row would get
        # the next row's first term instead of 0, so only nonempty rows are
        # summed and the rest are scattered around zeros
        sums = np.add.reduceat(terms, starts)
        if filled is None:
            return sums
        out = np.zeros((self.nrows,) + vec.shape[1:], dtype=dtype)
        out[filled] = sums
        return out

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """m @ vec, one multiply-add per nonzero, on exact Python ints."""
        return tuple(self.step(vec).tolist())

    def transpose(self) -> "IntMatrix":
        rows, cols, values = self.triplets()
        # a stable sort by column keeps the rows of each column in order
        order = cols.argsort(kind="stable")
        cols = cols[order]
        indptr = np.searchsorted(cols, np.arange(self.ncols + 1))
        return IntMatrix._new(self.ncols, self.nrows, (indptr, rows[order], values[order]), cols)

    def trace(self) -> int:
        if not self.is_square():
            raise ShapeError("trace needs a square matrix")
        rows, cols, values = self.triplets()
        return sum(values[rows == cols].tolist())

    def entry_sum(self) -> int:
        return sum(self.csr[2].tolist())

    def max_abs(self) -> int:
        if self._largest is None:
            self._largest = _max_abs(self.csr[2])
        return self._largest

    def abs(self) -> "IntMatrix":
        indptr, cols, values = self.csr
        return IntMatrix._new(self.nrows, self.ncols, (indptr, cols, np.abs(values)))

    def is_zero(self) -> bool:
        return self.nnz == 0

    def row_sums(self) -> list[int]:
        indptr, _, values = self.csr
        totals = np.cumsum(_exact(values, self.max_abs() * len(values)))
        totals = np.concatenate((np.zeros(1, dtype=totals.dtype), totals))
        return (totals[indptr[1:]] - totals[indptr[:-1]]).tolist()

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product, row-major cell order (i*p+k, j*q+l), one
        product per pair of nonzero entries."""
        p, q = other.nrows, other.ncols
        ra, ca, a = self.triplets()
        rb, cb, b = other.triplets()
        largest = self.max_abs() * other.max_abs()
        return _assemble(
            (ra[:, None] * p + rb).ravel(),
            (ca[:, None] * q + cb).ravel(),
            (_exact(a, largest)[:, None] * _exact(b, largest)).ravel(),
            self.nrows * p,
            self.ncols * q,
            largest,
        )

    def to_array(self, dtype) -> np.ndarray:
        """The entries as a dense numpy array of the given dtype, scattered
        from the triplets."""
        rows, cols, values = self.triplets()
        out = np.zeros((self.nrows, self.ncols), dtype=dtype)
        out[rows, cols] = values
        return out

    def to_float(self) -> np.ndarray:
        return self.to_array(float)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.nrows}x{self.ncols})"


def linear_combination(*terms: tuple[IntMatrix, int]) -> IntMatrix:
    """The sum of k * m over the (m, k) terms, matrices of one shape: their
    triplets, each value times its k, summed by one from_triplets."""
    shape = terms[0][0].shape
    for m, _ in terms:
        if m.shape != shape:
            raise ShapeError(f"shape mismatch {shape} vs {m.shape}")
    largest = max(abs(k) * max(m.max_abs(), 1) for m, k in terms)
    parts = [(m.triplets(), k) for m, k in terms]
    return _assemble(
        np.concatenate([rows for (rows, _, _), _ in parts]),
        np.concatenate([cols for (_, cols, _), _ in parts]),
        np.concatenate([_exact(values, largest) * k for (_, _, values), k in parts]),
        *shape,
        largest,
    )


def _assemble(rows, cols, values, nrows: int, ncols: int, largest: int) -> IntMatrix:
    """from_triplets for int64 index arrays and values, of absolute value at
    most largest, that hold no -2^63."""
    if not len(values):
        return IntMatrix.zeros(nrows, ncols)
    keys = rows * ncols + cols
    # timsort: the triplets of a sum, and those of a product row by row,
    # come as sorted runs, which it merges in about linear time
    order = keys.argsort(kind="stable")
    keys, values = keys[order], values[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not first.all():  # some entry has more than one term
        starts = first.nonzero()[0]
        if largest * len(keys) >= _WORD:
            terms = int(np.diff(starts, append=len(keys)).max())
            values = _exact(values, largest * terms)
        keys, values = keys[starts], np.add.reduceat(values, starts)
    nonzero = values != 0
    if not nonzero.all():
        keys, values = keys[nonzero], values[nonzero]
    if values.dtype == object:
        values = _narrowed(values)
    rows, cols = np.divmod(keys, ncols)
    indptr = np.searchsorted(rows, np.arange(nrows + 1))
    return IntMatrix._new(nrows, ncols, (indptr, cols, values), rows)


# ---------------------------------------------------------------------------
# elimination


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Pivots are chosen as the first nonzero entry in each column; every
    division in the update is exact by the Sylvester minor identity.  No
    command runs it: scripts/newton_perturbation_sweep.py decides det J(L)
    with it, and the tests use it as the determinant oracle.
    """
    if not m.is_square():
        raise ShapeError("determinant needs a square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = m.rows  # fresh lists, eliminated in place
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            f = row_i[k]
            for j in range(k + 1, n):
                num = pivot * row_i[j] - f * row_k[j]
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError("inexact division in Bareiss step")
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# prime fields

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to every base in _WITNESSES (Sorenson and
# Webster, Strong pseudoprimes to twelve prime bases, 2017)
PRIME_TEST_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2 to 37, exact for
    n < PRIME_TEST_LIMIT; a larger n raises ValueError.  n divisible by a
    base is decided by that division, so the bases are all units mod n."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(
            f"cannot decide whether {n} is prime: the test is exact below {PRIME_TEST_LIMIT}"
        )
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _WITNESSES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldMatrix(IntMatrix):
    """IntMatrix over F_p: entries reduced to 0..p-1 and kept reduced, so
    the entries that are 0 mod p are not stored.

    Shape handling, storage and equality are IntMatrix's, so equality
    compares the entries and not p; every FieldMatrix comes from from_csr,
    which field_reduce and block_diagonal call.  Products and mat-vecs are
    the IntMatrix operations followed by reduction mod p; the other
    operations (+, -, transpose, kron, ...) return a plain, unreduced
    IntMatrix.
    """

    __slots__ = ("p",)

    @classmethod
    def from_csr(cls, indptr, cols, values, nrows: int, ncols: int, p: int) -> "FieldMatrix":
        """IntMatrix.from_csr with every value reduced mod p; the entries
        that are 0 mod p are dropped."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        values = _exact(_narrowed(values), p) % p
        kept = values != 0
        # row i keeps the entries kept before indptr[i + 1]
        indptr = np.concatenate(([0], np.cumsum(kept)))[np.asarray(indptr, dtype=np.intp)]
        m = super().from_csr(indptr, np.asarray(cols)[kept], values[kept], nrows, ncols)
        m.p = p
        return m

    # perfbench/tracing.py wraps __matmul__ and apply from each class's own __dict__
    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.p != other.p:
            raise ValueError("mixed moduli")
        return field_reduce(super().__matmul__(other), self.p)

    def _factors(self) -> np.ndarray:
        """The entries as signed residues, in (-p/2, p/2]: g's -1 steps as
        -1 rather than p - 1, so sums stay as small as the integer ones."""
        values = _exact(self.csr[2], self.p)
        return np.where(values > self.p // 2, values - self.p, values)

    def _matvec_dtype(self, factors: np.ndarray):
        """int64 when no entry of m @ x can reach 2^63, else Python ints.

        With x reduced mod p, each entry of x is below p and each entry of
        m @ x, summed over the signed residues, has absolute value at most
        the largest row sum of their absolute values times (p - 1).
        """
        indptr, cols, _ = self.csr
        signed = IntMatrix._new(self.nrows, self.ncols, (indptr, cols, np.abs(factors)))
        bound = max(signed.row_sums(), default=0) * (self.p - 1)
        return np.int64 if bound < _WORD and self.p < _WORD else object

    def step(self, vec) -> np.ndarray:
        """m @ vec mod p in 0..p-1, for vec (a vector or a block) reduced
        mod p; an array in int64 or of Python ints as _matvec_dtype
        decides."""
        return super().step(vec) % self.p

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        p = self.p
        return tuple(self.step([x % p for x in vec]).tolist())


def field_reduce(m: IntMatrix, p: int) -> FieldMatrix:
    return FieldMatrix.from_csr(*m.csr, m.nrows, m.ncols, p)


def block_diagonal(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """diag(a, b): b's compressed rows laid after a's, its columns shifted
    past a's; a FieldMatrix mod p when a is one (b's entries are then
    reduced mod the same p)."""
    (indptr_a, cols_a, values_a), (indptr_b, cols_b, values_b) = a.csr, b.csr
    indptr = np.concatenate((indptr_a, indptr_b[1:] + indptr_a[-1]))
    csr = (indptr, np.concatenate((cols_a, cols_b + a.ncols)), np.concatenate((values_a, values_b)))
    shape = (a.nrows + b.nrows, a.ncols + b.ncols)
    if isinstance(a, FieldMatrix):
        return FieldMatrix.from_csr(*csr, *shape, a.p)
    return IntMatrix.from_csr(*csr, *shape)


# ---------------------------------------------------------------------------
# dump format: first line "rows cols", then one whitespace-separated row per
# line.


def dump_matrix(m: IntMatrix) -> str:
    lines = [f"{m.nrows} {m.ncols}"]
    lines.extend(" ".join(map(str, row)) for row in m.rows)
    return "\n".join(lines) + "\n"
