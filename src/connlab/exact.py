"""Exact linear algebra over the integers and prime fields.

One matrix class, IntMatrix, holds every operator; FieldMatrix is an
IntMatrix whose entries are kept reduced mod a prime p.  Everything here is
arbitrary precision: determinants by fraction-free (Bareiss) elimination;
L^-1 is the bundle's certified g, and ranks come from operators.forest_rank.
No floating point enters this module; conversion to float happens only via
IntMatrix.to_float().

The connection side of operators does not go through this module's O(n^3)
routines: OperatorBundle certifies L @ g = I over the nonzeros of L and g
and reads det L and the reciprocity of charpoly(L^2) off the Schur
complement of L's identity vertex block; products multiplies the factors'
determinants.  Bareiss det gives det J(L) in
scripts/newton_perturbation_sweep.py and is the test oracle for the Schur
det, as the dense product in tests/oracles.py is for L g = I and for @.

An IntMatrix is stored as IntMatrix.nonzeros, the (column, value) pairs of
each row, and as nothing else: dense input is converted to pairs at once,
and IntMatrix.rows builds fresh dense lists on every read.  Products (@,
one dict per row of the result), the L g = I certificate, the
Schur-complement det, the squared traces, equality, sums and differences,
abs, scale, transpose, kron and the entry reductions run over the pairs,
and to_array scatters them into numpy.  IntMatrix.step reads the same
nonzeros laid out once as compressed rows (numpy index arrays beside the
entries other than 1), so each mat-vec is one gather of the vector, one
multiply of the terms whose entry is not 1 and one segmented sum, O(nnz)
and on exact Python ints throughout.  step also takes an n x k block of
vectors, one per column: the gather takes whole rows of the block, the
factors scale each row of terms and the segmented sum runs along axis 0,
so k mat-vecs cost one call.  FieldMatrix.step is the same mat-vec
followed by reduction mod p, run in int64 while the largest row sum times
(p - 1) stays below 2^63 and on Python ints past it.  Every orbit, power
and round trip in dynamics, products and the CLI steps through step;
apply is step returned as a tuple.  In this module only Bareiss det and
dump_matrix read dense rows, and only to_float (for floating-point
spectra) builds a dense array; no mat-vec does.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

import numpy as np


class ShapeError(ValueError):
    pass


class SingularMatrixError(ArithmeticError):
    pass


class IntMatrix:
    """Integer matrix with exact arithmetic, held as the nonzeros of its rows.

    Row i of `nonzeros` is the list of (column, value) pairs of its nonzero
    entries in increasing column order; values are Python ints, so entries
    never overflow.  The shape is stored explicitly, so 0-row and 0-column
    matrices round-trip.  Dense rows given to the constructor are converted
    to pairs at once, and `rows` builds fresh dense lists of Python ints on
    every read, so writing into them never changes the matrix.
    """

    __slots__ = ("nrows", "ncols", "_nonzeros", "_csr")

    def __init__(self, rows: Sequence[Sequence[int]], ncols: int | None = None):
        rows = [list(map(int, r)) for r in rows]
        self.nrows = len(rows)
        if self.nrows:
            self.ncols = len(rows[0])
            if any(len(r) != self.ncols for r in rows):
                raise ShapeError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ShapeError("declared column count does not match rows")
        else:
            if ncols is None:
                raise ShapeError("empty matrix needs an explicit column count")
            self.ncols = ncols
        cols = range(self.ncols)
        self._nonzeros = [[(j, row[j]) for j in compress(cols, row)] for row in rows]
        self._csr: tuple | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_nonzeros(
        cls, nonzeros: list[list[tuple[int, int]]], nrows: int, ncols: int
    ) -> "IntMatrix":
        """The nrows x ncols matrix whose row i has the (column, value) pairs
        nonzeros[i], given in increasing column order with nonzero values.
        The lists are kept as they are, not copied."""
        if len(nonzeros) != nrows:
            raise ShapeError(f"{len(nonzeros)} rows of nonzeros for {nrows} rows")
        m = cls.__new__(cls)
        m.nrows, m.ncols = nrows, ncols
        m._nonzeros = nonzeros
        m._csr = None
        return m

    @staticmethod
    def from_dicts(rows: Sequence[dict[int, int]], ncols: int) -> "IntMatrix":
        """The matrix whose row i maps each column to its entry as rows[i]
        does; zero entries are dropped."""
        return IntMatrix.from_nonzeros(
            [sorted([(j, a) for j, a in row.items() if a]) for row in rows], len(rows), ncols
        )

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_nonzeros([[(i, 1)] for i in range(n)], n, n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls.from_nonzeros([[] for _ in range(nrows)], nrows, ncols)

    # -- storage -----------------------------------------------------------

    @property
    def rows(self) -> list[list[int]]:
        """The dense rows, built afresh from the nonzeros on every read."""
        return self._dense_rows()

    @property
    def nonzeros(self) -> list[list[tuple[int, int]]]:
        """The (column, value) pairs of each row, in column order."""
        return self._nonzeros

    def _dense_rows(self) -> list[list[int]]:
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for row, pairs in zip(rows, self._nonzeros):
            for j, a in pairs:
                row[j] = a
        return rows

    # -- basic algebra -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.nonzeros == other.nonzeros
        )

    def _combine(self, other: "IntMatrix", sign: int) -> "IntMatrix":
        """self + sign * other, merged row by row over the nonzeros."""
        self._same_shape(other)
        out = []
        for ra, rb in zip(self.nonzeros, other.nonzeros):
            acc = dict(ra)
            for j, b in rb:
                acc[j] = acc.get(j, 0) + sign * b
            out.append(acc)
        return IntMatrix.from_dicts(out, self.ncols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._combine(other, -1)

    def _map(self, f) -> "IntMatrix":
        """The matrix with every nonzero a replaced by f(a), which must be
        nonzero as well."""
        return IntMatrix.from_nonzeros(
            [[(j, f(a)) for j, a in row] for row in self.nonzeros], self.nrows, self.ncols
        )

    def scale(self, k: int) -> "IntMatrix":
        if k == 0:
            return IntMatrix.zeros(self.nrows, self.ncols)
        return self._map(lambda a: k * a)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The product row by row over the nonzeros (Gustavson): row i sums
        a * (row j of other) for each nonzero (j, a) of row i, so the cost is
        the number of nonzero products, and entries that cancel are dropped."""
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        rows_b = other.nonzeros
        out = []
        for row in self.nonzeros:
            acc: dict[int, int] = {}
            for j, a in row:
                for k, b in rows_b[j]:
                    acc[k] = acc.get(k, 0) + a * b
            out.append(acc)
        return IntMatrix.from_dicts(out, other.ncols)

    def _compressed_rows(self) -> tuple:
        """(cols, starts, scaled, filled, dtype): the nonzeros in compressed rows.

        cols is every nonzero's column, row by row (intp); starts is where
        each nonempty row begins in it (intp), and filled lists those rows,
        or is None when no row is empty.  dtype is the one mat-vecs run in
        (_matvec_dtype).  scaled is (at, factors), the positions in cols of
        the entries other than 1 (intp) and those entries, or None when
        every entry is 1; in int64, at is every position.
        """
        if self._csr is None:
            rows = self.nonzeros
            filled = [i for i, row in enumerate(rows) if row]
            starts = np.cumsum([0] + [len(rows[i]) for i in filled[:-1]], dtype=np.intp)
            cols = np.array([j for row in rows for j, _ in row], dtype=np.intp)
            values = [a for row in rows for _, a in row]
            at = [k for k, a in enumerate(values) if a != 1]
            dtype = self._matvec_dtype()
            if not at:
                scaled = None
            elif dtype is object:
                # products by 1 are skipped: on big ints they are most of the cost
                scaled = (np.array(at, dtype=np.intp), np.array([values[k] for k in at], dtype=object))
            else:
                # in int64 multiplying every term costs less than picking some out
                scaled = (slice(None), np.array(values, dtype=dtype))
            self._csr = (
                cols,
                starts,
                scaled,
                None if len(filled) == self.nrows else np.array(filled, dtype=np.intp),
                dtype,
            )
        return self._csr

    def _matvec_dtype(self):
        """Mat-vecs of an integer matrix run on exact Python ints."""
        return object

    def step(self, vec) -> np.ndarray:
        """m @ vec as an array of the compressed rows' dtype: one gather of
        vec, one multiply of the terms whose entry is not 1 and one
        segmented sum over the nonzeros.  vec may be a sequence or an array;
        an array of that dtype is used as it is.  vec may also be an
        ncols x k block of vectors, one per column: the gather takes whole
        rows of it, the sum runs along axis 0, and the result is the
        nrows x k block of their products."""
        if len(vec) != self.ncols:
            raise ShapeError("vector length does not match column count")
        cols, starts, scaled, filled, dtype = self._compressed_rows()
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
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self.nonzeros):
            for j, a in row:
                out[j].append((i, a))
        return IntMatrix.from_nonzeros(out, self.ncols, self.nrows)

    def trace(self) -> int:
        if not self.is_square():
            raise ShapeError("trace needs a square matrix")
        return sum(a for i, row in enumerate(self.nonzeros) for j, a in row if i == j)

    def entry_sum(self) -> int:
        return sum(a for row in self.nonzeros for _, a in row)

    def max_abs(self) -> int:
        return max((abs(a) for row in self.nonzeros for _, a in row), default=0)

    def abs(self) -> "IntMatrix":
        return self._map(abs)

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def row_sums(self) -> list[int]:
        return [sum(a for _, a in row) for row in self.nonzeros]

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product, row-major cell order (i*p+k, j*q+l), one
        product per pair of nonzeros."""
        q = other.ncols
        out = [
            [(j * q + l, a * b) for j, a in ra for l, b in rb]
            for ra in self.nonzeros
            for rb in other.nonzeros
        ]
        return IntMatrix.from_nonzeros(out, self.nrows * other.nrows, self.ncols * q)

    def to_array(self, dtype) -> np.ndarray:
        """The entries as a dense numpy array of the given dtype, scattered
        from the nonzeros."""
        rows = self.nonzeros
        out = np.zeros((self.nrows, self.ncols), dtype=dtype)
        out[
            np.repeat(np.arange(self.nrows), [len(row) for row in rows]),
            [j for row in rows for j, _ in row],
        ] = np.array([a for row in rows for _, a in row], dtype=dtype)
        return out

    def to_float(self) -> np.ndarray:
        return self.to_array(float)

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# elimination


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Pivots are chosen as the first nonzero entry in each column; every
    division in the update is exact by the Sylvester minor identity.
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
    the entries that are 0 mod p are not among its nonzeros.

    Shape handling and storage are IntMatrix's.  Identity, equality, products, mat-vecs
    and differences are the IntMatrix operations followed by reduction mod
    p; the other operations (+, transpose, kron, ...) return a plain,
    unreduced IntMatrix.
    """

    __slots__ = ("p",)

    def __init__(self, rows: Sequence[Sequence[int]], p: int, ncols: int | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(rows, ncols)
        self.p = p
        self._nonzeros = _reduced(self._nonzeros, p)

    @classmethod
    def from_nonzeros(
        cls, nonzeros: list[list[tuple[int, int]]], nrows: int, ncols: int, p: int
    ) -> "FieldMatrix":
        """IntMatrix.from_nonzeros with every value reduced mod p; the pairs
        whose value is 0 mod p are dropped."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        m = super().from_nonzeros(_reduced(nonzeros, p), nrows, ncols)
        m.p = p
        return m

    @classmethod
    def identity(cls, n: int, p: int) -> "FieldMatrix":
        return cls.from_nonzeros(IntMatrix.identity(n).nonzeros, n, n, p)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldMatrix) and self.p == other.p and super().__eq__(other)

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.p != other.p:
            raise ValueError("mixed moduli")
        return field_reduce(super().__matmul__(other), self.p)

    def _matvec_dtype(self):
        """int64 when no entry of m @ x can reach 2^63, else Python ints.

        With x reduced mod p, each entry of m @ x is at most the largest row
        sum of m times (p - 1), and each entry of x is below p.
        """
        bound = max(self.row_sums(), default=0) * (self.p - 1)
        return np.int64 if bound < 2**63 and self.p < 2**63 else object

    def step(self, vec) -> np.ndarray:
        """m @ vec mod p, for vec (a vector or a block) reduced mod p; an
        array in int64 or of Python ints as _matvec_dtype decides."""
        return super().step(vec) % self.p

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        p = self.p
        return tuple(self.step([x % p for x in vec]).tolist())

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.p != other.p:
            raise ShapeError("modulus mismatch")
        return field_reduce(super().__sub__(other), self.p)


def _reduced(nonzeros: list[list[tuple[int, int]]], p: int) -> list[list[tuple[int, int]]]:
    """The pairs with every value reduced mod p, less those that are 0 mod p."""
    return [[(j, a % p) for j, a in row if a % p] for row in nonzeros]


def field_reduce(m: IntMatrix, p: int) -> FieldMatrix:
    return FieldMatrix.from_nonzeros(m.nonzeros, m.nrows, m.ncols, p)


# ---------------------------------------------------------------------------
# dump format: first line "rows cols", then one whitespace-separated row per
# line.


def dump_matrix(m: IntMatrix) -> str:
    lines = [f"{m.nrows} {m.ncols}"]
    lines.extend(" ".join(map(str, row)) for row in m.rows)
    return "\n".join(lines) + "\n"
