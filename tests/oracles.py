"""Slow exact routines kept as test oracles for the fast routes in src/.

inverse_unimodular is a fraction-free Gauss-Jordan inverse, O(n^3) on big
integers.  The Schur-complement block inverse (operators.schur_inverse), the
star-formula Green matrix, kron(g_A, g_B) for products and the backward
walks are compared with it.

supersymmetry_charpoly is the characteristic-polynomial route that
operators.supersymmetry_report replaced: four multimodular charpolys
compared with their zero roots stripped.  rank is Gaussian elimination on
Fractions, the oracle for exact.certified_rank; matpow is dense binary
exponentiation; quaternion_branch_rank builds the 4n x 4n branch map from
both and takes its rank.

dense_kron is the Kronecker product written entry by entry from the dense
rows, the oracle for IntMatrix.kron over the pairs.  edited gives a copy of
a matrix with some entries changed, the way the mutation tests build a
corrupted operator, since a matrix never changes once built.

jacobi_residual_two_apply is the Jacobi residual with |H| applied twice at
every time, the route dynamics.jacobi_residual keeps only for one-parity
branches.

The dense_* builders write each bundle operator entry by entry into dense
rows; operators builds them from their nonzeros instead, and the tests
compare the two over the corpus.  dense_connection tests every pair of
simplices for an intersection, and dense_hodge forms the Gram blocks
d0^T d0 and d0 d0^T by dense products.
"""

from fractions import Fraction

from connlab.complexes import Complex, parity, simplices_intersect
from connlab.dynamics import DynamicsError, Trajectory
from connlab.exact import IntMatrix, IntPolynomial, ShapeError, SingularMatrixError, charpoly
from connlab.graphs import Graph, betti_numbers
from connlab.operators import OperatorBundle, SupersymmetryReport


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Integer inverse of a unimodular matrix by fraction-free Gauss-Jordan.

    The augmented system [m | I] is reduced with Bareiss-style integer
    updates, each division exact by the Sylvester identity.  At the end every
    diagonal entry of the left block equals the final pivot, which is
    +-det m, so the inverse is the right block divided by it.  Raises
    SingularMatrixError on a zero pivot and ValueError when the final pivot
    is not +-1, that is when m has no integer inverse.
    """
    if not m.is_square():
        raise ShapeError("inverse needs a square matrix")
    n = m.nrows
    width = 2 * n
    a = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.rows)]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    break
            else:
                raise SingularMatrixError("matrix is singular over the rationals")
        pivot = a[k][k]
        row_k = a[k]
        for i in range(n):
            if i == k:
                continue
            row_i = a[i]
            f = row_i[k]
            for j in range(width):
                if j == k:
                    continue
                num = pivot * row_i[j] - f * row_k[j]
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError("inexact division in Jordan step")
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
    if prev not in (1, -1):
        raise ValueError(f"matrix is not unimodular: final pivot {prev}")
    # 1/prev == prev for prev = +-1
    return IntMatrix([[prev * x for x in row[n:]] for row in a], ncols=n)


def strip_zero_root(p: IntPolynomial) -> tuple[int, tuple[int, ...]]:
    """Split a characteristic polynomial into (multiplicity of root 0, rest)."""
    coeffs = p.coeffs
    mult = 0
    while mult < len(coeffs) and coeffs[mult] == 0:
        mult += 1
    return mult, coeffs[mult:]


def supersymmetry_charpoly(bundle: OperatorBundle) -> SupersymmetryReport:
    """The report from the charpolys of H0, H1, |H0| and |H1|: the zero-root
    multiplicities are the kernel counts, and the stripped polynomials of
    each pair must be identical."""
    b0, b1 = betti_numbers(bundle.graph)
    k0, q0 = strip_zero_root(charpoly(bundle.hodge0))
    k1, q1 = strip_zero_root(charpoly(bundle.hodge1))
    sk0, sq0 = strip_zero_root(charpoly(bundle.hodge0_signless))
    sk1, sq1 = strip_zero_root(charpoly(bundle.hodge1_signless))
    return SupersymmetryReport(
        betti0=b0,
        betti1=b1,
        kernel0=k0,
        kernel1=k1,
        nonzero_match=q0 == q1,
        signless_kernel0=sk0,
        signless_kernel1=sk1,
        signless_nonzero_match=sq0 == sq1,
    )


def rank(m: IntMatrix) -> int:
    """Exact rank over the rationals by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in r] for r in m.rows]
    r = 0
    for col in range(m.ncols):
        pivot = next((i for i in range(r, m.nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        for i in range(r + 1, m.nrows):
            if rows[i][col] != 0:
                factor = rows[i][col] * inv
                for j in range(col, m.ncols):
                    rows[i][j] -= factor * rows[r][j]
        r += 1
        if r == m.nrows:
            break
    return r


def matpow(m: IntMatrix, k: int) -> IntMatrix:
    """Exact k-th power, k >= 0, by binary exponentiation."""
    if not m.is_square():
        raise ShapeError("power needs a square matrix")
    if k < 0:
        raise ValueError("negative powers are handled via exact inverses")
    result = IntMatrix.identity(m.nrows)
    base = m
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def quaternion_branch_rank(bundle: OperatorBundle) -> int:
    """Rank of the map from (psi0..psi3) to the states at times 0, 1, 2, 3.

    Full rank 4n means every solution arises from a unique branch quadruple.
    The map degenerates exactly on eigenvectors of L with eigenvalue +1 or
    -1 (the branch pairs collide there), and the deficiency is reported by
    this rank rather than hidden.
    """
    n = bundle.size
    L = bundle.connection
    Linv = bundle.green
    zero = IntMatrix.zeros(n, n)
    p = {0: IntMatrix.identity(n), 1: L, 2: matpow(L, 2), 3: matpow(L, 3)}
    q = {0: IntMatrix.identity(n), 1: Linv, 2: matpow(Linv, 2), 3: matpow(Linv, 3)}
    rows: list[list[int]] = []
    for t in range(4):
        blocks = (
            (p[t], q[t], zero, zero) if t % 2 == 0 else (zero, zero, p[t], q[t])
        )
        dense = [block.rows for block in blocks]
        for i in range(n):
            rows.append(dense[0][i] + dense[1][i] + dense[2][i] + dense[3][i])
    return rank(IntMatrix(rows))


def dense_kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product from the dense rows: row i*p+k is a[i][j] * b[k]
    for each column j of a in turn."""
    rows_b = b.rows
    return IntMatrix(
        [[x * y for x in row_a for y in row_b] for row_a in a.rows for row_b in rows_b],
        ncols=a.ncols * b.ncols,
    )


def edited(m: IntMatrix, entries: dict[tuple[int, int], int]) -> IntMatrix:
    """The matrix m with entry (i, j) set to entries[(i, j)]; m is unchanged."""
    rows = m.rows
    for (i, j), a in entries.items():
        rows[i][j] = a
    return IntMatrix(rows, ncols=m.ncols)


def jacobi_residual_two_apply(t: Trajectory, habs: IntMatrix) -> int:
    """max over n of |psi(n+2) - 2 psi(n) + psi(n-2) - |H|(|H| psi(n))|_inf."""
    worst = None
    for n in t.times():
        if n + 2 not in t or n - 2 not in t:
            continue
        hi, mid, lo = t[n + 2], t[n], t[n - 2]
        pulled = habs.apply(habs.apply(mid))
        residual = max(abs(hi[i] - 2 * mid[i] + lo[i] - pulled[i]) for i in range(len(mid)))
        worst = residual if worst is None else max(worst, residual)
    if worst is None:
        raise DynamicsError("trajectory does not cover any n-2, n, n+2 triple")
    return worst


# ---------------------------------------------------------------------------
# dense builders: each operator written entry by entry into n x n lists of
# ints, the route operators replaced by writing the nonzeros directly


def dense_incidence_signed(c: Complex, signs=None) -> IntMatrix:
    if signs is None:
        signs = (1,) * c.e
    rows = []
    for s, (a, b) in zip(signs, c.graph.edges):
        row = [0] * c.v
        row[a] = -s
        row[b] = s
        rows.append(row)
    return IntMatrix(rows, ncols=c.v)


def dense_abs(m: IntMatrix) -> IntMatrix:
    return IntMatrix([[abs(a) for a in r] for r in m.rows], ncols=m.ncols)


def dense_dirac(d0: IntMatrix) -> IntMatrix:
    v, e = d0.ncols, d0.nrows
    d = d0.rows
    rows = [[0] * (v + e) for _ in range(v + e)]
    for k in range(e):
        for x in range(v):
            rows[x][v + k] = d[k][x]
            rows[v + k][x] = d[k][x]
    return IntMatrix(rows, ncols=v + e)


def dense_hodge(d0: IntMatrix) -> IntMatrix:
    """D @ D for D = [[0, d0^T], [d0, 0]]: the blocks d0^T d0 and d0 d0^T."""
    v, e = d0.ncols, d0.nrows
    d = d0.rows
    rows = [[0] * (v + e) for _ in range(v + e)]
    for x in range(v):
        for y in range(v):
            rows[x][y] = sum(d[k][x] * d[k][y] for k in range(e))
    for k in range(e):
        for l in range(e):
            rows[v + k][v + l] = sum(a * b for a, b in zip(d[k], d[l]))
    return IntMatrix(rows, ncols=v + e)


def dense_connection(c: Complex) -> IntMatrix:
    """L(x,y) = 1 iff the simplices x and y intersect, pair by pair."""
    return IntMatrix(
        [[int(simplices_intersect(x, y)) for y in c.simplices] for x in c.simplices],
        ncols=c.size,
    )


def dense_green_star(c: Complex) -> IntMatrix:
    n = c.size
    w = [parity(s) for s in c.simplices]
    rows = [[0] * n for _ in range(n)]
    for t, s in enumerate(c.simplices):
        faces = [c.index[(a,)] for a in s] if len(s) == 2 else []
        faces.append(t)
        chi = parity(s)
        for x in faces:
            for y in faces:
                rows[x][y] += w[x] * w[y] * chi
    return IntMatrix(rows, ncols=n)


def dense_kirchhoff(g: Graph) -> IntMatrix:
    deg = g.degrees()
    rows = [[0] * g.n for _ in range(g.n)]
    for i in range(g.n):
        rows[i][i] = deg[i]
    for a, b in g.edges:
        rows[a][b] -= 1
        rows[b][a] -= 1
    return IntMatrix(rows, ncols=g.n)


def dense_hydrogen_residual(bundle: OperatorBundle) -> IntMatrix:
    """|H| - (L - g), entry by entry from the dense rows."""
    n = bundle.size
    h, L, g = bundle.hodge_signless.rows, bundle.connection.rows, bundle.green.rows
    return IntMatrix(
        [[h[i][j] - L[i][j] + g[i][j] for j in range(n)] for i in range(n)], ncols=n
    )
