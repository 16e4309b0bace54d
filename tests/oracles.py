"""Slow exact routines kept as test oracles for the fast routes in src/.

inverse_unimodular is a fraction-free Gauss-Jordan inverse, O(n^3) on big
integers.  The Schur-complement block inverse (operators.schur_inverse), the
star-formula Green matrix, kron(g_A, g_B) for products and the backward
walks are compared with it.
"""

from connlab.exact import IntMatrix, ShapeError, SingularMatrixError


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
