"""Exact linear algebra over the integers.

Everything here works on plain Python ints, so intermediate entries can grow
past 64 bits without overflow (bar-resolution matrices for the order-8
quaternion group do exactly that during elimination).

Matrices are lists of rows unless a name says otherwise.  The workhorse is a
column-echelon reduction that yields saturated kernel bases and exact solves;
full Smith normal form is used for invariant factors of quotient lattices.
"""

from __future__ import annotations


def xgcd(a, b):
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mult(A, B):
    """Exact product of two list-of-rows matrices."""
    n = len(B)
    if any(len(row) != n for row in A):
        raise ValueError("inner dimensions of the product differ")
    p = len(B[0]) if n else 0
    Bc = [[B[i][j] for i in range(n)] for j in range(p)]
    return [[sum(row[k] * col[k] for k in range(n)) for col in Bc] for row in A]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


class ColumnEchelon:
    """Column echelon form A*V = E computed by unimodular column operations.

    Zero columns of E give a basis of ker(A); because V is unimodular the
    kernel basis is automatically saturated.  With track_inverse=True the
    inverse transform is kept so arbitrary vectors can be written in
    V-coordinates.
    """

    def __init__(self, rows, track_inverse=False):
        m = len(rows)
        n = len(rows[0]) if m else 0
        self.m, self.n = m, n
        cols = [[rows[r][c] for r in range(m)] for c in range(n)]
        V = [[1 if i == c else 0 for i in range(n)] for c in range(n)]
        Vinv = identity_matrix(n) if track_inverse else None
        active = list(range(n))
        pivots = []

        def col_sub(c, j, q, r0):
            cc, cj = cols[c], cols[j]
            for r in range(r0, m):
                if cj[r]:
                    cc[r] -= q * cj[r]
            vc, vj = V[c], V[j]
            for i in range(n):
                if vj[i]:
                    vc[i] -= q * vj[i]
            if Vinv is not None:
                wj, wc = Vinv[j], Vinv[c]
                for i in range(n):
                    if wc[i]:
                        wj[i] += q * wc[i]

        for r in range(m):
            nz = [c for c in active if cols[c][r] != 0]
            if not nz:
                continue
            while len(nz) > 1:
                j = min(nz, key=lambda c: abs(cols[c][r]))
                rest = []
                for c in nz:
                    if c == j:
                        continue
                    q = cols[c][r] // cols[j][r]
                    if q:
                        col_sub(c, j, q, r)
                    if cols[c][r] != 0:
                        rest.append(c)
                nz = rest + [j]
                if len(nz) == 1:
                    break
            p = nz[0]
            if cols[p][r] < 0:
                cols[p] = [-x for x in cols[p]]
                V[p] = [-x for x in V[p]]
                if Vinv is not None:
                    Vinv[p] = [-x for x in Vinv[p]]
            pivots.append((r, p))
            active.remove(p)

        self.cols = cols
        self.V = V
        self.Vinv = Vinv
        self.pivots = pivots
        self.kernel_cols = active

    @property
    def rank(self):
        return len(self.pivots)

    def kernel_basis(self):
        """Saturated basis of {x : A x = 0}, as a list of length-n vectors."""
        return [list(self.V[c]) for c in self.kernel_cols]

    def solve(self, b):
        """One integer solution x of A x = b, or None."""
        res = list(b)
        y = [0] * self.n
        for r, c in self.pivots:
            piv = self.cols[c][r]
            if res[r] % piv != 0:
                return None
            t = res[r] // piv
            if t:
                cc = self.cols[c]
                for i in range(r, self.m):
                    if cc[i]:
                        res[i] -= t * cc[i]
                y[c] = t
        if any(res):
            return None
        x = [0] * self.n
        for c, t in enumerate(y):
            if t:
                vc = self.V[c]
                for i in range(self.n):
                    if vc[i]:
                        x[i] += t * vc[i]
        return x

    def coords(self, x):
        """Coordinates c with x = V c (requires track_inverse)."""
        if self.Vinv is None:
            raise ValueError("echelon built without track_inverse")
        return mat_vec(self.Vinv, x)


def kernel_basis(rows):
    """Saturated integer kernel basis of a matrix (list of vectors)."""
    return ColumnEchelon(rows).kernel_basis()


def lattice_coords(basis, vectors, dim):
    """Coordinates of each vector in the lattice spanned by the length-dim
    basis vectors; raises RuntimeError if a vector lies outside it."""
    ce = ColumnEchelon([[int(b[r]) for b in basis] for r in range(dim)])
    out = []
    for v in vectors:
        c = ce.solve([int(x) for x in v])
        if c is None:
            raise RuntimeError("vector outside the lattice")
        out.append(c)
    return out


class IntLattice:
    """Incremental integer column lattice with membership tests.

    Maintains a column-echelon generating set (one pivot row per basis
    vector); add() returns whether the lattice grew.
    """

    def __init__(self, dim):
        self.dim = dim
        self.basis = {}  # pivot row -> vector

    def _leading(self, v):
        for r in range(self.dim):
            if v[r]:
                return r
        return None

    def add(self, vec):
        v = list(vec)
        changed = False
        while True:
            r = self._leading(v)
            if r is None:
                return changed
            if r not in self.basis:
                if v[r] < 0:
                    v = [-x for x in v]
                self.basis[r] = v
                return True
            b = self.basis[r]
            if v[r] % b[r] == 0:
                q = v[r] // b[r]
                v = [x - q * y for x, y in zip(v, b)]
            else:
                g, s, t = xgcd(b[r], v[r])
                new_b = [s * x + t * y for x, y in zip(b, v)]
                v = [(b[r] // g) * y - (v[r] // g) * x for x, y in zip(b, v)]
                self.basis[r] = new_b
                changed = True

    def contains(self, vec):
        v = list(vec)
        while True:
            r = self._leading(v)
            if r is None:
                return True
            b = self.basis.get(r)
            if b is None or v[r] % b[r] != 0:
                return False
            q = v[r] // b[r]
            v = [x - q * y for x, y in zip(v, b)]

    def basis_vectors(self):
        return [self.basis[r] for r in sorted(self.basis)]


def smith_normal_form(rows, want_u=False):
    """Diagonal of the Smith normal form of A, with divisibility d1 | d2 | ...

    Returns (diag, u).  With want_u, u is the row transform: (u @ x)[j] is
    the j-th cokernel coordinate of an ambient vector x (read mod diag[j]
    for torsion slots).
    """
    A = [list(row) for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    U = identity_matrix(m) if want_u else None

    def row_sub(i, j, q):
        # row_i -= q * row_j ; U row_i -= q * U row_j
        Ai, Aj = A[i], A[j]
        for k in range(n):
            if Aj[k]:
                Ai[k] -= q * Aj[k]
        if U is not None:
            Ui, Uj = U[i], U[j]
            for k in range(m):
                if Uj[k]:
                    Ui[k] -= q * Uj[k]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        if U is not None:
            U[i] = [-x for x in U[i]]

    def col_sub(i, j, q):
        for r in range(m):
            if A[r][j]:
                A[r][i] -= q * A[r][j]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    t = 0
    while t < min(m, n):
        # locate a smallest-magnitude nonzero pivot in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (best is None or abs(A[i][j]) < best[0]):
                    best = (abs(A[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_sub(i, t, q)
                    if A[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_sub(j, t, q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        if A[t][t] < 0:
            row_neg(t)
        # enforce divisibility: pivot must divide the trailing block
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        t += 1

    diag = [A[i][i] for i in range(min(m, n)) if A[i][i] != 0]
    return diag, U


def invariant_factors(rows):
    """Nontrivial invariant factors (each >= 2, in a dividing chain) and rank."""
    diag, _ = smith_normal_form(rows)
    return [d for d in diag if d != 1], len(diag)


def quotient_structure(dim, cols):
    """Structure of Z^dim / (lattice spanned by the given column vectors),
    as (free_rank, factors)."""
    if not cols:
        return dim, []
    factors, rank = invariant_factors([[c[r] for c in cols] for r in range(dim)])
    return dim - rank, factors


def kernel_mod(rows, moduli):
    """Basis of {x in Z^n : (A x)_i = 0 mod moduli[i] for every row i}: the
    x-parts of ker [A | diag(moduli)], in IntLattice echelon form."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    block = [[int(x) for x in row] + [k if i == j else 0 for j in range(m)]
             for i, (row, k) in enumerate(zip(rows, moduli))]
    lat = IntLattice(n)
    for v in kernel_basis(block):
        lat.add(v[:n])
    return lat.basis_vectors()
