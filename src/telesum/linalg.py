"""Exact linear algebra for the telescoping solvers.

Systems come in over Z[n] (``ZnPoly`` entries).  ``nullspace`` solves one
modulo a prime at integer points n and rebuilds its kernel in Z[n] from the
images (Gerhard, LNCS 3218, 2004), by rational-function and rational-number
reconstruction (von zur Gathen and Gerhard, *Modern Computer Algebra*, 5.7
and 5.10); it returns a basis only once A v = 0 is proved exactly in Z[n],
as one identity in Z[n][k] that ``zn_identity`` proves.
``solve_linear_system`` reads one solution of A x = b off that basis.
"""

from __future__ import annotations

import itertools
import math
import operator

from .polynomials import Polynomial, RationalFunction, ZnPoly, zn_identity

# The first point n; the primes, climbed while the images modulo one rebuild
# no proved basis; the base of the weights that sum a kernel vector's entries.
_N0, _MIX = 12345, 0x9E3779B97F4A7C15
_PRIMES = tuple((1 << e) - 1 for e in (61, 127, 521, 1279, 3217, 9689, 21701, 44497, 86243))


def solve_linear_system(matrix: list[list], rhs: list) -> list | None:
    """One solution over Q(n) of A x = rhs, entries in Z[n] (``ZnPoly``s or
    ints), as ``RationalFunction``s; None if inconsistent.

    It is the nullspace vector of [A | -rhs] that is 1 in the last column,
    so free variables are set to zero.
    """
    if len(rhs) != len(matrix):
        raise ValueError("matrix and right-hand side sizes differ")
    ncols = len(matrix[0]) if matrix else 0
    rows = [[ZnPoly((e,)) if isinstance(e, int) else e for e in (*row, -b)]
            for row, b in zip(matrix, rhs)]
    basis = nullspace(rows, ncols=ncols + 1)
    if not basis or not basis[-1][ncols]:
        return None
    return [RationalFunction(v, basis[-1][ncols]) for v in basis[-1][:ncols]]


def nullspace(matrix: list[list[ZnPoly]], ncols: int | None = None) -> list[list[ZnPoly]]:
    """Basis over Z[n] of the right nullspace of A, which is not modified.

    One vector per free column f of A's echelon form over Q(n), in ascending
    order: 0 past f and in every other free column, primitive in Z[n], with a
    positive leading coefficient at f.

    Full column rank at a point modulo p proves the nullspace {0}: a maximal
    minor of A is nonzero there.  Otherwise each prime in turn rebuilds the
    vectors (``_solve_at_prime``) until A v = 0 is proved (``_annihilates``).
    They are independent, and as many as the free columns at a point, whose
    rank bounds the rank over Q(n) from below: so they span the nullspace;
    and each is 0 at the pivots past its free column, as over Q(n).
    """
    if ncols is None:
        if not matrix:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(matrix[0])
    rows = [list(row) for row in matrix]
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    for p in _PRIMES:
        basis = _solve_at_prime(rows, ncols, p)
        if basis is not None:
            return basis
    raise ArithmeticError("no prime of the ladder rebuilds the nullspace")


def _solve_at_prime(rows, ncols, p):
    """The basis rebuilt from points modulo p, or None once a rebuilt basis
    fails: its coefficients do not lift (``_lift``) or A v = 0 does not hold.

    Points x = _N0, _N0 + 1, ... of the lexicographically first (rank, pivots)
    so far are kept (``_kernel_at``); any other is unlucky and dropped.  The
    first point's images are tried as constants, all of an n-free system.
    From three points on, per vector, the weighted sum of its entries is
    interpolated, and its denominator (``_fraction``) times each entry too.
    At a lucky prime, 2 * ``_degree_bound`` + 2 points rebuild every vector;
    more points than that mean an unlucky prime.
    """
    inverses, width = [0], max((len(e) for row in rows for e in row), default=1)
    weights = list(itertools.accumulate([_MIX] * ncols, lambda a, b: a * b % p))

    def interpolate(table, ys):
        """Extend table = [last Newton diagonal, interpolant] of vectors at the
        first m of xs by the vector ys at xs[m]; the interpolant is a list of
        coefficient vectors, and moduli[m] = prod_{j<m} (n - xs[j])."""
        m, diagonal = len(table[0]), [ys]
        for k, d in enumerate(table[0], 1):
            step = xs[m] - xs[m - k]
            while len(inverses) <= step:
                inverses.append(pow(len(inverses), -1, p))
            diagonal.append([(a - b) * inverses[step] % p for a, b in zip(diagonal[-1], d)])
        table[:] = diagonal, [[(a + w * b) % p for a, b in zip(row, diagonal[-1])]
                              for row, w in zip(table[1] + [[0] * len(ys)], moduli[m])]

    def rebuild(f):
        """The f-th vector, primitive in Z[n]; None while its denominator or an
        entry needs every point, False when its coefficients do not lift."""
        if len(xs) == 1:
            den, entries = ZnPoly((1,)), [ZnPoly((v,)) for v in images[0][f]]
        else:
            den = _fraction(ZnPoly([row[f] for row in sums[1]]), moduli[-1], p)
            if den is None:
                return None
            table = [[], []]
            for x, image in zip(xs, images):
                scale = den(x) % p
                interpolate(table, [v * scale % p for v in image[f]])
            entries = [ZnPoly([row[i] for row in table[1]]) for i in range(len(images[0][f]))]
            if any(len(e) >= len(xs) for e in entries):
                return None
        vec = [ZnPoly()] * ncols
        vec[free[f]] = den
        for c, e in zip(pivots, entries):
            vec[c] = e
        ints = _lift([v for e in vec for v in e], p)
        if ints is None:
            return False
        g, ints = math.gcd(*ints), iter(ints)
        return [ZnPoly([next(ints) // g for _ in e]) for e in vec]

    best, x = None, _N0 - 1
    while True:
        x += 1
        pivots, kernel = _kernel_at(rows, ncols, width, x, p)
        if len(pivots) == ncols:
            return []
        if best is None or (-len(pivots), pivots) < best:
            best, xs, images, moduli = (-len(pivots), pivots), [], [], [ZnPoly((1,))]
            free, sums = [c for c in range(ncols) if c not in pivots], [[], []]
            cap = 2 * _degree_bound(rows, ncols) + 2
        elif (-len(pivots), pivots) > best:
            continue
        xs.append(x)
        images.append(kernel)
        if len(xs) == 2:  # the first point tried every constant vector
            continue
        while 1 < len(xs) >= len(moduli):  # the weighted sums and moduli up to date
            interpolate(sums, [sum(map(operator.mul, weights, v)) % p for v in images[len(sums[0])]])
            moduli.append(ZnPoly([v % p for v in moduli[-1] * ZnPoly((-xs[len(moduli) - 1], 1))]))
        basis = [rebuild(f) for f in range(len(free))]
        if None not in basis and False not in basis and _annihilates(rows, basis):
            return basis
        if len(xs) > 1 and None not in basis or width == 1 or len(xs) >= cap:
            return None


def _degree_bound(rows, ncols) -> int:
    """A bound on the n-degree of every minor of A, so on both sides of each
    entry of a kernel vector over Q(n), a quotient of two minors (Cramer):
    the sum of the min(rows, ncols) largest degrees of the rows."""
    degrees = sorted((max([len(e) - 1 for e in row] + [0]) for row in rows), reverse=True)
    return sum(degrees[:ncols])


def _kernel_at(rows, ncols, width, x, p):
    """The pivot columns of A at n = x modulo p, and for each free column f
    the entries, at the pivots left of f, of the kernel vector that is 1 at f
    and 0 at the other free columns; by elimination and back-substitution.
    The entries of A have at most ``width`` coefficients; column c is reduced
    modulo p only where its pivot is sought and used."""
    powers = list(itertools.accumulate([x] * (width - 1), operator.mul, initial=1))
    image = [[sum(map(operator.mul, e, powers)) for e in row] for row in rows]
    pivots, echelon = [], []
    for c in range(ncols):
        top = next((row for row in image if row[c] % p), None)
        if top is None:
            continue
        image.remove(top)
        inv = pow(top[c], -1, p)
        tail = top[c + 1:] = [v * inv % p for v in top[c + 1:]]
        for row in image:
            h = row[c] % p
            if h:
                row[c + 1:] = [v - h * t for v, t in zip(row[c + 1:], tail)]
        pivots.append(c)
        echelon.append(top)
    kernel = []
    for f in range(ncols):
        if f not in pivots:
            vec = [0] * f + [1]
            for c, row in zip(reversed(pivots), reversed(echelon)):
                if c < f:
                    vec[c] = -sum(map(operator.mul, row[c + 1:f + 1], vec[c + 1:])) % p
            kernel.append([vec[c] for c in pivots if c < f])
    return tuple(pivots), kernel


def _fraction(g, modulus, p):
    """The den of lead 1 with g * den mod p and modulus = num of low degree: the
    cofactor after the largest drop in degree of the remainder sequence of
    modulus and g; None unless it is 2 or more, so that a point more than num
    and den need confirms them.  The cofactor is built from the quotients only
    once the remainders have chosen it."""
    r0, r1, quotients, drop, steps = modulus, g, [], 1, None if g else 0
    while r1 and len(r0) - 1 > drop:  # no drop is above len(r0) - 1
        if len(r0) - len(r1) > drop:  # r1's cofactor: deg modulus - deg r0
            steps, drop = len(quotients), len(r0) - len(r1)
        rem, inv, d = list(r0), pow(r1[-1], -1, p), len(r1) - 1
        quot = [0] * (len(r0) - d)
        for i in range(len(r0) - 1, d - 1, -1):
            q = quot[i - d] = rem[i] * inv % p
            for j, v in enumerate(r1, i - d):
                rem[j] -= q * v
        r0, r1 = r1, ZnPoly([v % p for v in rem[:d]])
        quotients.append(quot)
    if steps is None:
        return None
    t0, t1 = ZnPoly(), ZnPoly((1,))
    for q in quotients[:steps]:
        t0, t1 = t1, ZnPoly([v % p for v in t0 - ZnPoly(q) * t1])
    inv = pow(t1[-1], -1, p)
    return ZnPoly([v * inv % p for v in t1])


def _lift(values, p):
    """Integers d * q_i for rationals q_i with images values[i] mod p, d their
    common denominator below sqrt(p/2); each q_i, times d so far, has its
    numerator below sqrt(p/2) too.  None when there are no such q_i."""
    bound, den, out = math.isqrt(p // 2), 1, []
    for v in values:
        r0, r1, t0, t1 = p, v * den % p, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if not 0 < abs(t1) <= bound // den:
            return None
        out, den = [u * abs(t1) for u in out] + [r1 if t1 > 0 else -r1], den * abs(t1)
    return out


def _annihilates(rows, basis) -> bool:
    """Whether A v = 0 in Z[n] for each v of the basis.  Read row r of A as
    the coefficient of k^r: then A v = 0 is the one identity
    sum_c A_c(n, k) v_c(n) = 0 in Z[n][k], which ``zn_identity`` proves."""
    cols = [Polynomial([row[c] for row in rows]) for c in range(len(basis[0]))]
    return all(zn_identity(lambda at, vec=vec: (
        sum(at(a) * at(Polynomial((e,))) for a, e in zip(cols, vec)), 0)) for vec in basis)
