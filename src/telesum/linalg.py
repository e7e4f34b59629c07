"""Exact linear algebra for the telescoping solvers.

Systems come in over Z[n] (``ZnPoly`` entries).  ``nullspace`` solves one
modulo a prime from one elimination at a point n = x0, lifting the kernel
as a power series in n - x0, one matrix-vector step per order (Dixon,
Numer. Math. 40, 1982, with n - x0 for p), rebuilt in Z[n] by Pade and
rational-number reconstruction (von zur Gathen and Gerhard, *Modern
Computer Algebra*, 5.9 and 5.10).  It returns a basis only once A v = 0 is
proved exactly, as one identity in Z[n][k] that ``zn_identity`` proves: a
point of the wrong rank or pivots never shapes one.
``solve_linear_system`` reads one solution of A x = b off that basis.
"""

from __future__ import annotations

import itertools
import math
import operator

from .polynomials import Polynomial, RationalFunction, ZnPoly, zn_identity

# The second point n; the primes, climbed while the images modulo one rebuild
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
    minor of A is nonzero there.  Otherwise each prime in turn expands the
    kernel at a point (``_solve_at_prime``).  A basis is sound by its proof
    alone: its coefficients lift (``_lift``) and A v = 0 holds exactly
    (``_annihilates``).  Its vectors are independent, one per free column at
    the expansion point, of which there are at least as many as over Q(n):
    so they span the nullspace.  Each is 0 past its own free column, which
    is therefore free over Q(n) too, so the basis is the echelon form's.
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
    """The basis rebuilt modulo p; [] at full column rank at a point; None if
    nothing is rebuilt within 2 * ``_degree_bound`` + 2 orders, or fails to lift.

    The points x = 0, _N0, _N0 + 1, ... are reduced (``_echelon``), and from
    the second on, the kernel is expanded (``_series_kernel``) at each point
    of the lexicographically first (rank, pivots) so far in turn, until a
    basis passes the proof.  A point of lower rank or later pivots than over
    Q(n) is a root of a minor of degree at most ``_degree_bound``: at a lucky
    prime one of the first bound + 1 points is lucky; p is left after them.
    """
    bound, best, queue = _degree_bound(rows, ncols), None, []
    width = max((len(e) for row in rows for e in row), default=0) or 1
    for i, x in enumerate(itertools.islice(itertools.chain((0,), itertools.count(_N0)), bound + 1)):
        powers = list(itertools.accumulate([x] * (width - 1), operator.mul, initial=1))
        image = [[sum(map(operator.mul, e, powers)) for e in row] for row in rows]
        pivots, tops = _echelon(image, ncols, p)
        if len(pivots) == ncols:
            return []
        if best is None or (-len(pivots), pivots) < best:
            best, queue = (-len(pivots), pivots), []
        if (-len(pivots), pivots) == best:
            queue.append((x, tops, [[v % p for v in image[s]] for s in tops]))
        while queue and not i == 0 < bound:  # the first point waits for the second
            basis = _series_kernel(rows, ncols, width, *queue.pop(0), best[1], p, 2 * bound + 2)
            if basis is None or _annihilates(rows, basis):
                return basis
    return None


def _degree_bound(rows, ncols) -> int:
    """A bound on the n-degree of every minor of A, so on both sides of each
    entry of a kernel vector over Q(n), a quotient of two minors (Cramer):
    the sum of the min(rows, ncols) largest degrees of the rows."""
    degrees = sorted((max([len(e) - 1 for e in row] + [0]) for row in rows), reverse=True)
    return sum(degrees[:ncols])


def _echelon(image, ncols, p):
    """The pivot columns of the int rows image modulo p, among its first
    ncols, and the index of each one's row, by elimination in place.  It
    leaves A = L U at the pivot rows: each keeps its multiplier at the pivots
    before its own and its entry at its own, past which it is divided by it.
    A column is reduced only where its pivot is sought."""
    pivots, tops, rest = [], [], list(range(len(image)))
    for c in range(ncols):
        i = next((i for i in rest if image[i][c] % p), None)
        if i is None:
            continue
        rest.remove(i)
        top, inv = image[i], pow(image[i][c], -1, p)
        tail = top[c + 1:] = [v * inv % p for v in top[c + 1:]]
        for row in map(image.__getitem__, rest):
            h = row[c] % p
            if h:
                row[c + 1:] = [v - h * t for v, t in zip(row[c + 1:], tail)]
        pivots.append(c)
        tops.append(i)
    return tuple(pivots), tops


def _series_kernel(rows, ncols, width, x0, tops, echelon, pivots, p, cap):
    """For each free column f at n = x0, given A's pivot rows there modulo p
    and their echelon rows (``_echelon``), the kernel vector v rebuilt in
    Z[n] and primitive; None once one is not rebuilt within cap orders or
    does not lift.

    With A(x0 + t) = sum_i A_i t^i, pivot rows S and columns P, and v 1 at f
    and 0 at the other free columns, order m of A v = 0 at S is
    A_0[S, P] v_m[P] = -(A_m[S, f] + sum_{i>=1} A_i[S, P] v_{m-i}[P]): one
    dot product of the last orders with the A_i[S, P] packed as ints, one
    slot per row, solved through the L U that ``_echelon`` left.  From order
    3 on, the weighted sum of the entries at the pivots left of f gives den
    (``_fraction`` against t^m), and den v mod t^m those entries, once a
    spare order confirms them; of an n-free A, v is v_0.  The later pivots,
    0 over Q(n) at a lucky x0, are left 0.
    """
    terms, size = [[e.shift(x0) for e in rows[s]] if x0 else rows[s] for s in tops], len(pivots)
    slot = 2 * p.bit_length() + (size * width).bit_length()  # a sum of size * width products
    mask, shifts = (1 << slot) - 1, [slot * k for k in range(size)]
    layers = [[sum(map(operator.lshift, map(operator.mod, layer, itertools.repeat(p)), shifts))
               for layer in itertools.zip_longest(*(row[c][1:] for row in terms), fillvalue=0)]
              for c in range(ncols)]  # layers[c][i - 1]: column c of A_i[S, :], packed
    steps = [layers[c][i] if i < len(layers[c]) else 0 for i in range(width - 1) for c in pivots]
    lower = [[row[c] for row in echelon[k + 1:]] for k, c in enumerate(pivots)]  # A_0[S, P] = L U
    upper = [[row[c] for c in pivots[k + 1:]] for k, row in enumerate(echelon)]
    inverses = [pow(row[c], -1, p) for row, c in zip(echelon, pivots)]
    weights = list(itertools.accumulate([_MIX] * ncols, lambda a, b: a * b % p))
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        own, left = layers[f] + [0] * cap, sum(c < f for c in pivots)
        b = [row[f] for row in echelon]  # order 0, through L by ``_echelon``
        history, series, sums = [0] * len(steps), [], []
        for m in range(cap):  # v_m, the orders before it in history, latest first
            vm = [0] * size
            for k in range(size - 1, -1, -1):  # through U
                vm[k] = -(b[k] + sum(map(operator.mul, upper[k], vm[k + 1:]))) % p
            history = (vm + history)[:len(history)]
            series.append(vm[:left])
            sums.append(sum(map(operator.mul, weights, vm[:left])) % p)
            if width == 1:  # an n-free A: v is v_0
                den, entries = ZnPoly((1,)), [ZnPoly(col) for col in zip(*series)]
                break
            den = m > 1 and _fraction(ZnPoly(sums), ZnPoly((0,) * (m + 1) + (1,)), p)
            if den:
                entries = [ZnPoly([v % p for v in (den * ZnPoly(col))[:m + 1]])
                           for col in zip(*series)]
                if all(len(e) <= m for e in entries):
                    break
            b = sum(map(operator.mul, steps, history), own[m])  # order m + 1, through L
            b = [b >> s & mask for s in shifts]
            for k, (row, inv) in enumerate(zip(lower, inverses)):
                z = b[k] = b[k] * inv % p
                b[k + 1:] = [u - v * z for u, v in zip(b[k + 1:], row)]
        else:
            return None
        vec = [ZnPoly()] * ncols
        for c, e in [*zip(pivots, entries), (f, den)]:
            vec[c] = e
        if x0:
            vec = [ZnPoly([v % p for v in e.shift(-x0)]) for e in vec]
        ints = _lift([v for e in vec for v in e], p)
        if ints is None:
            return None
        g, ints = math.gcd(*ints), iter(ints)
        basis.append([ZnPoly([next(ints) // g for _ in e]) for e in vec])
    return basis


def _fraction(g, modulus, p):
    """The den of lead 1 with g * den mod p and modulus = num of low degree: the
    cofactor after the largest drop in degree of the remainder sequence of
    modulus and g; None unless it is 2 or more, so that a spare order
    confirms num and den.  The cofactor is built from the quotients only
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
