"""Pure-Python BLS12-381 arithmetic backend.

Works on plain integers so it runs anywhere.  It is also the reference
the tests check the compiled backend (``_core.c``) against: that backend
mirrors this module function for function but calls none of its code
after import, so the two are independent.  Points cross the API boundary in
affine coordinates: a G1 point is ``(x, y)``, a G2 point is
``((x0, x1), (y0, y1))`` and the point at infinity is the empty tuple.
GT elements are flat 12-tuples of integers (Fp2 towers flattened in
(w, v, i) order).  Scalars are any integers; a multiplication of one of the
three generators, which have order r, reads its scalar mod r.

Like _core.c's group_* functions over its field struct, every public G1/G2
function is written once over the field descriptor _Field and bound to the
instances _G1 and _G2, which hold all that differs between the groups.
"""

from __future__ import annotations

from functools import cache, partial
from operator import index
from typing import Callable, NamedTuple

from ..params import (
    B_COEFF,
    B_TWIST,
    BETA,
    FIELD_MODULUS as Q,
    G1_GENERATOR,
    G2_AUX_GENERATOR,
    G2_GENERATOR,
    HARD_CHAIN,
    ORDER,
    X as X_PARAM,
    XI,
)

NAME = "pure"

INFINITY = ()

# ---------------------------------------------------------------- Fp2
# i^2 = -1; elements are (c0, c1) = c0 + c1*i.

_F2_ZERO = (0, 0)
_F2_ONE = (1, 0)


def _f2_add(a, b):
    return ((a[0] + b[0]) % Q, (a[1] + b[1]) % Q)


def _f2_sub(a, b):
    return ((a[0] - b[0]) % Q, (a[1] - b[1]) % Q)


def _f2_neg(a):
    return ((-a[0]) % Q, (-a[1]) % Q)


def _f2_conj(a):
    return (a[0], (-a[1]) % Q)


def _f2_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    return ((t0 - t1) % Q, ((a0 + a1) * (b0 + b1) - t0 - t1) % Q)


def _f2_sqr(a):
    # (a0 + a1 i)^2 = (a0 + a1)(a0 - a1) + 2 a0 a1 i
    a0, a1 = a
    return ((a0 + a1) * (a0 - a1) % Q, 2 * a0 * a1 % Q)


def _f2_muls(a, s):
    return (a[0] * s % Q, a[1] * s % Q)


def _f2_inv(a):
    a0, a1 = a
    ni = pow(a0 * a0 + a1 * a1, -1, Q)
    return (a0 * ni % Q, (-a1) * ni % Q)


def _f2_pow(a, e):
    result = _F2_ONE
    while e:
        if e & 1:
            result = _f2_mul(result, a)
        a = _f2_sqr(a)
        e >>= 1
    return result


def _fp_sqrt(c):
    # q = 3 mod 4
    s = pow(c, (Q + 1) // 4, Q)
    return s if s * s % Q == c % Q else None


_INV2 = (Q + 1) // 2


def _f2_sqrt(a):
    # With s = sqrt(N(a)) and c = (a0 + s)/2, r = c^((q-3)/4) is 1/sqrt(c)
    # if c is a square and 1/sqrt(-c) otherwise, so a root is (c r, a1 r/2)
    # or (-a1 r/2, c r): two exponentiations and no inversion.  c = 0 only
    # where a1 = 0 and s = -a0, and then c = a0 takes the other root -s.
    a0, a1 = a
    s = _fp_sqrt((a0 * a0 + a1 * a1) % Q)
    if s is None:
        return None
    c = (a0 + s) * _INV2 % Q or a0 % Q
    r = pow(c, (Q - 3) // 4, Q)
    cr = c * r % Q
    h = a1 * r * _INV2 % Q
    cand = (cr, h) if cr * r % Q == 1 else (-h % Q, cr)
    return cand if _f2_sqr(cand) == (a0 % Q, a1 % Q) else None


# ---------------------------------------------------------------- Fp6, Fp12
# Fp6 = Fp2[v]/(v^3 - xi), Fp12 = Fp6[w]/(w^2 - v), xi = 1 + i.

_F6_ZERO = (_F2_ZERO, _F2_ZERO, _F2_ZERO)
_F6_ONE = (_F2_ONE, _F2_ZERO, _F2_ZERO)


def _f6_add(a, b):
    return (_f2_add(a[0], b[0]), _f2_add(a[1], b[1]), _f2_add(a[2], b[2]))


def _f6_sub(a, b):
    return (_f2_sub(a[0], b[0]), _f2_sub(a[1], b[1]), _f2_sub(a[2], b[2]))


def _f6_neg(a):
    return (_f2_neg(a[0]), _f2_neg(a[1]), _f2_neg(a[2]))


def _f6_mul(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    t0 = _f2_mul(a0, b0)
    t1 = _f2_mul(a1, b1)
    t2 = _f2_mul(a2, b2)
    c0 = _f2_add(t0, _f2_mul(XI, _f2_sub(_f2_mul(_f2_add(a1, a2), _f2_add(b1, b2)), _f2_add(t1, t2))))
    c1 = _f2_add(_f2_sub(_f2_mul(_f2_add(a0, a1), _f2_add(b0, b1)), _f2_add(t0, t1)), _f2_mul(XI, t2))
    c2 = _f2_add(_f2_sub(_f2_mul(_f2_add(a0, a2), _f2_add(b0, b2)), _f2_add(t0, t2)), t1)
    return (c0, c1, c2)


def _f6_sqr(a):
    return _f6_mul(a, a)


def _f6_mul_v(a):
    # multiply by v: (c0, c1, c2) -> (xi*c2, c0, c1)
    return (_f2_mul(XI, a[2]), a[0], a[1])


def _f6_inv(a):
    a0, a1, a2 = a
    c0 = _f2_sub(_f2_sqr(a0), _f2_mul(XI, _f2_mul(a1, a2)))
    c1 = _f2_sub(_f2_mul(XI, _f2_sqr(a2)), _f2_mul(a0, a1))
    c2 = _f2_sub(_f2_sqr(a1), _f2_mul(a0, a2))
    t = _f2_inv(_f2_add(_f2_mul(a0, c0), _f2_mul(XI, _f2_add(_f2_mul(a2, c1), _f2_mul(a1, c2)))))
    return (_f2_mul(c0, t), _f2_mul(c1, t), _f2_mul(c2, t))


_F12_ONE = (_F6_ONE, _F6_ZERO)


def _f12_mul(a, b):
    a0, a1 = a
    b0, b1 = b
    t0 = _f6_mul(a0, b0)
    t1 = _f6_mul(a1, b1)
    c0 = _f6_add(t0, _f6_mul_v(t1))
    c1 = _f6_sub(_f6_mul(_f6_add(a0, a1), _f6_add(b0, b1)), _f6_add(t0, t1))
    return (c0, c1)


def _f12_sqr(a):
    # (a0 + a1 w)^2 = ((a0 + a1)(a0 + v a1) - (1 + v) a0 a1) + 2 a0 a1 w:
    # 2 Fp6 multiplications instead of 3
    a0, a1 = a
    t = _f6_mul(a0, a1)
    c0 = _f6_sub(_f6_sub(_f6_mul(_f6_add(a0, a1), _f6_add(a0, _f6_mul_v(a1))), t), _f6_mul_v(t))
    return (c0, _f6_add(t, t))


def _f12_conj(a):
    return (a[0], _f6_neg(a[1]))


def _f12_inv(a):
    a0, a1 = a
    t = _f6_inv(_f6_sub(_f6_sqr(a0), _f6_mul_v(_f6_sqr(a1))))
    return (_f6_mul(a0, t), _f6_neg(_f6_mul(a1, t)))


def _f12_pow(a, e):
    result = _F12_ONE
    bit = (1 << e.bit_length()) >> 1  # 0 for e = 0
    while bit:
        result = _f12_sqr(result)
        if e & bit:
            result = _f12_mul(result, a)
        bit >>= 1
    return result


# Frobenius coefficients for v^j and w^k, and the psi constants below: all
# powers of W = xi^((q-1)/6), so one exponentiation.  _FROB_V[j] is
# xi^(j(q-1)/3) = W^(2j) and _FROB_W is W.  The q^6 Frobenius is conjugation
# on Fp12 iff xi^((q^6-1)/6) = -1, and that power is W^(1+q+...+q^5) =
# N(W)^3, because the q-power Frobenius on Fp2 is conjugation.
_FROB_W = _f2_pow(XI, (Q - 1) // 6)
_FROB_V = (_F2_ONE, _f2_sqr(_FROB_W), _f2_sqr(_f2_sqr(_FROB_W)))
assert pow(_FROB_W[0] ** 2 + _FROB_W[1] ** 2, 3, Q) == Q - 1, "q^6 Frobenius must be conjugation"


def _f12_frob(a):
    out = []
    for k in range(2):
        row = []
        for j in range(3):
            c = _f2_mul(_f2_conj(a[k][j]), _FROB_V[j])
            if k:
                c = _f2_mul(c, _FROB_W)
            row.append(c)
        out.append(tuple(row))
    return tuple(out)


def _gt_flatten(a):
    return tuple(c for part in a for coeff in part for c in coeff)


def _gt_nest(t):
    if len(t) != 12:
        raise ValueError("GT element must have 12 coefficients")
    if not all(0 <= c < Q for c in t):
        raise ValueError("GT coefficient out of range")
    return (
        ((t[0], t[1]), (t[2], t[3]), (t[4], t[5])),
        ((t[6], t[7]), (t[8], t[9]), (t[10], t[11])),
    )


GT_ONE = _gt_flatten(_F12_ONE)


def gt_mul(a, b):
    return _gt_flatten(_f12_mul(_gt_nest(a), _gt_nest(b)))


def gt_pow(a, e):
    a, e = _gt_nest(a), index(e)
    if e < 0:
        raise ValueError("GT exponent must be non-negative")
    return _gt_flatten(_f12_pow(a, e))


# ---------------------------------------------------------------- curves
# Every point that enters an operation is checked as _core.c's
# coords_from_py checks it: any false value is the point at infinity, and
# otherwise a point is exactly two coordinates, an Fp2 coordinate exactly two
# integers, and every integer lies in [0, q).  Both backends raise the same
# exception with the same message.


def _fp(c):
    if not isinstance(c, int):
        raise TypeError(f"coordinate must be an integer, not {type(c).__name__}")
    if not 0 <= c < Q:
        raise ValueError("coordinate out of range")
    return c


def _pair(v):
    items = tuple(v)
    if len(items) != 2:
        raise ValueError("expected a pair of coordinates")
    return items


def _fp_pair(v):
    # a G1 point or an Fp2 coordinate; plain ints in range pass without a
    # call each, because every group operation parses its points
    a, b = v = _pair(v)
    if type(a) is int and type(b) is int and 0 <= a < Q and 0 <= b < Q:
        return v
    return _fp(a), _fp(b)


# psi(x, y) = (conj(x) c_x, conj(y) c_y) on the twist, with
# c_x = xi^-((q-1)/3) = 1/W^2 and c_y = xi^-((q-1)/2) = 1/W^3
_PSI_X = _f2_inv(_FROB_V[1])
_PSI_Y = _f2_inv(_f2_mul(_FROB_V[1], _FROB_W))


class _Field(NamedTuple):
    """The coordinate field of G1 (Fp) or G2 (Fp2), with the curve over it.

    Every group operation, Jacobian kernel and encoding rule below is written
    once over this descriptor, as _core.c's group_* functions are over its
    field struct; _G1 and _G2 are the only place that says how the groups
    differ.
    """

    add: Callable
    sub: Callable
    mul: Callable
    sqr: Callable
    muls: Callable  # times a small integer
    neg: Callable
    norm: Callable  # N(a), in Fp
    inv_by_norm: Callable  # 1/a from a and 1/N(a)
    sqrt: Callable  # a square root, or None if there is none
    zero: object
    one: object
    b: object  # the curve is y^2 = x^3 + b
    point: Callable  # a finite point's coordinates, checked as above
    wire: Callable  # x as its Fp components in encoding order
    unwire: Callable  # x from those components
    size: int  # compressed encoding length in bytes
    endo: Callable  # the subgroup check's endomorphism, on affine points
    chains: int  # its eigenvalue on the subgroup is -|X|^chains


# G1: phi(P) == -[X^2]P with phi(x, y) = (beta x, y); G2: psi(P) == [X]P,
# and X < 0, so [X]P = -[|X|]P
_G1 = _Field(
    add=lambda a, b: (a + b) % Q,
    sub=lambda a, b: (a - b) % Q,
    mul=lambda a, b: a * b % Q,
    sqr=lambda a: a * a % Q,
    muls=lambda a, s: a * s % Q,
    neg=lambda a: -a % Q,
    norm=lambda a: a,
    inv_by_norm=lambda a, s: s,
    sqrt=_fp_sqrt,
    zero=0,
    one=1,
    b=B_COEFF,
    point=_fp_pair,
    wire=lambda x: (x,),
    unwire=lambda c: c[0],
    size=48,
    endo=lambda p: (BETA * p[0] % Q, p[1]),
    chains=2,
)
_G2 = _Field(
    _f2_add, _f2_sub, _f2_mul, _f2_sqr, _f2_muls, _f2_neg,
    norm=lambda a: (a[0] * a[0] + a[1] * a[1]) % Q,
    inv_by_norm=lambda a, s: (a[0] * s % Q, -a[1] * s % Q),  # conj(a) / N(a)
    sqrt=_f2_sqrt, zero=_F2_ZERO, one=_F2_ONE, b=B_TWIST,
    point=lambda p: tuple(map(_fp_pair, _pair(p))),
    wire=lambda x: (x[1], x[0]),  # c1 || c0
    unwire=lambda c: (c[1], c[0]),
    size=96,
    endo=lambda p: (_f2_mul(_f2_conj(p[0]), _PSI_X), _f2_mul(_f2_conj(p[1]), _PSI_Y)),
    chains=1,
)


def _point(F, p):
    return F.point(p) if p else INFINITY


def _rhs(F, x):
    """x^3 + b, which is y^2 for the curve points (x, y)."""
    return F.add(F.mul(F.sqr(x), x), F.b)


def _batch_inv(F, values):
    """The inverses of nonzero field elements, with one inversion in Fp:
    Montgomery's trick over their norms N(a), which are integers."""
    norms = [F.norm(v) for v in values]
    prefix = []
    acc = 1
    for n in norms:
        acc = acc * n % Q
        prefix.append(acc)
    inv = pow(acc, -1, Q)  # 1 / (N_0 ... N_last)
    out = [None] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = F.inv_by_norm(values[i], inv * prefix[i - 1] % Q)
        inv = inv * norms[i] % Q
    if values:
        out[0] = F.inv_by_norm(values[0], inv)
    return out


def _slope(F, p, s):
    """The slope of the line through finite P and S as (numerator,
    denominator), or None where P + S is infinity."""
    (x1, y1), (x2, y2) = p, s
    if x1 != x2:
        return F.sub(y2, y1), F.sub(x2, x1)
    # as _core.c's jac_add: only P + P with y != 0 doubles, also off the curve
    if y1 != y2 or y1 == F.zero:
        return None
    return F.muls(F.sqr(x1), 3), F.muls(y1, 2)


def _third_point(F, p, s, lam):
    """P + S from the slope lam of the line through them."""
    (x1, y1), x2 = p, s[0]
    x3 = F.sub(F.sub(F.sqr(lam), x1), x2)
    return (x3, F.sub(F.mul(lam, F.sub(x1, x3)), y1))


def _sums(F, ps, qs):
    """P_i + Q_i for parsed affine points, with one inversion for all the slopes."""
    out = list(ps)
    todo, slopes = [], []
    for i, (p, s) in enumerate(zip(ps, qs)):
        if not p or not s:
            out[i] = p or s
        elif slope := _slope(F, p, s):
            todo.append(i)
            slopes.append(slope)
        else:
            out[i] = INFINITY
    for i, (num, _), inv in zip(todo, slopes, _batch_inv(F, [den for _, den in slopes])):
        out[i] = _third_point(F, ps[i], qs[i], F.mul(num, inv))
    return out


def _add(F, p, s):
    """P + S: the one-pair case of _sums."""
    return _sums(F, [_point(F, p)], [_point(F, s)])[0]


def _add_many(F, ps, qs):
    """P_i + Q_i for each i, with one inversion."""
    ps, qs = tuple(ps), tuple(qs)
    if len(ps) != len(qs):
        raise ValueError("expected two sequences of equal length")
    return _sums(F, [_point(F, p) for p in ps], [_point(F, s) for s in qs])


def _lane_sums(F, points, width):
    """The sum of each lane of a flat list of parsed points, lane l being
    points[l * width : (l + 1) * width], pairwise level by level: P0 + P1,
    P2 + P3, ..., with an odd last point carried up (added to infinity).
    Each level is one _sums call for every lane, so a level costs one
    inversion however many lanes there are, and 32 points cost 5."""
    while points and width > 1:
        if width % 2:
            points = [q for i in range(0, len(points), width) for q in points[i : i + width] + [INFINITY]]
            width += 1
        points = _sums(F, points[0::2], points[1::2])
        width //= 2
    return points


def _sum(F, points):
    """The sum of a sequence of points: the one-lane case of _lane_sums."""
    points = [_point(F, p) for p in points] or [INFINITY]
    return _lane_sums(F, points, len(points))[0]


def _neg(F, p):
    p = _point(F, p)
    return (p[0], F.neg(p[1])) if p else INFINITY


def _on_curve(F, p):
    p = _point(F, p)
    return not p or F.sqr(p[1]) == _rhs(F, p[0])


g1_add, g2_add = partial(_add, _G1), partial(_add, _G2)
g2_add_many = partial(_add_many, _G2)
g2_sum = partial(_sum, _G2)
g1_neg, g2_neg = partial(_neg, _G1), partial(_neg, _G2)
g1_on_curve, g2_on_curve = partial(_on_curve, _G1), partial(_on_curve, _G2)


# ---------------------------------------------------------------- Jacobian
# Scalar-multiplication chains in Jacobian coordinates (X, Y, Z) for the
# affine point (X/Z^2, Y/Z^3), so a chain pays no inversion until its result
# is made affine.  The kernels are written once over _Field and mirror
# _core.c's jac_* kernels; Z = 0 is the point at infinity, whatever
# X and Y are.


def _jac_double(F, p):
    # dbl-2009-l (a = 0)
    x, y, z = p
    if z == F.zero:
        return p
    sub, mul, sqr, muls = F.sub, F.mul, F.sqr, F.muls
    a = sqr(x)
    b = sqr(y)
    c = sqr(b)
    d = muls(sub(sub(sqr(F.add(x, b)), a), c), 2)
    e = muls(a, 3)
    x3 = sub(sqr(e), muls(d, 2))
    return (x3, sub(mul(e, sub(d, x3)), muls(c, 8)), muls(mul(y, z), 2))


def _jac_add(F, p, s):
    # add-2007-bl with the doubling fallback
    x1, y1, z1 = p
    x2, y2, z2 = s
    if z1 == F.zero:
        return s
    if z2 == F.zero:
        return p
    sub, mul, sqr, muls = F.sub, F.mul, F.sqr, F.muls
    z1z1 = sqr(z1)
    z2z2 = sqr(z2)
    u1 = mul(x1, z2z2)
    s1 = mul(mul(y1, z2), z2z2)
    h = sub(mul(x2, z1z1), u1)
    r = sub(mul(mul(y2, z1), z1z1), s1)
    if h == F.zero and r == F.zero:
        return _jac_double(F, p)
    r = muls(r, 2)
    i = sqr(muls(h, 2))
    j = mul(h, i)
    v = mul(u1, i)
    x3 = sub(sub(sqr(r), j), muls(v, 2))
    y3 = sub(mul(r, sub(v, x3)), muls(mul(s1, j), 2))
    return (x3, y3, mul(sub(sub(sqr(F.add(z1, z2)), z1z1), z2z2), h))


def _jac_madd(F, p, a):
    # madd-2007-bl: Jacobian P plus a finite affine A, with the doubling fallback
    x1, y1, z1 = p
    x2, y2 = a
    if z1 == F.zero:
        return (x2, y2, F.one)
    sub, mul, sqr, muls = F.sub, F.mul, F.sqr, F.muls
    z1z1 = sqr(z1)
    h = sub(mul(x2, z1z1), x1)
    r = sub(mul(mul(y2, z1), z1z1), y1)
    if h == F.zero and r == F.zero:
        return _jac_double(F, (x2, y2, F.one))
    hh = sqr(h)
    i = muls(hh, 4)
    j = mul(h, i)
    r = muls(r, 2)
    v = mul(x1, i)
    x3 = sub(sub(sqr(r), j), muls(v, 2))
    y3 = sub(mul(r, sub(v, x3)), muls(mul(y1, j), 2))
    return (x3, y3, sub(sub(sqr(F.add(z1, h)), z1z1), hh))


def _jac_mul(F, p, k):
    """[k]P for an affine point P and any integer k, as an affine point."""
    if not p or not k:
        return INFINITY
    x, y = p
    if k < 0:
        k, y = -k, F.neg(y)
    base = (x, y, F.one)
    # fixed 4-bit window, high nibble first; the table stops at the largest
    # nibble, so a small scalar builds only the multiples it reads
    nibs = [(k >> shift) & 0xF for shift in range(((k.bit_length() + 3) // 4) * 4 - 4, -1, -4)]
    table = [None, base]
    for _ in range(max(nibs) - 1):
        table.append(_jac_add(F, table[-1], base))
    acc = (F.one, F.one, F.zero)
    for nib in nibs:
        for _ in range(4):
            acc = _jac_double(F, acc)
        if nib:
            acc = _jac_add(F, acc, table[nib])
    return _batch_to_affine(F, [acc])[0]


def _batch_to_affine(F, points):
    """The affine forms of Jacobian points, with one inversion for all the
    finite ones; Z = 0 is the point at infinity."""
    inverses = iter(_batch_inv(F, [z for _, _, z in points if z != F.zero]))
    out = []
    for x, y, z in points:
        if z == F.zero:
            out.append(INFINITY)
        else:
            zi = next(inverses)
            zi2 = F.sqr(zi)
            out.append((F.mul(x, zi2), F.mul(y, F.mul(zi2, zi))))
    return out


def _jac_times(F, p, bits):
    """[k]P for a Jacobian P and k > 0 whose binary digits below the leading
    one are bits, by double-and-add."""
    t = p
    for bit in bits:
        t = _jac_double(F, t)
        if bit == "1":
            t = _jac_add(F, t, p)
    return t


def _neg_endo(F, p):
    """-endo(P) for an affine point P, which is [m]P on the subgroup."""
    x, y = F.endo(p)
    return (x, F.neg(y))


def _jac_in_subgroup(F, p):
    # For P on the curve: -endo(P) == [|X|^chains]P, by double-and-add over
    # |X| (63 doublings and 5 additions per chain) and one comparison with
    # the affine -endo(P) scaled by Z^2 and Z^3.
    t = (p[0], p[1], F.one)
    for _ in range(F.chains):
        t = _jac_times(F, t, _X_BITS)
    x, y, z = t
    if z == F.zero:
        return False
    ex, ey = _neg_endo(F, p)
    z2 = F.sqr(z)
    return F.mul(ex, z2) == x and F.mul(ey, F.mul(z2, z)) == y


# ---------------------------------------------------------------- subgroups
# Membership in the order-r subgroups through an endomorphism that acts on
# the subgroup as a power of X (Scott, eprint 2021/1130; Bowe, eprint
# 2019/814): one or two multiplications by the 64-bit |X| of Hamming weight
# 6 instead of [r]P with the 255-bit r.  For on-curve points each test holds
# exactly on the subgroup; the tests check both against [r]P == O.

_X_ABS = abs(X_PARAM)
_X_BITS = bin(_X_ABS)[3:]

def _in_subgroup(F, p):
    """Whether an on-curve point is in the order-r subgroup: -endo(P) == [|X|^chains]P."""
    p = _point(F, p)
    return not p or _jac_in_subgroup(F, p)


g1_in_subgroup, g2_in_subgroup = partial(_in_subgroup, _G1), partial(_in_subgroup, _G2)


# ---------------------------------------------------------------- fixed bases
# GLS combs (Galbraith-Lin-Scott, EUROCRYPT 2009, over the comb of Lim-Lee,
# CRYPTO 1994) for the constant generators, registered in _COMB_BASES once
# they are known, and for any G2 point of order r given to g2_table (a
# public key's h and g1, whose tables the key holds).  On a point of order
# r, -endo acts as [m] with m = |X|^chains, the identity the subgroup check
# tests.  So k mod r < m^dims (r = X^4 - X^2 + 1 < |X|^4, dims = 4 /
# chains) has digits a_i < m in base m, and [k]P is the sum of
# [a_i](-endo)^i(P).  A digit a_i < 2^(w d) is read as w rows of d bits:
# column j gathers bit j of every row into an index u, and table i holds,
# at u, the affine sum of [2^(l d)](-endo)^i(P) over the set bits l of u.
# The digits' combs share one doubling chain, so a multiplication is d
# doublings and at most d * dims mixed additions, with one inversion at the
# end: d = 11 on G2 and 22 on G1, against the 43 of a comb on all 255 bits.
# Several multiplications of one generator need no doublings at all:
# _mul_many reads the generator's column-shifted tables instead, built on
# its first _mul_many and kept for the process.  These read a digit with
# their own width, w' = 8 teeth: on G2 the d' = 8 columns cover the 64-bit
# digit with none to spare, and table c holds, at u, the sum of
# [2^(8 l + c)]P over the set bits l of u (8 tables of 256: 2048 points).
# A scalar's comb is then the sum of one entry per (column, digit): each
# digit's d' entries are summed, the digit's sum is taken through
# (-endo)^i, and the dims sums are added.  Each sum is a lane of
# _lane_sums, so the whole batch costs 5 levels of one inversion each on G2
# (3 for a digit's 8 entries, then 2 for the 4 digits) and a scalar 31
# affine additions.  The single-multiplication tables keep w = 6, since
# they are built more often: a public key builds g2_table for its h and
# g1 (two per provisioning round), where 8 teeth made one build about
# three times as slow, and set-up builds the three generators' tables.

_COMB_TEETH = 6  # w
_SHIFT_TEETH = 8  # w' of the column-shifted tables
_COMB_BASES = set()


@cache
def _comb_shape(F, teeth=_COMB_TEETH):
    """(m, dims, d): the radix |X|^chains, the digits of k mod r in base m,
    and the columns of a digit's comb of this many teeth."""
    m = _X_ABS**F.chains
    return m, 4 // F.chains, -(-m.bit_length() // teeth)


def _comb_build(F, p):
    """The dims comb tables of a finite P of order r: 2^w affine entries
    each, infinity at index 0, and table i + 1 is -endo of table i."""
    _, dims, d = _comb_shape(F)
    rows = [(p[0], p[1], F.one)]
    for _ in range(_COMB_TEETH - 1):
        t = rows[-1]
        for _ in range(d):
            t = _jac_double(F, t)
        rows.append(t)
    rows = _batch_to_affine(F, rows)
    # entry u = entry (u without its top bit) + row (top bit); entry u is [c]P
    # for a distinct 0 < c < 2^(5d + 1) < r, so no sum is infinity or a doubling
    table = [None]
    for u in range(1, 1 << _COMB_TEETH):
        top = u.bit_length() - 1
        rest = u ^ (1 << top)
        table.append(_jac_madd(F, table[rest], rows[top]) if rest else (*rows[top], F.one))
    tables = [[INFINITY] + _batch_to_affine(F, table[1:])]
    while len(tables) < dims:
        tables.append([INFINITY] + [_neg_endo(F, e) for e in tables[-1][1:]])
    return tables


@cache
def _comb_tables(F, p):
    """A generator's comb tables, built on its first multiplication and kept
    for the process.  Any other point's tables live in its _G2Table."""
    return _comb_build(F, p)


def _comb_columns(F, k, teeth=_COMB_TEETH):
    """The table indices of each column of 0 <= k < r on a comb of this
    many teeth, column d - 1 first: per column, one index per digit of k in
    base m."""
    m, dims, d = _comb_shape(F, teeth)
    mask = (1 << d) - 1
    digits = []
    for _ in range(dims):
        k, a = divmod(k, m)
        # the rows of a as d-digit binary strings, the top row first: a
        # column's digits then read as u, high bit first
        rows = [format((a >> (i * d)) & mask, f"0{d}b") for i in reversed(range(teeth))]
        digits.append([int("".join(column), 2) for column in zip(*rows)])
    return list(zip(*digits))


def _comb_mul(F, tables, k):
    """[k]P for 0 <= k < r, from P's comb tables."""
    acc = (F.one, F.one, F.zero)
    for us in _comb_columns(F, k):
        acc = _jac_double(F, acc)
        for table, u in zip(tables, us):
            if u:
                acc = _jac_madd(F, acc, table[u])
    return _batch_to_affine(F, [acc])[0]


def _mul(F, p, k):
    """[k]P: the comb for a table base, the windowed chain otherwise."""
    k = index(k)
    p = _point(F, p)
    if p in _COMB_BASES:
        return _comb_mul(F, _comb_tables(F, p), k % ORDER)
    return _jac_mul(F, p, k)


@cache
def _comb_shifted(F, p):
    """A generator's column-shifted tables, column d' - 1 first as
    _comb_columns reads them: built on its first _mul_many, kept for the
    process.  The rows [2^i]P are one doubling chain made affine with one
    inversion.  Entry u of table c is then entry (u without its top bit) +
    row (top bit of u, column c): one _sums for each top bit, over every
    table.  Entry u is [e]P for a distinct 0 < e < 2^(w' d') < r, so no sum
    is a doubling or infinity."""
    _, _, d = _comb_shape(F, _SHIFT_TEETH)
    rows = [(p[0], p[1], F.one)]
    while len(rows) < _SHIFT_TEETH * d:
        rows.append(_jac_double(F, rows[-1]))
    rows = _batch_to_affine(F, rows)
    tables = [[INFINITY, row] for row in rows[:d]]
    for top in range(1, _SHIFT_TEETH):
        tops = [rows[top * d + c] for c in range(d) for _ in range(1 << top)]
        sums = _sums(F, [e for table in tables for e in table], tops)
        for c, table in enumerate(tables):
            table += sums[c << top : (c + 1) << top]
    return tables[::-1]


def _mul_many(F, p, ks):
    """[k]P for each k in ks, as _mul computes it: for a generator, each
    scalar's comb entries summed in lanes (see the comb notes above); one
    windowed chain per scalar otherwise."""
    p = _point(F, p)
    ks = [index(k) for k in ks]
    if p not in _COMB_BASES:
        return [_jac_mul(F, p, k) for k in ks]
    _, dims, d = _comb_shape(F, _SHIFT_TEETH)
    shifted = _comb_shifted(F, p)
    entries = []  # lane k * dims + i: the d' entries of digit i of scalar k
    for k in ks:
        columns = _comb_columns(F, k % ORDER, _SHIFT_TEETH)
        entries += (table[us[i]] for i in range(dims) for table, us in zip(shifted, columns))
    digits = _lane_sums(F, entries, d)
    for j, s in enumerate(digits):
        for _ in range(j % dims):  # digit i's sum through (-endo)^i
            s = s and _neg_endo(F, s)
        digits[j] = s
    return _lane_sums(F, digits, dims)


def _steps(F, p, t, count):
    """(P, [t]P, [t^2]P, ..., [t^(count-1)]P) for any integer t: one
    Jacobian chain of double-and-add steps, made affine with one inversion."""
    p, t, count = _point(F, p), index(t), index(count)
    if count < 0:
        raise ValueError("count must be non-negative")
    chain = [(p[0], p[1], F.one) if p else (F.one, F.one, F.zero)]
    bits = bin(abs(t))[3:]
    while len(chain) < count:
        x, y, z = chain[-1]
        chain.append(_jac_times(F, (x, F.neg(y) if t < 0 else y, z), bits) if t else (F.one, F.one, F.zero))
    return _batch_to_affine(F, chain[:count])


g1_mul, g2_mul = partial(_mul, _G1), partial(_mul, _G2)
g2_mul_many = partial(_mul_many, _G2)
g2_steps = partial(_steps, _G2)


class _G2Table:
    """The comb tables of one finite G2 point of order r, as g2_table builds
    them.  They are freed with the object."""

    __slots__ = ("tables",)

    def __init__(self, tables):
        self.tables = tables


def g2_table(p):
    """The comb tables of a G2 point of order r, for g2_table_mul: the
    generators' fixed-base path for a point that is not a constant.  The
    point at infinity, and a point off the curve or outside the subgroup,
    raise ValueError."""
    p = _point(_G2, p)
    if not p:
        raise ValueError("the point at infinity has no comb table")
    if not (_on_curve(_G2, p) and _jac_in_subgroup(_G2, p)):
        raise ValueError("point not in the prime-order subgroup")
    return _G2Table(_comb_build(_G2, p))


def g2_table_mul(table, k):
    """[k]P for any integer k, from the _G2Table of P."""
    if not isinstance(table, _G2Table):
        raise TypeError(f"expected a G2 table, not {type(table).__name__}")
    return _comb_mul(_G2, table.tables, index(k) % ORDER)


# ---------------------------------------------------------------- pairing
# Ate pairing with the Miller variable T kept affine on the twist and lines
# mapped to Fp12 through the untwisting (x, y) -> (x/w^2, y/w^3).  Each
# line value is premultiplied by w^3, which lies in an Fp4 subfield and is
# therefore erased by the final exponentiation.  The line of slope lam
# through T, at P, is then
#   w^3 l(P) = (lam*xT - yT) + (-lam*xP) v + yP v w,
# so a step needs only (lam*xT - yT, lam) from T and multiplies f by a
# sparse element.  Several terms share one loop: one squaring of f per bit,
# and at each step one inversion for all the terms' slopes (Montgomery's
# trick).  The Miller variable of a registered constant Q (_LINE_BASES) is
# never computed: its (lam*xT - yT, lam) per step come from a table built on
# first use, the fixed-argument method of Costello-Stebila (LATINCRYPT 2010),
# so its term pays no slope, inversion or point update.

_LINE_BASES = set()
_CHORDS = {"0": (False,), "1": (False, True)}  # the steps of one bit of |X|


def _f6_mul_01(x, a, b):
    # x * (a + b v): 5 Fp2 multiplications instead of 6
    x0, x1, x2 = x
    p0 = _f2_mul(x0, a)
    p1 = _f2_mul(x1, b)
    c1 = _f2_sub(_f2_sub(_f2_mul(_f2_add(x0, x1), _f2_add(a, b)), p0), p1)
    return (_f2_add(p0, _f2_mul(XI, _f2_mul(x2, b))), c1, _f2_add(_f2_mul(x2, a), p1))


def _f12_mul_line(f, a, b, c):
    """f * (a + b v + c v w) for Fp2 a, b and Fp c (Aranha et al., EUROCRYPT 2011).

    Karatsuba over w with the line's sparse halves: 10 Fp2 multiplications
    and 6 by the Fp element c, against 18 Fp2 multiplications dense.
    """
    f0, f1 = f
    t0 = _f6_mul_01(f0, a, b)
    y0, y1, y2 = f1
    t1 = _f6_mul_v((_f2_muls(y0, c), _f2_muls(y1, c), _f2_muls(y2, c)))  # f1 * c v
    s = _f6_mul_01(_f6_add(f0, f1), a, _f2_add(b, (c, 0)))
    return (_f6_add(t0, _f6_mul_v(t1)), _f6_sub(_f6_sub(s, t0), t1))


def _slopes(ts, qs, chord):
    """The line of each T at one step, as (lam*xT - yT, lam): the tangent at
    T (chord False) or the chord through T and Q, with T advanced in place to
    2T or T + Q.  The slopes share one inversion."""
    if not ts:
        return []
    if chord:
        nums = [_f2_sub(yt, yq) for (_, yt), (_, yq) in zip(ts, qs)]
        dens = [_f2_sub(xt, xq) for (xt, _), (xq, _) in zip(ts, qs)]
    else:
        nums = [_f2_muls(_f2_sqr(xt), 3) for xt, _ in ts]
        dens = [_f2_muls(yt, 2) for _, yt in ts]
    if _F2_ZERO in dens:
        raise ValueError("a line slope has a zero denominator")
    out = []
    for i, inv in enumerate(_batch_inv(_G2, dens)):
        lam = _f2_mul(nums[i], inv)
        xt, yt = ts[i]
        x3 = _f2_sub(_f2_sub(_f2_sqr(lam), xt), qs[i][0] if chord else xt)
        ts[i] = (x3, _f2_sub(_f2_mul(lam, _f2_sub(xt, x3)), yt))
        out.append((_f2_sub(_f2_mul(lam, xt), yt), lam))
    return out


@cache
def _line_table(q2):
    """The (lam*xT - yT, lam) of every step of Q's Miller loop, in order."""
    ts = [q2]
    return tuple(line for bit in _X_BITS for chord in _CHORDS[bit] for line in _slopes(ts, (q2,), chord))


def _miller(terms):
    # all (P, Q) terms in one loop: the registered Q read their lines from a
    # table, the rest compute theirs with one inversion per step
    fixed = [(p, _line_table(q2)) for p, q2 in terms if q2 in _LINE_BASES]
    ps = [p for p, q2 in terms if q2 not in _LINE_BASES]
    qs = [q2 for _, q2 in terms if q2 not in _LINE_BASES]
    ts = list(qs)
    f = _F12_ONE
    step = 0
    for bit in _X_BITS:
        f = _f12_sqr(f)
        for chord in _CHORDS[bit]:
            lines = [(p, table[step]) for p, table in fixed] + list(zip(ps, _slopes(ts, qs, chord)))
            for p, (a, lam) in lines:
                f = _f12_mul_line(f, a, _f2_muls(lam, Q - p[0]), p[1])
            step += 1
    # parameter is negative: invert via conjugation (unitary after final exp)
    return _f12_conj(f)


# Granger-Scott squaring (PKC 2010) in the cyclotomic subgroup, where every
# element of the final exponentiation's hard part lives.  With t = w^3,
# Fp4 = Fp2[t]/(t^2 - xi) and Fp12 = Fp4[w]/(w^3 - t), so
# a = A + B w + C w^2 with A = (g0, h1), B = (h0, g2), C = (g1, h2), where
# a = (g0 + g1 v + g2 v^2) + (h0 + h1 v + h2 v^2) w.  For unitary a,
# a^2 = (3A^2 - 2 conj(A)) + (3t C^2 + 2 conj(B)) w + (3B^2 - 2 conj(C)) w^2.


def _f4_sqr(a, b):
    # (a + b t)^2 = (a^2 + xi b^2) + ((a + b)^2 - a^2 - b^2) t
    t0 = _f2_sqr(a)
    t1 = _f2_sqr(b)
    return _f2_add(t0, _f2_mul(XI, t1)), _f2_sub(_f2_sub(_f2_sqr(_f2_add(a, b)), t0), t1)


def _f2_3s_2z(s, z, k):
    # 3s + k z for k = 2 or -2
    return ((3 * s[0] + k * z[0]) % Q, (3 * s[1] + k * z[1]) % Q)


def _cyc_sqr(a):
    (g0, g1, g2), (h0, h1, h2) = a
    a0, a1 = _f4_sqr(g0, h1)
    b0, b1 = _f4_sqr(h0, g2)
    c0, c1 = _f4_sqr(g1, h2)
    return (
        (_f2_3s_2z(a0, g0, -2), _f2_3s_2z(b0, g1, -2), _f2_3s_2z(c0, g2, -2)),
        (_f2_3s_2z(_f2_mul(XI, c1), h0, 2), _f2_3s_2z(a1, h1, 2), _f2_3s_2z(b1, h2, 2)),
    )


def _cyc_pow(a, e):
    # a^e for e > 0 and a in the cyclotomic subgroup
    result = a
    for bit in bin(e)[3:]:
        result = _cyc_sqr(result)
        if bit == "1":
            result = _f12_mul(result, a)
    return result


def _cyc_pow_x(a):
    # a^X: X < 0 and a is unitary, so a^X = conj(a^|X|)
    return _f12_conj(_cyc_pow(a, -X_PARAM))


def _final_exp(f):
    f = _f12_mul(_f12_conj(f), _f12_inv(f))  # f^(q^6 - 1)
    f = _f12_mul(_f12_frob(_f12_frob(f)), f)  # f^(q^2 + 1), now cyclotomic
    # f^HARD_EXPONENT by the chain in params:
    # t0 * t1^q * t2^(q^2) * t3^(q^3), evaluated as t0 * (t1 * (t2 * t3^q)^q)^q
    t3 = _cyc_pow(f, HARD_CHAIN)
    t2 = _cyc_pow_x(t3)
    t1 = _f12_mul(_cyc_pow_x(t2), _f12_conj(t3))
    t0 = _f12_mul(_cyc_pow_x(t1), f)
    return _f12_mul(t0, _f12_frob(_f12_mul(t1, _f12_frob(_f12_mul(t2, _f12_frob(t3))))))


def multi_miller_loop(pairs):
    """Product of the Miller values of a sequence of (P, Q) pairs, in one loop.

    A term with a point at infinity contributes 1 and is skipped.
    """
    terms = [(_G1.point(p), _G2.point(q2)) for p, q2 in pairs if p and q2]
    return _gt_flatten(_miller(terms)) if terms else GT_ONE


def final_exp(f):
    return _gt_flatten(_final_exp(_gt_nest(f)))


def pairing(p, q2):
    return final_exp(multi_miller_loop(((p, q2),)))


# ---------------------------------------------------------------- encoding
# 48-byte (G1) / 96-byte (G2) compressed form: x as its Fp components in
# wire order (G2 serialises x as c1 || c0).  Flag bits on the first byte:
# 0x80 compressed, 0x40 infinity, 0x20 y is the larger root: y > -y with
# the components compared in wire order.

_FLAG_COMPRESSED = 0x80
_FLAG_INFINITY = 0x40
_FLAG_SIGN = 0x20


def _is_larger(F, y):
    return F.wire(y) > F.wire(F.neg(y))


def _compress(F, p):
    if not p:
        return bytes([_FLAG_COMPRESSED | _FLAG_INFINITY]) + bytes(F.size - 1)
    x, y = F.point(p)
    data = bytearray(b"".join([c.to_bytes(48, "big") for c in F.wire(x)]))
    data[0] |= _FLAG_COMPRESSED | (_FLAG_SIGN if _is_larger(F, y) else 0)
    return bytes(data)


def _decompress(F, data):
    if len(data) != F.size:
        raise ValueError(f"expected {F.size} bytes, got {len(data)}")
    flags = data[0] & 0xE0
    if not flags & _FLAG_COMPRESSED:
        raise ValueError("uncompressed encodings are not accepted")
    body = bytes([data[0] & 0x1F]) + data[1:]
    if flags & _FLAG_INFINITY:
        if flags & _FLAG_SIGN or any(body):
            raise ValueError("malformed point at infinity")
        return INFINITY
    parts = [int.from_bytes(body[i : i + 48], "big") for i in range(0, F.size, 48)]
    if max(parts) >= Q:
        raise ValueError("x coordinate out of range")
    x = F.unwire(parts)
    y = F.sqrt(_rhs(F, x))
    if y is None:
        raise ValueError("x is not on the curve")
    if _is_larger(F, y) != bool(flags & _FLAG_SIGN):
        y = F.neg(y)
    p = (x, y)
    if not _jac_in_subgroup(F, p):
        raise ValueError("point not in the prime-order subgroup")
    return p


g1_compress, g2_compress = partial(_compress, _G1), partial(_compress, _G2)
g1_decompress, g2_decompress = partial(_decompress, _G1), partial(_decompress, _G2)

# The base points are pinned in params.  Each must lie on its curve and in
# the order-r subgroup, and the subgroup check runs the Jacobian kernels and
# the endomorphism constants, so a wrong constant or a broken kernel fails
# the import.  The tests check [r]P == O for each and re-derive the aux one.
for _F, _g in ((_G1, G1_GENERATOR), (_G2, G2_GENERATOR), (_G2, G2_AUX_GENERATOR)):
    assert _g and _on_curve(_F, _g) and _in_subgroup(_F, _g)
assert G2_AUX_GENERATOR != G2_GENERATOR
_COMB_BASES.update((G1_GENERATOR, G2_GENERATOR, G2_AUX_GENERATOR))
_LINE_BASES.update((G2_GENERATOR, G2_AUX_GENERATOR))
