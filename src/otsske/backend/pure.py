"""Pure-Python BLS12-381 arithmetic backend.

Works on plain integers so it runs anywhere.  It is also the reference
the tests check the compiled backend (``_core.c``) against: that backend
mirrors this module function for function but calls none of its code
after import, so the two are independent.  Points cross the API boundary in
affine coordinates: a G1 point is ``(x, y)``, a G2 point is
``((x0, x1), (y0, y1))`` and the point at infinity is the empty tuple.
GT elements are flat 12-tuples of integers (Fp2 towers flattened in
(w, v, i) order).  Scalars are plain non-negative integers; callers are
responsible for any modular reduction they want.
"""

from __future__ import annotations

from ..params import (
    B_COEFF,
    B_TWIST,
    BETA,
    FIELD_MODULUS as Q,
    G1_GENERATOR,
    G2_COFACTOR,
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


def _f2_sqrt(a):
    a0, a1 = a
    if a1 == 0:
        s = _fp_sqrt(a0)
        if s is not None:
            return (s, 0)
        s = _fp_sqrt((-a0) % Q)
        return None if s is None else (0, s)
    s = _fp_sqrt((a0 * a0 + a1 * a1) % Q)
    if s is None:
        return None
    inv2 = (Q + 1) // 2
    x0 = _fp_sqrt((a0 + s) * inv2 % Q)
    if x0 is None:
        x0 = _fp_sqrt((a0 - s) * inv2 % Q)
        if x0 is None:
            return None
    cand = (x0, a1 * pow(2 * x0, -1, Q) % Q)
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
    return _f12_mul(a, a)


def _f12_conj(a):
    return (a[0], _f6_neg(a[1]))


def _f12_inv(a):
    a0, a1 = a
    t = _f6_inv(_f6_sub(_f6_sqr(a0), _f6_mul_v(_f6_sqr(a1))))
    return (_f6_mul(a0, t), _f6_neg(_f6_mul(a1, t)))


def _f12_pow(a, e):
    result = _F12_ONE
    if e <= 0:
        if e == 0:
            return result
        a = _f12_inv(a)
        e = -e
    bit = 1 << (e.bit_length() - 1)
    while bit:
        result = _f12_sqr(result)
        if e & bit:
            result = _f12_mul(result, a)
        bit >>= 1
    return result


# Frobenius coefficients for v^j and w^k, derived once.
_FROB_V = tuple(_f2_pow(XI, j * (Q - 1) // 3) for j in range(3))
_FROB_W = _f2_pow(XI, (Q - 1) // 6)
assert _f2_pow(XI, (Q**6 - 1) // 6) == (Q - 1, 0), "p^6 Frobenius must be conjugation"


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


def gt_inv(a):
    return _gt_flatten(_f12_inv(_gt_nest(a)))


def gt_pow(a, e):
    return _gt_flatten(_f12_pow(_gt_nest(a), e))


# ---------------------------------------------------------------- curves


def _e1_add(p, s):
    if not p:
        return s
    if not s:
        return p
    x1, y1 = p
    x2, y2 = s
    if x1 == x2:
        if (y1 + y2) % Q == 0:
            return INFINITY
        lam = 3 * x1 * x1 * pow(2 * y1, -1, Q) % Q
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, Q) % Q
    x3 = (lam * lam - x1 - x2) % Q
    return (x3, (lam * (x1 - x3) - y1) % Q)


def _e2_add(p, s):
    if not p:
        return s
    if not s:
        return p
    x1, y1 = p
    x2, y2 = s
    if x1 == x2:
        if _f2_add(y1, y2) == _F2_ZERO:
            return INFINITY
        lam = _f2_mul(_f2_muls(_f2_sqr(x1), 3), _f2_inv(_f2_muls(y1, 2)))
    else:
        lam = _f2_mul(_f2_sub(y2, y1), _f2_inv(_f2_sub(x2, x1)))
    x3 = _f2_sub(_f2_sub(_f2_sqr(lam), x1), x2)
    return (x3, _f2_sub(_f2_mul(lam, _f2_sub(x1, x3)), y1))


def _window_mul(p, k, add, neg):
    if k < 0:
        return _window_mul(neg(p), -k, add, neg)
    if k == 0 or not p:
        return INFINITY
    table = [INFINITY, p]
    for _ in range(14):
        table.append(add(table[-1], p))
    acc = INFINITY
    for shift in range(((k.bit_length() + 3) // 4) * 4 - 4, -1, -4):
        if acc:
            acc = add(acc, acc)
            acc = add(acc, acc)
            acc = add(acc, acc)
            acc = add(acc, acc)
        nib = (k >> shift) & 0xF
        if nib:
            acc = add(acc, table[nib])
    return acc


def g1_add(p, s):
    return _e1_add(p, s)


def g1_neg(p):
    return (p[0], (-p[1]) % Q) if p else INFINITY


def g1_mul(p, k):
    return _window_mul(p, k, _e1_add, g1_neg)


def g2_add(p, s):
    return _e2_add(p, s)


def g2_neg(p):
    return (p[0], _f2_neg(p[1])) if p else INFINITY


def g2_mul(p, k):
    return _window_mul(p, k, _e2_add, g2_neg)


def g1_on_curve(p):
    if not p:
        return True
    x, y = p
    return (y * y - (x * x * x + B_COEFF)) % Q == 0


def g2_on_curve(p):
    if not p:
        return True
    x, y = p
    return _f2_sqr(y) == _f2_add(_f2_mul(_f2_sqr(x), x), (B_TWIST[0] % Q, B_TWIST[1] % Q))


# ---------------------------------------------------------------- subgroups
# Membership in the order-r subgroups through an endomorphism that acts on
# the subgroup as a power of X (Scott, eprint 2021/1130; Bowe, eprint
# 2019/814): one or two multiplications by the 64-bit |X| of Hamming weight
# 6 instead of [r]P with the 255-bit r.  For on-curve points each test holds
# exactly on the subgroup; the tests check both against [r]P == O.

_X_BITS = bin(abs(X_PARAM))[3:]

# psi(x, y) = (conj(x) c_x, conj(y) c_y) on the twist, with
# c_x = xi^-((q-1)/3) and c_y = xi^-((q-1)/2)
_PSI_X = _f2_inv(_FROB_V[1])
_PSI_Y = _f2_inv(_f2_pow(XI, (Q - 1) // 2))


def _mul_abs_x(p, add):
    # [|X|]P by double-and-add: 63 doublings and 5 additions
    acc = p
    for bit in _X_BITS:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, p)
    return acc


def g1_in_subgroup(p):
    """Whether an on-curve G1 point is in the order-r subgroup: phi(P) == -[X^2]P."""
    if not p:
        return True
    return g1_neg(_mul_abs_x(_mul_abs_x(p, _e1_add), _e1_add)) == (BETA * p[0] % Q, p[1])


def g2_in_subgroup(p):
    """Whether an on-curve G2 point is in the order-r subgroup: psi(P) == [X]P."""
    if not p:
        return True
    x, y = p
    # X < 0, so [X]P = -[|X|]P
    return g2_neg(_mul_abs_x(p, _e2_add)) == (_f2_mul(_f2_conj(x), _PSI_X), _f2_mul(_f2_conj(y), _PSI_Y))


# ---------------------------------------------------------------- pairing
# Ate pairing with the Miller variable kept affine on the twist and lines
# mapped to Fp12 through the untwisting (x, y) -> (x/w^2, y/w^3).  Each
# line value is premultiplied by w^3, which lies in an Fp4 subfield and is
# therefore erased by the final exponentiation.


def _line(lam, t, xp, yp):
    # w^3 * l(P) = (lam*xT - yT) + (-lam*xP) w^2 + yP w^3
    a = _f2_sub(_f2_mul(lam, t[0]), t[1])
    b = _f2_muls(_f2_neg(lam), xp)
    c = (yp % Q, 0)
    return ((a, b, _F2_ZERO), (_F2_ZERO, c, _F2_ZERO))


def _miller(p, q2):
    xp, yp = p
    f = _F12_ONE
    t = q2
    for bit in _X_BITS:
        lam = _f2_mul(_f2_muls(_f2_sqr(t[0]), 3), _f2_inv(_f2_muls(t[1], 2)))
        f = _f12_mul(_f12_sqr(f), _line(lam, t, xp, yp))
        x3 = _f2_sub(_f2_sub(_f2_sqr(lam), t[0]), t[0])
        t = (x3, _f2_sub(_f2_mul(lam, _f2_sub(t[0], x3)), t[1]))
        if bit == "1":
            lam = _f2_mul(_f2_sub(t[1], q2[1]), _f2_inv(_f2_sub(t[0], q2[0])))
            f = _f12_mul(f, _line(lam, t, xp, yp))
            x3 = _f2_sub(_f2_sub(_f2_sqr(lam), t[0]), q2[0])
            t = (x3, _f2_sub(_f2_mul(lam, _f2_sub(t[0], x3)), t[1]))
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


def miller_loop(p, q2):
    if not p or not q2:
        return GT_ONE
    return _gt_flatten(_miller(p, q2))


def final_exp(f):
    return _gt_flatten(_final_exp(_gt_nest(f)))


def pairing(p, q2):
    return final_exp(miller_loop(p, q2))


# ---------------------------------------------------------------- encoding
# 48-byte (G1) / 96-byte (G2) compressed form.  Flag bits on the first
# byte: 0x80 compressed, 0x40 infinity, 0x20 y is the lexicographically
# larger root.  G2 serialises x as c1 || c0.

_FLAG_COMPRESSED = 0x80
_FLAG_INFINITY = 0x40
_FLAG_SIGN = 0x20


def _y_is_larger_fp(y):
    return y > Q // 2


def _y_is_larger_fp2(y):
    y0, y1 = y
    return y1 > Q // 2 if y1 != 0 else y0 > Q // 2


def g1_compress(p):
    if not p:
        return bytes([_FLAG_COMPRESSED | _FLAG_INFINITY]) + bytes(47)
    x, y = p
    data = bytearray(x.to_bytes(48, "big"))
    data[0] |= _FLAG_COMPRESSED | (_FLAG_SIGN if _y_is_larger_fp(y) else 0)
    return bytes(data)


def g2_compress(p):
    if not p:
        return bytes([_FLAG_COMPRESSED | _FLAG_INFINITY]) + bytes(95)
    (x0, x1), y = p
    data = bytearray(x1.to_bytes(48, "big") + x0.to_bytes(48, "big"))
    data[0] |= _FLAG_COMPRESSED | (_FLAG_SIGN if _y_is_larger_fp2(y) else 0)
    return bytes(data)


def _split_flags(data, size):
    if len(data) != size:
        raise ValueError(f"expected {size} bytes, got {len(data)}")
    flags = data[0] & 0xE0
    if not flags & _FLAG_COMPRESSED:
        raise ValueError("uncompressed encodings are not accepted")
    body = bytes([data[0] & 0x1F]) + data[1:]
    return flags, body


def g1_decompress(data):
    flags, body = _split_flags(data, 48)
    if flags & _FLAG_INFINITY:
        if flags & _FLAG_SIGN or any(body):
            raise ValueError("malformed point at infinity")
        return INFINITY
    x = int.from_bytes(body, "big")
    if x >= Q:
        raise ValueError("x coordinate out of range")
    y = _fp_sqrt((x * x * x + B_COEFF) % Q)
    if y is None:
        raise ValueError("x is not on the curve")
    if _y_is_larger_fp(y) != bool(flags & _FLAG_SIGN):
        y = Q - y
    p = (x, y)
    if not g1_in_subgroup(p):
        raise ValueError("point not in the prime-order subgroup")
    return p


def g2_decompress(data):
    flags, body = _split_flags(data, 96)
    if flags & _FLAG_INFINITY:
        if flags & _FLAG_SIGN or any(body):
            raise ValueError("malformed point at infinity")
        return INFINITY
    x1 = int.from_bytes(body[:48], "big")
    x0 = int.from_bytes(body[48:], "big")
    if x0 >= Q or x1 >= Q:
        raise ValueError("x coordinate out of range")
    x = (x0, x1)
    y = _f2_sqrt(_f2_add(_f2_mul(_f2_sqr(x), x), (B_TWIST[0] % Q, B_TWIST[1] % Q)))
    if y is None:
        raise ValueError("x is not on the curve")
    if _y_is_larger_fp2(y) != bool(flags & _FLAG_SIGN):
        y = _f2_neg(y)
    p = (x, y)
    if not g2_in_subgroup(p):
        raise ValueError("point not in the prime-order subgroup")
    return p


# ---------------------------------------------------------------- fixed points
# Second, independent G2 base point: nothing-up-my-sleeve derivation from a
# hash-seeded x coordinate, cleared to the prime-order subgroup.  Starting
# from the *smallest* valid x would reproduce the conventional generator
# (that is how it was derived), so the seed comes from a tagged digest and
# the resulting point has unknown discrete log with respect to it.


def _derive_aux_generator():
    import hashlib

    counter = 0
    while True:
        seed = hashlib.sha256(b"OTSSKE/G2AUX" + counter.to_bytes(8, "big")).digest()
        wide = seed + hashlib.sha256(seed).digest()
        x = (int.from_bytes(wide, "big") % Q, counter % Q)
        rhs = _f2_add(_f2_mul(_f2_sqr(x), x), (B_TWIST[0] % Q, B_TWIST[1] % Q))
        y = _f2_sqrt(rhs)
        if y is not None:
            if _y_is_larger_fp2(y):
                y = _f2_neg(y)
            p = g2_mul((x, y), G2_COFACTOR)
            if p and not g2_mul(p, ORDER) and p != G2_GENERATOR:
                return p
        counter += 1


G2_AUX_GENERATOR = _derive_aux_generator()

# the definitional [r]P == O pins the endomorphism constants of the subgroup checks
assert g1_on_curve(G1_GENERATOR) and not g1_mul(G1_GENERATOR, ORDER) and g1_in_subgroup(G1_GENERATOR)
assert g2_on_curve(G2_GENERATOR) and not g2_mul(G2_GENERATOR, ORDER) and g2_in_subgroup(G2_GENERATOR)
