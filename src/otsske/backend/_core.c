/*
 * Compiled BLS12-381 arithmetic backend, ``otsske.backend._core``.
 *
 * Mirrors each pure.py function that the package calls (pure.py also
 * keeps g2_neg and the on-curve checks, which only the tests compare
 * against): the same boundary types (affine integer tuples, the empty
 * tuple for the point at infinity, flat 12-tuples for GT) and the same
 * algorithms, with 6x64-bit Montgomery field arithmetic, Jacobian point
 * kernels and the pairing in C.  Every curve constant is read at import
 * from otsske.params and otsske.backend.pure, so the two backends cannot
 * drift apart silently.  Decoding checks flags,
 * range, square root and subgroup here, independently of pure.py, which the
 * tests use as the reference.
 *
 * Only the public CPython API is used: integers cross the boundary through
 * int.to_bytes and int.from_bytes.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

#define INLINE static inline __attribute__((always_inline))

/* ------------------------------------------------------------ fp arithmetic */
/* Little-endian 6-limb field elements in Montgomery form (R = 2^384). */

static u64 Q[6];
static u64 R2[6];       /* R^2 mod q, for conversion into Montgomery form */
static u64 ONE_M[6];    /* R mod q = Montgomery 1 */
static u64 N0;          /* -q^-1 mod 2^64 */
static u64 FERMAT[6];   /* q - 2 */
static u64 SQRT_EXP[6]; /* (q + 1) / 4 */
static u64 ISQRT_EXP[6]; /* (q - 3) / 4 */
static u64 HALF_Q[6];   /* (q - 1) / 2: the larger square root exceeds it */
static u64 INV2_M[6];   /* 1/2, Montgomery */
static int Q_BITS;
static const u64 ONE_PLAIN[6] = {1};

static int bit_length(const u64 *a)
{
    for (int i = 5; i >= 0; i--)
        if (a[i])
            return 64 * i + 64 - __builtin_clzll(a[i]);
    return 0;
}

static inline int fp_is_zero(const u64 *a)
{
    return !(a[0] | a[1] | a[2] | a[3] | a[4] | a[5]);
}

static inline int fp_cmp(const u64 *a, const u64 *b)
{
    for (int i = 5; i >= 0; i--)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return 0;
}

static inline void sub_q(u64 *r)
{
    u64 borrow = 0;
    for (int i = 0; i < 6; i++) {
        u128 d = (u128)r[i] - Q[i] - borrow;
        r[i] = (u64)d;
        borrow = (u64)(d >> 64) & 1;
    }
}

static void fp_add(u64 *r, const u64 *a, const u64 *b)
{
    u64 carry = 0;
    for (int i = 0; i < 6; i++) {
        u128 acc = (u128)a[i] + b[i] + carry;
        r[i] = (u64)acc;
        carry = (u64)(acc >> 64);
    }
    if (carry || fp_cmp(r, Q) >= 0)
        sub_q(r);
}

static void fp_sub(u64 *r, const u64 *a, const u64 *b)
{
    u64 borrow = 0, carry = 0;
    for (int i = 0; i < 6; i++) {
        u128 d = (u128)a[i] - b[i] - borrow;
        r[i] = (u64)d;
        borrow = (u64)(d >> 64) & 1;
    }
    if (borrow)
        for (int i = 0; i < 6; i++) {
            u128 acc = (u128)r[i] + Q[i] + carry;
            r[i] = (u64)acc;
            carry = (u64)(acc >> 64);
        }
}

static void fp_neg(u64 *r, const u64 *a)
{
    static const u64 zero[6];
    fp_sub(r, zero, a);
}

static void fp_mul(u64 *r, const u64 *a, const u64 *b)
{
    /* CIOS Montgomery multiplication; q < 2^381 leaves two guard bits */
    u64 t[8] = {0}, carry, m;
    u128 acc;
    for (int i = 0; i < 6; i++) {
        carry = 0;
        for (int j = 0; j < 6; j++) {
            acc = (u128)t[j] + (u128)a[j] * b[i] + carry;
            t[j] = (u64)acc;
            carry = (u64)(acc >> 64);
        }
        acc = (u128)t[6] + carry;
        t[6] = (u64)acc;
        t[7] = (u64)(acc >> 64);

        m = t[0] * N0;
        acc = (u128)t[0] + (u128)m * Q[0];
        carry = (u64)(acc >> 64);
        for (int j = 1; j < 6; j++) {
            acc = (u128)t[j] + (u128)m * Q[j] + carry;
            t[j - 1] = (u64)acc;
            carry = (u64)(acc >> 64);
        }
        acc = (u128)t[6] + carry;
        t[5] = (u64)acc;
        t[6] = t[7] + (u64)(acc >> 64);
        t[7] = 0;
    }
    if (t[6] || fp_cmp(t, Q) >= 0)
        sub_q(t);
    memcpy(r, t, 48);
}

static void fp_pow(u64 *r, const u64 *base, const u64 *exp, int bits)
{
    /* left-to-right square and multiply over a limb-array exponent */
    u64 acc[6], b[6];
    memcpy(acc, ONE_M, 48);
    memcpy(b, base, 48);
    for (int i = bits - 1; i >= 0; i--) {
        fp_mul(acc, acc, acc);
        if ((exp[i >> 6] >> (i & 63)) & 1)
            fp_mul(acc, acc, b);
    }
    memcpy(r, acc, 48);
}

static void fp_inv(u64 *r, const u64 *a)
{
    fp_pow(r, a, FERMAT, Q_BITS);
}

static int fp_sqrt(u64 *r, const u64 *a)
{
    /* q = 3 mod 4; verify the candidate since a may be a non-residue */
    u64 cand[6], chk[6];
    fp_pow(cand, a, SQRT_EXP, Q_BITS);
    fp_mul(chk, cand, cand);
    if (memcmp(chk, a, 48))
        return 0;
    memcpy(r, cand, 48);
    return 1;
}

static void set_one(u64 *r, int n)
{
    /* the Montgomery 1 of Fp, Fp2 (n = 12) or Fp12 (n = 72) */
    memset(r, 0, 8 * n);
    memcpy(r, ONE_M, 48);
}

/* ------------------------------------------------------------- fp2 (i^2=-1) */
/* Layout: u64[12], c0 at offset 0, c1 at offset 6. */

static u64 XI_M[12];

static inline int f2_is_zero(const u64 *a)
{
    return fp_is_zero(a) && fp_is_zero(a + 6);
}

static void f2_add(u64 *r, const u64 *a, const u64 *b)
{
    fp_add(r, a, b);
    fp_add(r + 6, a + 6, b + 6);
}

static void f2_sub(u64 *r, const u64 *a, const u64 *b)
{
    fp_sub(r, a, b);
    fp_sub(r + 6, a + 6, b + 6);
}

static void f2_neg(u64 *r, const u64 *a)
{
    fp_neg(r, a);
    fp_neg(r + 6, a + 6);
}

static void f2_conj(u64 *r, const u64 *a)
{
    memmove(r, a, 48);
    fp_neg(r + 6, a + 6);
}

static void f2_mul(u64 *r, const u64 *a, const u64 *b)
{
    /* Karatsuba: (a0b0 - a1b1) + ((a0+a1)(b0+b1) - a0b0 - a1b1) i */
    u64 t0[6], t1[6], sa[6], sb[6], m[6];
    fp_mul(t0, a, b);
    fp_mul(t1, a + 6, b + 6);
    fp_add(sa, a, a + 6);
    fp_add(sb, b, b + 6);
    fp_mul(m, sa, sb);
    fp_sub(m, m, t0);
    fp_sub(r + 6, m, t1);
    fp_sub(r, t0, t1);
}

static void f2_sqr(u64 *r, const u64 *a)
{
    /* (a0 + a1 i)^2 = (a0 + a1)(a0 - a1) + 2 a0 a1 i */
    u64 s[6], d[6], m[6];
    fp_add(s, a, a + 6);
    fp_sub(d, a, a + 6);
    fp_mul(m, a, a + 6);
    fp_mul(r, s, d);
    fp_add(r + 6, m, m);
}

static void f2_inv(u64 *r, const u64 *a)
{
    /* 1 / (a0 + a1 i) = (a0 - a1 i) / (a0^2 + a1^2) */
    u64 n[6], t[6], ni[6];
    fp_mul(n, a, a);
    fp_mul(t, a + 6, a + 6);
    fp_add(n, n, t);
    fp_inv(ni, n);
    fp_mul(r, a, ni);
    fp_mul(t, a + 6, ni);
    fp_neg(r + 6, t);
}

static int f2_sqrt(u64 *r, const u64 *a)
{
    /* As pure._f2_sqrt: with s = sqrt(N(a)) and c = (a0 + s)/2,
     * e = c^((q-3)/4) is 1/sqrt(c) if c is a square and 1/sqrt(-c)
     * otherwise, so a root is (c e, a1 e/2) or (-a1 e/2, c e): two powers
     * and no inversion.  c = 0 only where a1 = 0 and s = -a0, and then
     * c = a0 takes the other root -s. */
    u64 s[6], t[6], c[6], e[6], ce[6], h[6], cand[12], chk[12];
    fp_mul(s, a, a);
    fp_mul(t, a + 6, a + 6);
    fp_add(s, s, t);
    if (!fp_sqrt(s, s))
        return 0;
    fp_add(c, a, s);
    fp_mul(c, c, INV2_M);
    if (fp_is_zero(c))
        memcpy(c, a, 48);
    fp_pow(e, c, ISQRT_EXP, Q_BITS);
    fp_mul(ce, c, e);
    fp_mul(h, a + 6, e);
    fp_mul(h, h, INV2_M);
    fp_mul(t, ce, e);
    if (!memcmp(t, ONE_M, 48)) {
        memcpy(cand, ce, 48);
        memcpy(cand + 6, h, 48);
    } else {
        fp_neg(cand, h);
        memcpy(cand + 6, ce, 48);
    }
    f2_sqr(chk, cand);
    if (memcmp(chk, a, 96))
        return 0;
    memcpy(r, cand, 96);
    return 1;
}

/* -------------------------------------------------------- fp6 / fp12 tower */
/* fp6 = fp2[v]/(v^3 - xi): u64[36], coefficient j at offset 12*j.
 * fp12 = fp6[w]/(w^2 - v): u64[72], c0 at 0, c1 at 36. */

static void f6_add(u64 *r, const u64 *a, const u64 *b)
{
    for (int j = 0; j < 36; j += 12)
        f2_add(r + j, a + j, b + j);
}

static void f6_sub(u64 *r, const u64 *a, const u64 *b)
{
    for (int j = 0; j < 36; j += 12)
        f2_sub(r + j, a + j, b + j);
}

static void f6_neg(u64 *r, const u64 *a)
{
    for (int j = 0; j < 36; j += 12)
        f2_neg(r + j, a + j);
}

static void f6_mul(u64 *r, const u64 *a, const u64 *b)
{
    u64 t0[12], t1[12], t2[12], s0[12], s1[12], m[12], out0[12], out1[12], out2[12];
    f2_mul(t0, a, b);
    f2_mul(t1, a + 12, b + 12);
    f2_mul(t2, a + 24, b + 24);

    /* c0 = t0 + xi*((a1+a2)(b1+b2) - t1 - t2) */
    f2_add(s0, a + 12, a + 24);
    f2_add(s1, b + 12, b + 24);
    f2_mul(m, s0, s1);
    f2_sub(m, m, t1);
    f2_sub(m, m, t2);
    f2_mul(m, m, XI_M);
    f2_add(out0, t0, m);

    /* c1 = (a0+a1)(b0+b1) - t0 - t1 + xi*t2 */
    f2_add(s0, a, a + 12);
    f2_add(s1, b, b + 12);
    f2_mul(m, s0, s1);
    f2_sub(m, m, t0);
    f2_sub(m, m, t1);
    f2_mul(s0, XI_M, t2);
    f2_add(out1, m, s0);

    /* c2 = (a0+a2)(b0+b2) - t0 - t2 + t1 */
    f2_add(s0, a, a + 24);
    f2_add(s1, b, b + 24);
    f2_mul(m, s0, s1);
    f2_sub(m, m, t0);
    f2_sub(m, m, t2);
    f2_add(out2, m, t1);

    memcpy(r, out0, 96);
    memcpy(r + 12, out1, 96);
    memcpy(r + 24, out2, 96);
}

static void f6_mul_v(u64 *r, const u64 *a)
{
    /* (c0, c1, c2) -> (xi*c2, c0, c1) */
    u64 t[12];
    f2_mul(t, XI_M, a + 24);
    memmove(r + 24, a + 12, 96);
    memmove(r + 12, a, 96);
    memcpy(r, t, 96);
}

static void f6_inv(u64 *r, const u64 *a)
{
    u64 c0[12], c1[12], c2[12], t[12], acc[12];
    f2_sqr(c0, a);
    f2_mul(t, a + 12, a + 24);
    f2_mul(t, t, XI_M);
    f2_sub(c0, c0, t);

    f2_sqr(c1, a + 24);
    f2_mul(c1, c1, XI_M);
    f2_mul(t, a, a + 12);
    f2_sub(c1, c1, t);

    f2_sqr(c2, a + 12);
    f2_mul(t, a, a + 24);
    f2_sub(c2, c2, t);

    f2_mul(acc, a + 24, c1);
    f2_mul(t, a + 12, c2);
    f2_add(acc, acc, t);
    f2_mul(acc, acc, XI_M);
    f2_mul(t, a, c0);
    f2_add(acc, acc, t);
    f2_inv(acc, acc);

    f2_mul(r, c0, acc);
    f2_mul(r + 12, c1, acc);
    f2_mul(r + 24, c2, acc);
}

static void f12_mul(u64 *r, const u64 *a, const u64 *b)
{
    u64 t0[36], t1[36], s0[36], s1[36], m[36], out0[36];
    f6_mul(t0, a, b);
    f6_mul(t1, a + 36, b + 36);
    f6_mul_v(m, t1);
    f6_add(out0, t0, m);
    f6_add(s0, a, a + 36);
    f6_add(s1, b, b + 36);
    f6_mul(m, s0, s1);
    f6_sub(m, m, t0);
    f6_sub(m, m, t1);
    memcpy(r, out0, 288);
    memcpy(r + 36, m, 288);
}

static void f12_sqr(u64 *r, const u64 *a)
{
    /* (a0 + a1 w)^2 = ((a0 + a1)(a0 + v a1) - (1 + v) a0 a1) + 2 a0 a1 w:
     * 2 Fp6 multiplications instead of 3, as pure._f12_sqr; r may alias a */
    u64 t[36], s[36], u[36];
    f6_mul(t, a, a + 36);
    f6_add(s, a, a + 36);
    f6_mul_v(u, a + 36);
    f6_add(u, u, a);
    f6_mul(s, s, u);
    f6_sub(s, s, t);
    f6_mul_v(u, t);
    f6_sub(r, s, u);
    f6_add(r + 36, t, t);
}

static void f12_conj(u64 *r, const u64 *a)
{
    memmove(r, a, 288);
    f6_neg(r + 36, a + 36);
}

static void f12_inv(u64 *r, const u64 *a)
{
    u64 t0[36], t1[36];
    f6_mul(t0, a, a);
    f6_mul(t1, a + 36, a + 36);
    f6_mul_v(t1, t1);
    f6_sub(t0, t0, t1);
    f6_inv(t0, t0);
    f6_mul(t1, a + 36, t0);
    f6_mul(r, a, t0);
    f6_neg(r + 36, t1);
}

/* Frobenius coefficient of v^j w^k at slot 3k + j: pure._FROB_V[j] times
 * pure._FROB_W when k = 1 (Montgomery), filled at init. */
static u64 FROB[6][12];

static void f12_frob(u64 *r, const u64 *a)
{
    u64 t[12];
    for (int s = 0; s < 6; s++) {
        f2_conj(t, a + 12 * s);
        f2_mul(r + 12 * s, t, FROB[s]);
    }
}

/* ------------------------------------------------------ G1 and G2 points */
/* A point is u64[3n]: Jacobian (X, Y, Z) over Fp (n = 6, G1) or Fp2
 * (n = 12, G2), with the point at infinity encoded as Z = 0.  The formulas
 * are written once over a field descriptor.  Every function that takes one
 * is always inlined into a caller that passes &G1 or &G2, so the field
 * calls resolve at compile time. */

typedef struct {
    int n;
    void (*add)(u64 *, const u64 *, const u64 *);
    void (*sub)(u64 *, const u64 *, const u64 *);
    void (*mul)(u64 *, const u64 *, const u64 *);
    void (*neg)(u64 *, const u64 *);
    void (*inv)(u64 *, const u64 *);
    int (*sqrt)(u64 *, const u64 *);
    int (*is_zero)(const u64 *);
    void (*endo)(u64 *, const u64 *); /* the subgroup check's endomorphism, affine */
    int chains;                       /* its eigenvalue on the subgroup is -|x|^chains */
    const u64 *b;                     /* curve coefficient, Montgomery */
} field;

/* Subgroup-check endomorphisms, as pure's _G1.endo and _G2.endo:
 * phi(x, y) = (beta x, y) on G1 and psi(x, y) = (conj(x) c_x, conj(y) c_y) on
 * the twist, with the constants read at init (Montgomery). */
static u64 BETA_M[6], PSI_X[12], PSI_Y[12];

static void g1_phi(u64 *r, const u64 *a)
{
    fp_mul(r, a, BETA_M);
    memcpy(r + 6, a + 6, 48);
}

static void g2_psi(u64 *r, const u64 *a)
{
    f2_conj(r, a);
    f2_mul(r, r, PSI_X);
    f2_conj(r + 12, a + 12);
    f2_mul(r + 12, r + 12, PSI_Y);
}

static u64 B_M[6];   /* y^2 = x^3 + 4 */
static u64 B2_M[12]; /* the twist, y^2 = x^3 + 4(1+i) */
static const field G1 = {6, fp_add, fp_sub, fp_mul, fp_neg, fp_inv, fp_sqrt, fp_is_zero, g1_phi, 2, B_M};
static const field G2 = {12, f2_add, f2_sub, f2_mul, f2_neg, f2_inv, f2_sqrt, f2_is_zero, g2_psi, 1, B2_M};

INLINE void jac_set_infinity(const field *F, u64 *r)
{
    set_one(r, F->n);
    set_one(r + F->n, F->n);
    memset(r + 2 * F->n, 0, 8 * F->n);
}

INLINE void jac_double(const field *F, u64 *r, const u64 *p)
{
    /* dbl-2009-l (a = 0) */
    const int n = F->n;
    const u64 *x = p, *y = p + n, *z = p + 2 * n;
    u64 A[12], B[12], C[12], D[12], E[12], t[12];
    if (F->is_zero(z)) {
        memmove(r, p, 24 * n);
        return;
    }
    F->mul(A, x, x);
    F->mul(B, y, y);
    F->mul(C, B, B);
    F->add(t, x, B);
    F->mul(t, t, t);
    F->sub(t, t, A);
    F->sub(t, t, C);
    F->add(D, t, t);
    F->add(E, A, A);
    F->add(E, E, A);
    F->mul(t, E, E);
    F->sub(r, t, D);
    F->sub(r, r, D);
    F->sub(t, D, r);
    F->mul(t, E, t);
    F->add(C, C, C);
    F->add(C, C, C);
    F->add(C, C, C); /* 8*C */
    F->mul(r + 2 * n, y, z);
    F->add(r + 2 * n, r + 2 * n, r + 2 * n);
    F->sub(r + n, t, C);
}

INLINE void jac_add(const field *F, u64 *r, const u64 *p, const u64 *q)
{
    /* add-2007-bl with the doubling fallback; r may alias p */
    const int n = F->n;
    const u64 *x1 = p, *y1 = p + n, *z1 = p + 2 * n;
    const u64 *x2 = q, *y2 = q + n, *z2 = q + 2 * n;
    u64 z1z1[12], z2z2[12], u1[12], u2[12], s1[12], s2[12], h[12], i[12], j[12], rr[12];
    u64 v[12], t[12];
    if (F->is_zero(z1)) {
        memmove(r, q, 24 * n);
        return;
    }
    if (F->is_zero(z2)) {
        memmove(r, p, 24 * n);
        return;
    }
    F->mul(z1z1, z1, z1);
    F->mul(z2z2, z2, z2);
    F->mul(u1, x1, z2z2);
    F->mul(u2, x2, z1z1);
    F->mul(s1, y1, z2);
    F->mul(s1, s1, z2z2);
    F->mul(s2, y2, z1);
    F->mul(s2, s2, z1z1);
    F->sub(h, u2, u1);
    F->sub(rr, s2, s1);
    if (F->is_zero(h) && F->is_zero(rr)) {
        jac_double(F, r, p);
        return;
    }
    F->add(rr, rr, rr);
    F->add(i, h, h);
    F->mul(i, i, i);
    F->mul(j, h, i);
    F->mul(v, u1, i);
    F->mul(r, rr, rr);
    F->sub(r, r, j);
    F->sub(r, r, v);
    F->sub(r, r, v);
    F->sub(t, v, r);
    F->mul(t, rr, t);
    F->mul(s1, s1, j);
    F->add(s1, s1, s1);
    F->sub(r + n, t, s1);
    F->add(r + 2 * n, z1, z2);
    F->mul(r + 2 * n, r + 2 * n, r + 2 * n);
    F->sub(r + 2 * n, r + 2 * n, z1z1);
    F->sub(r + 2 * n, r + 2 * n, z2z2);
    F->mul(r + 2 * n, r + 2 * n, h);
}

INLINE void jac_madd(const field *F, u64 *r, const u64 *p, const u64 *a)
{
    /* madd-2007-bl: Jacobian P plus a finite affine A = (x2, y2), with the
     * doubling fallback; r may alias p */
    const int n = F->n;
    const u64 *x1 = p, *y1 = p + n, *z1 = p + 2 * n, *x2 = a, *y2 = a + n;
    u64 z1z1[12], h[12], hh[12], i[12], j[12], rr[12], v[12], z3[12], t[12];
    if (F->is_zero(z1)) {
        memcpy(r, a, 16 * n);
        set_one(r + 2 * n, n);
        return;
    }
    F->mul(z1z1, z1, z1);
    F->mul(h, x2, z1z1);
    F->sub(h, h, x1);
    F->mul(rr, y2, z1);
    F->mul(rr, rr, z1z1);
    F->sub(rr, rr, y1);
    if (F->is_zero(h) && F->is_zero(rr)) {
        u64 q[36];
        memcpy(q, a, 16 * n);
        set_one(q + 2 * n, n);
        jac_double(F, r, q);
        return;
    }
    F->mul(hh, h, h);
    F->add(i, hh, hh);
    F->add(i, i, i); /* 4*HH */
    F->mul(j, h, i);
    F->add(rr, rr, rr);
    F->mul(v, x1, i);
    F->add(z3, z1, h);
    F->mul(z3, z3, z3);
    F->sub(z3, z3, z1z1);
    F->sub(z3, z3, hh);
    F->mul(t, rr, rr);
    F->sub(t, t, j);
    F->sub(t, t, v);
    F->sub(t, t, v); /* X3 = r^2 - J - 2V */
    F->mul(j, y1, j);
    F->add(j, j, j); /* 2*Y1*J */
    F->sub(v, v, t);
    F->mul(v, rr, v);
    memcpy(r, t, 8 * n);
    F->sub(r + n, v, j);
    memcpy(r + 2 * n, z3, 8 * n);
}

INLINE void jac_mul(const field *F, u64 *r, const u64 *p, const unsigned char *k, Py_ssize_t len)
{
    /* fixed 4-bit window over the big-endian scalar bytes k[0..len); the
     * table stops at the largest nibble, so a small scalar builds only the
     * multiples it reads */
    const int n = F->n;
    u64 tab[16][36], acc[36];
    int top = 1;
    jac_set_infinity(F, acc);
    if (len && !F->is_zero(p + 2 * n)) {
        for (Py_ssize_t i = 0; i < len; i++) {
            if (k[i] >> 4 > top)
                top = k[i] >> 4;
            if ((k[i] & 0xF) > top)
                top = k[i] & 0xF;
        }
        memcpy(tab[1], p, 24 * n);
        for (int i = 2; i <= top; i++)
            jac_add(F, tab[i], tab[i - 1], p);
        for (Py_ssize_t i = 0; i < len; i++)
            for (int shift = 4; shift >= 0; shift -= 4) {
                int nib = (k[i] >> shift) & 0xF;
                for (int d = 0; d < 4; d++)
                    jac_double(F, acc, acc);
                if (nib)
                    jac_add(F, acc, acc, tab[nib]);
            }
    }
    memcpy(r, acc, 24 * n);
}

INLINE void jac_mul_binary(const field *F, u64 *r, const u64 *p, const unsigned char *k, Py_ssize_t len)
{
    /* double-and-add over the big-endian scalar bytes k[0..len), as
     * pure._jac_times; r may alias p */
    u64 base[36];
    memcpy(base, p, 24 * F->n);
    jac_set_infinity(F, r);
    for (Py_ssize_t i = 0; i < len; i++)
        for (int bit = 7; bit >= 0; bit--) {
            jac_double(F, r, r);
            if ((k[i] >> bit) & 1)
                jac_add(F, r, r, base);
        }
}

INLINE void curve_rhs(const field *F, u64 *r, const u64 *x)
{
    /* x^3 + b */
    F->mul(r, x, x);
    F->mul(r, r, x);
    F->add(r, r, F->b);
}

static u64 X_ABS;                /* |x| */
static unsigned char X_BYTES[8]; /* |x|, big-endian */
static int X_BIT_COUNT;
static unsigned char X_BITS[64]; /* |x| below its leading bit, high to low */

INLINE int jac_in_subgroup(const field *F, const u64 *p)
{
    /* p: on the curve, Jacobian with Z = 1.  G1: phi(P) == -[x^2]P, G2:
     * psi(P) == [x]P = -[|x|]P; both read -endo(P) == [|x|^chains]P, done by
     * double-and-add over |x| (63 doublings, 5 additions per chain) and one
     * comparison with the affine -endo(P) scaled by Z^2 and Z^3. */
    const int n = F->n;
    u64 t[36], e[24], z2[12], u[12];
    memcpy(t, p, 24 * n);
    for (int c = 0; c < F->chains; c++)
        jac_mul_binary(F, t, t, X_BYTES, sizeof X_BYTES);
    if (F->is_zero(t + 2 * n))
        return 0;
    F->endo(e, p);
    F->neg(e + n, e + n);
    F->mul(z2, t + 2 * n, t + 2 * n);
    F->mul(u, e, z2);
    if (memcmp(u, t, 8 * n))
        return 0;
    F->mul(z2, z2, t + 2 * n);
    F->mul(u, e + n, z2);
    return !memcmp(u, t + n, 8 * n);
}

/* ------------------------------------------------------ fixed-base combs */
/* GLS combs for the constant generators, as pure._comb_tables and
 * pure._comb_mul, built at init.  Each base has order r, on which -endo acts
 * as [m] with m = |x|^chains, so k mod r is read as dims = 4 / chains digits
 * a_i < m in base m, and [k]P is the sum of [a_i](-endo)^i(P).  Each digit
 * is read as w = COMB_TEETH rows of d = cols bits: column j gathers bit j of
 * every row into an index u, and entry u of table i is the affine sum of
 * [2^(l d)](-endo)^i(P) over the set bits l of u.  The digits share one
 * doubling chain, so a multiplication is d doublings (11 on G2, 22 on G1)
 * and at most d * dims mixed additions.  group_mul_many reads the d
 * column-shifted copies [2^j] of table 0 instead, built on its first call
 * (comb_shifted), and needs no doublings: see lane_sums. */

#define COMB_TEETH 6 /* w, as pure._COMB_TEETH */
#define COMB_SIZE (1 << COMB_TEETH)
#define COMB_DIMS 4 /* the most digits: G2's, in base |x| */

typedef struct {
    const field *F;
    int dims, cols;                    /* digits of k mod r, and d */
    u64 base[24];                      /* affine P, Montgomery: the lookup key */
    u64 tab[COMB_DIMS][COMB_SIZE][24]; /* affine entries, Montgomery; entry 0 unused */
    u64 (*shifted)[COMB_SIZE][24];     /* [2^j] of tab[0] for column j < d, or NULL */
} comb;

static comb COMB_G1, COMB_G2, COMB_AUX;

static void *new_array(Py_ssize_t count, size_t size)
{
    /* PyMem_Malloc for count items of size bytes (at least one item), or
     * NULL with MemoryError set */
    void *p = (size_t)count <= PY_SSIZE_T_MAX / size ? PyMem_Malloc((count ? count : 1) * size) : NULL;
    if (!p)
        PyErr_NoMemory();
    return p;
}

INLINE void batch_inv(const field *F, u64 *v, size_t stride, Py_ssize_t count, u64 (*prefix)[12])
{
    /* the elements v[i * stride], i < count, replaced by their inverses with
     * one inversion (Montgomery's trick), as pure._batch_inv; a zero stays
     * zero, as under F->inv.  prefix is scratch for count products. */
    const int n = F->n;
    u64 acc[12];
    set_one(acc, n);
    for (Py_ssize_t i = 0; i < count; i++) {
        if (!F->is_zero(v + i * stride))
            F->mul(acc, acc, v + i * stride);
        memcpy(prefix[i], acc, 8 * n);
    }
    F->inv(acc, acc);
    for (Py_ssize_t i = count - 1; i >= 0; i--) {
        u64 *a = v + i * stride;
        if (F->is_zero(a))
            continue;
        if (i) {
            F->mul(prefix[i], acc, prefix[i - 1]); /* 1 / a */
            F->mul(acc, acc, a);
            memcpy(a, prefix[i], 8 * n);
        } else
            memcpy(a, acc, 8 * n);
    }
}

static int batch_to_affine(const field *F, u64 (*p)[36], Py_ssize_t count)
{
    /* count Jacobian points made affine in place (Z = 1) with the one
     * inversion of batch_inv, as pure._batch_to_affine; a point at infinity
     * (Z = 0) stays as it is.  The scratch is allocated per call: -1 with
     * MemoryError set if that fails. */
    const int n = F->n;
    u64 (*prefix)[12] = new_array(count, sizeof *prefix), zi2[12];
    if (!prefix)
        return -1;
    batch_inv(F, p[0] + 2 * n, 36, count, prefix);
    for (Py_ssize_t i = 0; i < count; i++) {
        u64 *zi = p[i] + 2 * n;
        if (F->is_zero(zi))
            continue;
        F->mul(zi2, zi, zi);
        F->mul(p[i], p[i], zi2);
        F->mul(zi2, zi2, zi);
        F->mul(p[i] + n, p[i] + n, zi2);
        set_one(zi, n);
    }
    PyMem_Free(prefix);
    return 0;
}

static int comb_build(const field *F, comb *c, const u64 *p)
{
    /* p affine, Montgomery.  The rows [2^(l d)]P are made affine with one
     * inversion, then entry u = entry (u without its top bit) + row (top
     * bit), never infinity or a doubling, and every entry with one more.
     * Table i + 1 is -endo of table i, entry by entry. */
    const int n = F->n;
    u64 jac[COMB_SIZE][36], rows[COMB_TEETH][36];
    c->F = F;
    c->dims = 4 / F->chains;
    c->cols = ((X_BIT_COUNT + 1) * F->chains + COMB_TEETH - 1) / COMB_TEETH;
    memcpy(c->base, p, 16 * n);
    memcpy(rows[0], p, 16 * n);
    set_one(rows[0] + 2 * n, n);
    for (int i = 1; i < COMB_TEETH; i++) {
        memcpy(rows[i], rows[i - 1], 24 * n);
        for (int j = 0; j < c->cols; j++)
            jac_double(F, rows[i], rows[i]);
    }
    if (batch_to_affine(F, rows, COMB_TEETH))
        return -1;
    for (int u = 1; u < COMB_SIZE; u++) {
        int top = 31 - __builtin_clz(u), rest = u ^ (1 << top);
        if (rest)
            jac_madd(F, jac[u], jac[rest], rows[top]);
        else
            memcpy(jac[u], rows[top], 24 * n);
    }
    if (batch_to_affine(F, jac + 1, COMB_SIZE - 1))
        return -1;
    for (int u = 1; u < COMB_SIZE; u++)
        memcpy(c->tab[0][u], jac[u], 16 * n);
    for (int i = 1; i < c->dims; i++)
        for (int u = 1; u < COMB_SIZE; u++) {
            F->endo(c->tab[i][u], c->tab[i - 1][u]);
            F->neg(c->tab[i][u] + n, c->tab[i][u] + n);
        }
    return 0;
}

INLINE comb *comb_for(const field *F, const u64 *a)
{
    /* the comb whose base is the affine point a (Montgomery), or NULL */
    static comb *const combs[] = {&COMB_G1, &COMB_G2, &COMB_AUX};
    for (int i = 0; i < 3; i++)
        if (combs[i]->F == F && !memcmp(combs[i]->base, a, 16 * F->n))
            return combs[i];
    return NULL;
}

static u64 div_x(u64 *k)
{
    /* k = k div |x| for a 4-limb k; returns k mod |x| */
    unsigned __int128 rem = 0;
    for (int i = 3; i >= 0; i--) {
        unsigned __int128 cur = rem << 64 | k[i];
        k[i] = (u64)(cur / X_ABS);
        rem = cur % X_ABS;
    }
    return (u64)rem;
}

INLINE void comb_digits(const field *F, const comb *c, u64 (*digit)[3], const u64 *k)
{
    /* the dims digits of k < r (plain limbs) in base m: four digits in base
     * |x|, taken in groups of chains (128 bits on G1), each with a zero limb
     * above it for the bits of the top row past the digit */
    u64 q[4], e[4];
    memcpy(q, k, sizeof q);
    for (int i = 0; i < 4; i++)
        e[i] = div_x(q);
    for (int i = 0; i < c->dims; i++) {
        unsigned __int128 a = 0;
        for (int j = F->chains - 1; j >= 0; j--)
            a = a * X_ABS + e[i * F->chains + j];
        digit[i][0] = (u64)a;
        digit[i][1] = (u64)(a >> 64);
        digit[i][2] = 0;
    }
}

INLINE int comb_index(const comb *c, const u64 *digit, int j)
{
    /* the table index u of column j of a digit */
    int u = 0;
    for (int t = 0; t < COMB_TEETH; t++) {
        int bit = t * c->cols + j;
        u |= (int)((digit[bit >> 6] >> (bit & 63)) & 1) << t;
    }
    return u;
}

INLINE void comb_mul(const field *F, u64 *r, const comb *c, const u64 *k)
{
    /* [k]P for k < r in plain limbs */
    u64 digit[COMB_DIMS][3];
    comb_digits(F, c, digit, k);
    jac_set_infinity(F, r);
    for (int j = c->cols - 1; j >= 0; j--) {
        jac_double(F, r, r);
        for (int i = 0; i < c->dims; i++) {
            int u = comb_index(c, digit[i], j);
            if (u)
                jac_madd(F, r, r, c->tab[i][u]);
        }
    }
}

static int comb_shifted(const field *F, comb *c)
{
    /* c->shifted, built once: each entry of column j is the entry of column
     * j - 1 doubled, and all are made affine with one inversion.  -1 with
     * MemoryError set if an allocation fails. */
    const int n = F->n, size = COMB_SIZE - 1;
    if (c->shifted)
        return 0;
    u64 (*shifted)[COMB_SIZE][24] = new_array(c->cols, sizeof *shifted);
    u64 (*jac)[36] = shifted ? new_array((Py_ssize_t)size * c->cols, sizeof *jac) : NULL;
    if (!jac) {
        PyMem_Free(shifted);
        return -1;
    }
    for (int u = 0; u < size; u++) {
        memcpy(jac[u], c->tab[0][u + 1], 16 * n);
        set_one(jac[u] + 2 * n, n);
    }
    for (int i = size; i < size * c->cols; i++)
        jac_double(F, jac[i], jac[i - size]);
    int rc = batch_to_affine(F, jac, (Py_ssize_t)size * c->cols);
    for (int i = 0; !rc && i < size * c->cols; i++)
        memcpy(shifted[i / size][i % size + 1], jac[i], 16 * n);
    PyMem_Free(jac);
    if (rc)
        PyMem_Free(shifted);
    else
        c->shifted = shifted;
    return rc;
}

typedef struct {
    u64 num[12], den[12]; /* the slope of a pair; den 1 / den after batch_inv */
} slope_t;

static int lane_sums(const field *F, u64 (*v)[36], Py_ssize_t lanes, int width)
{
    /* The sum of each lane of width affine points (Z = 1, or Z = 0 for
     * infinity), lane l at v[l * width], left in v[l * width]: as
     * pure._lane_sums, pairwise level by level with an odd last point
     * carried up, and one batch_inv per level for every lane's slopes.
     * Each pair is summed as pure._sums sums it: infinity gives the other
     * point, P - P gives infinity, P + P doubles (y = 0: infinity).  Pair
     * i of a level is written to slot i, below the slots it reads.  -1 with
     * MemoryError set if the scratch cannot be allocated. */
    const int n = F->n;
    Py_ssize_t most = lanes * (width / 2);
    slope_t *s = new_array(most, sizeof *s);
    u64 (*prefix)[12] = s ? new_array(most, sizeof *prefix) : NULL;
    if (!prefix) {
        PyMem_Free(s);
        return -1;
    }
    for (int m = width; lanes && m > 1; m = (m + 1) / 2) {
        const int h = m / 2;
        for (Py_ssize_t l = 0; l < lanes; l++)
            for (int i = 0; i < h; i++) {
                const u64 *p = v[l * width + 2 * i], *q = v[l * width + 2 * i + 1];
                slope_t *e = s + l * h + i;
                memset(e->den, 0, sizeof e->den);
                if (F->is_zero(p + 2 * n) || F->is_zero(q + 2 * n))
                    continue;
                if (memcmp(p, q, 8 * n)) {
                    F->sub(e->num, q + n, p + n);
                    F->sub(e->den, q, p);
                } else if (!memcmp(p + n, q + n, 8 * n) && !F->is_zero(p + n)) {
                    F->mul(e->num, p, p);
                    F->add(e->den, e->num, e->num);
                    F->add(e->num, e->num, e->den); /* 3 x^2 */
                    F->add(e->den, p + n, p + n);   /* 2 y */
                }
            }
        batch_inv(F, s->den, sizeof *s / sizeof(u64), lanes * h, prefix);
        for (Py_ssize_t l = 0; l < lanes; l++) {
            u64 (*lane)[36] = v + l * width;
            for (int i = 0; i < h; i++) {
                const slope_t *e = s + l * h + i;
                u64 *p = lane[2 * i], *q = lane[2 * i + 1], lam[12], x3[12];
                if (F->is_zero(p + 2 * n))
                    memcpy(lane[i], q, sizeof *lane);
                else if (F->is_zero(q + 2 * n))
                    memmove(lane[i], p, sizeof *lane);
                else if (F->is_zero(e->den))
                    memset(lane[i] + 2 * n, 0, 8 * n);
                else {
                    F->mul(lam, e->num, e->den);
                    F->mul(x3, lam, lam);
                    F->sub(x3, x3, p);
                    F->sub(x3, x3, q);
                    F->sub(q, p, x3); /* x1 - x3: q is read no more */
                    F->mul(q, lam, q);
                    F->sub(lane[i] + n, q, p + n);
                    memcpy(lane[i], x3, 8 * n);
                    set_one(lane[i] + 2 * n, n);
                }
            }
            if (m % 2)
                memcpy(lane[h], lane[m - 1], sizeof *lane);
        }
    }
    PyMem_Free(prefix);
    PyMem_Free(s);
    return 0;
}

/* ----------------------------------------------------------------- pairing */
/* Ate pairing with the Miller variable T kept affine on the twist, as in
 * pure._miller; lines are premultiplied by w^3, which the final
 * exponentiation erases, so the line of slope lam through T is
 * (lam*xT - yT) + (-lam*xP) v + yP v w at P, and a step multiplies f by
 * that sparse element.  Several terms share one loop: one squaring of f per
 * bit, and at each step one inversion for all the terms' slopes.  A term
 * whose Q is a registered constant (lines_for) reads (lam*xT - yT, lam) per
 * step from a table built at init (Costello-Stebila, LATINCRYPT 2010) and
 * pays no slope, inversion or point update. */

typedef u64 line_t[24]; /* (lam*xT - yT, lam) of one step */

typedef struct {
    u64 p[12];           /* P = (xp, yp) on G1 */
    u64 q[24];           /* Q = (qx, qy) on the twist */
    const line_t *fixed; /* Q's line table when Q has one, else NULL */
    u64 t[24];           /* T = (tx, ty), the running multiple of Q */
    line_t line;         /* the step's line, for a term without a table */
    u64 num[12];         /* slope of the step's line: num / den */
    u64 den[12];         /* 1 / den once the step's batch_inv has run */
} term;

static void f6_mul_01(u64 *r, const u64 *x, const u64 *a, const u64 *b)
{
    /* x * (a + b v): 5 Fp2 multiplications instead of 6, as pure._f6_mul_01;
     * r may alias x */
    u64 p0[12], p1[12], s[12], t[12], r0[12];
    f2_mul(p0, x, a);
    f2_mul(p1, x + 12, b);
    f2_mul(r0, x + 24, b);
    f2_mul(r0, r0, XI_M);
    f2_add(r0, r0, p0);
    f2_add(s, x, x + 12);
    f2_add(t, a, b);
    f2_mul(s, s, t);
    f2_sub(s, s, p0);
    f2_sub(s, s, p1);
    f2_mul(t, x + 24, a);
    f2_add(r + 24, t, p1);
    memcpy(r + 12, s, 96);
    memcpy(r, r0, 96);
}

static void f12_mul_line(u64 *f, const u64 *a, const u64 *b, const u64 *c)
{
    /* f *= a + b v + c v w for Fp2 a, b and Fp c, as pure._f12_mul_line
     * (Aranha et al., EUROCRYPT 2011): 10 Fp2 multiplications and 6 by c,
     * against 18 Fp2 multiplications dense */
    u64 t0[36], t1[36], s[36], bc[12];
    f6_mul_01(t0, f, a, b);
    for (int j = 0; j < 36; j += 6)
        fp_mul(s + j, f + 36 + j, c);
    f6_mul_v(t1, s); /* f1 * c v */
    f6_add(s, f, f + 36);
    memcpy(bc, b, 96);
    fp_add(bc, bc, c);
    f6_mul_01(s, s, a, bc);
    f6_sub(s, s, t0);
    f6_sub(f + 36, s, t1);
    f6_mul_v(t1, t1);
    f6_add(f, t0, t1);
}

static void line_mul(u64 *f, const u64 *line, const u64 *p)
{
    /* f *= (lam*xT - yT) + (-lam*xP) v + yP v w for line = (lam*xT - yT, lam) */
    u64 b[12];
    fp_mul(b, line + 12, p);
    fp_mul(b + 6, line + 18, p);
    f2_neg(b, b);
    f12_mul_line(f, line, b, p + 6);
}

static int slopes(term *terms, Py_ssize_t n, int chord, u64 (*prefix)[12])
{
    /* every term's line through T, the tangent (chord = 0) or the chord
     * through Q (chord = 1), then T += T or Q, as pure._slopes.  The
     * denominators share the one inversion of batch_inv, with prefix as its
     * scratch for n products; -1 when one of them is zero. */
    u64 s[12], x3[12];
    if (!n)
        return 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        term *e = terms + i;
        if (chord) {
            f2_sub(e->num, e->t + 12, e->q + 12);
            f2_sub(e->den, e->t, e->q);
        } else {
            f2_sqr(e->den, e->t);
            f2_add(e->num, e->den, e->den);
            f2_add(e->num, e->num, e->den);
            f2_add(e->den, e->t + 12, e->t + 12);
        }
        if (f2_is_zero(e->den))
            return -1;
    }
    batch_inv(&G2, terms->den, sizeof *terms / sizeof(u64), n, prefix);
    for (Py_ssize_t i = 0; i < n; i++) {
        term *e = terms + i;
        u64 *tx = e->t, *ty = e->t + 12, *lam = e->line + 12;
        f2_mul(lam, e->num, e->den);
        f2_mul(s, lam, tx);
        f2_sub(e->line, s, ty);
        f2_sqr(x3, lam);
        f2_sub(x3, x3, tx);
        f2_sub(x3, x3, chord ? e->q : tx);
        f2_sub(s, tx, x3);
        f2_mul(s, lam, s);
        f2_sub(ty, s, ty);
        memcpy(tx, x3, 96);
    }
    return 0;
}

static int miller(u64 *f, term *terms, Py_ssize_t n)
{
    /* the product of the n >= 1 terms' Miller values; -1 with an exception
     * set on a zero slope denominator or when the slopes' scratch, allocated
     * once per loop, cannot be.  The terms with a line table are moved to
     * the front, so that the others share the inversions. */
    Py_ssize_t nf = 0;
    int rc = -1;
    for (Py_ssize_t i = 0; i < n; i++)
        if (terms[i].fixed) {
            term tmp = terms[nf];
            terms[nf++] = terms[i];
            terms[i] = tmp;
        }
    u64 (*prefix)[12] = new_array(n - nf, sizeof *prefix);
    if (!prefix)
        return -1;
    set_one(f, 72);
    for (Py_ssize_t i = nf; i < n; i++)
        memcpy(terms[i].t, terms[i].q, 192);
    for (int i = 0, step = 0; i < X_BIT_COUNT; i++) {
        f12_sqr(f, f);
        for (int chord = 0; chord <= X_BITS[i]; chord++, step++) {
            if (slopes(terms + nf, n - nf, chord, prefix)) {
                PyErr_SetString(PyExc_ValueError, "a line slope has a zero denominator");
                goto done;
            }
            for (Py_ssize_t j = 0; j < n; j++)
                line_mul(f, j < nf ? terms[j].fixed[step] : terms[j].line, terms[j].p);
        }
    }
    f12_conj(f, f); /* negative curve parameter */
    rc = 0;
done:
    PyMem_Free(prefix);
    return rc;
}

/* Line tables of the constant G2 bases, as pure._line_table, built at init
 * next to the combs.  The loop of |x| has one tangent per bit below the
 * leading one and one chord per set bit among them: at most 2 * 63 steps. */

#define MAX_STEPS 126

typedef struct {
    u64 base[24];           /* Q, affine Montgomery: the lookup key */
    line_t line[MAX_STEPS]; /* the line of each step, in loop order */
} line_table;

static line_table LINES[2]; /* the G2 generator's and the auxiliary generator's */

static int lines_build(const u64 *g2, const u64 *aux)
{
    /* both tables from their affine bases (Montgomery), in one loop that
     * shares the inversions */
    term t[2];
    u64 prefix[2][12];
    memcpy(LINES[0].base, g2, 192);
    memcpy(LINES[1].base, aux, 192);
    for (int k = 0; k < 2; k++) {
        memcpy(t[k].q, LINES[k].base, 192);
        memcpy(t[k].t, LINES[k].base, 192);
    }
    for (int i = 0, step = 0; i < X_BIT_COUNT; i++)
        for (int chord = 0; chord <= X_BITS[i]; chord++, step++) {
            if (slopes(t, 2, chord, prefix))
                return -1;
            for (int k = 0; k < 2; k++)
                memcpy(LINES[k].line[step], t[k].line, sizeof(line_t));
        }
    return 0;
}

static const line_t *lines_for(const u64 *q)
{
    /* the line table whose base is the affine point q (Montgomery), or NULL */
    for (int k = 0; k < 2; k++)
        if (!memcmp(LINES[k].base, q, 192))
            return LINES[k].line;
    return NULL;
}

/* Granger-Scott squaring in the cyclotomic subgroup, as pure._cyc_sqr: with
 * t = w^3, Fp12 = Fp4[w]/(w^3 - t) over Fp4 = Fp2[t]/(t^2 - xi), and
 * a = A + B w + C w^2 for A = (g0, h1), B = (h0, g2), C = (g1, h2).  A
 * unitary a squares to (3A^2 - 2 conj(A)) + (3t C^2 + 2 conj(B)) w
 * + (3B^2 - 2 conj(C)) w^2. */

static void f4_sqr(u64 *r0, u64 *r1, const u64 *a, const u64 *b)
{
    /* (a + b t)^2 = (a^2 + xi b^2) + ((a + b)^2 - a^2 - b^2) t */
    u64 t0[12], t1[12], s[12];
    f2_sqr(t0, a);
    f2_sqr(t1, b);
    f2_add(s, a, b);
    f2_sqr(s, s);
    f2_sub(s, s, t0);
    f2_sub(r1, s, t1);
    f2_mul(t1, XI_M, t1);
    f2_add(r0, t0, t1);
}

static void f2_3s_2z(u64 *r, const u64 *s, const u64 *z, int sign)
{
    /* r = 3s + 2z (sign > 0) or 3s - 2z (sign < 0), as 2(s +/- z) + s */
    u64 t[12];
    if (sign > 0)
        f2_add(t, s, z);
    else
        f2_sub(t, s, z);
    f2_add(t, t, t);
    f2_add(r, t, s);
}

static void f12_cyc_sqr(u64 *r, const u64 *a)
{
    /* g_j at offset 12j, h_j at offset 36 + 12j; r may alias a */
    u64 A[24], B[24], C[24];
    f4_sqr(A, A + 12, a, a + 48);
    f4_sqr(B, B + 12, a + 36, a + 24);
    f4_sqr(C, C + 12, a + 12, a + 60);
    f2_3s_2z(r, A, a, -1);
    f2_3s_2z(r + 12, B, a + 12, -1);
    f2_3s_2z(r + 24, C, a + 24, -1);
    f2_mul(C + 12, XI_M, C + 12);
    f2_3s_2z(r + 36, C + 12, a + 36, 1);
    f2_3s_2z(r + 48, A + 12, a + 48, 1);
    f2_3s_2z(r + 60, B + 12, a + 60, 1);
}

static void cyc_pow(u64 *r, const u64 *a, const u64 *e, int bits)
{
    /* a^e for e > 0 (limbs, bits = bit length) and a cyclotomic; r may alias a */
    u64 acc[72], b[72];
    memcpy(b, a, 576);
    memcpy(acc, a, 576);
    for (int i = bits - 2; i >= 0; i--) {
        f12_cyc_sqr(acc, acc);
        if ((e[i >> 6] >> (i & 63)) & 1)
            f12_mul(acc, acc, b);
    }
    memcpy(r, acc, 576);
}

static u64 CHAIN[6];    /* params.HARD_CHAIN */
static int CHAIN_BITS;

static void cyc_pow_x(u64 *r, const u64 *a)
{
    /* a^x: x < 0 and a is unitary, so a^x = conj(a^|x|) */
    cyc_pow(r, a, &X_ABS, X_BIT_COUNT + 1);
    f12_conj(r, r);
}

static void final_exp(u64 *r, const u64 *f)
{
    /* f nonzero; r may alias f */
    u64 a[72], b[72], t0[72], t1[72], t2[72], t3[72];
    /* easy part: f^((q^6-1)(q^2+1)) is unitary and cyclotomic */
    f12_conj(a, f);
    f12_inv(b, f);
    f12_mul(a, a, b);
    f12_frob(b, a);
    f12_frob(b, b);
    f12_mul(a, b, a);
    /* hard part, by the chain in params: t0 * (t1 * (t2 * t3^q)^q)^q */
    cyc_pow(t3, a, CHAIN, CHAIN_BITS);
    cyc_pow_x(t2, t3);
    cyc_pow_x(t1, t2);
    f12_conj(b, t3);
    f12_mul(t1, t1, b);
    cyc_pow_x(t0, t1);
    f12_mul(t0, t0, a);
    f12_frob(b, t3);
    f12_mul(b, t2, b);
    f12_frob(b, b);
    f12_mul(b, t1, b);
    f12_frob(b, b);
    f12_mul(r, t0, b);
}

/* --------------------------------------------------------- Python boundary */

static PyObject *INF;            /* the point at infinity, () */
static PyObject *GT_ONE;         /* pure.GT_ONE */
static PyObject *INT_TO_BYTES;   /* int.to_bytes */
static PyObject *INT_FROM_BYTES; /* int.from_bytes */
static PyObject *S_BIG, *S_BIT_LENGTH, *N48, *ZERO;
static PyObject *ORDER_PY;       /* params.ORDER, for k mod r on a comb */

static void limbs_from_be(u64 *r, const unsigned char *p)
{
    for (int i = 0; i < 6; i++) {
        r[5 - i] = 0;
        for (int j = 0; j < 8; j++)
            r[5 - i] = r[5 - i] << 8 | p[8 * i + j];
    }
}

static void limbs_to_be(unsigned char *p, const u64 *a)
{
    for (int i = 0; i < 6; i++)
        for (int j = 0; j < 8; j++)
            p[8 * i + j] = (unsigned char)(a[5 - i] >> (56 - 8 * j));
}

static PyObject *to_bytes(PyObject *v, PyObject *len)
{
    PyObject *args[3] = {v, len, S_BIG};
    return PyObject_Vectorcall(INT_TO_BYTES, args, 3, NULL);
}

static PyObject *pair(PyObject *a, PyObject *b)
{
    /* (a, b), stealing both references; NULL if either is NULL */
    PyObject *out = a && b ? PyTuple_Pack(2, a, b) : NULL;
    Py_XDECREF(a);
    Py_XDECREF(b);
    return out;
}

static int limbs_from_py(u64 *r, PyObject *v, int n);

static int items_from_py(u64 *r, PyObject *seq, int count, int n)
{
    /* plain limbs of seq[0..count), n limbs per item */
    for (int i = 0; i < count; i++) {
        PyObject *item = PySequence_GetItem(seq, i);
        int rc = item ? limbs_from_py(r + n * i, item, n) : -1;
        Py_XDECREF(item);
        if (rc)
            return -1;
    }
    return 0;
}

static int limbs_from_py(u64 *r, PyObject *v, int n)
{
    /* Plain limbs of an int in [0, 2^384) (n = 6) or, for larger n, of a
     * pair of n/2-limb values: an Fp2 element (c0, c1) or a point (x, y). */
    if (n > 6)
        return items_from_py(r, v, 2, n / 2);
    PyObject *raw = to_bytes(v, N48);
    if (!raw)
        return -1;
    limbs_from_be(r, (const unsigned char *)PyBytes_AS_STRING(raw));
    Py_DECREF(raw);
    return 0;
}

static PyObject *py_from_limbs(const u64 *a, int n)
{
    /* inverse of limbs_from_py */
    unsigned char buf[48];
    if (n > 6) {
        PyObject *first = py_from_limbs(a, n / 2);
        return first ? pair(first, py_from_limbs(a + n / 2, n / 2)) : NULL;
    }
    limbs_to_be(buf, a);
    PyObject *raw = PyBytes_FromStringAndSize((const char *)buf, 48);
    if (!raw)
        return NULL;
    PyObject *args[2] = {raw, S_BIG};
    PyObject *out = PyObject_Vectorcall(INT_FROM_BYTES, args, 2, NULL);
    Py_DECREF(raw);
    return out;
}

static void to_mont(u64 *r, int n)
{
    for (int i = 0; i < n; i += 6)
        fp_mul(r + i, r + i, R2);
}

static void from_mont(u64 *r, const u64 *a, int n)
{
    for (int i = 0; i < n; i += 6)
        fp_mul(r + i, a + i, ONE_PLAIN);
}

static PyObject *scalar_bytes(PyObject *k, int *neg)
{
    /* |k| as minimal big-endian bytes (empty for 0); *neg tells k < 0 */
    PyObject *v = PyNumber_Index(k), *mag, *bits, *len, *out = NULL;
    if (!v)
        return NULL;
    *neg = PyObject_RichCompareBool(v, ZERO, Py_LT);
    mag = *neg < 0 ? NULL : *neg ? PyNumber_Negative(v) : Py_NewRef(v);
    Py_DECREF(v);
    if (!mag)
        return NULL;
    bits = PyObject_CallMethodNoArgs(mag, S_BIT_LENGTH);
    len = bits ? PyLong_FromSsize_t((PyLong_AsSsize_t(bits) + 7) / 8) : NULL;
    if (len)
        out = to_bytes(mag, len);
    Py_XDECREF(bits);
    Py_XDECREF(len);
    Py_DECREF(mag);
    return out;
}

static int y_is_larger(const u64 *y, int n)
{
    /* plain y > (q-1)/2; in Fp2 compare c1, or c0 when c1 = 0 */
    const u64 *c = n == 12 && !fp_is_zero(y + 6) ? y + 6 : y;
    return fp_cmp(c, HALF_Q) > 0;
}

/* Compressed encodings: 48 (G1) or 96 (G2) bytes, the same wire format as
 * pure.py.  Flag bits on the first byte: 0x80 compressed, 0x40 infinity,
 * 0x20 y is the larger root.  G2 serialises x as c1 || c0, so the Fp
 * component at limb offset i sits at byte 8n - 48 - 8i. */
#define FLAG_COMPRESSED 0x80
#define FLAG_INFINITY 0x40
#define FLAG_SIGN 0x20

static int coords_from_py(u64 *r, PyObject *v, int n)
{
    /* Plain limbs of a point, like pure's _G1.point and _G2.point: a G1
     * point (n = 12) or a G2 point (n = 24) is exactly two items, so is
     * each Fp2 coordinate, and every Fp value is an integer in [0, q).
     * Every point that enters a group operation or the Miller loop passes
     * through here. */
    if (n == 6) {
        if (!PyLong_Check(v)) {
            PyErr_Format(PyExc_TypeError, "coordinate must be an integer, not %.200s", Py_TYPE(v)->tp_name);
            return -1;
        }
        if (!limbs_from_py(r, v, 6) && fp_cmp(r, Q) < 0)
            return 0;
        /* int.to_bytes refuses negative and wider-than-384-bit values */
        if (PyErr_Occurred() && !PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "coordinate out of range");
        return -1;
    }
    PyObject *items = PySequence_Tuple(v);
    if (items && PyTuple_GET_SIZE(items) != 2) {
        Py_CLEAR(items);
        PyErr_SetString(PyExc_ValueError, "expected a pair of coordinates");
    }
    int rc = items && !coords_from_py(r, PyTuple_GET_ITEM(items, 0), n / 2)
                     && !coords_from_py(r + n / 2, PyTuple_GET_ITEM(items, 1), n / 2) ? 0 : -1;
    Py_XDECREF(items);
    return rc;
}

INLINE int point_from_py(const field *F, u64 *r, PyObject *p)
{
    /* affine (x, y) -> Montgomery Jacobian with Z = 1, and any false value
     * -> infinity; 1 for a finite point, 0 for infinity, -1 on error */
    int tp = PyObject_IsTrue(p);
    if (tp <= 0) {
        if (!tp)
            jac_set_infinity(F, r);
        return tp;
    }
    if (coords_from_py(r, p, 2 * F->n))
        return -1;
    to_mont(r, 2 * F->n);
    set_one(r + 2 * F->n, F->n);
    return 1;
}

INLINE PyObject *point_to_py(const field *F, u64 *p)
{
    /* the affine form of a Jacobian point, which it overwrites; Z = 1
     * (P + O, say) needs no inversion */
    const int n = F->n;
    u64 one[12];
    set_one(one, n);
    if (F->is_zero(p + 2 * n))
        return Py_NewRef(INF);
    if (memcmp(p + 2 * n, one, 8 * n) && batch_to_affine(F, (u64 (*)[36])p, 1))
        return NULL;
    from_mont(p, p, 2 * n);
    return py_from_limbs(p, 2 * n);
}

INLINE PyObject *group_add(const field *F, PyObject *p, PyObject *s)
{
    u64 a[36], b[36];
    if (point_from_py(F, a, p) < 0 || point_from_py(F, b, s) < 0)
        return NULL;
    jac_add(F, a, a, b);
    return point_to_py(F, a);
}

INLINE PyObject *group_neg(const field *F, PyObject *p)
{
    u64 a[36];
    if (point_from_py(F, a, p) < 0)
        return NULL;
    F->neg(a + F->n, a + F->n);
    return point_to_py(F, a);
}

static PyObject *affine_to_py(const field *F, u64 (*p)[36], Py_ssize_t count)
{
    /* the list of count points with Z = 1, or Z = 0 for infinity */
    PyObject *out = PyList_New(count);
    for (Py_ssize_t i = 0; out && i < count; i++) {
        PyObject *q = point_to_py(F, p[i]);
        if (q)
            PyList_SET_ITEM(out, i, q);
        else
            Py_CLEAR(out);
    }
    return out;
}

static PyObject *points_to_py(const field *F, u64 (*jac)[36], Py_ssize_t count)
{
    /* the list of the affine forms of count Jacobian points, which it
     * overwrites, with one inversion */
    return batch_to_affine(F, jac, count) ? NULL : affine_to_py(F, jac, count);
}

INLINE PyObject *group_add_many(const field *F, PyObject *ps, PyObject *qs)
{
    /* P_i + Q_i by jac_add, made affine with one inversion; every P is
     * parsed before every Q, as in pure._add_many */
    PyObject *pt = PySequence_Tuple(ps), *qt = pt ? PySequence_Tuple(qs) : NULL, *out = NULL;
    u64 (*jac)[36] = NULL, b[36];
    if (!qt)
        goto done;
    Py_ssize_t len = PyTuple_GET_SIZE(pt);
    if (PyTuple_GET_SIZE(qt) != len) {
        PyErr_SetString(PyExc_ValueError, "expected two sequences of equal length");
        goto done;
    }
    if (!(jac = new_array(len, sizeof *jac)))
        goto done;
    for (Py_ssize_t i = 0; i < len; i++)
        if (point_from_py(F, jac[i], PyTuple_GET_ITEM(pt, i)) < 0)
            goto done;
    for (Py_ssize_t i = 0; i < len; i++) {
        if (point_from_py(F, b, PyTuple_GET_ITEM(qt, i)) < 0)
            goto done;
        jac_add(F, jac[i], jac[i], b);
    }
    out = points_to_py(F, jac, len);
done:
    PyMem_Free(jac);
    Py_XDECREF(pt);
    Py_XDECREF(qt);
    return out;
}

INLINE PyObject *group_sum(const field *F, PyObject *ps)
{
    /* the sum of a sequence of points, pairwise level by level as in
     * pure._sum (an odd last point carried up), then made affine with one
     * inversion; every point is parsed before any is added.  On the first
     * level every finite point still has Z = 1, so the cheaper mixed
     * addition serves there. */
    PyObject *pt = PySequence_Tuple(ps), *out = NULL;
    u64 (*jac)[36] = NULL;
    if (!pt)
        return NULL;
    Py_ssize_t len = PyTuple_GET_SIZE(pt);
    if (!(jac = new_array(len, sizeof *jac)))
        goto done;
    for (Py_ssize_t i = 0; i < len; i++)
        if (point_from_py(F, jac[i], PyTuple_GET_ITEM(pt, i)) < 0)
            goto done;
    for (Py_ssize_t m = len; m > 1; m = (m + 1) / 2) {
        for (Py_ssize_t i = 0; 2 * i + 1 < m; i++)
            if (m == len && !F->is_zero(jac[2 * i + 1] + 2 * F->n))
                jac_madd(F, jac[i], jac[2 * i], jac[2 * i + 1]);
            else
                jac_add(F, jac[i], jac[2 * i], jac[2 * i + 1]);
        if (m % 2)
            memcpy(jac[m / 2], jac[m - 1], sizeof *jac);
    }
    out = len ? point_to_py(F, jac[0]) : Py_NewRef(INF);
done:
    PyMem_Free(jac);
    Py_DECREF(pt);
    return out;
}

static int scalar_mod_r(u64 *r, PyObject *v)
{
    /* plain limbs of v mod r for an int v */
    PyObject *m = PyNumber_Remainder(v, ORDER_PY);
    int rc = m ? limbs_from_py(r, m, 6) : -1;
    Py_XDECREF(m);
    return rc;
}

static int mul_into(const field *F, u64 *r, const u64 *a, const comb *c, PyObject *v)
{
    /* r = [v]A (Jacobian) for an int v and a parsed point A: the comb c on
     * v mod r when c is A's, the window otherwise; r may alias a */
    u64 km[6], base[36];
    int neg;
    if (c) {
        if (scalar_mod_r(km, v))
            return -1;
        comb_mul(F, r, c, km);
        return 0;
    }
    PyObject *kb = scalar_bytes(v, &neg);
    if (!kb)
        return -1;
    memcpy(base, a, 24 * F->n);
    if (neg)
        F->neg(base + F->n, base + F->n);
    jac_mul(F, r, base, (const unsigned char *)PyBytes_AS_STRING(kb), PyBytes_GET_SIZE(kb));
    Py_DECREF(kb);
    return 0;
}

INLINE PyObject *group_mul(const field *F, PyObject *p, PyObject *k)
{
    u64 a[36];
    int tp;
    PyObject *v = PyNumber_Index(k), *out = NULL;
    if (!v)
        return NULL;
    if ((tp = point_from_py(F, a, p)) >= 0 && !mul_into(F, a, a, tp ? comb_for(F, a) : NULL, v))
        out = point_to_py(F, a);
    Py_DECREF(v);
    return out;
}

INLINE int comb_mul_many(const field *F, u64 (*v)[36], comb *c, PyObject *kt)
{
    /* [k]P for each k of the tuple kt into v[i], affine (Z = 1, or 0 for
     * infinity), as pure._mul_many on a generator: the entry of column j of
     * digit t of scalar i, read from c->shifted[j], is point j of lane
     * i * dims + t.  Each lane is summed, each digit's sum is taken through
     * (-endo)^t into v[i * dims + t], and each scalar's dims sums are
     * summed.  Every move goes to a slot below the ones still to be read.
     * v holds dims * cols points per scalar. */
    const int n = F->n, dims = c->dims, cols = c->cols;
    Py_ssize_t len = PyTuple_GET_SIZE(kt);
    u64 km[6], digit[COMB_DIMS][3];
    if (comb_shifted(F, c))
        return -1;
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *k = PyNumber_Index(PyTuple_GET_ITEM(kt, i));
        int rc = k ? scalar_mod_r(km, k) : -1;
        Py_XDECREF(k);
        if (rc)
            return -1;
        comb_digits(F, c, digit, km);
        for (int t = 0; t < dims; t++)
            for (int j = 0; j < cols; j++) {
                u64 *e = v[(i * dims + t) * cols + j];
                int u = comb_index(c, digit[t], j);
                memset(e + 2 * n, 0, 8 * n);
                if (u) {
                    memcpy(e, c->shifted[j][u], 16 * n);
                    set_one(e + 2 * n, n);
                }
            }
    }
    if (lane_sums(F, v, len * dims, cols))
        return -1;
    for (Py_ssize_t l = 0; l < len * dims; l++) {
        memmove(v[l], v[l * cols], sizeof *v);
        for (int t = 0; t < l % dims && !F->is_zero(v[l] + 2 * n); t++) {
            u64 e[24];
            F->endo(e, v[l]);
            F->neg(e + n, e + n);
            memcpy(v[l], e, 16 * n);
        }
    }
    if (lane_sums(F, v, len, dims))
        return -1;
    for (Py_ssize_t i = 0; i < len; i++)
        memmove(v[i], v[i * dims], sizeof *v);
    return 0;
}

INLINE PyObject *group_mul_many(const field *F, PyObject *p, PyObject *ks)
{
    /* [k]P for each k, as group_mul: on a generator by comb_mul_many, else
     * by mul_into and made affine with one inversion; the point is read
     * before the scalars, as in pure._mul_many */
    u64 a[36], (*jac)[36] = NULL;
    int tp = point_from_py(F, a, p);
    PyObject *kt = tp < 0 ? NULL : PySequence_Tuple(ks), *out = NULL;
    if (!kt)
        return NULL;
    Py_ssize_t len = PyTuple_GET_SIZE(kt);
    comb *c = tp ? comb_for(F, a) : NULL;
    if (!(jac = new_array(len, (c ? c->dims * c->cols : 1) * sizeof *jac)))
        goto done;
    if (c) {
        if (!comb_mul_many(F, jac, c, kt))
            out = affine_to_py(F, jac, len);
        goto done;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *v = PyNumber_Index(PyTuple_GET_ITEM(kt, i));
        int rc = v ? mul_into(F, jac[i], a, NULL, v) : -1;
        Py_XDECREF(v);
        if (rc)
            goto done;
    }
    out = points_to_py(F, jac, len);
done:
    PyMem_Free(jac);
    Py_DECREF(kt);
    return out;
}

INLINE PyObject *group_steps(const field *F, PyObject *p, PyObject *t, PyObject *count)
{
    /* (P, [t]P, ..., [t^(count-1)]P) as pure._steps: one Jacobian chain of
     * double-and-add steps, made affine with one inversion; the point is
     * read first, then t, then count */
    u64 a[36], (*jac)[36] = NULL;
    int neg, tp = point_from_py(F, a, p);
    PyObject *tb = tp < 0 ? NULL : scalar_bytes(t, &neg), *out = NULL;
    Py_ssize_t len = tb ? PyNumber_AsSsize_t(count, PyExc_OverflowError) : -1;
    if (len < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "count must be non-negative");
        goto done;
    }
    if (!(jac = new_array(len, sizeof *jac)))
        goto done;
    if (len)
        memcpy(jac[0], a, sizeof a);
    for (Py_ssize_t i = 1; i < len; i++) {
        memcpy(jac[i], jac[i - 1], sizeof a);
        if (neg)
            F->neg(jac[i] + F->n, jac[i] + F->n);
        jac_mul_binary(F, jac[i], jac[i], (const unsigned char *)PyBytes_AS_STRING(tb), PyBytes_GET_SIZE(tb));
    }
    out = points_to_py(F, jac, len);
done:
    PyMem_Free(jac);
    Py_XDECREF(tb);
    return out;
}

INLINE PyObject *group_in_subgroup(const field *F, PyObject *p)
{
    u64 a[36];
    int tp = point_from_py(F, a, p);
    if (tp <= 0)
        return tp ? NULL : Py_NewRef(Py_True);
    return PyBool_FromLong(jac_in_subgroup(F, a));
}

INLINE PyObject *group_compress(const field *F, PyObject *p)
{
    const int n = F->n;
    unsigned char out[96] = {0};
    u64 a[24];
    int tp = PyObject_IsTrue(p);
    if (tp < 0)
        return NULL;
    if (!tp) {
        out[0] = FLAG_COMPRESSED | FLAG_INFINITY;
    } else {
        if (coords_from_py(a, p, 2 * n))
            return NULL;
        for (int i = 0; i < n; i += 6)
            limbs_to_be(out + 8 * n - 48 - 8 * i, a + i);
        out[0] |= FLAG_COMPRESSED | (y_is_larger(a + n, n) ? FLAG_SIGN : 0);
    }
    return PyBytes_FromStringAndSize((const char *)out, 8 * n);
}

INLINE PyObject *group_decompress(const field *F, PyObject *data)
{
    const int n = F->n;
    const Py_ssize_t size = 8 * n;
    unsigned char body[96], nonzero = 0;
    u64 x[12], y[12], p[36], t[36];
    Py_buffer view;
    if (PyObject_GetBuffer(data, &view, PyBUF_SIMPLE))
        return NULL;
    Py_ssize_t len = view.len;
    if (len == size)
        memcpy(body, view.buf, size);
    PyBuffer_Release(&view);
    if (len != size)
        return PyErr_Format(PyExc_ValueError, "expected %zd bytes, got %zd", size, len);
    int flags = body[0] & 0xE0;
    body[0] &= 0x1F;
    if (!(flags & FLAG_COMPRESSED))
        return PyErr_Format(PyExc_ValueError, "uncompressed encodings are not accepted");
    if (flags & FLAG_INFINITY) {
        for (Py_ssize_t i = 0; i < size; i++)
            nonzero |= body[i];
        if ((flags & FLAG_SIGN) || nonzero)
            return PyErr_Format(PyExc_ValueError, "malformed point at infinity");
        return Py_NewRef(INF);
    }
    for (int i = 0; i < n; i += 6) {
        limbs_from_be(x + i, body + size - 48 - 8 * i);
        if (fp_cmp(x + i, Q) >= 0)
            return PyErr_Format(PyExc_ValueError, "x coordinate out of range");
    }
    memcpy(p, x, 8 * n);
    to_mont(p, n);
    curve_rhs(F, t, p);
    if (!F->sqrt(p + n, t))
        return PyErr_Format(PyExc_ValueError, "x is not on the curve");
    from_mont(y, p + n, n);
    if (y_is_larger(y, n) != !!(flags & FLAG_SIGN)) {
        F->neg(y, y);
        F->neg(p + n, p + n);
    }
    set_one(p + 2 * n, n);
    if (!jac_in_subgroup(F, p))
        return PyErr_Format(PyExc_ValueError, "point not in the prime-order subgroup");
    PyObject *xv = py_from_limbs(x, n);
    return xv ? pair(xv, py_from_limbs(y, n)) : NULL;
}

static int gt_from_py(u64 *r, PyObject *v)
{
    /* like pure._gt_nest: exactly 12 coefficients, each in [0, q) */
    Py_ssize_t len = PySequence_Size(v);
    if (len < 0)
        return -1;
    if (len != 12) {
        PyErr_SetString(PyExc_ValueError, "GT element must have 12 coefficients");
        return -1;
    }
    if (items_from_py(r, v, 12, 6)) {
        /* int.to_bytes refuses negative and wider-than-384-bit values */
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
        goto out_of_range;
    }
    for (int i = 0; i < 72; i += 6)
        if (fp_cmp(r + i, Q) >= 0)
            goto out_of_range;
    to_mont(r, 72);
    return 0;
out_of_range:
    PyErr_SetString(PyExc_ValueError, "GT coefficient out of range");
    return -1;
}

static PyObject *gt_to_py(const u64 *a)
{
    u64 t[72];
    PyObject *out = PyTuple_New(12), *c;
    from_mont(t, a, 72);
    for (Py_ssize_t i = 0; out && i < 12; i++)
        if ((c = py_from_limbs(t + 6 * i, 6)))
            PyTuple_SET_ITEM(out, i, c);
        else
            Py_CLEAR(out);
    return out;
}

/* ------------------------------------------------------------- public API */

static int nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)", name, want, nargs);
    return 0;
}

/* Each group function passes its group's field descriptor to the shared code. */
#define UNARY(name, impl, F) \
    static PyObject *name(PyObject *Py_UNUSED(m), PyObject *v) { return impl(F, v); }
#define BINARY(name, impl, F)                                                                  \
    static PyObject *name(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)    \
    {                                                                                          \
        return nargs_ok(#name, nargs, 2) ? impl(F, args[0], args[1]) : NULL;                   \
    }

BINARY(g1_add, group_add, &G1)
BINARY(g2_add, group_add, &G2)
BINARY(g1_mul, group_mul, &G1)
BINARY(g2_mul, group_mul, &G2)
BINARY(g2_add_many, group_add_many, &G2)
BINARY(g2_mul_many, group_mul_many, &G2)
UNARY(g2_sum, group_sum, &G2)

static PyObject *g2_steps(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    return nargs_ok("g2_steps", nargs, 3) ? group_steps(&G2, args[0], args[1], args[2]) : NULL;
}

UNARY(g1_neg, group_neg, &G1)
UNARY(g1_in_subgroup, group_in_subgroup, &G1)
UNARY(g2_in_subgroup, group_in_subgroup, &G2)
UNARY(g1_compress, group_compress, &G1)
UNARY(g2_compress, group_compress, &G2)
UNARY(g1_decompress, group_decompress, &G1)
UNARY(g2_decompress, group_decompress, &G2)

/* A comb of any G2 point of order r, as a Python object: g2_table builds it
 * with comb_build and g2_table_mul reads it with comb_mul, as group_mul
 * reads a generator's comb.  A public key holds the tables of its own two
 * G2 points this way, and they are freed with it.  The object cannot be
 * made from Python, so every table was built from a checked point. */
typedef struct {
    PyObject_HEAD
    comb c;
} table_object;

static PyTypeObject TableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "otsske.backend._core._G2Table",
    .tp_basicsize = sizeof(table_object),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The comb tables of one G2 point of order r, as g2_table builds them.",
};

INLINE int on_curve(const field *F, const u64 *p)
{
    u64 y2[12], rhs[12];
    F->mul(y2, p + F->n, p + F->n);
    curve_rhs(F, rhs, p);
    return !memcmp(y2, rhs, 8 * F->n);
}

static PyObject *g2_table(PyObject *Py_UNUSED(m), PyObject *p)
{
    /* as pure.g2_table: the point at infinity, and a point off the curve or
     * outside the subgroup, are refused */
    u64 a[36];
    int tp = point_from_py(&G2, a, p);
    if (tp < 0)
        return NULL;
    if (!tp)
        return PyErr_Format(PyExc_ValueError, "the point at infinity has no comb table");
    if (!(on_curve(&G2, a) && jac_in_subgroup(&G2, a)))
        return PyErr_Format(PyExc_ValueError, "point not in the prime-order subgroup");
    table_object *t = PyObject_New(table_object, &TableType);
    if (!t)
        return NULL;
    if (comb_build(&G2, &t->c, a)) {
        Py_DECREF(t);
        return NULL;
    }
    return (PyObject *)t;
}

static PyObject *g2_table_mul(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    /* [k]P for any integer k from the table of P: the comb on k mod r */
    u64 r[36];
    if (!nargs_ok("g2_table_mul", nargs, 2))
        return NULL;
    if (!PyObject_TypeCheck(args[0], &TableType))
        return PyErr_Format(PyExc_TypeError, "expected a G2 table, not %.200s", Py_TYPE(args[0])->tp_name);
    PyObject *v = PyNumber_Index(args[1]), *out = NULL;
    if (!v)
        return NULL;
    if (!mul_into(&G2, r, NULL, &((table_object *)args[0])->c, v))
        out = point_to_py(&G2, r);
    Py_DECREF(v);
    return out;
}

static PyObject *py_f2_sqrt(PyObject *Py_UNUSED(m), PyObject *arg)
{
    /* f2_sqrt on an Fp2 element (c0, c1), for the differential tests */
    u64 a[12], r[12];
    if (coords_from_py(a, arg, 12))
        return NULL;
    to_mont(a, 12);
    if (!f2_sqrt(r, a))
        Py_RETURN_NONE;
    from_mont(r, r, 12);
    return py_from_limbs(r, 12);
}

static int term_from_py(term *t, PyObject *p, PyObject *q)
{
    /* 1 for a term that enters the loop, 0 when a point is at infinity
     * (any false value, as in pure), -1 on error */
    int tp = PyObject_IsTrue(p), tq = tp <= 0 ? tp : PyObject_IsTrue(q);
    if (tq <= 0)
        return tq;
    if (coords_from_py(t->p, p, 12) || coords_from_py(t->q, q, 24))
        return -1;
    to_mont(t->p, 12);
    to_mont(t->q, 24);
    t->fixed = lines_for(t->q);
    return 1;
}

static PyObject *miller_product(term *terms, Py_ssize_t n, int with_final)
{
    /* the Miller value of n terms, finalized when with_final; 1 for n = 0 */
    u64 f[72];
    if (!n)
        return Py_NewRef(GT_ONE);
    if (miller(f, terms, n))
        return NULL;
    if (with_final)
        final_exp(f, f);
    return gt_to_py(f);
}

static PyObject *pairing(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    term t;
    int rc;
    if (!nargs_ok("pairing", nargs, 2) || (rc = term_from_py(&t, args[0], args[1])) < 0)
        return NULL;
    return miller_product(&t, rc, 1);
}

static PyObject *multi_miller_loop(PyObject *Py_UNUSED(m), PyObject *pairs)
{
    /* The sequence is copied to a tuple, and so is each term, so that the
     * Python code a conversion may run cannot resize what is read. */
    PyObject *seq = PySequence_Tuple(pairs), *out = NULL;
    if (!seq)
        return NULL;
    Py_ssize_t len = PyTuple_GET_SIZE(seq), n = 0;
    term *terms = PyMem_New(term, len ? len : 1);
    if (!terms) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *pq = PySequence_Tuple(PyTuple_GET_ITEM(seq, i));
        int rc = -1;
        if (pq && PyTuple_GET_SIZE(pq) != 2)
            PyErr_SetString(PyExc_ValueError, "a pairing term must be a (P, Q) pair");
        else if (pq)
            rc = term_from_py(terms + n, PyTuple_GET_ITEM(pq, 0), PyTuple_GET_ITEM(pq, 1));
        Py_XDECREF(pq);
        if (rc < 0)
            goto done;
        n += rc;
    }
    out = miller_product(terms, n, 0);
done:
    PyMem_Free(terms);
    Py_DECREF(seq);
    return out;
}

static PyObject *gt_mul(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[72], b[72];
    if (!nargs_ok("gt_mul", nargs, 2) || gt_from_py(a, args[0]) || gt_from_py(b, args[1]))
        return NULL;
    f12_mul(a, a, b);
    return gt_to_py(a);
}

static int gt_zero(const u64 *a)
{
    /* like pure.py, refuse the zero element, which has no inverse */
    static const u64 zero[72];
    if (memcmp(a, zero, sizeof zero))
        return 0;
    PyErr_SetString(PyExc_ValueError, "GT element is not invertible");
    return -1;
}

static PyObject *py_final_exp(PyObject *Py_UNUSED(m), PyObject *v)
{
    u64 a[72];
    if (gt_from_py(a, v) || gt_zero(a))
        return NULL;
    final_exp(a, a);
    return gt_to_py(a);
}

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static PyMethodDef methods[] = {
    {"g1_add", FASTCALL(g1_add), "P + S in G1 (affine points, () for infinity)."},
    {"g2_add", FASTCALL(g2_add), "P + S in G2."},
    {"g1_mul", FASTCALL(g1_mul), "[k]P in G1 for any integer k."},
    {"g2_mul", FASTCALL(g2_mul), "[k]P in G2 for any integer k."},
    {"g2_add_many", FASTCALL(g2_add_many), "[P_i + Q_i] for two G2 sequences of equal length, with one inversion."},
    {"g2_mul_many", FASTCALL(g2_mul_many), "[[k]P for k in ks] in G2; a generator's in 6 inversions, else in one."},
    {"g2_sum", g2_sum, METH_O, "The sum of a sequence of G2 points, with one inversion."},
    {"g2_steps", FASTCALL(g2_steps), "[P, [t]P, ..., [t^(count-1)]P] in G2, with one inversion."},
    {"g2_table", g2_table, METH_O, "The comb tables of a G2 point of order r, for g2_table_mul (ValueError)."},
    {"g2_table_mul", FASTCALL(g2_table_mul), "[k]P for any integer k, from the table of P."},
    {"g1_neg", g1_neg, METH_O, "-P in G1."},
    {"g1_in_subgroup", g1_in_subgroup, METH_O, "Whether an on-curve G1 point has order r: phi(P) == -[x^2]P."},
    {"g2_in_subgroup", g2_in_subgroup, METH_O, "Whether an on-curve G2 point has order r: psi(P) == [x]P."},
    {"g1_compress", g1_compress, METH_O, "48-byte compressed encoding of a G1 point."},
    {"g2_compress", g2_compress, METH_O, "96-byte compressed encoding of a G2 point."},
    {"g1_decompress", g1_decompress, METH_O, "Decode and validate a G1 point (ValueError)."},
    {"g2_decompress", g2_decompress, METH_O, "Decode and validate a G2 point (ValueError)."},
    {"pairing", FASTCALL(pairing), "Ate pairing e(P, Q) as a flat 12-tuple."},
    {"multi_miller_loop", multi_miller_loop, METH_O,
     "Product of the Miller loops of a sequence of (P, Q) pairs, with one shared loop."},
    {"final_exp", py_final_exp, METH_O, "f^((q^12 - 1) / r) for a nonzero Fp12 element f."},
    {"gt_mul", FASTCALL(gt_mul), "Product in GT."},
    {"_f2_sqrt", py_f2_sqrt, METH_O, "A square root of an Fp2 element (c0, c1), or None; for the tests."},
    {NULL, NULL, 0, NULL},
};

/* ------------------------------------------------------------- module init */

static int limbs_attr(u64 *r, PyObject *mod, const char *name, int n)
{
    PyObject *v = PyObject_GetAttrString(mod, name);
    int rc = v ? limbs_from_py(r, v, n) : -1;
    Py_XDECREF(v);
    return rc;
}

static int derived_limbs(u64 *r, PyObject *q, long add, long shift)
{
    /* plain limbs of (q + add) >> shift */
    PyObject *a = PyLong_FromLong(add), *s = PyLong_FromLong(shift), *sum = NULL, *v = NULL;
    if (a && s && (sum = PyNumber_Add(q, a)))
        v = PyNumber_Rshift(sum, s);
    int rc = v ? limbs_from_py(r, v, 6) : -1;
    Py_XDECREF(a);
    Py_XDECREF(s);
    Py_XDECREF(sum);
    Py_XDECREF(v);
    return rc;
}

static int init_boundary(void)
{
    S_BIG = PyUnicode_InternFromString("big");
    S_BIT_LENGTH = PyUnicode_InternFromString("bit_length");
    N48 = PyLong_FromLong(48);
    ZERO = PyLong_FromLong(0);
    INF = PyTuple_New(0);
    INT_TO_BYTES = PyObject_GetAttrString((PyObject *)&PyLong_Type, "to_bytes");
    INT_FROM_BYTES = PyObject_GetAttrString((PyObject *)&PyLong_Type, "from_bytes");
    return S_BIG && S_BIT_LENGTH && N48 && ZERO && INF && INT_TO_BYTES && INT_FROM_BYTES ? 0 : -1;
}

static int init_field(PyObject *params)
{
    PyObject *q = PyObject_GetAttrString(params, "FIELD_MODULUS");
    int rc = !q || limbs_from_py(Q, q, 6) || derived_limbs(FERMAT, q, -2, 0)
             || derived_limbs(SQRT_EXP, q, 1, 2) || derived_limbs(ISQRT_EXP, q, -3, 2)
             || derived_limbs(HALF_Q, q, 0, 1)
             || derived_limbs(INV2_M, q, 1, 1);
    Py_XDECREF(q);
    if (rc)
        return -1;
    Q_BITS = bit_length(Q);
    u64 inv = 1, r[6] = {1};
    for (int i = 0; i < 6; i++)
        inv *= 2 - Q[0] * inv; /* Newton's iteration doubles the correct low bits */
    N0 = -inv;
    for (int i = 1; i <= 768; i++) {
        fp_add(r, r, r);
        if (i == 384)
            memcpy(ONE_M, r, 48);
    }
    memcpy(R2, r, 48);
    to_mont(INV2_M, 6);
    if (limbs_attr(B_M, params, "B_COEFF", 6) || limbs_attr(B2_M, params, "B_TWIST", 12)
        || limbs_attr(XI_M, params, "XI", 12) || limbs_attr(BETA_M, params, "BETA", 6))
        return -1;
    to_mont(B_M, 6);
    to_mont(B2_M, 12);
    to_mont(XI_M, 12);
    to_mont(BETA_M, 6);
    return 0;
}

static int init_frobenius(PyObject *pure)
{
    /* also the psi constants of the G2 subgroup check */
    u64 v[36], w[12];
    PyObject *fv = PyObject_GetAttrString(pure, "_FROB_V");
    int rc = fv ? items_from_py(v, fv, 3, 12) : -1;
    Py_XDECREF(fv);
    if (rc || limbs_attr(w, pure, "_FROB_W", 12) || limbs_attr(PSI_X, pure, "_PSI_X", 12)
        || limbs_attr(PSI_Y, pure, "_PSI_Y", 12))
        return -1;
    to_mont(v, 36);
    to_mont(w, 12);
    to_mont(PSI_X, 12);
    to_mont(PSI_Y, 12);
    for (int j = 0; j < 3; j++) {
        memcpy(FROB[j], v + 12 * j, 96);
        f2_mul(FROB[3 + j], v + 12 * j, w);
    }
    return 0;
}

static int init_pairing(PyObject *params)
{
    /* |x| for the Miller loop, the final exponentiation and the subgroup checks */
    PyObject *x = PyObject_GetAttrString(params, "X"), *ax = x ? PyNumber_Absolute(x) : NULL;
    u64 xv = ax ? PyLong_AsUnsignedLongLong(ax) : 0;
    Py_XDECREF(x);
    Py_XDECREF(ax);
    if (PyErr_Occurred() || !xv || limbs_attr(CHAIN, params, "HARD_CHAIN", 6))
        return -1;
    X_ABS = xv;
    for (int i = 0; i < 8; i++)
        X_BYTES[i] = (unsigned char)(xv >> (56 - 8 * i));
    X_BIT_COUNT = 63 - __builtin_clzll(xv);
    for (int i = 0; i < X_BIT_COUNT; i++)
        X_BITS[i] = (xv >> (X_BIT_COUNT - 1 - i)) & 1;
    CHAIN_BITS = bit_length(CHAIN);
    return 0;
}

static int base_from_py(const field *F, u64 *r, PyObject *mod, const char *name)
{
    /* an affine constant point of mod, Montgomery */
    PyObject *v = PyObject_GetAttrString(mod, name);
    int rc = v ? coords_from_py(r, v, 2 * F->n) : -1;
    Py_XDECREF(v);
    if (!rc)
        to_mont(r, 2 * F->n);
    return rc;
}

static int init_tables(PyObject *params)
{
    /* the combs of the three generators and the line tables of the G2 ones */
    u64 g1[12], g2[24], aux[24];
    ORDER_PY = PyObject_GetAttrString(params, "ORDER");
    if (!ORDER_PY || base_from_py(&G1, g1, params, "G1_GENERATOR")
        || base_from_py(&G2, g2, params, "G2_GENERATOR") || base_from_py(&G2, aux, params, "G2_AUX_GENERATOR"))
        return -1;
    if (comb_build(&G1, &COMB_G1, g1) || comb_build(&G2, &COMB_G2, g2) || comb_build(&G2, &COMB_AUX, aux))
        return -1;
    if (lines_build(g2, aux)) {
        PyErr_SetString(PyExc_ValueError, "a line slope has a zero denominator");
        return -1;
    }
    return 0;
}

static int self_check(PyObject *params)
{
    /* import-time sanity: e(G1, G2), on the generator's line table and
     * through the final exponentiation, must hash to params.PAIRING_SHA256,
     * a value the tests check is not 1 and has order r */
    term t;
    u64 f[72];
    unsigned char raw[576];
    PyObject *g1 = PyObject_GetAttrString(params, "G1_GENERATOR");
    PyObject *g2 = g1 ? PyObject_GetAttrString(params, "G2_GENERATOR") : NULL;
    PyObject *pinned = g2 ? PyObject_GetAttrString(params, "PAIRING_SHA256") : NULL;
    PyObject *hashlib = pinned ? PyImport_ImportModule("hashlib") : NULL, *hash = NULL, *digest = NULL;
    int ok = 0;
    if (hashlib && term_from_py(&t, g1, g2) == 1 && !miller(f, &t, 1)) {
        final_exp(f, f);
        from_mont(f, f, 72);
        for (int i = 0; i < 12; i++)
            limbs_to_be(raw + 48 * i, f + 6 * i);
        if ((hash = PyObject_CallMethod(hashlib, "sha256", "y#", (const char *)raw, (Py_ssize_t)sizeof raw)))
            digest = PyObject_CallMethod(hash, "hexdigest", NULL);
        ok = digest && PyObject_RichCompareBool(digest, pinned, Py_EQ) == 1;
    }
    if (!ok && !PyErr_Occurred())
        PyErr_SetString(PyExc_AssertionError, "compiled pairing self-check failed");
    Py_XDECREF(g1);
    Py_XDECREF(g2);
    Py_XDECREF(pinned);
    Py_XDECREF(hashlib);
    Py_XDECREF(hash);
    Py_XDECREF(digest);
    return ok ? 0 : -1;
}

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "otsske.backend._core",
    .m_doc = "Compiled BLS12-381 arithmetic backend; mirrors otsske.backend.pure.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__core(void)
{
    PyObject *m = PyModule_Create(&module);
    PyObject *params = m ? PyImport_ImportModule("otsske.params") : NULL;
    PyObject *pure = params ? PyImport_ImportModule("otsske.backend.pure") : NULL;
    int ok = pure && !PyType_Ready(&TableType) && !init_boundary() && !init_field(params)
             && !init_frobenius(pure) && !init_pairing(params) && !init_tables(params);
    if (ok) {
        GT_ONE = PyObject_GetAttrString(pure, "GT_ONE");
        ok = GT_ONE && !PyModule_AddStringConstant(m, "NAME", "native")
             && !PyModule_AddObjectRef(m, "GT_ONE", GT_ONE) && !self_check(params);
    }
    Py_XDECREF(params);
    Py_XDECREF(pure);
    if (!ok)
        Py_CLEAR(m);
    return m;
}
