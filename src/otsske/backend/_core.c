/*
 * Compiled BLS12-381 arithmetic backend, ``otsske.backend._core``.
 *
 * Mirrors pure.py function for function: the same boundary types (affine
 * integer tuples, the empty tuple for the point at infinity, flat 12-tuples
 * for GT) and the same algorithms, with 6x64-bit Montgomery field
 * arithmetic, Jacobian point kernels and the pairing in C.  Every curve
 * constant is read at import from otsske.params and otsske.backend.pure, so
 * the two backends cannot drift apart silently.  Decoding checks flags,
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
    u64 s[6], t[6], x0[6], two_x0[6], cand[12], chk[12];
    if (fp_is_zero(a + 6)) {
        if (fp_sqrt(s, a)) {
            memcpy(r, s, 48);
            memset(r + 6, 0, 48);
            return 1;
        }
        fp_neg(t, a);
        if (fp_sqrt(s, t)) {
            memset(r, 0, 48);
            memcpy(r + 6, s, 48);
            return 1;
        }
        return 0;
    }
    /* norm = a0^2 + a1^2 must be a square */
    fp_mul(s, a, a);
    fp_mul(t, a + 6, a + 6);
    fp_add(s, s, t);
    if (!fp_sqrt(s, s))
        return 0;
    fp_add(t, a, s);
    fp_mul(t, t, INV2_M);
    if (!fp_sqrt(x0, t)) {
        fp_sub(t, a, s);
        fp_mul(t, t, INV2_M);
        if (!fp_sqrt(x0, t))
            return 0;
    }
    fp_add(two_x0, x0, x0);
    fp_inv(two_x0, two_x0);
    memcpy(cand, x0, 48);
    fp_mul(cand + 6, a + 6, two_x0);
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

static inline void f12_sqr(u64 *r, const u64 *a)
{
    f12_mul(r, a, a);
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

/* Subgroup-check endomorphisms, as pure.g1_in_subgroup/g2_in_subgroup:
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

INLINE int jac_to_affine(const field *F, u64 *a, const u64 *p)
{
    const int n = F->n;
    u64 zi[12], zi2[12];
    if (F->is_zero(p + 2 * n))
        return 0;
    F->inv(zi, p + 2 * n);
    F->mul(zi2, zi, zi);
    F->mul(a, p, zi2);
    F->mul(zi2, zi2, zi);
    F->mul(a + n, p + n, zi2);
    return 1;
}

INLINE void jac_mul(const field *F, u64 *r, const u64 *p, const unsigned char *k, Py_ssize_t len)
{
    /* fixed 4-bit window over the big-endian scalar bytes k[0..len) */
    const int n = F->n;
    u64 tab[16][36], acc[36];
    jac_set_infinity(F, acc);
    if (len && !F->is_zero(p + 2 * n)) {
        memcpy(tab[1], p, 24 * n);
        for (int i = 2; i < 16; i++)
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

INLINE void curve_rhs(const field *F, u64 *r, const u64 *x)
{
    /* x^3 + b */
    F->mul(r, x, x);
    F->mul(r, r, x);
    F->add(r, r, F->b);
}

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
    for (int c = 0; c < F->chains; c++) {
        u64 base[36];
        memcpy(base, t, 24 * n);
        for (int i = 0; i < X_BIT_COUNT; i++) {
            jac_double(F, t, t);
            if (X_BITS[i])
                jac_add(F, t, t, base);
        }
    }
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

/* ----------------------------------------------------------------- pairing */
/* Ate pairing with the Miller variable T kept affine on the twist, as in
 * pure._miller; lines are premultiplied by w^3, which the final
 * exponentiation erases. */

static void miller_step(u64 *f, u64 *tx, u64 *ty, const u64 *num, const u64 *den, const u64 *sx,
                        const u64 *xp, const u64 *yp)
{
    /* f *= w^3 * l(P) for the line of slope lam = num/den through T, then
     * T += S, where S has x coordinate sx (S = T when doubling).  The sparse
     * line is (lam*xT - yT) at (k=0,j=0), (-lam*xP) at (k=0,j=1) and yP at
     * (k=1,j=1); the remaining coefficients are zero. */
    u64 l[72] = {0}, lam[12], x3[12], t[12];
    f2_inv(t, den);
    f2_mul(lam, num, t);
    f2_mul(t, lam, tx);
    f2_sub(l, t, ty);
    f2_neg(t, lam);
    fp_mul(l + 12, t, xp);
    fp_mul(l + 18, t + 6, xp);
    memcpy(l + 48, yp, 48);
    f12_mul(f, f, l);
    f2_sqr(x3, lam);
    f2_sub(x3, x3, tx);
    f2_sub(x3, x3, sx);
    f2_sub(t, tx, x3);
    f2_mul(t, lam, t);
    f2_sub(ty, t, ty);
    memcpy(tx, x3, 96);
}

static void miller(u64 *out, const u64 *xp, const u64 *yp, const u64 *qx, const u64 *qy)
{
    u64 f[72], tx[12], ty[12], num[12], den[12];
    set_one(f, 72);
    memcpy(tx, qx, 96);
    memcpy(ty, qy, 96);
    for (int i = 0; i < X_BIT_COUNT; i++) {
        /* tangent: lam = 3*tx^2 / (2*ty) */
        f2_sqr(den, tx);
        f2_add(num, den, den);
        f2_add(num, num, den);
        f2_add(den, ty, ty);
        f12_sqr(f, f);
        miller_step(f, tx, ty, num, den, tx, xp, yp);
        if (X_BITS[i]) {
            /* chord through Q: lam = (ty - qy) / (tx - qx) */
            f2_sub(num, ty, qy);
            f2_sub(den, tx, qx);
            miller_step(f, tx, ty, num, den, qx, xp, yp);
        }
    }
    f12_conj(out, f); /* negative curve parameter */
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

static u64 X_ABS;      /* |x| */
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

INLINE int point_from_py(const field *F, u64 *r, PyObject *p)
{
    /* affine (x, y) -> Montgomery Jacobian with Z = 1 */
    if (limbs_from_py(r, p, 2 * F->n))
        return -1;
    to_mont(r, 2 * F->n);
    set_one(r + 2 * F->n, F->n);
    return 0;
}

INLINE PyObject *point_to_py(const field *F, const u64 *p)
{
    u64 a[24];
    if (!jac_to_affine(F, a, p))
        return Py_NewRef(INF);
    from_mont(a, a, 2 * F->n);
    return py_from_limbs(a, 2 * F->n);
}

INLINE PyObject *group_add(const field *F, PyObject *p, PyObject *s)
{
    u64 a[36], b[36];
    int tp = PyObject_IsTrue(p), ts = tp < 0 ? -1 : PyObject_IsTrue(s);
    if (ts < 0)
        return NULL;
    if (!tp || !ts)
        return Py_NewRef(tp ? p : s);
    if (point_from_py(F, a, p) || point_from_py(F, b, s))
        return NULL;
    jac_add(F, a, a, b);
    return point_to_py(F, a);
}

INLINE PyObject *group_neg(const field *F, PyObject *p)
{
    /* (x, -y), keeping the x object */
    u64 y[12];
    int tp = PyObject_IsTrue(p);
    if (tp <= 0)
        return tp ? NULL : Py_NewRef(INF);
    PyObject *x = PySequence_GetItem(p, 0), *yv = x ? PySequence_GetItem(p, 1) : NULL;
    int rc = yv ? limbs_from_py(y, yv, F->n) : -1;
    Py_XDECREF(yv);
    if (rc) {
        Py_XDECREF(x);
        return NULL;
    }
    to_mont(y, F->n);
    F->neg(y, y);
    from_mont(y, y, F->n);
    return pair(x, py_from_limbs(y, F->n));
}

INLINE PyObject *group_mul(const field *F, PyObject *p, PyObject *k)
{
    u64 a[36];
    int neg, tp;
    PyObject *kb = scalar_bytes(k, &neg), *out = NULL;
    if (!kb)
        return NULL;
    tp = PyObject_IsTrue(p);
    if (tp == 0 || (tp > 0 && PyBytes_GET_SIZE(kb) == 0)) {
        out = Py_NewRef(INF);
    } else if (tp > 0 && !point_from_py(F, a, p)) {
        if (neg)
            F->neg(a + F->n, a + F->n);
        jac_mul(F, a, a, (const unsigned char *)PyBytes_AS_STRING(kb), PyBytes_GET_SIZE(kb));
        out = point_to_py(F, a);
    }
    Py_DECREF(kb);
    return out;
}

INLINE PyObject *group_on_curve(const field *F, PyObject *p)
{
    const int n = F->n;
    u64 a[36], t[12];
    int tp = PyObject_IsTrue(p);
    if (tp <= 0)
        return tp ? NULL : Py_NewRef(Py_True);
    if (point_from_py(F, a, p))
        return NULL;
    curve_rhs(F, t, a);
    F->mul(a + n, a + n, a + n);
    return PyBool_FromLong(!memcmp(t, a + n, 8 * n));
}

INLINE PyObject *group_in_subgroup(const field *F, PyObject *p)
{
    u64 a[36];
    int tp = PyObject_IsTrue(p);
    if (tp <= 0)
        return tp ? NULL : Py_NewRef(Py_True);
    if (point_from_py(F, a, p))
        return NULL;
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
        if (limbs_from_py(a, p, 2 * n))
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

static int nargs_ok(const char *name, Py_ssize_t nargs)
{
    if (nargs == 2)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly 2 arguments (%zd given)", name, nargs);
    return 0;
}

/* Each group function passes its group's field descriptor to the shared code. */
#define UNARY(name, impl, F) \
    static PyObject *name(PyObject *Py_UNUSED(m), PyObject *v) { return impl(F, v); }
#define BINARY(name, impl, F)                                                                  \
    static PyObject *name(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)    \
    {                                                                                          \
        return nargs_ok(#name, nargs) ? impl(F, args[0], args[1]) : NULL;                      \
    }

BINARY(g1_add, group_add, &G1)
BINARY(g2_add, group_add, &G2)
BINARY(g1_mul, group_mul, &G1)
BINARY(g2_mul, group_mul, &G2)
UNARY(g1_neg, group_neg, &G1)
UNARY(g2_neg, group_neg, &G2)
UNARY(g1_on_curve, group_on_curve, &G1)
UNARY(g2_on_curve, group_on_curve, &G2)
UNARY(g1_in_subgroup, group_in_subgroup, &G1)
UNARY(g2_in_subgroup, group_in_subgroup, &G2)
UNARY(g1_compress, group_compress, &G1)
UNARY(g2_compress, group_compress, &G2)
UNARY(g1_decompress, group_decompress, &G1)
UNARY(g2_decompress, group_decompress, &G2)

static PyObject *miller_or_pairing(const char *name, PyObject *const *args, Py_ssize_t nargs,
                                   int with_final)
{
    /* miller_loop (with_final = 0) or pairing (1); either is 1 on infinity */
    u64 p[18], q[36], f[72];
    int tp, tq;
    if (!nargs_ok(name, nargs))
        return NULL;
    if ((tp = PyObject_IsTrue(args[0])) < 0 || (tq = PyObject_IsTrue(args[1])) < 0)
        return NULL;
    if (!tp || !tq)
        return Py_NewRef(GT_ONE);
    if (point_from_py(&G1, p, args[0]) || point_from_py(&G2, q, args[1]))
        return NULL;
    miller(f, p, p + 6, q, q + 12);
    if (with_final)
        final_exp(f, f);
    return gt_to_py(f);
}

static PyObject *miller_loop(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    return miller_or_pairing("miller_loop", args, nargs, 0);
}

static PyObject *pairing(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    return miller_or_pairing("pairing", args, nargs, 1);
}

static PyObject *gt_mul(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[72], b[72];
    if (!nargs_ok("gt_mul", nargs) || gt_from_py(a, args[0]) || gt_from_py(b, args[1]))
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

static int gt_invert(u64 *a)
{
    /* in place */
    if (gt_zero(a))
        return -1;
    f12_inv(a, a);
    return 0;
}

static PyObject *gt_inv(PyObject *Py_UNUSED(m), PyObject *v)
{
    u64 a[72];
    return gt_from_py(a, v) || gt_invert(a) ? NULL : gt_to_py(a);
}

static PyObject *py_final_exp(PyObject *Py_UNUSED(m), PyObject *v)
{
    u64 a[72];
    if (gt_from_py(a, v) || gt_zero(a))
        return NULL;
    final_exp(a, a);
    return gt_to_py(a);
}

static PyObject *gt_pow(PyObject *Py_UNUSED(m), PyObject *const *args, Py_ssize_t nargs)
{
    u64 a[72], acc[72];
    int neg;
    PyObject *eb;
    if (!nargs_ok("gt_pow", nargs) || gt_from_py(a, args[0]) || !(eb = scalar_bytes(args[1], &neg)))
        return NULL;
    const unsigned char *e = (const unsigned char *)PyBytes_AS_STRING(eb);
    if (neg && gt_invert(a)) {
        Py_DECREF(eb);
        return NULL;
    }
    set_one(acc, 72);
    for (Py_ssize_t i = 0; i < PyBytes_GET_SIZE(eb); i++)
        for (int bit = 7; bit >= 0; bit--) {
            f12_sqr(acc, acc);
            if ((e[i] >> bit) & 1)
                f12_mul(acc, acc, a);
        }
    Py_DECREF(eb);
    return gt_to_py(acc);
}

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static PyMethodDef methods[] = {
    {"g1_add", FASTCALL(g1_add), "P + S in G1 (affine points, () for infinity)."},
    {"g2_add", FASTCALL(g2_add), "P + S in G2."},
    {"g1_mul", FASTCALL(g1_mul), "[k]P in G1 for any integer k."},
    {"g2_mul", FASTCALL(g2_mul), "[k]P in G2 for any integer k."},
    {"g1_neg", g1_neg, METH_O, "-P in G1."},
    {"g2_neg", g2_neg, METH_O, "-P in G2."},
    {"g1_on_curve", g1_on_curve, METH_O, "Whether P satisfies y^2 = x^3 + 4."},
    {"g2_on_curve", g2_on_curve, METH_O, "Whether P satisfies y^2 = x^3 + 4(1+i)."},
    {"g1_in_subgroup", g1_in_subgroup, METH_O, "Whether an on-curve G1 point has order r: phi(P) == -[x^2]P."},
    {"g2_in_subgroup", g2_in_subgroup, METH_O, "Whether an on-curve G2 point has order r: psi(P) == [x]P."},
    {"g1_compress", g1_compress, METH_O, "48-byte compressed encoding of a G1 point."},
    {"g2_compress", g2_compress, METH_O, "96-byte compressed encoding of a G2 point."},
    {"g1_decompress", g1_decompress, METH_O, "Decode and validate a G1 point (ValueError)."},
    {"g2_decompress", g2_decompress, METH_O, "Decode and validate a G2 point (ValueError)."},
    {"pairing", FASTCALL(pairing), "Ate pairing e(P, Q) as a flat 12-tuple."},
    {"miller_loop", FASTCALL(miller_loop), "Miller loop of e(P, Q), before final_exp."},
    {"final_exp", py_final_exp, METH_O, "f^((q^12 - 1) / r) for a nonzero Fp12 element f."},
    {"gt_mul", FASTCALL(gt_mul), "Product in GT."},
    {"gt_inv", gt_inv, METH_O, "Inverse in GT."},
    {"gt_pow", FASTCALL(gt_pow), "a^e in GT for any integer e."},
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
             || derived_limbs(SQRT_EXP, q, 1, 2) || derived_limbs(HALF_Q, q, 0, 1)
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
    X_BIT_COUNT = 63 - __builtin_clzll(xv);
    for (int i = 0; i < X_BIT_COUNT; i++)
        X_BITS[i] = (xv >> (X_BIT_COUNT - 1 - i)) & 1;
    CHAIN_BITS = bit_length(CHAIN);
    return 0;
}

static int self_check(PyObject *m, PyObject *params)
{
    /* import-time sanity: non-degenerate pairing of order r */
    PyObject *args[2] = {PyObject_GetAttrString(params, "G1_GENERATOR"),
                         PyObject_GetAttrString(params, "G2_GENERATOR")};
    PyObject *order = PyObject_GetAttrString(params, "ORDER"), *e = NULL, *er = NULL;
    int ok = 0;
    if (args[0] && args[1] && order && (e = pairing(m, args, 2))) {
        PyObject *pow_args[2] = {e, order};
        if ((er = gt_pow(m, pow_args, 2)))
            ok = PyObject_RichCompareBool(e, GT_ONE, Py_NE) == 1
                 && PyObject_RichCompareBool(er, GT_ONE, Py_EQ) == 1;
    }
    if (!ok && !PyErr_Occurred())
        PyErr_SetString(PyExc_AssertionError, "compiled pairing self-check failed");
    Py_XDECREF(args[0]);
    Py_XDECREF(args[1]);
    Py_XDECREF(order);
    Py_XDECREF(e);
    Py_XDECREF(er);
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
    int ok = pure && !init_boundary() && !init_field(params) && !init_frobenius(pure)
             && !init_pairing(params);
    if (ok) {
        GT_ONE = PyObject_GetAttrString(pure, "GT_ONE");
        PyObject *aux = PyObject_GetAttrString(pure, "G2_AUX_GENERATOR");
        ok = GT_ONE && aux && !PyModule_AddStringConstant(m, "NAME", "native")
             && !PyModule_AddObjectRef(m, "INFINITY", INF)
             && !PyModule_AddObjectRef(m, "GT_ONE", GT_ONE)
             && !PyModule_AddObjectRef(m, "G2_AUX_GENERATOR", aux) && !self_check(m, params);
        Py_XDECREF(aux);
    }
    Py_XDECREF(params);
    Py_XDECREF(pure);
    if (!ok)
        Py_CLEAR(m);
    return m;
}
