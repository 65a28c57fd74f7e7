"""BLS12-381 curve constants and derived parameters.

Everything that both arithmetic backends need is defined here exactly once.
The curve family is parameterised by a single integer; the field modulus,
group order and cofactors are derived from it and re-verified at import, so
a corrupted constant fails fast instead of producing silently wrong group
arithmetic.  The three base points are pinned literals: pure.py checks at
import that each lies on its curve and in the order-r subgroup, and the
tests re-derive the auxiliary one and check [r]P == O for all three.
"""

from __future__ import annotations

import math

# Curve family parameter (negative, low Hamming weight).
X = -0xD201000000010000

# 381-bit base field modulus and 255-bit prime group order.
FIELD_MODULUS = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
ORDER = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001

_Q = FIELD_MODULUS

# Family identities; these pin the constants to each other.
assert ORDER == X**4 - X**2 + 1
assert FIELD_MODULUS == (X - 1) ** 2 * ORDER // 3 + X and ((X - 1) ** 2 * ORDER) % 3 == 0
assert FIELD_MODULUS % 4 == 3 and FIELD_MODULUS % 6 == 1

# Short Weierstrass constants: y^2 = x^3 + 4 over Fp, y^2 = x^3 + 4(1+i)
# over Fp2 (the sextic twist), with i^2 = -1 and v^3 = 1+i.
B_COEFF = 4
B_TWIST = (4, 4)
XI = (1, 1)

# Conventional generators of the order-r subgroups.
G1_GENERATOR = (
    0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB,
    0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1,
)
G2_GENERATOR = (
    (
        0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
        0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E,
    ),
    (
        0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
        0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE,
    ),
)
# Second, independent G2 base point, nothing up the sleeve: a hash-seeded x
# coordinate (tagged SHA-256 digests of b"OTSSKE/G2AUX" and counter 0), the
# smaller root y, and the point cleared to the order-r subgroup by
# G2_COFACTOR.  Starting from the *smallest* valid x would reproduce
# G2_GENERATOR (that is how it was derived), so the seed comes from a digest
# and the point has unknown discrete log with respect to it.  The tests
# re-run the derivation (tests/test_backend.py, derive_aux_generator).
G2_AUX_GENERATOR = (
    (
        0x0FD4F4D97CB3C211D2B937FD36CC1FFC1D78DC3CA1DA828A017906864D216BB1A6213A001104BEAA4C21B0E40411CFE2,
        0x05A14FD0043630748EB46A6F6CE97692FD6A36CB73F72B2D9F4A54E765D2C356CEC290F1A632F98D993885B7F8C7F29E,
    ),
    (
        0x07069F1857D155A40943B2F5F1D66623024AF82E55DFA6B733A323BB203D5C025F34B6392F62977D9A387C86FE962637,
        0x127F9DBB7A2CC1A63884271DBCEE5A7950B79E39A29C8F7943535297AB63E6F65DD01E308D4EA3B8B5EEE992CA1C9A52,
    ),
)

# Subgroup cofactors, derived from the trace of Frobenius t = X + 1.
TRACE = X + 1
G1_COFACTOR = (FIELD_MODULUS - X) // ORDER
assert (FIELD_MODULUS - X) % ORDER == 0

# Order of the twist over Fp2: of the two sextic twists, ours is the one
# whose order is divisible by r.  Both candidate orders follow from the
# trace over Fp2 and the CM discriminant.
_T2 = TRACE * TRACE - 2 * FIELD_MODULUS
_D = 4 * FIELD_MODULUS**2 - _T2 * _T2
_F2 = math.isqrt(_D // 3)
assert 3 * _F2 * _F2 == _D
_TWIST_CANDIDATES = [
    FIELD_MODULUS**2 + 1 - (_T2 + 3 * _F2) // 2,
    FIELD_MODULUS**2 + 1 - (_T2 - 3 * _F2) // 2,
]
TWIST_ORDER = next(n for n in _TWIST_CANDIDATES if n % ORDER == 0)
G2_COFACTOR = TWIST_ORDER // ORDER

# Cube root of unity in Fp for the G1 endomorphism phi(x, y) = (BETA x, y).
# Of the two nontrivial roots, this is the one for which phi acts on G1 as
# multiplication by -X^2 (a cube root of unity mod ORDER, since ORDER =
# X^4 - X^2 + 1), which the subgroup check relies on; pure.py asserts it on
# the generator at import.
BETA = 0x5F19672FDF76CE51BA69C6076A0F77EADDB3A93BE6F89688DE17D813620A00022E01FFFFFFFEFFFE
assert pow(BETA, 3, FIELD_MODULUS) == 1 and BETA != 1

# Final exponentiation: (q^12-1)/r = (q^6-1)(q^2+1) * HARD_EXPONENT.  The
# hard part is evaluated as an addition chain in X (Hayashida-Hayasaka-Teruya,
# eprint 2020/875, without their factor 3, so GT values stay the definitional
# ones): HARD_EXPONENT = HARD_CHAIN * (X + q) * (X^2 + q^2 - 1) + 1.
HARD_EXPONENT = (_Q**4 - _Q**2 + 1) // ORDER
assert (_Q**4 - _Q**2 + 1) % ORDER == 0
assert (X - 1) ** 2 % 3 == 0
HARD_CHAIN = (X - 1) ** 2 // 3
assert HARD_EXPONENT == HARD_CHAIN * (X + _Q) * (X**2 + _Q**2 - 1) + 1

# SHA-256 of the pairing e(G1_GENERATOR, G2_GENERATOR): its 12 GT
# coefficients, each as 48 big-endian bytes, in the backends' flat order.
# The compiled backend checks its own pairing against it at import; the
# tests check that the value is not 1, has order r and is what pure.py
# computes.
PAIRING_SHA256 = "4b4c07e7d5136bb2947bab11cf26a740cd2aeef4baf3e6f773bfadb5e505f8b4"

# Security levels supported by this parameter set.  Both map onto the same
# curve: the group order is a 255-bit prime, which is what the 256-bit
# classical level requires of the scalar field, and the curve is the
# standard choice at the 128-bit pairing level.
SUPPORTED_SECURITY_LEVELS = (128, 256)

assert ORDER.bit_length() == 255
