"""Curve-constant sanity: primality, family identities, derived values."""

import sympy

from otsske import params


def test_moduli_are_prime():
    assert sympy.isprime(params.FIELD_MODULUS)
    assert sympy.isprime(params.ORDER)


def test_family_identities():
    x = params.X
    assert params.ORDER == x**4 - x**2 + 1
    assert params.FIELD_MODULUS == (x - 1) ** 2 * params.ORDER // 3 + x


def test_order_width():
    assert params.ORDER.bit_length() == 255
    assert params.FIELD_MODULUS.bit_length() == 381


def test_cofactors_divide_group_orders():
    assert (params.FIELD_MODULUS - params.X) % params.ORDER == 0
    assert params.TWIST_ORDER % params.ORDER == 0
    assert params.G2_COFACTOR == params.TWIST_ORDER // params.ORDER


def test_hard_exponent_chain_identity():
    x, q, c = params.X, params.FIELD_MODULUS, params.HARD_CHAIN
    assert (x - 1) ** 2 % 3 == 0
    assert c == (x - 1) ** 2 // 3 == 0x396C8C005555E1568C00AAAB0000AAAB
    assert params.HARD_EXPONENT == c * (x + q) * (x**2 + q**2 - 1) + 1
    assert params.HARD_EXPONENT * params.ORDER == q**4 - q**2 + 1


def test_generators_on_curve():
    x, y = params.G1_GENERATOR
    q = params.FIELD_MODULUS
    assert (y * y - (x**3 + params.B_COEFF)) % q == 0


def test_supported_levels():
    assert params.SUPPORTED_SECURITY_LEVELS == (128, 256)
