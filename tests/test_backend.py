"""Group-law, pairing and encoding checks for both arithmetic backends."""

import functools
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from otsske.backend import available_backends, load_backend
from otsske.params import (
    B_COEFF,
    B_TWIST,
    FIELD_MODULUS,
    G1_COFACTOR,
    G1_GENERATOR,
    G2_COFACTOR,
    G2_GENERATOR,
    ORDER,
    TWIST_ORDER,
)

BACKENDS = available_backends()


def require(name):
    if name not in BACKENDS:
        pytest.skip(f"backend {name} not built")
    return load_backend(name)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return load_backend(request.param)


def test_both_backends_available():
    # the compiled core is expected to build in this environment
    assert "pure" in BACKENDS
    assert "native" in BACKENDS


def test_failed_native_init_falls_back_to_pure(tmp_path):
    # a copy of the package whose compiled core fails its init the way a
    # stale build's self-check does; the package must still import
    src = Path(__file__).resolve().parent.parent / "src" / "otsske"
    shutil.copytree(src, tmp_path / "otsske", ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"))
    stub = tmp_path / "otsske" / "backend" / "_core.py"
    stub.write_text('raise AssertionError("compiled pairing self-check failed")\n')
    code = (
        "import otsske, otsske.backend as b; "
        "print(b.available_backends(), b.load_backend().NAME); print(b.NATIVE_STATUS)"
    )
    env = {k: v for k, v in os.environ.items() if k != "OTSSKE_BACKEND"}
    env["PYTHONPATH"] = str(tmp_path)
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "('pure',) pure",
        "native backend failed its init, using pure: AssertionError: compiled pairing self-check failed",
    ]


class TestGroupLaws:
    def test_generator_orders(self, backend):
        assert backend.g1_mul(G1_GENERATOR, ORDER) == ()
        assert backend.g2_mul(G2_GENERATOR, ORDER) == ()

    def test_exp_zero_is_identity(self, backend):
        assert backend.g1_mul(G1_GENERATOR, 0) == ()
        assert backend.g2_mul(G2_GENERATOR, 0) == ()

    def test_additive_homomorphism(self, backend):
        rnd = random.Random(7)
        trials = 100 if backend.NAME == "native" else 5
        for _ in range(trials):
            a = rnd.randrange(1, ORDER)
            b = rnd.randrange(1, ORDER)
            lhs = backend.g1_add(backend.g1_mul(G1_GENERATOR, a), backend.g1_mul(G1_GENERATOR, b))
            assert lhs == backend.g1_mul(G1_GENERATOR, (a + b) % ORDER)
            lhs2 = backend.g2_add(backend.g2_mul(G2_GENERATOR, a), backend.g2_mul(G2_GENERATOR, b))
            assert lhs2 == backend.g2_mul(G2_GENERATOR, (a + b) % ORDER)

    def test_exp_composition(self, backend):
        rnd = random.Random(8)
        a, b = rnd.randrange(1, ORDER), rnd.randrange(1, ORDER)
        assert backend.g1_mul(backend.g1_mul(G1_GENERATOR, a), b) == backend.g1_mul(
            G1_GENERATOR, a * b % ORDER
        )

    def test_inverse_cancels(self, backend):
        p = backend.g1_mul(G1_GENERATOR, 12345)
        assert backend.g1_add(p, backend.g1_neg(p)) == ()
        q = backend.g2_mul(G2_GENERATOR, 54321)
        assert backend.g2_add(q, backend.g2_neg(q)) == ()

    def test_doubling_path(self, backend):
        p = backend.g1_mul(G1_GENERATOR, 5)
        assert backend.g1_add(p, p) == backend.g1_mul(G1_GENERATOR, 10)

    def test_identity_is_neutral(self, backend):
        p = backend.g1_mul(G1_GENERATOR, 99)
        assert backend.g1_add(p, ()) == p
        assert backend.g1_add((), p) == p


class TestPairing:
    def test_bilinearity(self, backend):
        rnd = random.Random(9)
        base = backend.pairing(G1_GENERATOR, G2_GENERATOR)
        trials = 100 if backend.NAME == "native" else 4
        for _ in range(trials):
            a = rnd.randrange(1, ORDER)
            b = rnd.randrange(1, ORDER)
            lhs = backend.pairing(
                backend.g1_mul(G1_GENERATOR, a), backend.g2_mul(G2_GENERATOR, b)
            )
            assert lhs == backend.gt_pow(base, a * b % ORDER)

    def test_non_degenerate_order_r(self, backend):
        e = backend.pairing(G1_GENERATOR, G2_GENERATOR)
        assert e != backend.GT_ONE
        assert backend.gt_pow(e, ORDER) == backend.GT_ONE

    def test_multiplicative_in_second_argument(self, backend):
        qa = backend.g2_mul(G2_GENERATOR, 111)
        qb = backend.g2_mul(G2_GENERATOR, 222)
        lhs = backend.pairing(G1_GENERATOR, backend.g2_add(qa, qb))
        rhs = backend.gt_mul(
            backend.pairing(G1_GENERATOR, qa), backend.pairing(G1_GENERATOR, qb)
        )
        assert lhs == rhs

    def test_identity_arguments(self, backend):
        assert backend.pairing((), G2_GENERATOR) == backend.GT_ONE
        assert backend.pairing(G1_GENERATOR, ()) == backend.GT_ONE

    def test_gt_inverse(self, backend):
        e = backend.pairing(G1_GENERATOR, G2_GENERATOR)
        assert backend.gt_mul(e, backend.gt_inv(e)) == backend.GT_ONE


def test_final_exponentiation_against_definition(backend):
    """The x-chain final exponentiation must equal the definitional exponent.

    The easy part maps every nonzero Fp12 element into the cyclotomic
    subgroup, so the chain must agree on arbitrary elements too, not only on
    Miller-loop outputs.
    """
    rnd = random.Random(11)
    p = backend.g1_mul(G1_GENERATOR, 987654321)
    q = backend.g2_mul(G2_GENERATOR, 123456789)
    inputs = [backend.miller_loop(p, q)]
    inputs += [tuple(rnd.randrange(1, FIELD_MODULUS) for _ in range(12)) for _ in range(2)]
    for f in inputs:
        assert backend.final_exp(f) == backend.gt_pow(f, (FIELD_MODULUS**12 - 1) // ORDER)


def test_pairing_is_final_exp_of_miller_loop(backend):
    p = backend.g1_mul(G1_GENERATOR, 31337)
    q = backend.g2_mul(G2_GENERATOR, 42424242)
    assert backend.pairing(p, q) == backend.final_exp(backend.miller_loop(p, q))
    assert backend.miller_loop((), q) == backend.miller_loop(p, ()) == backend.GT_ONE


def test_backends_agree_on_random_operations():
    if len(BACKENDS) < 2:
        pytest.skip("only one backend built")
    fast, pure = load_backend("native"), load_backend("pure")
    rnd = random.Random(1234)
    for _ in range(8):
        a = rnd.randrange(ORDER)
        b = rnd.randrange(ORDER)
        p = pure.g1_mul(G1_GENERATOR, a)
        q = pure.g2_mul(G2_GENERATOR, b)
        assert fast.g1_mul(G1_GENERATOR, a) == p
        assert fast.g2_mul(G2_GENERATOR, b) == q
        assert fast.g1_add(p, G1_GENERATOR) == pure.g1_add(p, G1_GENERATOR)
        assert fast.g2_add(q, G2_GENERATOR) == pure.g2_add(q, G2_GENERATOR)
    p = pure.g1_mul(G1_GENERATOR, 31337)
    q = pure.g2_mul(G2_GENERATOR, 42424242)
    assert fast.pairing(p, q) == pure.pairing(p, q)
    e = pure.pairing(p, q)
    k = rnd.randrange(ORDER)
    assert fast.gt_pow(e, k) == pure.gt_pow(e, k)
    assert fast.gt_inv(e) == pure.gt_inv(e)


def test_aux_generator_properties(backend):
    aux = backend.G2_AUX_GENERATOR
    assert aux != ()
    assert aux != G2_GENERATOR
    assert backend.g2_mul(aux, ORDER) == ()
    assert backend.g2_on_curve(aux)


def test_twist_order_consistency():
    assert TWIST_ORDER % ORDER == 0
    assert TWIST_ORDER // ORDER == G2_COFACTOR


class TestEncodings:
    def test_g1_round_trip(self, backend):
        rnd = random.Random(5)
        trials = 100 if backend.NAME == "native" else 10
        for _ in range(trials):
            p = backend.g1_mul(G1_GENERATOR, rnd.randrange(1, ORDER))
            data = backend.g1_compress(p)
            assert len(data) == 48
            assert backend.g1_decompress(data) == p

    def test_g2_round_trip(self, backend):
        rnd = random.Random(6)
        trials = 100 if backend.NAME == "native" else 6
        for _ in range(trials):
            p = backend.g2_mul(G2_GENERATOR, rnd.randrange(1, ORDER))
            data = backend.g2_compress(p)
            assert len(data) == 96
            assert backend.g2_decompress(data) == p

    def test_infinity_round_trip(self, backend):
        data = backend.g1_compress(())
        assert data[0] == 0xC0 and not any(data[1:])
        assert backend.g1_decompress(data) == ()
        data2 = backend.g2_compress(())
        assert data2[0] == 0xC0 and not any(data2[1:])
        assert backend.g2_decompress(data2) == ()

    def test_all_ff_buffer_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.g1_decompress(b"\xff" * 48)
        with pytest.raises(ValueError):
            backend.g2_decompress(b"\xff" * 96)

    def test_wrong_length_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.g1_decompress(b"\x00" * 47)
        with pytest.raises(ValueError):
            backend.g2_decompress(b"\x00" * 95)

    def test_uncompressed_flag_rejected(self, backend):
        data = bytearray(backend.g1_compress(G1_GENERATOR))
        data[0] &= 0x7F  # clear the compressed bit
        with pytest.raises(ValueError):
            backend.g1_decompress(bytes(data))

    def test_out_of_range_x_rejected(self, backend):
        bad = bytearray(FIELD_MODULUS.to_bytes(48, "big"))
        bad[0] |= 0x80
        with pytest.raises(ValueError):
            backend.g1_decompress(bytes(bad))

    def test_non_canonical_infinity_rejected(self, backend):
        bad = bytearray(48)
        bad[0] = 0xC0
        bad[47] = 1
        with pytest.raises(ValueError):
            backend.g1_decompress(bytes(bad))

    def test_wrong_subgroup_rejected(self, backend):
        # a twist point outside the order-r subgroup has no valid encoding;
        # fabricate one by clearing only part of the cofactor
        pure = require("pure")
        small = TWIST_ORDER // ORDER  # cofactor, leaves an r-order component
        x0 = 1
        while True:
            x = (x0, 0)
            rhs = pure._f2_add(pure._f2_mul(pure._f2_sqr(x), x), (4, 4))
            y = pure._f2_sqrt(rhs)
            if y is not None:
                point = (x, y)
                if pure.g2_mul(point, ORDER) != ():  # not in the subgroup
                    break
            x0 += 1
        data = pure.g2_compress(point)
        with pytest.raises(ValueError):
            backend.g2_decompress(data)

    def test_sign_flag_selects_root(self, backend):
        p = backend.g1_mul(G1_GENERATOR, 3)
        x, y = p
        other = (x, FIELD_MODULUS - y)
        assert backend.g1_decompress(backend.g1_compress(other)) == other
        assert backend.g1_compress(other) != backend.g1_compress(p)


# ------------------------------------------------------------ differential
# The compiled backend against the pure reference on identical inputs: the
# results must be equal, or both calls must raise the same exception type.

SCALARS = st.one_of(
    st.sampled_from([0, 1, -1, ORDER, -ORDER, ORDER - 1, ORDER + 1, 2 * ORDER]),
    st.integers(-ORDER, 2 * ORDER),
)
EXPONENTS = st.integers(0, ORDER - 1)
FP = st.integers(0, FIELD_MODULUS - 1)
GROUPS = {"g1": (48, G1_GENERATOR, FP), "g2": (96, G2_GENERATOR, st.tuples(FP, FP))}
# one 48-byte x component of an encoding, in range or just above q
X_COMPONENTS = st.one_of(FP, st.integers(FIELD_MODULUS, 2**381 - 1)).map(lambda c: c.to_bytes(48, "big"))


def outcome(fn, args, message):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc), str(exc)) if message else type(exc)


def assert_agree(name, *args, message=False):
    native, pure = load_backend("native"), load_backend("pure")
    expected = outcome(getattr(pure, name), args, message)
    assert outcome(getattr(native, name), args, message) == expected, (name, args)


def point(group, a):
    return getattr(load_backend("native"), f"{group}_mul")(GROUPS[group][1], a)


@functools.cache
def gt_base():
    return load_backend("native").pairing(G1_GENERATOR, G2_GENERATOR)


GT_ELEMENTS = st.one_of(
    st.builds(lambda a: load_backend("native").gt_pow(gt_base(), a), EXPONENTS),
    st.just((0,) * 12),
    st.tuples(*[FP] * 12),  # arbitrary Fp12 elements
)
# malformed GT inputs: a wrong length, or one coefficient outside [0, q)
BAD_GT_ELEMENTS = st.one_of(
    st.lists(FP, max_size=14).filter(lambda c: len(c) != 12).map(tuple),
    st.builds(
        lambda c, i, v: c[:i] + (v,) + c[i + 1 :],
        st.tuples(*[FP] * 12),
        st.integers(0, 11),
        st.one_of(st.integers(FIELD_MODULUS, 2**384), st.integers(-(2**384), -1)),
    ),
)


@pytest.mark.parametrize("group", GROUPS)
@given(a=EXPONENTS, k=SCALARS)
@settings(max_examples=40, deadline=None)
def test_differential_mul(group, a, k):
    assert_agree(f"{group}_mul", point(group, a), k)


@pytest.mark.parametrize("group", GROUPS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_differential_point_ops(group, data):
    pure = load_backend("pure")
    p = point(group, data.draw(EXPONENTS))
    s = point(group, data.draw(EXPONENTS))
    for args in ((p, s), (p, p), (p, getattr(pure, f"{group}_neg")(p)), (p, ()), ((), s)):
        assert_agree(f"{group}_add", *args)
    coordinate = GROUPS[group][2]
    for q in (p, (), (data.draw(coordinate), data.draw(coordinate))):
        for op in ("neg", "on_curve", "compress"):
            assert_agree(f"{group}_{op}", q)


@given(a=GT_ELEMENTS, b=GT_ELEMENTS, e=SCALARS)
@settings(max_examples=30, deadline=None)
def test_differential_gt(a, b, e):
    assert_agree("gt_mul", a, b)
    assert_agree("gt_inv", a)
    assert_agree("gt_pow", a, e)
    assert_agree("final_exp", a)


@given(bad=BAD_GT_ELEMENTS, good=GT_ELEMENTS)
@settings(max_examples=30, deadline=None)
def test_differential_gt_rejects_malformed(bad, good):
    for name, args in (("gt_mul", (bad, good)), ("gt_mul", (good, bad)), ("gt_inv", (bad,)),
                       ("gt_pow", (bad, 3)), ("final_exp", (bad,))):
        assert_agree(name, *args, message=True)


@given(a=EXPONENTS, b=EXPONENTS, infinity=st.sampled_from(["none", "g1", "g2"]))
@settings(max_examples=10, deadline=None)
def test_differential_miller_loop(a, b, infinity):
    p = () if infinity == "g1" else point("g1", a)
    q = () if infinity == "g2" else point("g2", b)
    assert_agree("miller_loop", p, q)


@pytest.mark.parametrize("group", GROUPS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_differential_decompress(group, data):
    # decoder messages reach users as DecodeError text, so they must match too
    size = GROUPS[group][0]
    raw = data.draw(st.binary(min_size=size, max_size=size))
    assert_agree(f"{group}_decompress", raw, message=True)
    # random bytes rarely pass the range check; assembled x components do
    assembled = bytearray(b"".join(data.draw(X_COMPONENTS) for _ in range(size // 48)))
    assembled[0] |= data.draw(st.sampled_from([0x00, 0x80, 0xA0, 0xC0]))
    assert_agree(f"{group}_decompress", bytes(assembled), message=True)
    encoding = bytearray(getattr(load_backend("pure"), f"{group}_compress")(point(group, data.draw(EXPONENTS))))
    assert_agree(f"{group}_decompress", bytes(encoding), message=True)
    # bits 0-2 are the compressed, infinity and sign flags
    bit = data.draw(st.one_of(st.integers(0, 2), st.integers(0, 8 * size - 1)))
    encoding[bit // 8] ^= 0x80 >> (bit % 8)
    assert_agree(f"{group}_decompress", bytes(encoding), message=True)


# --------------------------------------------------------- subgroup checks
# The endomorphism checks against the definitional [r]P == O of the pure
# backend, on points in the subgroup, on raw curve points (cofactor not
# cleared) and on points whose cofactor is cleared but for one small prime,
# so that they sit in a subgroup of order prime * r.

COFACTORS = {"g1": (G1_COFACTOR, (3, 11, 10177, 859267)), "g2": (G2_COFACTOR, (13, 23, 2713, 11953, 262069))}


def curve_point(group, x):
    """A curve point with x coordinate x, or the next x (real part on G2) that has one."""
    pure = load_backend("pure")
    while True:
        if group == "g1":
            y = pure._fp_sqrt((x**3 + B_COEFF) % FIELD_MODULUS)
        else:
            y = pure._f2_sqrt(pure._f2_add(pure._f2_mul(pure._f2_sqr(x), x), B_TWIST))
        if y is not None:
            return (x, y)
        x = (x + 1) % FIELD_MODULUS if group == "g1" else ((x[0] + 1) % FIELD_MODULUS, x[1])


def test_subgroup_check_infinity(backend):
    assert backend.g1_in_subgroup(()) is True
    assert backend.g2_in_subgroup(()) is True


@pytest.mark.parametrize("kind", ["subgroup", "raw", "partly_cleared"])
@pytest.mark.parametrize("group", GROUPS)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_subgroup_check_against_definition(group, kind, data):
    pure = load_backend("pure")
    if kind == "subgroup":
        p = point(group, data.draw(EXPONENTS))
    else:
        p = curve_point(group, data.draw(GROUPS[group][2]))
        if kind == "partly_cleared":
            cofactor, primes = COFACTORS[group]
            prime = data.draw(st.sampled_from(primes))
            assert cofactor % prime == 0
            p = getattr(load_backend("native"), f"{group}_mul")(p, cofactor // prime)
    assert getattr(pure, f"{group}_on_curve")(p)
    expected = not getattr(pure, f"{group}_mul")(p, ORDER)
    # decoding runs the same check: the point back, or the same error
    decoded = p if expected else (ValueError, "point not in the prime-order subgroup")
    encoding = getattr(pure, f"{group}_compress")(p)
    for name in BACKENDS:
        b = load_backend(name)
        assert getattr(b, f"{group}_in_subgroup")(p) is expected, (name, p)
        assert outcome(getattr(b, f"{group}_decompress"), (encoding,), True) == decoded, (name, p)
