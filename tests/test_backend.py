"""Group-law, pairing and encoding checks for both arithmetic backends."""

import functools
import hashlib
import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from otsske.backend import available_backends, load_backend
from otsske.groups import aux_generator, setup
from otsske.params import (
    B_COEFF,
    B_TWIST,
    FIELD_MODULUS,
    G1_COFACTOR,
    G1_GENERATOR,
    G2_AUX_GENERATOR,
    G2_COFACTOR,
    G2_GENERATOR,
    ORDER,
    PAIRING_SHA256,
    TWIST_ORDER,
    X,
    XI,
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


def test_core_compiles_without_warnings():
    # the build's compiler, with every -Wall -Wextra warning as an error
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not shutil.which(cc[0]):
        pytest.skip(f"no compiler {cc[0]}")
    source = Path(__file__).resolve().parent.parent / "src" / "otsske" / "backend" / "_core.c"
    cmd = cc + ["-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-I", sysconfig.get_paths()["include"], str(source)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def traced_names():
    """The backend names perfbench/tracing.py patches, read from that file (perfbench is no package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BACKEND_TIMED + tracing.BACKEND_COUNTED


TRACED = traced_names()
# groups.py, scheme.py and bench.py read these
READ = ("NAME", "GT_ONE", "g1_add", "g2_add", "g1_mul", "g2_mul", "g1_neg",
        "g2_add_many", "g2_mul_many", "g2_sum", "g2_steps", "g2_table", "g2_table_mul", "g1_compress",
        "g2_compress", "g1_decompress", "g2_decompress", "g1_in_subgroup", "g2_in_subgroup", "pairing",
        "multi_miller_loop", "final_exp")
# what only the tests call: pure's references
PURE_REFERENCES = ("gt_pow", "g2_neg", "g1_on_curve", "g2_on_curve")


def test_backend_surface(backend):
    assert [name for name in TRACED + READ if not hasattr(backend, name)] == []


def public_callables(b):
    """The public callables a backend defines itself, not those it imports."""
    def home(obj):  # a partial lives where its function does
        return (obj.func if isinstance(obj, functools.partial) else obj).__module__

    return {name for name in dir(b)
            if not name.startswith("_") and callable(getattr(b, name)) and home(getattr(b, name)) == b.__name__}


def test_backend_exports_only_what_is_called(backend):
    # every public callable is read by the package, traced by perfbench or a test reference
    expected = {name for name in READ + TRACED + PURE_REFERENCES if not name.isupper()}
    if backend.NAME != "pure":
        expected -= set(PURE_REFERENCES)
    assert public_callables(backend) == expected


def test_native_exports_are_a_subset_of_pure():
    native, pure = require("native"), load_backend("pure")
    exported = {name for name in dir(native)
                if not name.startswith("_") and callable(getattr(native, name))}
    assert exported - set(dir(pure)) == set()


def test_native_init_refuses_a_pairing_off_its_pinned_digest(tmp_path):
    # the compiled core, imported next to a params.py whose pinned digest of
    # e(G1, G2) is changed, fails its self-check, and the package uses pure
    native = require("native")
    src = Path(__file__).resolve().parent.parent / "src" / "otsske"
    shutil.copytree(src, tmp_path / "otsske", ignore=shutil.ignore_patterns("__pycache__"))
    params = tmp_path / "otsske" / "params.py"
    params.write_text(params.read_text().replace(PAIRING_SHA256, hashlib.sha256(b"stale").hexdigest()))
    assert Path(native.__file__).name in os.listdir(tmp_path / "otsske" / "backend")
    code = "import otsske.backend as b; print(b.available_backends()); print(b.NATIVE_STATUS)"
    env = {k: v for k, v in os.environ.items() if k != "OTSSKE_BACKEND"}
    env["PYTHONPATH"] = str(tmp_path)
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "('pure',)",
        "native backend failed its init, using pure: AssertionError: compiled pairing self-check failed",
    ]


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
        # a generator reduces k mod r on its comb; its negation is no table
        # base, so this runs the variable-base chain
        assert backend.g1_mul(backend.g1_neg(G1_GENERATOR), ORDER) == ()
        assert backend.g2_mul(load_backend("pure").g2_neg(G2_GENERATOR), ORDER) == ()

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
        assert backend.g2_add(q, load_backend("pure").g2_neg(q)) == ()

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
        trials = 100 if backend.NAME == "native" else 4
        for _ in range(trials):
            a = rnd.randrange(1, ORDER)
            b = rnd.randrange(1, ORDER)
            lhs = backend.pairing(
                backend.g1_mul(G1_GENERATOR, a), backend.g2_mul(G2_GENERATOR, b)
            )
            assert lhs == backend.pairing(backend.g1_mul(G1_GENERATOR, a * b % ORDER), G2_GENERATOR)

    def test_non_degenerate_order_r(self, backend):
        e = backend.pairing(G1_GENERATOR, G2_GENERATOR)
        assert e != backend.GT_ONE
        assert load_backend("pure").gt_pow(e, ORDER) == backend.GT_ONE

    def test_pinned_pairing_digest(self, backend):
        # the value the compiled core checks its own pairing against at import
        e = backend.pairing(G1_GENERATOR, G2_GENERATOR)
        assert hashlib.sha256(b"".join(c.to_bytes(48, "big") for c in e)).hexdigest() == PAIRING_SHA256

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

    @pytest.mark.parametrize("backend", [load_backend("pure")], ids=["pure"])
    def test_gt_pow_refuses_negative_exponents(self, backend):
        e = backend.pairing(G1_GENERATOR, G2_GENERATOR)
        for exponent in (-1, -ORDER):
            with pytest.raises(ValueError, match="^GT exponent must be non-negative$"):
                backend.gt_pow(e, exponent)


@functools.cache
def final_exp_definitions():
    """(f, f^((q^12 - 1) / r)) for a Miller-loop output and two arbitrary
    Fp12 elements, each power taken once with pure's gt_pow."""
    pure, rnd = load_backend("pure"), random.Random(11)
    p = pure.g1_mul(G1_GENERATOR, 987654321)
    q = pure.g2_mul(G2_GENERATOR, 123456789)
    inputs = [pure.multi_miller_loop([(p, q)])]
    inputs += [tuple(rnd.randrange(1, FIELD_MODULUS) for _ in range(12)) for _ in range(2)]
    return [(f, pure.gt_pow(f, (FIELD_MODULUS**12 - 1) // ORDER)) for f in inputs]


def test_final_exponentiation_against_definition(backend):
    """The x-chain final exponentiation must equal the definitional exponent.

    The easy part maps every nonzero Fp12 element into the cyclotomic
    subgroup, so the chain must agree on arbitrary elements too, not only on
    Miller-loop outputs.
    """
    for f, power in final_exp_definitions():
        assert backend.final_exp(f) == power


def test_pairing_is_final_exp_of_miller_loop(backend):
    p = backend.g1_mul(G1_GENERATOR, 31337)
    q = backend.g2_mul(G2_GENERATOR, 42424242)
    assert backend.pairing(p, q) == backend.final_exp(backend.multi_miller_loop([(p, q)]))
    assert backend.multi_miller_loop([]) == backend.multi_miller_loop([((), q), (p, ())]) == backend.GT_ONE


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


def test_aux_generator_properties(backend):
    # the package reads it from params on either backend; the compiled core
    # does not re-export it (pure imports it only for its own tables)
    aux = aux_generator(setup(256, backend=backend.NAME)).second
    if backend.NAME == "native":
        assert not hasattr(backend, "G2_AUX_GENERATOR")
    assert aux == G2_AUX_GENERATOR != ()
    assert aux != G2_GENERATOR
    assert backend.g2_mul(aux, ORDER) == ()
    assert load_backend("pure").g2_on_curve(aux)


AUX_TRIES = 64  # counter 0 succeeds


def derive_aux_generator():
    """The derivation of params.G2_AUX_GENERATOR, as (counter, point).

    For counter = 0, 1, ...: x = (SHA-256 of the seed and of its digest,
    mod q; counter), where the seed is SHA-256 of b"OTSSKE/G2AUX" and the
    8-byte counter.  The first x with a twist point takes its smaller root y
    and clears the cofactor; the result must be finite, have order r and
    differ from G2_GENERATOR.  pure's functions are looked up on the module
    at each call, so a test can patch them.
    """
    pure = load_backend("pure")
    for counter in range(AUX_TRIES):
        seed = hashlib.sha256(b"OTSSKE/G2AUX" + counter.to_bytes(8, "big")).digest()
        wide = seed + hashlib.sha256(seed).digest()
        x = (int.from_bytes(wide, "big") % FIELD_MODULUS, counter % FIELD_MODULUS)
        y = pure._f2_sqrt(pure._rhs(pure._G2, x))
        if y is not None:
            if pure._is_larger(pure._G2, y):
                y = pure._f2_neg(y)
            p = pure._jac_mul(pure._G2, (x, y), G2_COFACTOR)
            if p and not pure._jac_mul(pure._G2, p, ORDER) and p != G2_GENERATOR:
                return counter, p
    raise RuntimeError(f"no auxiliary G2 generator in {AUX_TRIES} tries")


def test_aux_generator_is_derived():
    assert derive_aux_generator() == (0, G2_AUX_GENERATOR)


def test_aux_generator_derivation_is_bounded(monkeypatch):
    # with no square root to find, the derivation gives up instead of
    # looping forever
    pure = load_backend("pure")
    monkeypatch.setattr(pure, "_f2_sqrt", lambda a: None)
    with pytest.raises(RuntimeError, match="no auxiliary G2 generator in 64 tries"):
        derive_aux_generator()


def test_frobenius_constants_against_definition():
    # pure computes them all from W = xi^((q-1)/6) with one exponentiation
    pure, q = load_backend("pure"), FIELD_MODULUS
    assert pure._FROB_V == tuple(pure._f2_pow(XI, j * (q - 1) // 3) for j in range(3))
    assert pure._FROB_W == pure._f2_pow(XI, (q - 1) // 6)
    assert pure._PSI_X == pure._f2_inv(pure._f2_pow(XI, (q - 1) // 3))
    assert pure._PSI_Y == pure._f2_inv(pure._f2_pow(XI, (q - 1) // 2))
    # the identity that the import checks as N(W)^3 == -1: the q^6
    # Frobenius is conjugation
    assert ((q**6 - 1) // 6).bit_length() == 2282
    assert pure._f2_pow(XI, (q**6 - 1) // 6) == (q - 1, 0)
    # and the Frobenius map they define is the q-th power
    rnd = random.Random(12)
    a = pure._gt_nest(tuple(rnd.randrange(q) for _ in range(12)))
    assert pure._f12_frob(a) == pure._f12_pow(a, q)


IMPORT_PROFILE = """
import collections, os, sys
calls = collections.Counter()
def count(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.endswith(os.path.join("backend", "pure.py")):
        calls[frame.f_code.co_name] += 1
sys.setprofile(count)
import otsske, otsske.protocol
sys.setprofile(None)
print(calls["_jac_mul"], calls["_f2_pow"])
"""


def test_import_does_no_scalar_multiplication():
    # the import checks the pinned constants and derives none of them: no
    # [k]P chain, and one Fp2 power for all the Frobenius constants
    import otsske

    env = dict(os.environ, PYTHONPATH=str(Path(otsske.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROFILE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "1"]


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
        other = load_backend("pure").g2_neg(G2_GENERATOR)
        assert backend.g2_decompress(backend.g2_compress(other)) == other
        assert backend.g2_compress(other) != backend.g2_compress(G2_GENERATOR)


# ------------------------------------------------------------ differential
# The compiled backend against the pure reference on identical inputs: the
# results must be equal, or both calls must raise the same exception type.

SCALARS = st.one_of(
    st.sampled_from([0, 1, -1, ORDER, -ORDER, ORDER - 1, ORDER + 1, 2 * ORDER]),
    st.integers(-ORDER, 2 * ORDER),
)
EXPONENTS = st.integers(0, ORDER - 1)
NONZERO = st.integers(1, ORDER - 1)
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


GT_ELEMENTS = st.one_of(
    st.builds(lambda a: load_backend("native").pairing(G1_GENERATOR, point("g2", a)), EXPONENTS),
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


def replaced(item, path, value):
    """``item`` with the part at ``path`` (a tuple of indices) replaced by ``value``."""
    if not path:
        return value
    parts = list(item)
    parts[path[0]] = replaced(item[path[0]], path[1:], value)
    return tuple(parts)


def part(item, path):
    return part(item[path[0]], path[1:]) if path else item


BAD_PARTS = st.one_of(
    st.integers(FIELD_MODULUS, 2**400),
    st.integers(-(2**400), -1),
    st.sampled_from([None, 5, 1.5, "1", "ab", b"\x01", (1,), (1, 2, 3)]),
)
# the Fp coordinates of a point, and every part above them
COORDINATE_PATHS = {"g1": [(0,), (1,)], "g2": [(0, 0), (0, 1), (1, 0), (1, 1)]}
PART_PATHS = {"g1": [(), (0,), (1,)], "g2": [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]}


def malformed(group, p, data):
    """Copies of the point p that the point boundary must refuse, or read as it stands.

    One item, three items, a coordinate plus q, a negative coordinate, and
    one part replaced by a bad value (which may leave a valid point, such as
    a coordinate 5 or None for the point at infinity).
    """
    path = data.draw(st.sampled_from(COORDINATE_PATHS[group]))
    c = part(p, path)
    return [p[:1], p + (p[0],), replaced(p, path, c + FIELD_MODULUS), replaced(p, path, -1 - c),
            replaced(p, data.draw(st.sampled_from(PART_PATHS[group])), data.draw(BAD_PARTS))]


@pytest.mark.parametrize("group", GROUPS)
@given(a=EXPONENTS, k=SCALARS, data=st.data())
@settings(max_examples=40, deadline=None)
def test_differential_mul(group, a, k, data):
    assert_agree(f"{group}_mul", point(group, a), k)
    bases = [b for g, b in TABLE_BASES.values() if g == group]
    for p in [point(group, data.draw(NONZERO))] + bases:
        for bad in malformed(group, p, data):
            assert_agree(f"{group}_mul", bad, k, message=True)


@pytest.mark.parametrize("group", GROUPS)
def test_differential_add_same_x_off_curve(group):
    # off the curve, equal x with unequal y sums to infinity and P + P doubles, as on it
    p = GROUPS[group][1]
    off = replaced(p, (1,), 5 if group == "g1" else (5, 0))
    for args in ((off, p), (p, off), (off, off)):
        assert_agree(f"{group}_add", *args)


# the one-point functions both backends export, besides the subgroup check
UNARY_OPS = {"g1": ("neg", "compress"), "g2": ("compress",)}


def test_differential_g2_larger_root_at_zero_c1():
    # G2 compares y's c1 and, where c1 = 0, its c0: a case random points
    # almost never reach.  compress does not check that the point is on the curve.
    x, half = G2_GENERATOR[0], FIELD_MODULUS // 2
    cases = {(half, 0): False, (half + 1, 0): True, (0, half): False, (0, half + 1): True, (0, 0): False}
    for y, larger in cases.items():
        assert_agree("g2_compress", (x, y))
        assert bool(load_backend("pure").g2_compress((x, y))[0] & 0x20) is larger, y


@pytest.mark.parametrize("group", GROUPS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_differential_point_ops(group, data):
    pure = load_backend("pure")
    p = point(group, data.draw(NONZERO))
    s = point(group, data.draw(EXPONENTS))
    for args in ((p, s), (p, p), (p, getattr(pure, f"{group}_neg")(p)), (p, ()), ((), s)):
        assert_agree(f"{group}_add", *args)
    coordinate = GROUPS[group][2]
    for q in (p, (), (data.draw(coordinate), data.draw(coordinate))):
        for op in UNARY_OPS[group]:
            assert_agree(f"{group}_{op}", q)
    # one point boundary: the same result, or the same exception and message
    for bad in malformed(group, p, data):
        for args in ((bad, s), (s, bad), ((), bad)):
            assert_agree(f"{group}_add", *args, message=True)
        for op in UNARY_OPS[group] + ("in_subgroup",):
            assert_agree(f"{group}_{op}", bad, message=True)


@given(a=GT_ELEMENTS, b=GT_ELEMENTS)
@settings(max_examples=30, deadline=None)
def test_differential_gt(a, b):
    assert_agree("gt_mul", a, b)
    assert_agree("final_exp", a)


@given(bad=BAD_GT_ELEMENTS, good=GT_ELEMENTS)
@settings(max_examples=30, deadline=None)
def test_differential_gt_rejects_malformed(bad, good):
    for name, args in (("gt_mul", (bad, good)), ("gt_mul", (good, bad)), ("final_exp", (bad,))):
        assert_agree(name, *args, message=True)


@given(a=EXPONENTS, b=EXPONENTS, infinity=st.sampled_from(["none", "g1", "g2"]))
@settings(max_examples=10, deadline=None)
def test_differential_miller_loop(a, b, infinity):
    p = () if infinity == "g1" else point("g1", a)
    q = () if infinity == "g2" else point("g2", b)
    assert_agree("multi_miller_loop", [(p, q)])


# the right arguments whose Miller-loop lines both backends read from a table
LINE_BASES = (G2_GENERATOR, load_backend("pure").G2_AUX_GENERATOR)


def miller_terms(data):
    """0-4 (P, Q) terms, with points at infinity, negated P, the table bases
    as Q and a repeated term drawn in."""
    terms = []
    for _ in range(data.draw(st.integers(0, 3))):
        infinity = data.draw(st.sampled_from(["none", "none", "g1", "g2"]))
        p = () if infinity == "g1" else point("g1", data.draw(EXPONENTS))
        if p and data.draw(st.booleans()):
            p = load_backend("pure").g1_neg(p)
        if infinity == "g2":
            q = ()
        elif data.draw(st.booleans()):
            q = data.draw(st.sampled_from(LINE_BASES))
        else:
            q = point("g2", data.draw(EXPONENTS))
        terms.append((p, q))
    if terms and data.draw(st.booleans()):
        terms.append(data.draw(st.sampled_from(terms)))
    return terms


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_differential_multi_miller_loop(data):
    # both run the same affine loop, so even the Miller values are equal
    assert_agree("multi_miller_loop", miller_terms(data))


@pytest.mark.parametrize("name", BACKENDS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_multi_miller_loop_against_definition(name, data):
    b = load_backend(name)
    terms = miller_terms(data)
    product = b.GT_ONE
    for p, q in terms:
        product = b.gt_mul(product, b.pairing(p, q))
    assert b.final_exp(b.multi_miller_loop(terms)) == product
    if terms:
        # e(-P, Q) e(P, Q) = 1, the form in which target elements are compared
        p, q = terms[0]
        assert b.final_exp(b.multi_miller_loop([(b.g1_neg(p), q), (p, q)])) == b.GT_ONE


# a term, a point, an Fp2 coordinate of Q, or an Fp coordinate
TERM_PATHS = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1), (1, 0, 0), (1, 1, 1)]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_differential_multi_miller_loop_rejects_malformed(data):
    good = (point("g1", data.draw(NONZERO)), point("g2", data.draw(NONZERO)))
    path = data.draw(st.sampled_from(TERM_PATHS))
    bad = replaced(good, path, data.draw(BAD_PARTS))
    pure = load_backend("pure")
    for pairs in ([bad], [good, bad]):
        assert_agree("multi_miller_loop", pairs)
        # a value that is not a coordinate is refused, never a crash; some
        # replacements (None as a point, 5 as a coordinate) stay valid input
        result = outcome(pure.multi_miller_loop, (pairs,), False)
        assert result in (ValueError, TypeError) or (isinstance(result, tuple) and len(result) == 12)
    if path:
        for name in BACKENDS:
            b = load_backend(name)
            one_term = outcome(lambda p, q: b.final_exp(b.multi_miller_loop([(p, q)])), bad, False)
            assert outcome(b.pairing, bad, False) == one_term


def fixed_line_terms():
    """A mix of table and variable Q: a negated P, an infinite P on a table
    base, and a table term and a variable term each repeated."""
    pure = load_backend("pure")
    aux = pure.G2_AUX_GENERATOR
    p5, p7 = pure.g1_mul(G1_GENERATOR, 5), pure.g1_mul(G1_GENERATOR, 7)
    q11 = pure.g2_mul(G2_GENERATOR, 11)
    return [(pure.g1_neg(p5), G2_GENERATOR), (p7, aux), (p5, q11), ((), aux), (p7, aux), (p5, q11)]


# SHA-256 of multi_miller_loop(fixed_line_terms()), its 12 coefficients as
# 48-byte big-endian integers: the value of the plain affine loop, which
# computes every line from T and multiplies it in densely.  Table lines,
# sparse products and shared inversions must leave every Miller value as is.
FIXED_LINE_MILLER_SHA256 = "ff4913bf0be9803960a8661839caf7b0a61b0065d06569d945d3f9b036bba78e"


def test_multi_miller_loop_golden(backend):
    f = backend.multi_miller_loop(fixed_line_terms())
    assert hashlib.sha256(b"".join(c.to_bytes(48, "big") for c in f)).hexdigest() == FIXED_LINE_MILLER_SHA256


@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_fixed_lines_equal_computed_lines(data):
    # with the registry emptied, pure computes the table bases' lines from T
    # like any other Q: the Miller values must not change
    pure = load_backend("pure")
    terms = miller_terms(data) + [(point("g1", data.draw(NONZERO)), data.draw(st.sampled_from(LINE_BASES)))]
    tabled = pure.multi_miller_loop(terms)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pure, "_LINE_BASES", set())
        assert pure.multi_miller_loop(terms) == tabled


@pytest.mark.parametrize("base", LINE_BASES)
def test_fixed_line_pairing_against_definition(backend, base):
    # e(P, Q) = e([k]P, [1/k]Q), and [1/k]Q is no table base
    k = 0x1234567
    p = backend.g1_mul(G1_GENERATOR, 99)
    moved = (backend.g1_mul(p, k), backend.g2_mul(base, pow(k, -1, ORDER)))
    assert backend.pairing(p, base) == backend.pairing(*moved)
    assert backend.final_exp(backend.multi_miller_loop([(p, base), (backend.g1_neg(moved[0]), moved[1])])) \
        == backend.GT_ONE


def test_sparse_products_against_dense():
    # the line product and the squaring against the dense Fp12 multiplication
    pure = load_backend("pure")
    rng = random.Random(5)
    fp2 = lambda: (rng.randrange(FIELD_MODULUS), rng.randrange(FIELD_MODULUS))  # noqa: E731
    zero = (0, 0)
    for _ in range(5):
        f = tuple(tuple(fp2() for _ in range(3)) for _ in range(2))
        a, b, c = fp2(), fp2(), rng.randrange(FIELD_MODULUS)
        line = ((a, b, zero), (zero, (c, 0), zero))
        assert pure._f12_mul_line(f, a, b, c) == pure._f12_mul(f, line)
        assert pure._f12_sqr(f) == pure._f12_mul(f, f)


def test_multi_miller_loop_rejects_non_sequences_and_zero_slopes(backend):
    for pairs in (5, None, [5], [None]):
        with pytest.raises(TypeError):
            backend.multi_miller_loop(pairs)
    # y = 0 makes the first tangent vertical, next to a term on a line table
    flat = (G2_GENERATOR[0], (0, 0))
    with pytest.raises(ValueError, match="a line slope has a zero denominator"):
        backend.multi_miller_loop([(G1_GENERATOR, G2_GENERATOR), (G1_GENERATOR, flat)])


def test_native_export_refuses_a_wrong_argument_count():
    native = require("native")
    with pytest.raises(TypeError, match=r"^g2_add\(\) takes exactly 2 arguments \(1 given\)$"):
        native.g2_add(G2_GENERATOR)


def test_native_multi_miller_loop_refuses_a_term_that_is_not_a_pair():
    native = require("native")
    with pytest.raises(ValueError, match=r"^a pairing term must be a \(P, Q\) pair$"):
        native.multi_miller_loop([(G1_GENERATOR, G2_GENERATOR, G1_GENERATOR)])


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


# ------------------------------------------------------------ square roots
# Both backends take an Fp2 square root by the inverse-square-root form.  It
# is checked against squaring, against Euler's criterion on the norm (a is a
# square in Fp2 iff N(a) is one in Fp, since q = 3 mod 4), and against the
# earlier algorithm below, whose root it must match up to sign.


def reference_f2_sqrt(a):
    """A root of a by Fp roots of N(a) and of (a0 +- s)/2, or None."""
    q = FIELD_MODULUS

    def fp_sqrt(c):
        s = pow(c, (q + 1) // 4, q)
        return s if s * s % q == c % q else None

    a0, a1 = a
    if a1 == 0:
        s = fp_sqrt(a0)
        if s is not None:
            return (s, 0)
        s = fp_sqrt(-a0 % q)
        return None if s is None else (0, s)
    s = fp_sqrt((a0 * a0 + a1 * a1) % q)
    if s is None:
        return None
    inv2 = (q + 1) // 2
    x0 = fp_sqrt((a0 + s) * inv2 % q)
    if x0 is None:
        x0 = fp_sqrt((a0 - s) * inv2 % q)
        if x0 is None:
            return None
    return (x0, a1 * pow(2 * x0, -1, q) % q)


F2 = st.tuples(FP, FP)
F2_SQRT_INPUTS = st.one_of(
    F2,
    F2.map(lambda x: load_backend("pure")._f2_sqr(x)),  # squares
    F2.filter(any).map(lambda x: load_backend("pure")._f2_mul(XI, load_backend("pure")._f2_sqr(x))),  # non-squares
    st.tuples(FP, st.just(0)),
    st.tuples(st.just(0), FP),
    st.sampled_from([(0, 0), (1, 0), (FIELD_MODULUS - 1, 0), (0, 1), (0, FIELD_MODULUS - 1), (4, 4)]),
)


@given(a=F2_SQRT_INPUTS)
@settings(max_examples=150, deadline=None)
def test_f2_sqrt(a):
    pure, q = load_backend("pure"), FIELD_MODULUS
    root = pure._f2_sqrt(a)
    expected = reference_f2_sqrt(a)
    norm_is_square = pow((a[0] ** 2 + a[1] ** 2) % q, (q - 1) // 2, q) != q - 1
    assert (root is not None) == (expected is not None) == norm_is_square
    if root is not None:
        assert pure._f2_sqr(root) == a
        assert root in (expected, pure._f2_neg(expected))
    assert [load_backend(name)._f2_sqrt(a) for name in BACKENDS] == [root] * len(BACKENDS)


# --------------------------------------------------------- subgroup checks
# Scalar multiplication and the endomorphism checks against definitions
# that share no code with the backends' Jacobian chains: [k]P by affine
# double-and-add over pure's g1_add/g2_add, and [r]P == O through it.  The
# points are in the subgroup, raw curve points (cofactor not cleared), or
# points whose cofactor is cleared but for one small prime, so that they sit
# in a subgroup of order prime * r.

COFACTORS = {"g1": (G1_COFACTOR, (3, 11, 10177, 859267)), "g2": (G2_COFACTOR, (13, 23, 2713, 11953, 262069))}
KINDS = ["subgroup", "raw", "partly_cleared"]


def affine_mul(group, p, k):
    """[k]P by affine double-and-add, high bit first, one g*_add per step."""
    pure = load_backend("pure")
    add = getattr(pure, f"{group}_add")
    if k < 0:
        p, k = getattr(pure, f"{group}_neg")(p), -k
    acc = ()
    for bit in bin(k)[2:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, p)
    return acc


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


def sample_point(group, kind, data):
    if kind == "subgroup":
        return point(group, data.draw(EXPONENTS))
    p = curve_point(group, data.draw(GROUPS[group][2]))
    if kind == "partly_cleared":
        cofactor, primes = COFACTORS[group]
        prime = data.draw(st.sampled_from(primes))
        assert cofactor % prime == 0
        p = affine_mul(group, p, cofactor // prime)
    assert getattr(load_backend("pure"), f"{group}_on_curve")(p)
    return p


# the chains' edge scalars: 0, +-1, around r, and the 507-bit G2 cofactor
MUL_SCALARS = st.one_of(
    st.sampled_from([0, 1, -1, 2, ORDER - 1, ORDER, ORDER + 1, -ORDER, G2_COFACTOR, -G2_COFACTOR]),
    st.integers(-(2**256), 2**256),
)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("group", GROUPS)
@given(data=st.data(), k=MUL_SCALARS)
@settings(max_examples=8, deadline=None)
def test_mul_against_definition(group, kind, data, k):
    p = sample_point(group, kind, data)
    expected = affine_mul(group, p, k)
    for name in BACKENDS:
        mul = getattr(load_backend(name), f"{group}_mul")
        assert mul(p, k) == expected, (name, p, k)
        assert mul((), k) == ()


# ------------------------------------------------------------ fixed bases
# g*_mul takes a comb table for the three constant generators and reduces k
# mod r there; every other point takes the windowed chain.  Both paths are
# checked against affine_mul, which shares no code with either.

TABLE_BASES = {"g1": ("g1", G1_GENERATOR), "g2": ("g2", G2_GENERATOR),
               "aux": ("g2", load_backend("pure").G2_AUX_GENERATOR)}


def test_table_bases_have_order_r():
    for group, base in TABLE_BASES.values():
        assert affine_mul(group, base, ORDER) == ()
        assert affine_mul(group, base, ORDER - 1) == affine_mul(group, base, -1) != ()


@pytest.mark.parametrize("base", TABLE_BASES)
@given(k=MUL_SCALARS)
@settings(max_examples=8, deadline=None)
def test_table_base_mul_against_definition(base, k):
    group, p = TABLE_BASES[base]
    expected = affine_mul(group, p, k)
    for name in BACKENDS:
        assert getattr(load_backend(name), f"{group}_mul")(p, k) == expected, (name, base, k)


# The GLS comb reads k mod r as digits in base m, m = |X| on G2 and X^2 on
# G1: its edge scalars are the digit boundaries.
RADIX = {"g1": X**2, "g2": abs(X)}


@functools.cache
def digit_boundary_case(base):
    """The digit-boundary scalars of a comb base, and [k]P for each by affine_mul."""
    group, p = TABLE_BASES[base]
    m = RADIX[group]
    ks = [0, 1, m - 1, m, m + 1, m**2 - 1, m**2, m**3, ORDER - 1, ORDER, ORDER + 1, 2**255 - 1]
    ks += [-1, -m, -(m**3), -(2**255 - 1)]
    return ks, [affine_mul(group, p, k) for k in ks]


@pytest.mark.parametrize("base", TABLE_BASES)
def test_comb_digit_boundaries_against_definition(backend, base):
    group, p = TABLE_BASES[base]
    ks, expected = digit_boundary_case(base)
    assert [getattr(backend, f"{group}_mul")(p, k) for k in ks] == expected
    if group == "g2":
        # g2_mul_many reads the same digits from its shifted tables
        assert backend.g2_mul_many(p, ks) == expected


def test_comb_runs_d_columns(monkeypatch):
    # one doubling per column, shared by every digit's comb: d = 11 on G2
    # and 22 on G1 (6 teeth on 64- and 128-bit digits).  g2_mul_many on a
    # generator makes no doubling: its shifted tables cost d - 1 = 10
    # batched doublings once, and then a call of any length is 6 levels of
    # _sums (4 for the 11 entries of each digit, 2 for the 4 digits)
    pure = load_backend("pure")
    for group, p in TABLE_BASES.values():
        getattr(pure, f"{group}_mul")(p, 1)  # the tables are built on first use
    calls = {}

    def counted(name):
        real = getattr(pure, name)

        def spy(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(pure, name, spy)

    counted("_jac_double")
    counted("_sums")
    for group, p in TABLE_BASES.values():
        calls.clear()
        getattr(pure, f"{group}_mul")(p, ORDER - 1)
        assert calls == {"_jac_double": {"g1": 22, "g2": 11}[group]}
    pure._comb_shifted.cache_clear()
    calls.clear()
    pure.g2_mul_many(G2_GENERATOR, [])
    assert calls == {"_sums": 10}
    for count in (1, 2, 33):
        calls.clear()
        pure.g2_mul_many(G2_GENERATOR, [ORDER - 1 - i for i in range(count)])
        assert calls == {"_sums": 6}, count


def test_lane_sums_keep_lanes_apart():
    # lanes of odd width, with P + P, P - P and infinity inside a lane: each
    # lane's sum is its own left fold, whatever its neighbours hold
    pure = load_backend("pure")
    p, q = pure.g2_mul(G2_GENERATOR, 5), pure.g2_mul(G2_GENERATOR, 7)
    lanes = [[p, p, pure.g2_neg(p)], [(), q, p], [pure.g2_neg(p), p, ()], [q, q, q]]
    flat = [pure._point(pure._G2, x) for lane in lanes for x in lane]
    assert pure._lane_sums(pure._G2, flat, 3) == [fold_add(pure, lane) for lane in lanes]


def rebuilt(item, kind):
    """item with every tuple replaced by a list, or with fresh int objects."""
    if isinstance(item, int):
        return int.from_bytes(item.to_bytes(48, "big"), "big")
    parts = [rebuilt(c, kind) for c in item]
    return parts if kind == "list" else tuple(parts)


@pytest.mark.parametrize("base", TABLE_BASES)
def test_table_base_found_by_value(backend, base):
    group, p = TABLE_BASES[base]
    mul = getattr(backend, f"{group}_mul")
    decoded = getattr(backend, f"{group}_decompress")(getattr(backend, f"{group}_compress")(p))
    k = random.Random(base).randrange(ORDER)
    expected = mul(p, k)
    assert decoded == p
    for q in (rebuilt(p, "tuple"), rebuilt(p, "list"), decoded):
        assert mul(q, k) == expected
        assert mul(q, k + ORDER) == mul(q, k - ORDER) == expected


# ------------------------------------------------------------ per-point tables
# g2_table builds the comb of any G2 point of order r, and g2_table_mul
# reads it: a public key's h and g1 take the generators' fixed-base path
# this way.  A table's multiples must be g2_mul's, at the digit boundaries
# of base m = |X|, around r, at 2^255 - 1 and on negative scalars.

M = abs(X)
TABLE_SCALARS = [0, 1, M - 1, M, M + 1, ORDER - 1, ORDER, 2**255 - 1, -1, -M, -(ORDER + 1), -(2**255 - 1)]


def table_mul(b, p, k):
    return b.g2_table_mul(b.g2_table(p), k)


def agree_on(fn, *args):
    """fn(backend, *args) has one outcome, message included, on both backends."""
    native, pure = load_backend("native"), load_backend("pure")
    assert outcome(fn, (native, *args), True) == outcome(fn, (pure, *args), True), args


@given(a=NONZERO, k=MUL_SCALARS)
@settings(max_examples=5, deadline=None)
def test_table_mul_against_g2_mul(a, k):
    p = point("g2", a)
    for name in BACKENDS:
        b = load_backend(name)
        table, scalars = b.g2_table(p), TABLE_SCALARS + [k]
        assert [b.g2_table_mul(table, c) for c in scalars] == [b.g2_mul(p, c) for c in scalars], name


def test_table_of_infinity_and_refused_points(backend):
    # a public key's h and g1 are never infinity, so neither is a table's point
    with pytest.raises(ValueError, match="^the point at infinity has no comb table$"):
        backend.g2_table(())
    outside = curve_point("g2", (5, 0))  # on the twist, but not of order r
    assert affine_mul("g2", outside, ORDER) != ()
    off_curve = replaced(G2_GENERATOR, (1, 0), 5)
    for p in (outside, off_curve):
        with pytest.raises(ValueError, match="^point not in the prime-order subgroup$"):
            backend.g2_table(p)


def test_table_refuses_what_is_not_a_table():
    # the other backend's table too: both name it _G2Table
    p = point("g2", 5)
    for not_table in (5, None, (), p, [p], "ab", b"\x01"):
        assert_agree("g2_table_mul", not_table, 3, message=True)
    native, pure = load_backend("native"), load_backend("pure")
    for b, other in ((native, pure), (pure, native)):
        with pytest.raises(TypeError, match="^expected a G2 table, not _G2Table$"):
            b.g2_table_mul(other.g2_table(p), 1)
    for k in (1.5, None, "3", [1]):
        agree_on(table_mul, p, k)


def scalars_with_top_nibble(top, rnd):
    """A 253-bit scalar whose largest 4-bit window is top, at a random place."""
    nibs = [1] + [rnd.randrange(top + 1) for _ in range(63)]
    nibs[rnd.randrange(1, 64)] = top
    return int("".join(f"{n:x}" for n in nibs), 16)


@pytest.mark.parametrize("group", GROUPS)
def test_small_and_partial_window_scalars_against_definition(group):
    # a non-table point: the chain builds its window only up to the largest nibble
    pure = load_backend("pure")
    p = getattr(pure, f"{group}_neg")(GROUPS[group][1])
    rnd = random.Random(group)
    scalars = list(range(1, 41)) + [scalars_with_top_nibble(top, rnd) for top in range(1, 16)]
    for k in scalars:
        expected = affine_mul(group, p, k)
        for name in BACKENDS:
            mul = getattr(load_backend(name), f"{group}_mul")
            assert mul(p, k) == expected, (name, k)
            assert mul(p, -k) == getattr(pure, f"{group}_neg")(expected), (name, k)


@pytest.mark.parametrize("y", [2, FIELD_MODULUS - 2], ids=["y=2", "y=-2"])
def test_g1_order_three_points(backend, y):
    # (0, +-2) has order 3, so every chain from it passes through infinity
    p = (0, y)
    assert load_backend("pure").g1_on_curve(p)
    assert backend.g1_in_subgroup(p) is False
    with pytest.raises(ValueError, match="^point not in the prime-order subgroup$"):
        backend.g1_decompress(load_backend("pure").g1_compress(p))
    assert backend.g1_mul(p, 3) == ()
    assert backend.g1_mul(p, 2) == backend.g1_neg(p)
    for k in (4, ORDER, -ORDER, 2**255 + 1):
        assert backend.g1_mul(p, k) == affine_mul("g1", p, k)


@pytest.mark.parametrize("group", GROUPS)
def test_on_curve_rejects_a_moved_y(group):
    # decompression solves the same x^3 + b; every other test sees only True
    on_curve = getattr(load_backend("pure"), f"{group}_on_curve")
    p = GROUPS[group][1]
    path = (1,) if group == "g1" else (1, 0)  # y, or its c0
    assert on_curve(p) is True
    assert on_curve(replaced(p, path, part(p, path) + 1)) is False
    assert on_curve(()) is True


def test_subgroup_check_infinity(backend):
    assert backend.g1_in_subgroup(()) is True
    assert backend.g2_in_subgroup(()) is True


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("group", GROUPS)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_subgroup_check_against_definition(group, kind, data):
    p = sample_point(group, kind, data)
    expected = not affine_mul(group, p, ORDER)
    # decoding runs the same check: the point back, or the same error
    decoded = p if expected else (ValueError, "point not in the prime-order subgroup")
    encoding = getattr(load_backend("pure"), f"{group}_compress")(p)
    for name in BACKENDS:
        b = load_backend(name)
        assert getattr(b, f"{group}_in_subgroup")(p) is expected, (name, p)
        assert outcome(getattr(b, f"{group}_decompress"), (encoding,), True) == decoded, (name, p)


# ------------------------------------------------------------ batched G2
# g2_mul_many, g2_add_many, g2_sum and g2_steps share one inversion across
# their elements.  Each must equal one g2_mul or g2_add per element (g2_sum:
# the left fold of g2_add over its points; g2_steps: g2_mul by t, repeated)
# in both backends, and the two backends must refuse the same input with
# the same exception.

BATCH = ("g2_mul_many", "g2_add_many", "g2_sum", "g2_steps")
TABLE = ("g2_table", "g2_table_mul")
BATCH_SCALARS = st.lists(
    st.one_of(st.sampled_from([0, 1, -1, ORDER, -ORDER, ORDER + 1, 2 * ORDER, -ORDER - 5]),
              st.integers(-(2**256), 2**256)),
    max_size=4,
)


@given(data=st.data(), ks=BATCH_SCALARS)
@settings(max_examples=8, deadline=None)
def test_g2_mul_many_against_g2_mul(data, ks):
    # the two comb bases, a point with no table, and infinity
    aux = load_backend("pure").G2_AUX_GENERATOR
    for p in (G2_GENERATOR, aux, point("g2", data.draw(NONZERO)), ()):
        for name in BACKENDS:
            b = load_backend(name)
            assert b.g2_mul_many(p, ks) == [b.g2_mul(p, k) for k in ks], (name, p, ks)
        assert_agree("g2_mul_many", p, ks)


STEP_FACTORS = st.one_of(st.sampled_from([0, 1, -1, 2, 4, -4, 65536, ORDER, ORDER + 1]),
                         st.integers(-(2**70), 2**70))


def repeated_mul(b, p, t, count):
    out = [p]
    while len(out) < count:
        out.append(b.g2_mul(out[-1], t))
    return out[:count]


@given(data=st.data(), t=STEP_FACTORS, count=st.integers(0, 5))
@settings(max_examples=10, deadline=None)
def test_g2_steps_against_g2_mul(data, t, count):
    # a comb base, a subgroup point, a curve point outside the subgroup, and infinity
    for p in (G2_GENERATOR, point("g2", data.draw(NONZERO)), curve_point("g2", data.draw(st.tuples(FP, FP))), ()):
        for name in BACKENDS:
            b = load_backend(name)
            assert b.g2_steps(p, t, count) == repeated_mul(b, p, t, count), (name, p, t, count)


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_g2_add_many_against_g2_add(data):
    pure = load_backend("pure")
    p, s = point("g2", data.draw(NONZERO)), point("g2", data.draw(EXPONENTS))
    off = replaced(p, (1,), (5, 0))  # p's x off the curve: equal-x sums as g2_add does them
    # P + P, P + (-P), P + O, equal x with unequal y, and unrelated points
    summands = st.sampled_from([p, s, (), pure.g2_neg(p), off])
    pairs = data.draw(st.lists(st.tuples(summands, summands), max_size=6))
    ps, qs = [a for a, _ in pairs], [c for _, c in pairs]
    for name in BACKENDS:
        b = load_backend(name)
        assert b.g2_add_many(ps, qs) == [b.g2_add(a, c) for a, c in pairs], (name, pairs)
    assert_agree("g2_add_many", ps, qs)


def fold_add(b, ps):
    return functools.reduce(b.g2_add, ps, ())


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_g2_sum_against_g2_add(data):
    pure = load_backend("pure")
    p, s = point("g2", data.draw(NONZERO)), point("g2", data.draw(EXPONENTS))
    # repeats (a doubling), P with -P (a cancellation), infinity and unrelated points
    ps = data.draw(st.lists(st.sampled_from([p, s, (), pure.g2_neg(p)]), max_size=7))
    for name in BACKENDS:
        b = load_backend(name)
        assert b.g2_sum(ps) == fold_add(b, ps), (name, ps)
    assert_agree("g2_sum", ps)


def test_g2_sum_edge_cases(backend):
    p, s = point("g2", 5), point("g2", 9)
    minus_p = load_backend("pure").g2_neg(p)
    cases = [[], [p], [()], [(), ()], [p, p], [p, minus_p], [p, s, minus_p], [p, (), p, minus_p, s],
             batch_case(32)[2]]
    for ps in cases:
        assert backend.g2_sum(ps) == fold_add(backend, ps), ps
    assert backend.g2_sum(iter([p, s])) == backend.g2_add(p, s)  # any iterable, as g2_add_many


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_g2_sum_off_curve_backends_agree(data):
    # off the curve the group law is not associative, so the sum depends on
    # its order: both backends add pairwise, level by level
    pure = load_backend("pure")
    p = point("g2", data.draw(NONZERO))
    off = replaced(p, (1,), (5, 0))  # p's x, a y off the curve
    other = replaced(point("g2", data.draw(NONZERO)), (0,), (data.draw(FP), 0))
    summands = st.sampled_from([p, off, pure.g2_neg(off), other, ()])
    assert_agree("g2_sum", data.draw(st.lists(summands, max_size=9)))


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_g2_batches_reject_malformed(data):
    p = point("g2", data.draw(NONZERO))
    for bad in malformed("g2", p, data):
        assert_agree("g2_add_many", [p, bad], [p, p], message=True)
        assert_agree("g2_add_many", [p, p], [bad, p], message=True)
        assert_agree("g2_mul_many", bad, [1, 2], message=True)
        # the point is read before the scalars
        assert_agree("g2_mul_many", bad, [3, 1.5], message=True)
        assert_agree("g2_sum", [p, bad, p], message=True)
        assert_agree("g2_sum", [bad], message=True)
        # the point is read before t and count
        assert_agree("g2_steps", bad, 2, 3, message=True)
        assert_agree("g2_steps", bad, 1.5, -1, message=True)
        # a table's point is checked as every other point is
        agree_on(table_mul, bad, 5)
    for args in (([p], []), ([], [p]), ([p, p], [p]), (5, [p]), ([p], None)):
        assert_agree("g2_add_many", *args, message=True)
    for ks in (5, None, [1, "2"], [2**300, None]):
        assert_agree("g2_mul_many", p, ks, message=True)
    for ps in (5, None, "ab", p):
        assert_agree("g2_sum", ps, message=True)
    for t, count in ((1.5, 2), (None, 2), (2, 1.5), (2, "3"), (2, -1), (0, -1), (1.5, -1)):
        assert_agree("g2_steps", p, t, count, message=True)


@functools.cache
def batch_case(count):
    """count generator scalars and small scalars, with the points they give, one g2_mul each."""
    rnd = random.Random(count)
    ks = [rnd.randrange(ORDER) for _ in range(count)]
    small = [rnd.randrange(-50, 50) for _ in range(count)]
    points = [point("g2", k) for k in ks]
    sums = [load_backend("native").g2_add(a, b) for a, b in zip(points, points[::-1])]
    return ks, small, points, [point("g2", 7 * k) for k in small], sums, point("g2", sum(ks))


@pytest.mark.parametrize("count", [0, 1, 65, 300])
def test_g2_batches_of_any_length(backend, count):
    # the compiled core allocates its batch per call, past any fixed table size
    ks, small, points, small_points, sums, total = batch_case(count)
    assert backend.g2_mul_many(G2_GENERATOR, ks) == points
    assert backend.g2_mul_many(point("g2", 7), small) == small_points  # no table: a chain per scalar
    assert backend.g2_add_many(points, points[::-1]) == sums
    assert backend.g2_sum(points) == total
    assert backend.g2_steps(G2_GENERATOR, 3, count) == [point("g2", pow(3, i, ORDER)) for i in range(count)]


def test_g2_batches_call_no_public_backend_function(backend, monkeypatch):
    # perfbench's tracer times the public functions by name, so a batch, or a
    # per-point table, must not show up as calls of them
    p, p10, p20 = point("g2", 5), point("g2", 10), point("g2", 20)
    minus_p = load_backend("pure").g2_neg(p)

    def forbidden(*args):
        raise AssertionError("a batch called a public backend function")

    for name in TRACED + READ:
        if callable(getattr(backend, name)) and name not in BATCH + TABLE:
            monkeypatch.setattr(backend, name, forbidden)
    assert backend.g2_mul_many(G2_GENERATOR, [5, -5, 0]) == [p, minus_p, ()]
    assert backend.g2_mul_many(p, [2]) == [p10]
    assert backend.g2_add_many([p, p, ()], [p, (), ()]) == [p10, p, ()]
    assert backend.g2_sum([p, (), p, minus_p, p]) == p10
    assert backend.g2_steps(p, 2, 3) == [p, p10, p20]
    assert backend.g2_steps(p10, -2, 2) == [p10, load_backend("pure").g2_neg(p20)]
    assert backend.g2_table_mul(backend.g2_table(p), -4) == load_backend("pure").g2_neg(p20)
