"""Signature-scheme tests: oracles first, then behaviour and codecs."""

import dataclasses
import gc
import hashlib
import math
import struct
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from otsske import scheme
from otsske.backend import available_backends, load_backend
from otsske.errors import DecodeError, ParameterError, RepresentationError, UnsupportedSecurityLevelError
from otsske.groups import (
    DeterministicRandomness,
    pair,
    pairing_counter,
    reset_pairing_counter,
    setup,
)
from otsske.params import G2_AUX_GENERATOR, G2_GENERATOR, ORDER
from otsske.scheme import CompressedSignature, FullSignature, SchemeParams


def make_session(params, keys, session=0, seed=33):
    pk, master = keys
    return scheme.gen_session(pk, master, params, session, DeterministicRandomness(seed))


def session_randomness(params, seed=33):
    """The r and betas that make_session(..., seed=seed) drew, replayed."""
    return scheme._session_randomness(params, DeterministicRandomness(seed))


@pytest.fixture()
def pairing_work(monkeypatch):
    """Spies on every backend: the term count of each multi-Miller loop, the
    constant right arguments among its terms (the bases with line tables), and
    the final exps."""
    work = {"terms": [], "fixed": [], "final_exps": 0}
    constants = {G2_GENERATOR: "G2", G2_AUX_GENERATOR: "aux"}
    for name in available_backends():
        backend = load_backend(name)

        def multi_miller_loop(pairs, real=backend.multi_miller_loop):
            pairs = tuple(pairs)
            work["terms"].append(len(pairs))
            work["fixed"].append(tuple(constants[q] for _, q in pairs if q in constants))
            return real(pairs)

        def final_exp(f, real=backend.final_exp):
            work["final_exps"] += 1
            return real(f)

        monkeypatch.setattr(backend, "multi_miller_loop", multi_miller_loop)
        monkeypatch.setattr(backend, "final_exp", final_exp)
    return work


class TestSchemeParams:
    def test_subkey_count(self):
        params = SchemeParams(sessions=8, symbols=32, radix=4)
        assert params.subkey_count == 128
        assert params.space == 4**32 == 2**64

    @pytest.mark.parametrize("bad", [
        dict(sessions=0, symbols=2, radix=2),
        dict(sessions=1, symbols=0, radix=2),
        dict(sessions=1, symbols=2, radix=1),
    ])
    def test_rejects_bad_dimensions(self, bad):
        with pytest.raises(ParameterError):
            SchemeParams(**bad)

    def test_rejects_index_overflow(self):
        # N * t^n must stay below the group order
        with pytest.raises(ParameterError):
            SchemeParams(sessions=2, symbols=256, radix=2)

        class Radix(int):
            def __pow__(self, other):
                pytest.fail("t^n computed before the symbol count was bounded")

        with pytest.raises(ParameterError):
            SchemeParams(sessions=2, symbols=2**62, radix=Radix(3))

    def test_rejects_unsupported_security_level(self):
        # no curve is configured for it, so a key written at it could not be read back
        with pytest.raises(UnsupportedSecurityLevelError, match="unsupported security level 999"):
            SchemeParams(sessions=2, symbols=2, radix=2, security_level=999)


class TestKeygen:
    def test_g1_matches_master(self, toy_params, toy_keys):
        pk, master = toy_keys
        assert pk.g1 == pk.g.exp(master.alpha)
        assert master.g2_alpha == pk.g2.exp(master.alpha)

    def test_distinct_seeds_distinct_keys(self, toy_params, group):
        pk_a, _ = scheme.keygen_setup(toy_params, DeterministicRandomness(1), group=group)
        pk_b, _ = scheme.keygen_setup(toy_params, DeterministicRandomness(2), group=group)
        assert pk_a.g1 != pk_b.g1
        assert pk_a.h != pk_b.h

    def test_matrix_dimensions(self, toy_params, toy_keys):
        material = make_session(toy_params, toy_keys)
        assert len(material.subkeys) == toy_params.symbols
        assert all(len(row) == toy_params.radix for row in material.subkeys)

    def test_default_parameter_matrix_size(self, group):
        params = SchemeParams(sessions=1, symbols=32, radix=4)
        pk, master = scheme.keygen_setup(params, DeterministicRandomness(5), group=group)
        material = scheme.gen_session(pk, master, params, 0, DeterministicRandomness(6))
        assert sum(len(row) for row in material.subkeys) == 128

    def test_session_out_of_range(self, toy_params, toy_keys):
        pk, master = toy_keys
        with pytest.raises(ParameterError):
            scheme.gen_session(pk, master, toy_params, toy_params.sessions, DeterministicRandomness(1))

    def test_secrets_dropped_by_default(self, toy_params, toy_keys):
        # the session object holds its public aux and subkeys, never r or a beta
        pk, master = toy_keys
        material = scheme.gen_session(pk, master, toy_params, 0, DeterministicRandomness(3))
        fields = [f.name for f in dataclasses.fields(material)]
        assert fields == ["session", "subkeys", "aux"]


class TestIndexPoint:
    def test_second_group_only(self, toy_keys):
        # h and the index point are only ever right pairing arguments
        pk, _ = toy_keys
        assert pk.h.first is None and pk.h.second is not None
        assert scheme.index_point(pk, 5).first is None
        assert pk.g1.first is not None and pk.g1.second is not None

    def test_zero_is_h(self, toy_keys):
        pk, _ = toy_keys
        assert scheme.index_point(pk, 0) == pk.h

    def test_one_is_g1_h(self, toy_keys):
        pk, _ = toy_keys
        assert scheme.index_point(pk, 1) == pk.g1.mul(pk.h)

    def test_exponent_additivity(self, toy_keys):
        pk, _ = toy_keys
        a, b = 1234, 56789
        lhs = scheme.index_point(pk, a + b).mul(pk.h)
        rhs = scheme.index_point(pk, a).mul(scheme.index_point(pk, b))
        assert lhs == rhs


class TestKeyTables:
    """A public key's comb tables of h and of g1's second side: built on
    first use, kept for the key's life, and read instead of a variable-base
    G2 multiplication by session generation and verification."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_built_on_first_use(self, backend):
        params = SchemeParams(sessions=2, symbols=4, radix=2)
        pk, master = scheme.keygen_setup(params, DeterministicRandomness(16), group=setup(256, backend=backend))
        assert {"_h_table", "_g1_table"}.isdisjoint(vars(pk))
        material = make_session(params, (pk, master))
        assert "_h_table" in vars(pk) and "_g1_table" not in vars(pk)
        selection = scheme.prp_select(params, b"\x01" * 16, b"m")
        sig = scheme.sign_compressed(pk, params, 0, scheme.subkeys_at(material, selection), selection, material.aux)
        assert scheme.verify_compressed(pk, params, 0, sig, b"m")
        assert "_g1_table" in vars(pk)
        # a key that only verifies, as a decoded one, never builds h's table
        _, verifier_pk = scheme.decode_public_key(scheme.encode_public_key(params, pk), backend)
        assert scheme.verify_compressed(verifier_pk, params, 0, sig, b"m")
        assert "_g1_table" in vars(verifier_pk) and "_h_table" not in vars(verifier_pk)

    @pytest.mark.parametrize("backend", available_backends())
    def test_no_variable_base_g2_multiplication(self, backend, monkeypatch):
        """``gen_session`` multiplies no G2 point but the generator (its row
        walk's ``g2_steps`` multiplies by t only), and a compressed verify
        makes one table read and no other G2 multiplication."""
        params = SchemeParams(sessions=2, symbols=32, radix=4)
        group = setup(256, backend=backend)
        b = group.backend
        pk, master = scheme.keygen_setup(params, DeterministicRandomness(19), group=group)
        calls = []
        for name in ("g2_mul", "g2_mul_many", "g2_table", "g2_table_mul"):
            def spy(*args, real=getattr(b, name), name=name):
                base = args[0] if name in ("g2_mul", "g2_mul_many") else None
                base = {G2_GENERATOR: "generator", pk.h.second: "h"}.get(base, base)
                calls.append((name, base, args[1]) if name == "g2_mul" else (name, base))
                return real(*args)

            monkeypatch.setattr(b, name, spy)
        material = make_session(params, (pk, master), session=1)
        assert sorted(calls) == [("g2_mul_many", "generator"), ("g2_table", None), ("g2_table_mul", None)]
        calls.clear()
        make_session(params, (pk, master), session=0)
        assert sorted(calls) == [("g2_mul_many", "generator"), ("g2_table_mul", None)]
        selection = scheme.prp_select(params, b"\x03" * 16, b"spied")
        sig = scheme.sign_compressed(pk, params, 1, scheme.subkeys_at(material, selection), selection, material.aux)
        calls.clear()
        assert scheme.verify_compressed(pk, params, 1, sig, b"spied")
        assert sorted(calls) == [("g2_table", None), ("g2_table_mul", None)]
        for message in (b"spied", b"other"):
            calls.clear()
            assert scheme.verify_compressed(pk, params, 1, sig, message) is (message == b"spied")
            assert calls == [("g2_table_mul", None)]

    def test_tables_live_and_die_with_their_key(self):
        """In pure, 50 keys' tables and sessions leave the generators' table
        caches (the comb tables and their shifted copies) as they were, and
        the keys' tables go with their keys: a new key per round cannot grow
        memory, since only the process-constant generators are cached."""
        pure = load_backend("pure")
        group = setup(256, backend="pure")
        params = SchemeParams(sessions=2, symbols=2, radix=2)
        rng = DeterministicRandomness(20)
        pk, master = scheme.keygen_setup(params, rng, group=group)
        scheme.gen_session(pk, master, params, 0, rng)  # the generators' tables
        caches = (pure._comb_tables, pure._comb_shifted)
        cached = [cache.cache_info().currsize for cache in caches]
        keys = []
        for _ in range(50):
            pk, master = scheme.keygen_setup(params, rng, group=group)
            scheme.gen_session(pk, master, params, 1, rng)
            assert scheme.index_point(pk, 3) == pk.g1.exp(3).second_only().mul(pk.h)
            assert pure.g2_table_mul(pk._h_table, 2) == pk.h.exp(2).second
            keys.append(weakref.ref(pk))
        del pk, master
        assert [cache.cache_info().currsize for cache in caches] == cached
        gc.collect()
        assert [key for key in keys if key() is not None] == []


# SHA-256 of the store that test_session_store_golden builds
STORE_SHA256 = "02109fc739c8f859b870705f86de53285defaa159cafd1dcdf2b1a489432208e"


class TestSessionStructure:
    def test_blinding_product_is_identity(self, toy_params, toy_keys):
        _, betas = session_randomness(toy_params)
        assert sum(betas) % ORDER == 0
        pk, _ = toy_keys
        acc = pk.g.second_only().exp(betas[0])
        for beta in betas[1:]:
            acc = acc.mul(pk.g.second_only().exp(beta))
        assert acc.is_identity()

    def test_aggregation_identity_exhaustive(self, toy_params, toy_keys):
        """Every digit vector's aggregate equals the closed form.

        Oracle: (g2^a * (g1^k h)^r)^n computed directly from the replayed
        session transients, never through the subkey matrix.
        """
        pk, master = toy_keys
        for session in range(toy_params.sessions):
            material = make_session(toy_params, toy_keys, session=session, seed=40 + session)
            r, _ = session_randomness(toy_params, seed=40 + session)
            for value in range(toy_params.space):
                digits = scheme.decompose(toy_params, value)
                picked = [material.subkeys[j][b] for j, b in enumerate(digits)]
                agg = scheme.aggregate(toy_params, picked)
                k = scheme.encode_index(toy_params, session, value)
                oracle = (
                    master.g2_alpha.mul(scheme.index_point(pk, k).exp(r))
                ).exp(toy_params.symbols)
                assert agg == oracle, f"session {session}, digit vector {digits}"

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("radix, symbols", [(2, 1), (2, 3), (3, 2), (4, 3)])
    def test_every_subkey_against_its_definition(self, backend, radix, symbols):
        """Entry (j, b) = g2^a * (g1^(i t^n + b n t^j) h)^r * v_j for v_j = g^beta_j.

        Oracle: plain exp and mul on the replayed r and betas, one entry at
        a time, none of it through the batched generator terms or the row walk.
        """
        params = SchemeParams(sessions=3, symbols=symbols, radix=radix)
        group = setup(256, backend=backend)
        pk, master = scheme.keygen_setup(params, DeterministicRandomness(radix + 10 * symbols), group=group)
        g2_alpha = pk.g2.second_only().exp(master.alpha)
        for session in (0, params.sessions - 1):
            material = make_session(params, (pk, master), session=session, seed=50 + session)
            r, betas = session_randomness(params, seed=50 + session)
            for j, beta in enumerate(betas):
                v = pk.g.second_only().exp(beta)
                for b in range(radix):
                    k = session * params.space + b * symbols * radix**j
                    entry = g2_alpha.mul(pk.g1.second_only().exp(k).mul(pk.h).exp(r)).mul(v)
                    assert material.subkeys[j][b] == entry, (session, j, b)

    @pytest.mark.parametrize("backend", available_backends())
    def test_session_store_golden(self, backend):
        """The t=4, n=32 store of sessions 0 and 5, keys and sessions drawn
        from one stream seeded 7, is pinned by its SHA-256: the value the
        generator gave with one g2_mul or g2_add per step, before its G2
        work was batched."""
        params = SchemeParams(sessions=8, symbols=32, radix=4)
        rng = DeterministicRandomness(7)
        pk, master = scheme.keygen_setup(params, rng, group=setup(256, backend=backend))
        materials = [scheme.gen_session(pk, master, params, session, rng) for session in (0, 5)]
        store = scheme.encode_session_store(params, pk, master, materials)
        assert hashlib.sha256(store).hexdigest() == STORE_SHA256

    @pytest.mark.parametrize("backend", available_backends())
    def test_row_steps_are_one_g2_steps_call(self, backend, monkeypatch):
        """At t=4, n=32 a session computes its 32 row steps in one
        ``g2_steps`` call, and so does the store loader per session.
        Generation makes no ``g2_mul``: h^r is read from the key's table."""
        params = SchemeParams(sessions=2, symbols=32, radix=4)
        group = setup(256, backend=backend)
        pk, master = scheme.keygen_setup(params, DeterministicRandomness(14), group=group)
        calls = []
        for name in ("g2_steps", "g2_mul"):
            def spy(*args, real=getattr(group.backend, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(group.backend, name, spy)
        material = scheme.gen_session(pk, master, params, 1, DeterministicRandomness(15))
        assert calls == ["g2_steps"]
        store = scheme.encode_session_store(params, pk, master, [material])
        calls.clear()
        assert scheme.decode_session_store(store, backend=backend)[3] == [material]
        assert calls.count("g2_steps") == 1

    def test_aggregate_requires_full_subset(self, toy_params, toy_keys):
        material = make_session(toy_params, toy_keys)
        with pytest.raises(ParameterError):
            scheme.aggregate(toy_params, material.subkeys[0][:1])

    def test_aggregate_requires_second_sides(self, toy_params, toy_keys):
        pk, _ = toy_keys
        material = make_session(toy_params, toy_keys)
        with pytest.raises(RepresentationError):
            scheme.aggregate(toy_params, [material.subkeys[0][0], pk.g1.first_only()])

    def test_aggregate_single_symbol(self, group):
        params = SchemeParams(sessions=1, symbols=1, radix=2)
        pk, master = scheme.keygen_setup(params, DeterministicRandomness(8), group=group)
        material = scheme.gen_session(pk, master, params, 0, DeterministicRandomness(9))
        single = material.subkeys[0][1]
        assert scheme.aggregate(params, [single]) == single

    def test_aggregation_order_independent(self, toy_params, toy_keys):
        material = make_session(toy_params, toy_keys)
        sel = scheme.prp_select(toy_params, b"k", b"m")
        picked = list(scheme.subkeys_at(material, sel))
        assert scheme.aggregate(toy_params, picked) == scheme.aggregate(toy_params, picked[::-1])


class TestIndexCoding:
    def test_encode_examples(self):
        p42 = SchemeParams(sessions=4, symbols=2, radix=2)
        assert scheme.encode_index(p42, 0, 0) == 0
        assert scheme.encode_index(p42, 2, 3) == 11
        p = SchemeParams(sessions=2, symbols=32, radix=4)
        assert scheme.encode_index(p, 1, 0) == 2**64

    def test_encode_bounds(self):
        p = SchemeParams(sessions=2, symbols=2, radix=2)
        with pytest.raises(ParameterError):
            scheme.encode_index(p, 2, 0)
        with pytest.raises(ParameterError):
            scheme.encode_index(p, 0, 4)

    def test_decompose_examples(self):
        assert scheme.decompose(SchemeParams(1, 3, 4), 6) == (2, 1, 0)
        assert scheme.decompose(SchemeParams(1, 3, 2), 5) == (1, 0, 1)
        assert scheme.decompose(SchemeParams(1, 3, 2), 0) == (0, 0, 0)

    @given(st.tuples(st.integers(0, 3), st.integers(0, 4**6 - 1),
                     st.integers(0, 3), st.integers(0, 4**6 - 1)))
    @settings(max_examples=100, deadline=None)
    def test_encode_injective(self, quad):
        params = SchemeParams(sessions=4, symbols=6, radix=4)
        i1, b1, i2, b2 = quad
        k1 = scheme.encode_index(params, i1, b1)
        k2 = scheme.encode_index(params, i2, b2)
        assert (k1 == k2) == ((i1, b1) == (i2, b2))

    def test_encode_injective_thousand_sample(self):
        import random as stdrandom

        params = SchemeParams(sessions=8, symbols=32, radix=4)
        rnd = stdrandom.Random(2024)
        pairs = {
            (rnd.randrange(params.sessions), rnd.randrange(params.space))
            for _ in range(1000)
        }
        encoded = {scheme.encode_index(params, i, b) for i, b in pairs}
        assert len(encoded) == len(pairs)


class TestSelection:
    def test_block_structure_example(self):
        params = SchemeParams(sessions=1, symbols=3, radix=4)
        sel = scheme.prp_select(params, b"key", b"msg")
        expect = scheme.decompose(params, sel.value)
        assert sel.digits == expect
        assert sel.indices == tuple(4 * j + b for j, b in enumerate(expect))

    def test_explicit_digit_mapping(self):
        params = SchemeParams(sessions=1, symbols=3, radix=4)
        value = 2 + 1 * 4 + 0 * 16  # little-endian digits (2, 1, 0)
        sel = scheme._selection_from_scalar(params, value, b"")
        assert sel.indices == (2, 5, 8)

    def test_deterministic(self):
        params = SchemeParams(sessions=1, symbols=8, radix=4)
        a = scheme.prp_select(params, b"key", b"message")
        b = scheme.prp_select(params, b"key", b"message")
        assert a == b

    def test_distinct_messages_distinct_values(self):
        params = SchemeParams(sessions=1, symbols=32, radix=4)
        rng = DeterministicRandomness(77)
        m1, m2 = rng.random_bytes(16), rng.random_bytes(16)
        assert scheme.prp_select(params, b"key", m1).value != scheme.prp_select(params, b"key", m2).value

    def test_eot_differs_from_prp(self):
        params = SchemeParams(sessions=1, symbols=32, radix=4)
        assert scheme.prp_select(params, b"x", b"m").value != scheme.eot_select(params, b"x", b"m").value

    def test_eot_caller_binding(self):
        params = SchemeParams(sessions=1, symbols=32, radix=4)
        a = scheme.eot_select(params, b"x", b"caller-one" + bytes(22))
        b = scheme.eot_select(params, b"x", b"caller-two" + bytes(22))
        assert a.value != b.value

    @given(st.binary(min_size=0, max_size=32), st.binary(min_size=0, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_one_index_per_block(self, key, message):
        params = SchemeParams(sessions=1, symbols=5, radix=3)
        sel = scheme.prp_select(params, key, message)
        assert len(sel.indices) == params.symbols
        for j, index in enumerate(sel.indices):
            assert params.radix * j <= index < params.radix * (j + 1)


@pytest.fixture(scope="module")
def signed(medium_params, medium_keys):
    pk, master = medium_keys
    material = scheme.gen_session(pk, master, medium_params, 1, DeterministicRandomness(55))
    message = b"quarterly attestation report"
    selection = scheme.prp_select(medium_params, b"\x01" * 16, message)
    subkeys = scheme.subkeys_at(material, selection)
    return material, message, selection, subkeys


@pytest.fixture(scope="module")
def material_and_sigs(medium_params, medium_keys):
    pk, master = medium_keys
    rng = DeterministicRandomness(80)
    material = scheme.gen_session(pk, master, medium_params, 2, rng)
    message = b"serialize me"
    selection = scheme.prp_select(medium_params, b"codec-key", message)
    subkeys = scheme.subkeys_at(material, selection)
    full = scheme.sign_full(pk, medium_params, 2, subkeys, selection, material.aux, message, rng)
    comp = scheme.sign_compressed(pk, medium_params, 2, subkeys, selection, material.aux)
    return material, message, full, comp


class TestSignatures:

    def test_full_roundtrip(self, medium_params, medium_keys, signed, pairing_work):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        sig = scheme.sign_full(pk, medium_params, 1, subkeys, selection, material.aux,
                               message, DeterministicRandomness(60))
        assert pairing_work == {"terms": [], "fixed": [], "final_exps": 0}, "full signing must not pair"
        reset_pairing_counter()
        assert scheme.verify_full(pk, medium_params, 1, sig, message)
        assert pairing_counter() == 3
        # the three terms share one Miller loop and one final exponentiation
        # no right argument of a full verify is a constant
        assert pairing_work == {"terms": [3], "fixed": [()], "final_exps": 1}

    def test_full_randomized_but_both_verify(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        s1 = scheme.sign_full(pk, medium_params, 1, subkeys, selection, material.aux,
                              message, DeterministicRandomness(61))
        s2 = scheme.sign_full(pk, medium_params, 1, subkeys, selection, material.aux,
                              message, DeterministicRandomness(62))
        assert s1.x != s2.x
        assert scheme.verify_full(pk, medium_params, 1, s1, message)
        assert scheme.verify_full(pk, medium_params, 1, s2, message)

    def test_full_rejects_wrong_message(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        sig = scheme.sign_full(pk, medium_params, 1, subkeys, selection, material.aux,
                               message, DeterministicRandomness(63))
        flipped = bytes([message[0] ^ 1]) + message[1:]
        assert not scheme.verify_full(pk, medium_params, 1, sig, flipped)

    def test_full_rejects_wrong_session(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        sig = scheme.sign_full(pk, medium_params, 1, subkeys, selection, material.aux,
                               message, DeterministicRandomness(64))
        assert not scheme.verify_full(pk, medium_params, 2, sig, message)
        # shifting past the session budget must reject, not raise
        assert not scheme.verify_full(pk, medium_params, medium_params.sessions, sig, message)

    def test_compressed_roundtrip_and_pairings(self, medium_params, medium_keys, signed, pairing_work):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        reset_pairing_counter()
        sig = scheme.sign_compressed(pk, medium_params, 1, subkeys, selection, material.aux)
        assert pairing_counter() == 0, "compressed signing must not pair"
        assert pairing_work == {"terms": [], "fixed": [], "final_exps": 0}
        reset_pairing_counter()
        assert scheme.verify_compressed(pk, medium_params, 1, sig, message)
        assert pairing_counter() == 3, "compressed verification is exactly three pairings"
        # e(g1, g2^n) is evaluated as e(g1^n, g2): one term on g2's line table
        assert pairing_work == {"terms": [3], "fixed": [("aux",)], "final_exps": 1}

    @pytest.mark.parametrize("backend", available_backends())
    def test_compressed_sign_is_one_g2_sum(self, backend, monkeypatch):
        """At t=4, n=32 a compressed sign sums its 32 subkeys in one
        ``g2_sum`` call: no other group operation and no pairing."""
        params = SchemeParams(sessions=2, symbols=32, radix=4)
        group = setup(256, backend=backend)
        pk, master = scheme.keygen_setup(params, DeterministicRandomness(12), group=group)
        material = scheme.gen_session(pk, master, params, 1, DeterministicRandomness(13))
        message = b"count my calls"
        selection = scheme.prp_select(params, b"\x02" * 16, message)
        subkeys = scheme.subkeys_at(material, selection)
        calls = {}
        for name in ("g1_add", "g2_add", "g2_add_many", "g2_sum", "g1_mul", "g2_mul", "g2_mul_many",
                     "pairing", "multi_miller_loop", "final_exp"):
            def spy(*args, real=getattr(group.backend, name), name=name):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(group.backend, name, spy)
        reset_pairing_counter()
        sig = scheme.sign_compressed(pk, params, 1, subkeys, selection, material.aux)
        assert calls == {"g2_sum": 1}
        assert pairing_counter() == 0
        monkeypatch.undo()
        assert scheme.verify_compressed(pk, params, 1, sig, message)

    def test_compressed_deterministic(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        a = scheme.sign_compressed(pk, medium_params, 1, subkeys, selection, material.aux)
        b = scheme.sign_compressed(pk, medium_params, 1, subkeys, selection, material.aux)
        assert a == b

    def test_compressed_rejects_tampered_y(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        sig = scheme.sign_compressed(pk, medium_params, 1, subkeys, selection, material.aux)
        tampered = CompressedSignature(y=sig.y.mul(pk.g.first_only()), z=sig.z, key=sig.key)
        assert not scheme.verify_compressed(pk, medium_params, 1, tampered, message)

    def test_cross_variant_same_material(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        full = scheme.sign_full(pk, medium_params, 1, subkeys, selection, material.aux,
                                message, DeterministicRandomness(65))
        comp = scheme.sign_compressed(pk, medium_params, 1, subkeys, selection, material.aux)
        assert scheme.verify_full(pk, medium_params, 1, full, message)
        assert scheme.verify_compressed(pk, medium_params, 1, comp, message)

    @pytest.mark.parametrize("backend", available_backends())
    def test_compressed_verdict_matches_its_definition(self, backend):
        """verify_compressed's verdict is that of e(g, z) == e(g1, g2^n) *
        e(y, (g1^k h)^n), written with plain exp and mul: n on the G2 side,
        and no comb or line table."""
        params = SchemeParams(sessions=3, symbols=8, radix=4)
        pk, master = scheme.keygen_setup(params, DeterministicRandomness(23), group=setup(256, backend=backend))
        n = params.symbols

        def definition(session, sig, message):
            k = scheme.encode_index(params, session, scheme.prp_select(params, sig.key, message).value)
            index_n = pk.g1.second_only().exp(k).mul(pk.h).exp(n)
            return pair(pk.g, sig.z) == pair(pk.g1, pk.g2.exp(n)).mul(pair(sig.y, index_n))

        selection = scheme.prp_select(params, b"key", b"signed")
        assert selection.value != scheme.prp_select(params, b"key", b"other").value
        sigs = []
        for session in (1, 2):
            material = make_session(params, (pk, master), session=session, seed=60 + session)
            subkeys = scheme.subkeys_at(material, selection)
            sigs.append(scheme.sign_compressed(pk, params, session, subkeys, selection, material.aux))
        honest, other = sigs
        cases = [
            (1, honest, b"signed", True),
            (1, honest, b"other", False),
            (2, honest, b"signed", False),
            (1, CompressedSignature(y=other.y, z=honest.z, key=honest.key), b"signed", False),
            (1, CompressedSignature(y=honest.y, z=other.z, key=honest.key), b"signed", False),
        ]
        for session, sig, message, verdict in cases:
            assert scheme.verify_compressed(pk, params, session, sig, message) is verdict
            assert definition(session, sig, message) is verdict

    def test_degenerate_randomness_resampled(self, medium_params, medium_keys, signed, monkeypatch):
        """Force the first draw into s + u = 0; the signer must retry.

        Solving s + H(M, g2^(n s)) = 0 honestly is a preimage problem, so
        the test rigs the hash to return -s once, then behaves normally.
        """
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        real_hash = scheme.hash_to_scalar
        rng = DeterministicRandomness(66)
        forced = {"armed": True}

        first_s = DeterministicRandomness(66)
        from otsske.groups import random_scalar

        s0 = random_scalar(first_s)

        def rigged(tag, parts):
            if forced["armed"] and tag == scheme.TAG_MESSAGE_HASH:
                forced["armed"] = False
                return (ORDER - s0) % ORDER
            return real_hash(tag, parts)

        monkeypatch.setattr(scheme, "hash_to_scalar", rigged)
        sig = scheme.sign_full(pk, medium_params, 1, subkeys, selection, material.aux, message, rng)
        monkeypatch.setattr(scheme, "hash_to_scalar", real_hash)
        assert not sig.y.is_identity() and not sig.z.is_identity()
        assert scheme.verify_full(pk, medium_params, 1, sig, message)

    def test_degenerate_signature_rejected(self, medium_params, medium_keys, signed, monkeypatch, pairing_work):
        """The g2^(n u) * x != identity guard is load-bearing.

        With y = z = identity and g2^(n u) * x = identity, the pairing
        equation holds trivially (1 = 1 * 1), so without the guard this
        forgery-without-keys would verify.  Finding such (x, u) honestly
        is a preimage problem; rig the hash to simulate it and check the
        guard rejects before any pairing is evaluated.
        """
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        n = medium_params.symbols
        s = 987_654_321
        forged_x = pk.g2.exp(n * s)
        sig = FullSignature(
            x=forged_x,
            y=material.aux.exp(0),
            z=scheme.aggregate(medium_params, subkeys).exp(0),
            key=selection.key,
        )
        real_hash = scheme.hash_to_scalar

        def rigged(tag, parts):
            if tag == scheme.TAG_MESSAGE_HASH and parts[1] == forged_x.serialize():
                return (ORDER - s) % ORDER  # makes g2^(n u) * x the identity
            return real_hash(tag, parts)

        monkeypatch.setattr(scheme, "hash_to_scalar", rigged)
        reset_pairing_counter()
        assert not scheme.verify_full(pk, medium_params, 1, sig, message)
        assert pairing_counter() == 0, "degenerate case must be rejected before pairing"
        assert pairing_work == {"terms": [], "fixed": [], "final_exps": 0}


class TestNoIdentityAux:
    """A session with r = 0 would have aux = O, and every subset of it
    would sum to g2^(alpha n).  Then y = O, z = g2^(alpha n) would verify
    for every message of every session.  So r is drawn nonzero, a store
    with an identity aux is refused, and a compressed verify rejects
    y = O before any pairing."""

    PARAMS = SchemeParams(sessions=2, symbols=4, radix=2)

    def keys(self, backend):
        return scheme.keygen_setup(self.PARAMS, DeterministicRandomness(24), group=setup(256, backend=backend))

    @pytest.mark.parametrize("backend", available_backends())
    def test_a_zero_first_draw_is_drawn_again(self, backend):
        class ZeroFirst:
            """Zero bytes for the first draw, then the stream seeded 25."""

            def __init__(self):
                self.rest, self.first = DeterministicRandomness(25), True

            def random_bytes(self, n):
                if self.first:
                    self.first = False
                    return bytes(n)
                return self.rest.random_bytes(n)

        pk, master = self.keys(backend)
        material = scheme.gen_session(pk, master, self.PARAMS, 0, ZeroFirst())
        assert not material.aux.is_identity()
        # r is the stream's first scalar: nothing else moved
        assert material == scheme.gen_session(pk, master, self.PARAMS, 0, DeterministicRandomness(25))

    @pytest.mark.parametrize("backend", available_backends())
    def test_a_store_with_an_identity_aux_is_refused(self, backend):
        pk, master = self.keys(backend)
        material = scheme.gen_session(pk, master, self.PARAMS, 1, DeterministicRandomness(26))
        degenerate = dataclasses.replace(material, aux=material.aux.exp(0))
        store = scheme.encode_session_store(self.PARAMS, pk, master, [degenerate])
        with pytest.raises(DecodeError, match="aux is the identity"):
            scheme.decode_session_store(store, backend)

    @pytest.mark.parametrize("backend", available_backends())
    def test_an_identity_y_is_rejected_before_pairing(self, backend, pairing_work):
        pk, master = self.keys(backend)
        n = self.PARAMS.symbols
        z = master.g2_alpha.exp(n)
        sig = CompressedSignature(y=pk.g.first_only().exp(0), z=z, key=b"forger")
        reset_pairing_counter()
        for session in range(self.PARAMS.sessions):
            for message in (b"one", b"two"):
                assert not scheme.verify_compressed(pk, self.PARAMS, session, sig, message)
                data = scheme.encode_signature(sig)
                assert not scheme.verify_signature_bytes(pk, self.PARAMS, session, data, message)
        assert pairing_counter() == 0
        assert pairing_work == {"terms": [], "fixed": [], "final_exps": 0}
        # the guard is load-bearing: with y = O the equation holds
        assert pair(pk.g, z) == pair(pk.g1.first_only().exp(n), pk.g2)


class TestRoundTripProperty:
    def test_many_messages(self, medium_params, medium_keys):
        pk, master = medium_keys
        rng = DeterministicRandomness(70)
        material = scheme.gen_session(pk, master, medium_params, 0, rng)
        for trial in range(10):
            message = rng.random_bytes(16)
            key = rng.random_bytes(16)
            selection = scheme.prp_select(medium_params, key, message)
            subkeys = scheme.subkeys_at(material, selection)
            full = scheme.sign_full(pk, medium_params, 0, subkeys, selection, material.aux, message, rng)
            comp = scheme.sign_compressed(pk, medium_params, 0, subkeys, selection, material.aux)
            assert scheme.verify_full(pk, medium_params, 0, full, message)
            assert scheme.verify_compressed(pk, medium_params, 0, comp, message)

    def test_pure_backend_roundtrip(self, toy_params, pairing_work):
        from otsske.groups import setup

        group = setup(256, backend="pure")
        rng = DeterministicRandomness(71)
        pk, master = scheme.keygen_setup(toy_params, rng, group=group)
        material = scheme.gen_session(pk, master, toy_params, 0, rng)
        message = b"pure backend message"
        selection = scheme.prp_select(toy_params, b"key", message)
        subkeys = scheme.subkeys_at(material, selection)
        comp = scheme.sign_compressed(pk, toy_params, 0, subkeys, selection, material.aux)
        full = scheme.sign_full(pk, toy_params, 0, subkeys, selection, material.aux, message, rng)
        assert pairing_work == {"terms": [], "fixed": [], "final_exps": 0}
        assert scheme.verify_compressed(pk, toy_params, 0, comp, message)
        assert scheme.verify_full(pk, toy_params, 0, full, message)
        assert pairing_work == {"terms": [3, 3], "fixed": [("aux",), ()], "final_exps": 2}


class TestCodecs:
    def test_signature_roundtrip(self, medium_keys, material_and_sigs):
        pk, _ = medium_keys
        _, _, full, comp = material_and_sigs
        assert scheme.decode_signature(pk.group, scheme.encode_signature(full)) == full
        assert scheme.decode_signature(pk.group, scheme.encode_signature(comp)) == comp

    def test_signature_variant_tags(self, material_and_sigs):
        _, _, full, comp = material_and_sigs
        assert scheme.encode_signature(full)[0] == 0x01
        assert scheme.encode_signature(comp)[0] == 0x02

    def test_truncation_rejected(self, medium_keys, material_and_sigs):
        pk, _ = medium_keys
        _, _, full, comp = material_and_sigs
        for sig in (full, comp):
            blob = scheme.encode_signature(sig)
            with pytest.raises(DecodeError):
                scheme.decode_signature(pk.group, blob[:-1])

    def test_trailing_bytes_rejected(self, medium_keys, material_and_sigs):
        pk, _ = medium_keys
        _, _, _, comp = material_and_sigs
        with pytest.raises(DecodeError):
            scheme.decode_signature(pk.group, scheme.encode_signature(comp) + b"\x00")

    def test_unknown_tag_rejected(self, medium_keys):
        pk, _ = medium_keys
        with pytest.raises(DecodeError):
            scheme.decode_signature(pk.group, b"\x7f" + b"\x00" * 32)

    def test_empty_rejected(self, medium_keys):
        pk, _ = medium_keys
        with pytest.raises(DecodeError):
            scheme.decode_signature(pk.group, b"")

    def test_verify_signature_bytes_malformed_is_false(self, medium_params, medium_keys, material_and_sigs):
        pk, _ = medium_keys
        _, message, _, comp = material_and_sigs
        blob = scheme.encode_signature(comp)
        assert scheme.verify_signature_bytes(pk, medium_params, 2, blob, message)
        assert not scheme.verify_signature_bytes(pk, medium_params, 2, blob[:-2], message)

    def test_public_key_roundtrip(self, medium_params, medium_keys, pairing_work):
        pk, _ = medium_keys
        blob = scheme.encode_public_key(medium_params, pk)
        reset_pairing_counter()
        params2, pk2 = scheme.decode_public_key(blob)
        assert params2 == medium_params
        assert pk2 == pk
        # e(g1_1, G2) == e(G1, g1_2): two terms, one on the generator's line table
        assert pairing_counter() == 2
        assert pairing_work == {"terms": [2], "fixed": [("G2",)], "final_exps": 1}

    def test_public_key_huge_symbol_count_rejected(self, medium_params, medium_keys):
        # the symbol count is an untrusted 8-byte field (the third one, body
        # at byte 40); t^n must never be evaluated for it
        pk, _ = medium_keys
        blob = bytearray(scheme.encode_public_key(medium_params, pk))
        blob[40:48] = struct.pack(">Q", 2**62)
        with pytest.raises(DecodeError):
            scheme.decode_public_key(bytes(blob))

    def test_public_key_layout(self, toy_params, toy_keys):
        # four 8-byte integers, then g1 (dual, 144 bytes) and h (G2, 96 bytes)
        pk, _ = toy_keys
        blob = scheme.encode_public_key(toy_params, pk)
        assert len(blob) == 4 * 16 + 8 + 144 + 8 + 96 == 320
        assert blob[64 + 8 : 64 + 8 + 144] == pk.g1.serialize()
        assert blob[-96:] == pk.h.serialize()

    @pytest.mark.parametrize("container", ["key", "store"])
    def test_old_key_layout_rejected(self, toy_params, toy_keys, container):
        # the former layout also carried g and g2, and h on both sides
        pk, master = toy_keys
        ints = [toy_params.security_level, toy_params.sessions, toy_params.symbols, toy_params.radix]
        h_dual = pk.g.exp(5)
        old_key = scheme._pack_fields(
            [struct.pack(">Q", v) for v in ints]
            + [pk.g.serialize(), pk.g1.serialize(), pk.g2.serialize(), h_dual.serialize()]
        )
        assert len(old_key) == 624
        if container == "key":
            with pytest.raises(DecodeError, match="96 expected"):
                scheme.decode_public_key(old_key)
            return
        store = scheme.encode_session_store(toy_params, pk, master, [])
        new_key = scheme._pack_fields([scheme.encode_public_key(toy_params, pk)])
        assert store.startswith(new_key)
        old_store = scheme._pack_fields([old_key]) + store[len(new_key) :]
        with pytest.raises(DecodeError, match="96 expected"):
            scheme.decode_session_store(old_store)

    def test_session_store_roundtrip(self, toy_params, toy_keys):
        pk, master = toy_keys
        rng = DeterministicRandomness(81)
        materials = [
            scheme.gen_session(pk, master, toy_params, s, rng)
            for s in range(toy_params.sessions)
        ]
        blob = scheme.encode_session_store(toy_params, pk, master, materials)
        params2, pk2, master2, materials2 = scheme.decode_session_store(blob)
        assert params2 == toy_params and pk2 == pk
        assert master2.alpha == master.alpha
        assert materials2 == materials

    def test_session_store_truncation(self, toy_params, toy_keys):
        pk, master = toy_keys
        rng = DeterministicRandomness(82)
        materials = [scheme.gen_session(pk, master, toy_params, 0, rng)]
        blob = scheme.encode_session_store(toy_params, pk, master, materials)
        with pytest.raises(DecodeError):
            scheme.decode_session_store(blob[: len(blob) // 2])


class TestOneTimeBudget:
    """Positive controls for the forgery game: soundness rests on each
    session signing once.  Every aggregate of a session is H + [B]S_0, for
    the sum H of its row heads, its first row step S_0 and the selection
    value B.  So two compressed signatures of one session give
    S_0 = [(B1 - B2)^-1](z1 - z2), and with it any message's signature for
    that session.  One signature gives nothing past a selection collision,
    and S_0 binds its own session alone.  k signatures of a session sign
    exactly the messages whose selection their subsets cover, and a whole
    leaked matrix signs for its own session alone.  The material comes
    from scheme calls, not from the co-processor, whose budget refuses a
    second read."""

    NEW = [b"new message %d" % i for i in range(8)]

    @staticmethod
    def signatures(params, keys, session, messages):
        """Compressed signatures of one session, as (selection value, signature)."""
        pk, _ = keys
        material = make_session(params, keys, session, seed=40 + session)
        out = []
        for i, message in enumerate(messages):
            selection = scheme.prp_select(params, b"signer %d" % i, message)
            subkeys = scheme.subkeys_at(material, selection)
            out.append((selection.value, scheme.sign_compressed(pk, params, session, subkeys, selection, material.aux)))
        return material, out

    @staticmethod
    def reuse_forger(signed):
        """(y, H, S_0) of a session from two of its signatures."""
        (b1, first), (b2, second) = signed
        s0 = first.z.mul(second.z.exp(-1)).exp(pow(b1 - b2, -1, ORDER))
        return first.y, first.z.mul(s0.exp(-b1)), s0

    @staticmethod
    def forge(params, forger, message):
        y, head, s0 = forger
        selection = scheme.prp_select(params, b"forger", message)
        return CompressedSignature(y=y, z=head.mul(s0.exp(selection.value)), key=selection.key)

    def test_two_signatures_of_a_session_forge_every_message(self, medium_params, medium_keys):
        pk, _ = medium_keys
        material, signed = self.signatures(medium_params, medium_keys, 0, [b"first", b"second"])
        forger = self.reuse_forger(signed)
        # the recovered S_0 is the session's first row step
        assert forger[2] == material.subkeys[0][1].mul(material.subkeys[0][0].exp(-1))
        forged = [self.forge(medium_params, forger, m) for m in self.NEW]
        assert [scheme.verify_compressed(pk, medium_params, 0, s, m) for s, m in zip(forged, self.NEW)] == [True] * 8

    def test_one_signature_forges_nothing_past_a_collision(self, medium_params, medium_keys):
        # the forger replays z, or scales it by B'/B as if H were the identity;
        # either verifies only where the new selection value equals B
        pk, _ = medium_keys
        _, [(b, signed)] = self.signatures(medium_params, medium_keys, 0, [b"only"])
        assert scheme.verify_compressed(pk, medium_params, 0, signed, b"only")
        for message in self.NEW:
            selection = scheme.prp_select(medium_params, b"forger", message)
            collides = selection.value == b
            for z in (signed.z, signed.z.exp(selection.value * pow(b, -1, ORDER))):
                attempt = CompressedSignature(y=signed.y, z=z, key=selection.key)
                assert scheme.verify_compressed(pk, medium_params, 0, attempt, message) == collides

    def test_a_sessions_step_forges_nothing_for_another_session(self, medium_params, medium_keys):
        pk, _ = medium_keys
        _, signed0 = self.signatures(medium_params, medium_keys, 0, [b"first", b"second"])
        y0, head0, s0 = self.reuse_forger(signed0)
        _, [(b1, signed1)] = self.signatures(medium_params, medium_keys, 1, [b"other"])
        # session 1's own signature, moved along session 0's step
        head1 = signed1.z.mul(s0.exp(-b1))
        for message in self.NEW[:4]:
            for forger in ((y0, head0, s0), (signed1.y, head1, s0)):
                forged = self.forge(medium_params, forger, message)
                assert not scheme.verify_compressed(pk, medium_params, 1, forged, message)

    def test_union_forger_covers_at_the_predicted_rate(self, group):
        """k leaked reads of one session cover a new selection when every
        position's new digit is among the digits read there.  At t = 2,
        n = 4 that has probability (1 - (1 - 1/t)^k)^n, averaged over the
        leaked selections too, so each trial draws fresh leaked and new
        messages.  Coverage comes from prp_select alone; then forgeries
        built from the read subkeys verify exactly where they are covered."""
        params = SchemeParams(sessions=2, symbols=4, radix=2)
        n, t, trials = params.symbols, params.radix, 256
        pk, master = scheme.keygen_setup(params, DeterministicRandomness(27), group=group)
        material = make_session(params, (pk, master), session=1, seed=28)

        def select(*label):
            message = b" ".join(b"%d" % part for part in label)
            return message, scheme.prp_select(params, b"union", message)

        def digits_read(leaked):
            return [{selection.digits[j] for _, selection in leaked} for j in range(n)]

        examples = {True: [], False: []}
        for k in range(1, 7):
            covered = 0
            for trial in range(trials):
                leaked = [select(k, trial, i) for i in range(k)]
                message, new = select(k, trial)
                hit = all(b in held for b, held in zip(new.digits, digits_read(leaked)))
                covered += hit
                if len(examples[hit]) < 2:
                    examples[hit].append((leaked, message, new))
            p = (1 - (1 - 1 / t) ** k) ** n
            assert abs(covered - trials * p) <= 4 * math.sqrt(trials * p * (1 - p)), (k, covered)
        for hit, cases in examples.items():
            for leaked, message, new in cases:
                read = {}
                for _, selection in leaked:
                    for j, subkey in enumerate(scheme.subkeys_at(material, selection)):
                        read[j, selection.digits[j]] = subkey
                # an uncovered position takes the other digit, the one read there
                picked = [read[j, b] if (j, b) in read else read[j, 1 - b] for j, b in enumerate(new.digits)]
                forged = CompressedSignature(y=material.aux, z=scheme.aggregate(params, picked), key=new.key)
                assert scheme.verify_compressed(pk, params, 1, forged, message) is hit

    def test_a_leaked_matrix_forges_nothing_for_another_session(self, medium_params, medium_keys):
        """Session 0's whole matrix and aux sign any message for session 0,
        and, with one signature of session 1, nothing for session 1: not
        with session 0's aux, not with session 1's y, and not by moving
        session 1's signature along session 0's matrix."""
        pk, _ = medium_keys
        leaked, _ = self.signatures(medium_params, medium_keys, 0, [])
        _, [(_, signed1)] = self.signatures(medium_params, medium_keys, 1, [b"other"])

        def leaked_sum(selection):
            return scheme.aggregate(medium_params, scheme.subkeys_at(leaked, selection))

        signed1_sum = leaked_sum(scheme.prp_select(medium_params, signed1.key, b"other"))
        for message in self.NEW[:4]:
            selection = scheme.prp_select(medium_params, b"forger", message)
            z0 = leaked_sum(selection)
            own = CompressedSignature(y=leaked.aux, z=z0, key=selection.key)
            assert scheme.verify_compressed(pk, medium_params, 0, own, message)
            moved = signed1.z.mul(z0).mul(signed1_sum.exp(-1))
            for y, z in ((leaked.aux, z0), (signed1.y, z0), (signed1.y, moved)):
                forged = CompressedSignature(y=y, z=z, key=selection.key)
                assert not scheme.verify_compressed(pk, medium_params, 1, forged, message)
