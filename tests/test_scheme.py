"""Signature-scheme tests: oracles first, then behaviour and codecs."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from otsske import scheme
from otsske.errors import DecodeError, ParameterError
from otsske.groups import (
    DeterministicRandomness,
    pairing_counter,
    reset_pairing_counter,
)
from otsske.params import ORDER
from otsske.scheme import CompressedSignature, FullSignature, SchemeParams


def make_session(params, keys, session=0, seed=33, retain=True):
    pk, master = keys
    rng = DeterministicRandomness(seed)
    return scheme.gen_session(pk, master, params, session, rng, retain_secrets=retain)


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
        pk, master = toy_keys
        material = scheme.gen_session(pk, master, toy_params, 0, DeterministicRandomness(3))
        assert material.secrets is None


class TestIndexPoint:
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


class TestSessionStructure:
    def test_blinding_product_is_identity(self, toy_params, toy_keys):
        material = make_session(toy_params, toy_keys)
        assert sum(material.secrets.betas) % ORDER == 0
        pk, _ = toy_keys
        acc = pk.g.second_only().exp(material.secrets.betas[0])
        for beta in material.secrets.betas[1:]:
            acc = acc.mul(pk.g.second_only().exp(beta))
        assert acc.is_identity()

    def test_aggregation_identity_exhaustive(self, toy_params, toy_keys):
        """Every digit vector's aggregate equals the closed form.

        Oracle: (g2^a * (g1^k h)^r)^n computed directly from the retained
        session transients, never through the subkey matrix.
        """
        pk, master = toy_keys
        for session in range(toy_params.sessions):
            material = make_session(toy_params, toy_keys, session=session, seed=40 + session)
            r = material.secrets.r
            for value in range(toy_params.space):
                digits = scheme.decompose(toy_params, value)
                picked = [material.subkeys[j][b] for j, b in enumerate(digits)]
                agg = scheme.aggregate(toy_params, picked)
                k = scheme.encode_index(toy_params, session, value)
                oracle = (
                    master.g2_alpha.mul(scheme.index_point(pk, k).second_only().exp(r))
                ).exp(toy_params.symbols)
                assert agg == oracle, f"session {session}, digit vector {digits}"

    def test_aggregate_requires_full_subset(self, toy_params, toy_keys):
        material = make_session(toy_params, toy_keys)
        with pytest.raises(ParameterError):
            scheme.aggregate(toy_params, material.subkeys[0][:1])

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

    @given(st.integers(min_value=0, max_value=4**6 - 1))
    @settings(max_examples=50, deadline=None)
    def test_decompose_recompose_roundtrip(self, value):
        params = SchemeParams(sessions=1, symbols=6, radix=4)
        assert scheme.recompose(params, scheme.decompose(params, value)) == value

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
        value = scheme.recompose(params, [2, 1, 0])
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
    material = scheme.gen_session(
        pk, master, medium_params, 1, DeterministicRandomness(55), retain_secrets=False
    )
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
    comp = scheme.sign_compressed(pk, medium_params, 2, subkeys, selection, material.aux, message)
    return material, message, full, comp


class TestSignatures:

    def test_full_roundtrip(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        sig = scheme.sign_full(pk, medium_params, 1, subkeys, selection, material.aux,
                               message, DeterministicRandomness(60))
        assert scheme.verify_full(pk, medium_params, 1, sig, message)

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

    def test_compressed_roundtrip_and_pairings(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        reset_pairing_counter()
        sig = scheme.sign_compressed(pk, medium_params, 1, subkeys, selection, material.aux, message)
        assert pairing_counter() == 0, "compressed signing must not pair"
        reset_pairing_counter()
        assert scheme.verify_compressed(pk, medium_params, 1, sig, message)
        assert pairing_counter() == 3, "compressed verification is exactly three pairings"

    def test_compressed_deterministic(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        a = scheme.sign_compressed(pk, medium_params, 1, subkeys, selection, material.aux, message)
        b = scheme.sign_compressed(pk, medium_params, 1, subkeys, selection, material.aux, message)
        assert a == b

    def test_compressed_rejects_tampered_y(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        sig = scheme.sign_compressed(pk, medium_params, 1, subkeys, selection, material.aux, message)
        tampered = CompressedSignature(y=sig.y.mul(pk.g.first_only()), z=sig.z, key=sig.key)
        assert not scheme.verify_compressed(pk, medium_params, 1, tampered, message)

    def test_cross_variant_same_material(self, medium_params, medium_keys, signed):
        pk, _ = medium_keys
        material, message, selection, subkeys = signed
        full = scheme.sign_full(pk, medium_params, 1, subkeys, selection, material.aux,
                                message, DeterministicRandomness(65))
        comp = scheme.sign_compressed(pk, medium_params, 1, subkeys, selection, material.aux, message)
        assert scheme.verify_full(pk, medium_params, 1, full, message)
        assert scheme.verify_compressed(pk, medium_params, 1, comp, message)

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

    def test_degenerate_signature_rejected(self, medium_params, medium_keys, signed, monkeypatch):
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
            comp = scheme.sign_compressed(pk, medium_params, 0, subkeys, selection, material.aux, message)
            assert scheme.verify_full(pk, medium_params, 0, full, message)
            assert scheme.verify_compressed(pk, medium_params, 0, comp, message)

    def test_pure_backend_roundtrip(self, toy_params):
        from otsske.groups import setup

        group = setup(256, backend="pure")
        rng = DeterministicRandomness(71)
        pk, master = scheme.keygen_setup(toy_params, rng, group=group)
        material = scheme.gen_session(pk, master, toy_params, 0, rng)
        message = b"pure backend message"
        selection = scheme.prp_select(toy_params, b"key", message)
        subkeys = scheme.subkeys_at(material, selection)
        comp = scheme.sign_compressed(pk, toy_params, 0, subkeys, selection, material.aux, message)
        assert scheme.verify_compressed(pk, toy_params, 0, comp, message)


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

    def test_public_key_roundtrip(self, medium_params, medium_keys):
        pk, _ = medium_keys
        blob = scheme.encode_public_key(medium_params, pk)
        params2, pk2 = scheme.decode_public_key(blob)
        assert params2 == medium_params
        assert pk2 == pk

    def test_public_key_huge_symbol_count_rejected(self, medium_params, medium_keys):
        # the symbol count is an untrusted 8-byte field (the third one, body
        # at byte 40); t^n must never be evaluated for it
        pk, _ = medium_keys
        blob = bytearray(scheme.encode_public_key(medium_params, pk))
        blob[40:48] = struct.pack(">Q", 2**62)
        with pytest.raises(DecodeError):
            scheme.decode_public_key(bytes(blob))

    @pytest.mark.parametrize("base", ["g", "g2"])
    def test_public_key_substituted_base_point_rejected(self, toy_params, toy_keys, base):
        # g and g2 are fixed constants: a key carrying g^5 or g2^5 is refused
        pk, _ = toy_keys
        swapped = dataclasses.replace(pk, **{base: getattr(pk, base).exp(5)})
        blob = scheme.encode_public_key(toy_params, swapped)
        with pytest.raises(DecodeError, match=f"base point {base} is not"):
            scheme.decode_public_key(blob)

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
