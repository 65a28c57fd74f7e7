"""Decoder fuzzing: untrusted bytes give a decoded value or DecodeError.

Public keys, session stores, signatures and quotes all arrive from
outside.  Each decoder gets arbitrary bytes and valid toy encodings that
are truncated, extended or have one byte changed, on every backend; any
exception other than :class:`DecodeError` fails the test.
"""

import dataclasses
import functools
import struct
import types

import pytest
from hypothesis import given, settings, strategies as st

from otsske import protocol, scheme
from otsske.backend import available_backends
from otsske.errors import DecodeError, ParameterError
from otsske.groups import DeterministicRandomness, SourceElement, pair, setup
from otsske.params import G1_GENERATOR, G2_GENERATOR, ORDER

BACKENDS = available_backends()
PARAMS = scheme.SchemeParams(sessions=2, symbols=2, radix=2)

DECODERS = {
    "public_key": lambda group, data: scheme.decode_public_key(data, backend=group.backend_name),
    "session_store": lambda group, data: scheme.decode_session_store(data, backend=group.backend_name),
    "signature": scheme.decode_signature,
    "quote": protocol.quote_decode,
}


@functools.lru_cache(maxsize=None)
def encodings(backend):
    """Valid toy encodings of every decoded type, as (decoder, value, bytes)."""
    group = setup(256, backend=backend)
    rng = DeterministicRandomness(b"decoder-fuzz")
    pk, master = scheme.keygen_setup(PARAMS, rng, group=group)
    material = scheme.gen_session(pk, master, PARAMS, 1, rng)
    message = b"fuzzed message"
    selection = scheme.prp_select(PARAMS, b"key", message)
    subkeys = scheme.subkeys_at(material, selection)
    full = scheme.sign_full(pk, PARAMS, 1, subkeys, selection, material.aux, message, rng)
    compressed = scheme.sign_compressed(pk, PARAMS, 1, subkeys, selection, material.aux)
    quote = protocol.Quote(counter=2, y=compressed.y, z=compressed.z,
                           raenc_mr=protocol.measure(b"signer"), app_mr=protocol.measure(b"app"),
                           result=b"app result")
    return group, {
        "public_key": ("public_key", (PARAMS, pk), scheme.encode_public_key(PARAMS, pk)),
        "session_store": ("session_store", (PARAMS, pk, master, [material]),
                          scheme.encode_session_store(PARAMS, pk, master, [material])),
        "full_signature": ("signature", full, scheme.encode_signature(full)),
        "compressed_signature": ("signature", compressed, scheme.encode_signature(compressed)),
        "quote": ("quote", quote, protocol.quote_encode(quote)),
    }


def decode_or_reject(decoder, group, data):
    try:
        DECODERS[decoder](group, data)
    except DecodeError:
        pass


def mutations(valid):
    """Truncations, extensions and single-byte changes of one encoding."""
    changed = st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)).map(
        lambda at: valid[: at[0]] + bytes([valid[at[0]] ^ at[1]]) + valid[at[0] + 1 :]
    )
    return st.one_of(
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        st.binary(min_size=1, max_size=64).map(lambda extra: valid + extra),
        changed,
    )


KINDS = ["public_key", "session_store", "full_signature", "compressed_signature", "quote"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_valid_encodings_round_trip(backend, kind):
    group, table = encodings(backend)
    decoder, value, data = table[kind]
    assert DECODERS[decoder](group, data) == value


@pytest.mark.parametrize("decoder", sorted(DECODERS))
@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.binary(max_size=800))
@settings(max_examples=100, deadline=None)
def test_arbitrary_bytes_decode_or_reject(backend, decoder, data):
    group, _ = encodings(backend)
    decode_or_reject(decoder, group, data)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_encodings_decode_or_reject(backend, kind, data):
    group, table = encodings(backend)
    decoder, _, valid = table[kind]
    decode_or_reject(decoder, group, data.draw(mutations(valid)))


@pytest.mark.parametrize("sides", [(5, 7), (7, 5), (7, 7)])
@pytest.mark.parametrize("backend", BACKENDS)
def test_store_whose_exponent_disagrees_with_the_key_is_rejected(backend, sides):
    # a store holds alpha = 5 next to a public key whose g1 is (G1^a, G2^b)
    group, table = encodings(backend)
    _, (params, pk, master, materials), _ = table["session_store"]
    b = group.backend
    a, c = sides
    forged = scheme.PublicKey(group, SourceElement(group, b.g1_mul(G1_GENERATOR, a), b.g2_mul(G2_GENERATOR, c)), pk.h)
    data = scheme.encode_session_store(params, forged, scheme.MasterSecret(5, pk.g2.exp(5)), materials)
    with pytest.raises(DecodeError, match="master exponent does not match the public key"):
        scheme.decode_session_store(data, backend=backend)
    # the same store with a consistent key decodes
    honest = scheme.PublicKey(group, SourceElement(group, b.g1_mul(G1_GENERATOR, 5), b.g2_mul(G2_GENERATOR, 5)), pk.h)
    data = scheme.encode_session_store(params, honest, scheme.MasterSecret(5, pk.g2.exp(5)), materials)
    assert scheme.decode_session_store(data, backend=backend)[1] == honest


def g1_field_changes(group, pk):
    """Replacements for a key's 144-byte g1 field: valid dual points other
    than g1 (g1 negated on one or both sides, the generator, infinity), and
    encodings that do not decode (no compression flag, an x at or above q,
    a G2 x = 5 whose points lie outside the subgroup, a sign flag set on
    infinity)."""
    b = group.backend
    g1, g = pk.g1.serialize(), pk.g.serialize()
    minus = SourceElement(group, b.g1_neg(pk.g1.first), pk.g1.second_only().exp(-1).second).serialize()
    infinity = bytes([0xC0]) + bytes(47) + bytes([0xC0]) + bytes(95)
    return [
        minus, minus[:48] + g1[48:], g1[:48] + minus[48:], g, infinity,
        bytes([g1[0] & 0x7F]) + g1[1:], bytes([0x9F]) + b"\xff" * 47 + g1[48:],
        g1[:48] + bytes([g1[48] & 0xE0]) + bytes(94) + b"\x05", bytes([0xE0]) + bytes(47) + g1[48:],
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_whose_g1_field_is_changed_is_rejected(backend):
    # the loader compares the field with the encoding of g^alpha, byte for byte
    group, table = encodings(backend)
    _, (params, pk, master, materials), store = table["session_store"]
    g1 = pk.g1.serialize()
    assert store.count(g1) == 1
    for field in g1_field_changes(group, pk):
        assert field != g1 and len(field) == 144
        with pytest.raises(DecodeError, match="master exponent does not match the public key"):
            scheme.decode_session_store(store.replace(g1, field), backend=backend)


@pytest.mark.parametrize("sides", [(5, 7), (7, 5), (7, 7)])
@pytest.mark.parametrize("backend", BACKENDS)
def test_public_key_whose_g1_sides_disagree_is_rejected(backend, sides):
    # g1 = (G1^a, G2^c) is a valid point on each side; only a = c is a key
    group, table = encodings(backend)
    _, (params, pk), _ = table["public_key"]
    b = group.backend
    a, c = sides
    g1 = SourceElement(group, b.g1_mul(G1_GENERATOR, a), b.g2_mul(G2_GENERATOR, c))
    data = scheme.encode_public_key(params, scheme.PublicKey(group, g1, pk.h))
    if a != c:
        with pytest.raises(DecodeError, match="the two sides of g1 disagree"):
            scheme.decode_public_key(data, backend=backend)
    else:
        assert scheme.decode_public_key(data, backend=backend)[1].g1 == g1


@pytest.mark.parametrize("backend", BACKENDS)
def test_public_key_whose_h_is_the_identity_is_refused(backend):
    # h is checked before g1, so it is named beside an identity g1 too
    group, table = encodings(backend)
    _, (params, pk), _ = table["public_key"]
    h = SourceElement(group, None, ())
    for g1 in (pk.g1, SourceElement(group, (), ())):
        data = scheme.encode_public_key(params, scheme.PublicKey(group, g1, h))
        with pytest.raises(DecodeError, match="^h is the identity$"):
            scheme.decode_public_key(data, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_whose_h_is_the_identity_is_refused(backend):
    group, table = encodings(backend)
    _, (params, pk, master, materials), _ = table["session_store"]
    degenerate = scheme.PublicKey(group, pk.g1, SourceElement(group, None, ()))
    data = scheme.encode_session_store(params, degenerate, master, materials)
    with pytest.raises(DecodeError, match="^h is the identity$"):
        scheme.decode_session_store(data, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_forgery_under_an_identity_g1_is_refused_at_decode(backend):
    # with g1 = O, y = g and z = h^n meet verify's equation
    # e(g, z) == e(g1^n, g2) e(y, (g1^k h)^n) for every index k, so for
    # every message and session: the key must not decode
    group, table = encodings(backend)
    _, (params, pk), _ = table["public_key"]
    n, identity = params.symbols, SourceElement(group, (), ())
    y, z = pk.g.first_only(), pk.h.exp(n)
    for k in (0, 1, 2**64 + 5):
        index = identity.second_only().exp(k).mul(pk.h).exp(n)
        assert pair(pk.g, z) == pair(identity.first_only().exp(n), pk.g2).mul(pair(y, index))
    data = scheme.encode_public_key(params, scheme.PublicKey(group, identity, pk.h))
    with pytest.raises(DecodeError, match="^g1 is the identity$"):
        scheme.decode_public_key(data, backend=backend)


STORE_CHANGES = {
    "r-zero": lambda m: dataclasses.replace(m, r=0),
    "r-order": lambda m: dataclasses.replace(m, r=ORDER),
    "beta-order": lambda m: dataclasses.replace(m, betas=(ORDER, *m.betas[1:])),
}


@pytest.mark.parametrize("change", [*STORE_CHANGES, "former-layout"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_store_of_a_session_no_generation_makes_is_refused(backend, change, old_layout_store):
    # r in (0, order) and betas in [0, order), as drawn; the former layout
    # held aux (48 bytes) where r (32 bytes) now is
    group, table = encodings(backend)
    _, (params, pk, master, [material]), _ = table["session_store"]
    if change == "former-layout":
        data = old_layout_store(params, pk, master, [material])
        message = "^field of 48 bytes where 32 expected$"
    else:
        data = scheme.encode_session_store(params, pk, master, [STORE_CHANGES[change](material)])
        message = "^session 1's (r is|betas are) out of range$"
    with pytest.raises(DecodeError, match=message):
        scheme.decode_session_store(data, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_whose_key_claims_too_many_subkeys_is_refused(backend):
    # the radix is the key's fourth integer field (body at byte 56 of the
    # key, 64 of the store); a load would regenerate t*n subkeys a session,
    # while the key alone, which builds no matrix, still reads
    group, table = encodings(backend)
    _, _, data = table["session_store"]
    data = data[:64] + struct.pack(">Q", 2**17 + 1) + data[72:]
    message = r"^a store holds at most 262144 subkeys, not 1 x 262146 \(sessions x t \* n\)$"
    with pytest.raises(DecodeError, match=message):
        scheme.decode_session_store(data, backend=backend)
    key = data[8 : 8 + struct.unpack(">Q", data[:8])[0]]
    assert scheme.decode_public_key(key, backend=backend)[0].radix == 2**17 + 1



@pytest.mark.parametrize("backend", BACKENDS)
def test_store_over_the_subkey_bound_in_all_is_refused_before_any_load(backend, monkeypatch):
    # two sessions at t = 2^16, n = 4 hold 2^19 subkeys: each alone is
    # within the bound, both are twice it.  The load refuses them before
    # it regenerates either, and the encoder refuses to write them.
    params = scheme.SchemeParams(sessions=2, symbols=4, radix=2**16)
    pk, master = scheme.keygen_setup(params, DeterministicRandomness(7), group=setup(256, backend=backend))
    fields = [scheme.encode_public_key(params, pk), master.alpha.to_bytes(32, "big"), struct.pack(">Q", 2)]
    for session in range(2):
        fields += [struct.pack(">Q", session), (1).to_bytes(32, "big"), bytes(32 * 3)]
    data = scheme._pack_fields(fields)
    calls = []

    def regenerated(pk, master, params, session, r, betas):
        calls.append(session)
        return types.SimpleNamespace(session=session)

    monkeypatch.setattr(scheme, "_session_material", regenerated)
    message = r"^a store holds at most 262144 subkeys, not 2 x 262144 \(sessions x t \* n\)$"
    with pytest.raises(DecodeError, match=message):
        scheme.decode_session_store(data, backend=backend)
    assert calls == []
    with pytest.raises(ParameterError, match=message):
        scheme.encode_session_store(params, pk, master, [object(), object()])
    # the store is well formed: without the bound, both sessions would load
    monkeypatch.setattr(scheme, "check_store_size", lambda *args: None)
    assert len(scheme.decode_session_store(data, backend=backend)[3]) == 2
    assert calls == [0, 1]

SHAPES = [(2, 1), (2, 3), (3, 2), (4, 3)]


@functools.lru_cache(maxsize=None)
def two_session_store(backend, radix, symbols):
    params = scheme.SchemeParams(sessions=2, symbols=symbols, radix=radix)
    group = setup(256, backend=backend)
    rng = DeterministicRandomness(b"store-shapes")
    pk, master = scheme.keygen_setup(params, rng, group=group)
    materials = [scheme.gen_session(pk, master, params, s, rng) for s in range(2)]
    data = scheme.encode_session_store(params, pk, master, materials)
    return (params, pk, master, materials), data


@pytest.mark.parametrize("shape", SHAPES, ids=[f"t{t}n{n}" for t, n in SHAPES])
@pytest.mark.parametrize("backend", BACKENDS)
def test_two_session_store_round_trips(backend, shape):
    (params, pk, master, materials), data = two_session_store(backend, *shape)
    assert scheme.decode_session_store(data, backend=backend) == (params, pk, master, materials)
    # every backend writes and reads back the same store
    for other in BACKENDS:
        assert two_session_store(other, *shape)[1] == data
        assert scheme.decode_session_store(data, backend=other)[3] == materials


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_that_repeats_a_session_is_refused(backend):
    # two one-time keys under one session label, which the co-processor's
    # counter rules out: the encoder refuses them, and so does the decoder
    group, table = encodings(backend)
    _, (params, pk, master, [material]), data = table["session_store"]
    other = scheme.gen_session(pk, master, params, material.session, DeterministicRandomness(b"again"))
    assert other != material
    with pytest.raises(ParameterError, match="a session is stored more than once"):
        scheme.encode_session_store(params, pk, master, [material, other])
    # the store written by hand: its key and exponent, a count of 2, both
    # records (session index, r and the n - 1 free betas)
    record = 16 + (8 + 32) + (8 + 32 * (params.symbols - 1))
    head = data[: -record - 16]
    second = scheme.encode_session_store(params, pk, master, [other])[-record:]
    assert scheme.decode_session_store(head + scheme._pack_fields([struct.pack(">Q", 1)]) + second,
                                       backend=backend)[3] == [other]
    forged = head + scheme._pack_fields([struct.pack(">Q", 2)]) + data[-record:] + second
    with pytest.raises(DecodeError, match=f"session {material.session} is stored more than once"):
        scheme.decode_session_store(forged, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_of_a_session_outside_the_params_is_refused(backend):
    # session 1 under parameters with room for session 0 alone: the decoder
    # would refuse the store, so the encoder does not write it
    group, table = encodings(backend)
    _, (params, pk, master, [material]), _ = table["session_store"]
    narrow = scheme.SchemeParams(sessions=1, symbols=params.symbols, radix=params.radix)
    with pytest.raises(ParameterError, match=r"^session 1 outside \[0, 1\)$"):
        scheme.encode_session_store(narrow, pk, master, [material])
