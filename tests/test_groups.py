"""Element wrapper, hashing, randomness and instrumentation tests."""

import hashlib
import random

import pytest

from otsske.errors import DecodeError, RepresentationError, UnsupportedSecurityLevelError
from otsske.groups import (
    DeterministicRandomness,
    SourceElement,
    SystemRandomness,
    TAG_MESSAGE_HASH,
    TargetElement,
    TAG_PRP,
    aux_generator,
    generator,
    hash_to_scalar,
    pair,
    pairing_counter,
    random_nonzero_scalar,
    random_scalar,
    reset_pairing_counter,
    setup,
    tagged_hash,
)
from otsske.params import ORDER


class TestSetup:
    def test_supported_levels(self):
        for level in (128, 256):
            params = setup(level)
            assert params.security_level == level

    def test_unsupported_level(self):
        with pytest.raises(UnsupportedSecurityLevelError):
            setup(512)

    def test_deterministic(self):
        assert setup(256) == setup(256)


class TestSourceElement:
    def test_generator_is_dual(self, group):
        g = generator(group)
        assert g.first is not None and g.second is not None

    def test_exp_zero_gives_identity(self, group):
        g = generator(group)
        assert g.exp(0).is_identity()

    def test_identity_serialization(self, group):
        elem = generator(group).exp(0)
        data = elem.serialize()
        assert len(data) == 144
        assert data[0] == 0xC0 and data[48] == 0xC0

    def test_mul_intersects_representations(self, group):
        g = generator(group)
        g2 = aux_generator(group)  # second-group only
        product = g.mul(g2)
        assert product.first is None and product.second is not None

    def test_disjoint_representations_error(self, group):
        g = generator(group)
        first = g.first_only()
        second = aux_generator(group)
        with pytest.raises(RepresentationError):
            first.mul(second)

    def test_no_representation_rejected(self, group):
        with pytest.raises(RepresentationError):
            SourceElement(group, None, None)

    def test_pairing_requires_sides(self, group):
        g = generator(group)
        with pytest.raises(RepresentationError):
            pair(aux_generator(group), g)  # left arg has no first-group side
        with pytest.raises(RepresentationError):
            pair(g.first_only(), g.first_only())

    def test_serialize_round_trip(self, group):
        g = generator(group)
        for elem in (g.exp(123), g.first_only().exp(5), aux_generator(group).exp(9)):
            back = SourceElement.deserialize(group, elem.serialize())
            assert back == elem

    def test_deserialize_bad_length(self, group):
        with pytest.raises(DecodeError):
            SourceElement.deserialize(group, b"\x00" * 50)

    def test_deserialize_garbage(self, group):
        with pytest.raises(DecodeError):
            SourceElement.deserialize(group, b"\xff" * 48)

    def test_exp_matches_repeated_mul(self, group):
        g = generator(group)
        assert g.exp(3) == g.mul(g).mul(g)


class TestPairingCounter:
    def test_counts_and_resets(self, group):
        g = generator(group)
        g2 = aux_generator(group)
        reset_pairing_counter()
        pair(g, g2)
        assert pairing_counter() == 1
        pair(g, g2)
        assert pairing_counter() == 2
        reset_pairing_counter()
        assert pairing_counter() == 0


class TestTargetElement:
    def test_pair_records_one_term(self, group):
        g, h = generator(group), aux_generator(group)
        e = pair(g, h).mul(pair(g.exp(2), h))
        assert e.terms == ((g.first, h.second), (g.exp(2).first, h.second))

    def test_equality_matches_finalized_values(self, group):
        # e(g, h)^(ab) against a product with exponents c and ab - c, and
        # against the same product off by one in either factor
        rnd = random.Random(13)
        g, h = generator(group), aux_generator(group)
        for _ in range(3):
            a, b, c = (rnd.randrange(1, ORDER) for _ in range(3))
            lhs = pair(g.exp(a), h.exp(b))
            for da, db in ((0, 0), (1, 0), (0, -1)):
                rhs = pair(g.exp(c + da), h).mul(pair(g, h.exp(a * b - c + db)))
                expected = da == db == 0
                assert (lhs == rhs) is (rhs == lhs) is (lhs.value == rhs.value) is expected
                assert (lhs != rhs) is not expected

    def test_value_is_the_pairing(self, group):
        g, h = generator(group), aux_generator(group)
        b = group.backend
        assert pair(g, h).value == b.pairing(g.first, h.second)
        assert pair(g.exp(0), h).value == b.GT_ONE

    def test_unhashable(self, group):
        # equality costs a pairing, so elements never key a dict or set
        g, h = generator(group), aux_generator(group)
        assert TargetElement.__hash__ is None
        with pytest.raises(TypeError):
            hash(pair(g, h))

    def test_not_equal_to_other_types(self, group):
        e = pair(generator(group), aux_generator(group))
        assert e != e.value and e != "e"


class TestHashing:
    def test_deterministic(self):
        a = hash_to_scalar(TAG_MESSAGE_HASH, [b"msg", b"more"])
        b = hash_to_scalar(TAG_MESSAGE_HASH, [b"msg", b"more"])
        assert a == b

    def test_domain_separation(self):
        parts = [b"same", b"parts"]
        assert hash_to_scalar(TAG_MESSAGE_HASH, parts) != hash_to_scalar(TAG_PRP, parts)

    def test_domain_separation_reference(self):
        # recompute with the documented construction: sha512 over
        # length-prefixed tag and parts, reduced mod the order
        parts = [b"alpha", b"beta"]
        for tag in (TAG_MESSAGE_HASH, TAG_PRP):
            buf = len(tag).to_bytes(8, "big") + tag
            for part in parts:
                buf += len(part).to_bytes(8, "big") + part
            expect = int.from_bytes(hashlib.sha512(buf).digest(), "big") % ORDER
            assert hash_to_scalar(tag, parts) == expect

    def test_empty_parts_defined(self):
        assert 0 <= hash_to_scalar(TAG_PRP, []) < ORDER

    def test_length_prefixing_prevents_ambiguity(self):
        assert hash_to_scalar(TAG_PRP, [b"ab", b"c"]) != hash_to_scalar(TAG_PRP, [b"a", b"bc"])

    def test_tagged_hash_size_and_determinism(self):
        d = tagged_hash(b"OTSSKE/MR", [b"enclave"])
        assert len(d) == 32
        assert d == tagged_hash(b"OTSSKE/MR", [b"enclave"])
        assert d != tagged_hash(b"OTSSKE/MR", [b"enclavf"])

    def test_bit_balance(self):
        """Sanity check of near-uniformity mod the order.

        Uniform values mod r have exactly balanced low bits.  The top bit
        (bit 254) is structurally biased: it is set with probability
        (r - 2^254) / r, not 1/2, because the range [0, r) is not a power
        of two.  Assert each bit matches its exact expectation.
        """
        draws = 10_000
        top = sum(
            (hash_to_scalar(TAG_PRP, [i.to_bytes(4, "big")]) >> 254) & 1
            for i in range(draws)
        )
        mid = sum(
            (hash_to_scalar(TAG_PRP, [i.to_bytes(4, "big")]) >> 127) & 1
            for i in range(draws)
        )
        expected_top = (ORDER - (1 << 254)) / ORDER
        assert abs(top / draws - expected_top) < 0.02
        assert abs(mid / draws - 0.5) < 0.02


class TestRandomness:
    def test_scalar_range(self):
        rng = DeterministicRandomness(1)
        for _ in range(100):
            assert 0 <= random_scalar(rng) < ORDER

    def test_distinct_draws(self):
        rng = DeterministicRandomness(0)
        assert random_scalar(rng) != random_scalar(rng)

    def test_replay_same_seed(self):
        a = [random_scalar(DeterministicRandomness(0)) for _ in range(1)]
        b = [random_scalar(DeterministicRandomness(0)) for _ in range(1)]
        assert a == b
        # same seed, same draw index: replay a longer stream
        r1 = DeterministicRandomness(9)
        r2 = DeterministicRandomness(9)
        for _ in range(10):
            assert random_scalar(r1) == random_scalar(r2)

    def test_different_seeds_differ(self):
        assert random_scalar(DeterministicRandomness(1)) != random_scalar(DeterministicRandomness(2))

    def test_nonzero_variant(self):
        rng = DeterministicRandomness(3)
        assert all(random_nonzero_scalar(rng) != 0 for _ in range(10_000))

    def test_fork_independence(self):
        root = DeterministicRandomness(4)
        a = root.fork(b"a")
        b = root.fork(b"b")
        assert a.random_bytes(16) != b.random_bytes(16)
        # forks are stable regardless of parent consumption
        root2 = DeterministicRandomness(4)
        root2.random_bytes(64)
        assert root2.fork(b"a").random_bytes(16) == DeterministicRandomness(4).fork(b"a").random_bytes(16)

    def test_system_rng_basic(self):
        rng = SystemRandomness()
        assert rng.random_bytes(16) != rng.random_bytes(16)
        assert rng.fork(b"x") is rng
