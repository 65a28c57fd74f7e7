"""Attestation-flow tests: memory semantics, actors, observer log, forgeries."""

import gc
import threading
import time
import weakref

import pytest

from otsske import protocol, scheme
from otsske.backend import available_backends
from otsske.errors import (
    BufferCorruptionError,
    DecodeError,
    ParameterError,
    ProtocolError,
    SessionBudgetError,
    SessionConsumedError,
)
from otsske.groups import DeterministicRandomness, setup
from otsske.protocol import (
    AdversaryLog,
    AttestationRequest,
    CoProcessor,
    Measurement,
    MemoryReadEvent,
    ObliviousBuffer,
    RAEnclave,
    RemoteVerifier,
    measure,
    protocol_message,
    quote_decode,
    quote_encode,
    run_protocol,
    run_security_game,
    selector_input,
    user_verify,
)

MR = measure(b"test enclave descriptor")


def buffer_reads(log):
    return [e for e in log.events if isinstance(e, MemoryReadEvent)]


@pytest.fixture(scope="module")
def proto_params():
    # collision-safe subset space at moderate size
    return scheme.SchemeParams(sessions=4, symbols=16, radix=4)


@pytest.fixture(scope="module")
def completed_run(proto_params):
    return run_protocol(proto_params, seed=1900, sessions=4)


class TestMeasurement:
    def test_deterministic(self):
        assert measure(b"abc") == measure(b"abc")

    def test_one_byte_sensitivity(self):
        assert measure(b"abc") != measure(b"abd")

    def test_empty_descriptor(self):
        assert len(measure(b"").digest) == 32

    def test_wrong_size_rejected(self):
        with pytest.raises(ParameterError):
            Measurement(b"short")


class TestObliviousBuffer:
    def make(self, toy_params, toy_keys, session=0):
        pk, master = toy_keys
        material = scheme.gen_session(pk, master, toy_params, session, DeterministicRandomness(500))
        return ObliviousBuffer(toy_params, session, material), material

    def test_read_returns_selected_subset(self, toy_params, toy_keys):
        buffer, material = self.make(toy_params, toy_keys)
        subkeys, selection = buffer.read(b"x-value", MR)
        assert len(subkeys) == toy_params.symbols
        expected = scheme.eot_select(toy_params, b"x-value", MR.digest)
        assert selection == expected
        own = scheme.subkeys_at(material, selection)
        assert subkeys == own
        # the co-processor's own objects, served without a decode
        assert all(served is mine for served, mine in zip(subkeys, own))

    def test_erasure_drops_unread_subkeys(self, proto_params):
        rng = DeterministicRandomness(84)
        coproc = CoProcessor(proto_params, rng)
        coproc.generate_next(rng)
        _, buffer, _ = coproc.fetch_session()
        refs = [weakref.ref(slot) for slot in buffer._slots]
        _, selection = buffer.read(b"x", MR)
        gc.collect()
        alive = {index for index, ref in enumerate(refs) if ref() is not None}
        assert alive == set(selection.indices)

    def test_second_read_fails(self, toy_params, toy_keys):
        buffer, _ = self.make(toy_params, toy_keys)
        buffer.read(b"x", MR)
        with pytest.raises(SessionConsumedError):
            buffer.read(b"x", MR)

    def test_erasure_after_read(self, toy_params, toy_keys):
        buffer, _ = self.make(toy_params, toy_keys)
        _, selection = buffer.read(b"x", MR)
        erased = set(buffer.erased_indices())
        assert erased == set(range(toy_params.subkey_count)) - set(selection.indices)

    def test_corrupted_slot_detected(self, toy_params, toy_keys):
        buffer, _ = self.make(toy_params, toy_keys)
        buffer._slots = [None] * toy_params.subkey_count
        with pytest.raises(BufferCorruptionError):
            buffer.read(b"x", MR)

    def test_caller_changes_selection(self, toy_params, toy_keys):
        params = scheme.SchemeParams(sessions=1, symbols=16, radix=4)
        sel_a = scheme.eot_select(params, b"x", measure(b"honest").digest)
        sel_b = scheme.eot_select(params, b"x", measure(b"malicious").digest)
        assert sel_a.value != sel_b.value

    def test_read_is_logged(self, toy_params, toy_keys):
        buffer, _ = self.make(toy_params, toy_keys)
        log = AdversaryLog()
        subkeys, selection = buffer.read(b"x", MR, log=log)
        events = buffer_reads(log)
        assert len(events) == 1
        assert events[0].selection == selection
        assert events[0].subkeys == subkeys


class TestCoProcessor:
    def test_counter_starts_at_zero(self, toy_params):
        coproc = CoProcessor(toy_params, DeterministicRandomness(1))
        assert coproc.counter == 0

    def test_first_label_is_one(self, toy_params):
        rng = DeterministicRandomness(2)
        coproc = CoProcessor(toy_params, rng)
        assert coproc.generate_next(rng) == 1
        assert coproc.counter == 1

    def test_budget_enforced_state_unchanged(self, toy_params):
        rng = DeterministicRandomness(3)
        coproc = CoProcessor(toy_params, rng)
        for _ in range(toy_params.sessions):
            coproc.generate_next(rng)
        before = coproc.counter
        with pytest.raises(SessionBudgetError):
            coproc.generate_next(rng)
        assert coproc.counter == before

    def test_buffer_fully_populated(self, toy_params):
        rng = DeterministicRandomness(4)
        coproc = CoProcessor(toy_params, rng)
        coproc.generate_next(rng)
        _, buffer, _ = coproc.fetch_session()
        assert len(buffer._slots) == toy_params.subkey_count
        assert all(slot is not None for slot in buffer._slots)

    def test_fetch_without_generation(self, toy_params):
        coproc = CoProcessor(toy_params, DeterministicRandomness(5))
        with pytest.raises(ProtocolError):
            coproc.fetch_session()

    def test_one_caller_generates_every_session_ahead(self):
        params = scheme.SchemeParams(sessions=5, symbols=2, radix=2)
        rng = DeterministicRandomness(8)
        coproc = CoProcessor(params, rng)
        labels = list(range(1, params.sessions + 1))
        outcome = []

        def generate_then_fetch():
            generated = [coproc.generate_next(rng) for _ in labels]
            fetched = [coproc.fetch_session()[0] for _ in labels]
            outcome.append((generated, fetched))

        # a generator that blocks would hang the suite; a bounded join fails instead
        caller = threading.Thread(target=generate_then_fetch, daemon=True)
        caller.start()
        caller.join(timeout=30.0)
        assert not caller.is_alive()
        assert outcome == [(labels, labels)]
        with pytest.raises(SessionBudgetError):
            coproc.generate_next(rng)
        with pytest.raises(ProtocolError):
            coproc.fetch_session()

    def test_distinct_seeds_distinct_pk(self, toy_params):
        a = CoProcessor(toy_params, DeterministicRandomness(6))
        b = CoProcessor(toy_params, DeterministicRandomness(7))
        assert a.pk.g1 != b.pk.g1


COUNTED = ("g1_decompress", "g2_decompress", "g2_compress")


@pytest.fixture(params=available_backends())
def counted_group(request, monkeypatch):
    """A group whose backend counts its point encodings and decodings."""
    group = setup(256, backend=request.param)
    calls = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        real = getattr(group.backend, name)

        def spy(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(group.backend, name, spy)
    return group, calls


class TestCostStructure:
    def test_codec_calls_per_step(self, proto_params, counted_group):
        group, calls = counted_group
        rng = DeterministicRandomness(83)
        coproc = CoProcessor(proto_params, rng, group=group)
        enclave = RAEnclave(coproc.pk, proto_params, MR)
        verifier = RemoteVerifier(coproc.pk, proto_params)

        def counted(step, *args):
            calls.update(dict.fromkeys(COUNTED, 0))
            out = step(*args)
            return out, dict(calls)

        _, made = counted(coproc.generate_next, rng)
        assert made["g2_compress"] == 0
        _, buffer, _ = coproc.fetch_session()
        _, made = counted(buffer.read, b"x", MR)
        assert made["g1_decompress"] == made["g2_decompress"] == 0

        coproc.generate_next(rng)
        nonce = verifier.new_nonce(rng)

        def request():
            quote = enclave.handle(coproc, AttestationRequest(nonce, b"result", MR))
            decoded = quote_decode(group, quote_encode(quote))
            return verifier.verify(decoded, nonce)

        verdict, made = counted(request)
        assert verdict
        assert made["g1_decompress"] == 1
        assert made["g2_decompress"] == 1


class TestQuoteCodec:
    def test_roundtrip(self, completed_run):
        quote = completed_run.quotes[0]
        blob = quote_encode(quote)
        assert quote_decode(completed_run.pk.group, blob) == quote

    def test_layout(self, completed_run):
        quote = completed_run.quotes[0]
        blob = quote_encode(quote)
        assert blob[0] == 1
        assert int.from_bytes(blob[1:9], "big") == quote.counter
        assert blob[9:41] == quote.raenc_mr.digest
        assert len(blob) == 1 + 8 + 32 + 32 + 8 + len(quote.result) + 48 + 96

    def test_header_short_rejected(self, completed_run):
        blob = quote_encode(completed_run.quotes[0])
        with pytest.raises(DecodeError, match="^quote too short$"):
            quote_decode(completed_run.pk.group, blob[:80])

    def test_truncation_rejected(self, completed_run):
        blob = quote_encode(completed_run.quotes[0])
        with pytest.raises(DecodeError, match="^quote length does not match its result field$"):
            quote_decode(completed_run.pk.group, blob[:-1])

    def test_trailing_rejected(self, completed_run):
        blob = quote_encode(completed_run.quotes[0])
        with pytest.raises(DecodeError, match="^quote length does not match its result field$"):
            quote_decode(completed_run.pk.group, blob + b"\x00")

    def test_bad_version_rejected(self, completed_run):
        blob = bytearray(quote_encode(completed_run.quotes[0]))
        blob[0] = 9
        with pytest.raises(DecodeError, match="^unsupported quote version 9$"):
            quote_decode(completed_run.pk.group, bytes(blob))

    def test_tampered_element_rejected(self, completed_run):
        blob = bytearray(quote_encode(completed_run.quotes[0]))
        blob[-1] ^= 0xFF
        with pytest.raises(DecodeError):
            quote_decode(completed_run.pk.group, bytes(blob))


class TestEndToEnd:
    def test_all_sessions_verify(self, completed_run):
        assert completed_run.all_verified

    def test_counters_monotonic_gap_free(self, completed_run):
        counters = [q.counter for q in completed_run.quotes]
        assert counters == list(range(1, len(counters) + 1))

    @pytest.mark.parametrize("owner, name", [(RAEnclave, "handle"), (scheme, "gen_session")],
                             ids=["request", "keygen"])
    def test_failure_surfaces_at_once(self, monkeypatch, owner, name):
        params = scheme.SchemeParams(sessions=6, symbols=2, radix=2)
        failure = RuntimeError(f"{name} failed")

        def fail(*args, **kwargs):
            raise failure

        monkeypatch.setattr(owner, name, fail)
        threads = threading.active_count()
        start = time.monotonic()
        with pytest.raises(RuntimeError) as raised:
            run_protocol(params, seed=82, sessions=6)
        assert raised.value is failure
        assert time.monotonic() - start < 10.0
        assert threading.active_count() == threads

    def test_deterministic_across_runs(self, proto_params):
        a = run_protocol(proto_params, seed=78, sessions=2)
        b = run_protocol(proto_params, seed=78, sessions=2)
        assert a.transcript_text() == b.transcript_text()

    def test_backends_produce_identical_transcripts(self, proto_params):
        from otsske.backend import available_backends
        from otsske.groups import setup

        if len(available_backends()) < 2:
            pytest.skip("only one backend built")
        texts = [
            run_protocol(proto_params, seed=79, sessions=1,
                         group=setup(256, backend=name)).transcript_text()
            for name in available_backends()
        ]
        assert len(set(texts)) == 1

    def test_too_many_sessions_rejected(self, proto_params):
        with pytest.raises(ParameterError):
            run_protocol(proto_params, seed=1, sessions=proto_params.sessions + 1)

    @pytest.mark.parametrize("sessions", [0, -3])
    def test_no_sessions_rejected(self, proto_params, sessions):
        # an empty run verifies nothing, so it is a usage error, not a failed verification
        with pytest.raises(ParameterError, match=f"requested {sessions} sessions"):
            run_protocol(proto_params, seed=1, sessions=sessions)

    def test_exhaustion_error(self, proto_params):
        rng = DeterministicRandomness(79)
        coproc = CoProcessor(proto_params, rng)
        enclave = RAEnclave(coproc.pk, proto_params, MR)
        for index in range(proto_params.sessions):
            coproc.generate_next(rng)
            request = AttestationRequest(rng.random_bytes(16), b"r", MR)
            enclave.handle(coproc, request)
        with pytest.raises(SessionBudgetError):
            coproc.generate_next(rng)
        with pytest.raises(ProtocolError):
            enclave.handle(coproc, AttestationRequest(rng.random_bytes(16), b"r", MR))

    def test_same_nonce_two_requests_distinct_sessions(self, proto_params):
        rng = DeterministicRandomness(80)
        coproc = CoProcessor(proto_params, rng)
        enclave = RAEnclave(coproc.pk, proto_params, MR)
        nonce = rng.random_bytes(16)
        coproc.generate_next(rng)
        q1 = enclave.handle(coproc, AttestationRequest(nonce, b"r", MR))
        coproc.generate_next(rng)
        q2 = enclave.handle(coproc, AttestationRequest(nonce, b"r", MR))
        assert q1.counter != q2.counter
        assert user_verify(coproc.pk, proto_params, q1, nonce)
        assert user_verify(coproc.pk, proto_params, q2, nonce)


class TestFreshness:
    def test_replay_under_other_nonce_fails(self, proto_params, completed_run):
        pk = completed_run.pk
        quote = completed_run.quotes[0]
        assert not user_verify(pk, proto_params, quote, completed_run.nonces[1])

    def test_tampered_result_fails(self, proto_params, completed_run):
        pk = completed_run.pk
        q = completed_run.quotes[0]
        tampered = protocol.Quote(
            counter=q.counter, y=q.y, z=q.z, raenc_mr=q.raenc_mr,
            app_mr=q.app_mr, result=q.result + b"!",
        )
        assert not user_verify(pk, proto_params, tampered, completed_run.nonces[0])

    def test_out_of_range_counter_fails(self, proto_params, completed_run):
        # labels are 1..N; verify_compressed alone rejects the others
        q = completed_run.quotes[0]
        for counter in (0, proto_params.sessions + 1):
            bad = protocol.Quote(
                counter=counter, y=q.y, z=q.z,
                raenc_mr=q.raenc_mr, app_mr=q.app_mr, result=q.result,
            )
            assert not user_verify(completed_run.pk, proto_params, bad, completed_run.nonces[0])

    def test_verifier_policy_one_accept_per_nonce(self, proto_params):
        rng = DeterministicRandomness(81)
        coproc = CoProcessor(proto_params, rng)
        enclave = RAEnclave(coproc.pk, proto_params, MR)
        verifier = RemoteVerifier(coproc.pk, proto_params)
        nonce = verifier.new_nonce(rng)
        coproc.generate_next(rng)
        quote = enclave.handle(coproc, AttestationRequest(nonce, b"result", MR))
        assert verifier.verify(quote, nonce)
        assert not verifier.verify(quote, nonce)  # nonce already spent

    def test_verifier_rejects_unknown_nonce(self, proto_params, completed_run):
        verifier = RemoteVerifier(completed_run.pk, proto_params)
        assert not verifier.verify(completed_run.quotes[0], b"\x00" * 16)


class TestAdversaryLog:
    def test_one_read_event_per_session(self, proto_params, completed_run):
        reads = buffer_reads(completed_run.log)
        assert len(reads) == proto_params.sessions
        assert sorted(e.session for e in reads) == list(range(proto_params.sessions))

    def test_subkeys_match_served_indices(self, proto_params, completed_run):
        for event in buffer_reads(completed_run.log):
            assert len(event.subkeys) == proto_params.symbols
            assert len(event.selection.indices) == proto_params.symbols
            for j, index in enumerate(event.selection.indices):
                assert proto_params.radix * j <= index < proto_params.radix * (j + 1)

    def test_views_complete(self, proto_params, completed_run):
        views = completed_run.log.session_views()
        assert sorted(views) == list(range(proto_params.sessions))
        for session, view in views.items():
            assert view.quote.counter == session + 1
            assert view.message == protocol_message(
                view.quote.raenc_mr, view.quote.app_mr, view.quote.result
            )
            assert view.x == selector_input(view.nonce, view.message)

    def test_failed_request_does_not_shift_views(self, toy_params):
        rng = DeterministicRandomness(85)
        log = AdversaryLog()
        coproc = CoProcessor(toy_params, rng, log=log)
        enclave = RAEnclave(coproc.pk, toy_params, MR)
        verifier = RemoteVerifier(coproc.pk, toy_params)
        early = verifier.make_request(rng, b"before any session", MR)
        with pytest.raises(ProtocolError):
            enclave.handle(coproc, early, log=log)
        coproc.generate_next(rng)
        served = verifier.make_request(rng, b"served", MR)
        quote = enclave.handle(coproc, served, log=log)
        assert verifier.verify(quote, served.nonce)
        view = log.session_views()[0]
        assert view.nonce == served.nonce
        assert view.x == selector_input(view.nonce, view.message)


class TestForgeryHarness:
    def test_empty_log_insufficient(self, proto_params, completed_run):
        attempts = protocol.adversary_forge_attempts(
            AdversaryLog(), completed_run.pk, proto_params, 0, b"m"
        )
        assert all(a.outcome == "insufficient" for a in attempts)

    def test_new_message_strategies_fail(self, proto_params, completed_run):
        target = protocol_message(measure(b"evil"), measure(b"evil app"), b"forged")
        for session in range(proto_params.sessions):
            attempts = protocol.adversary_forge_attempts(
                completed_run.log, completed_run.pk, proto_params, session, target
            )
            by_name = {a.strategy: a for a in attempts}
            for name in ("replay", "re-aggregation", "cross-session-substitution", "mix-and-match"):
                assert by_name[name].outcome == "rejected", (session, name)
            assert by_name["same-message-resign"].outcome == "verified"

    def test_single_session_log_lacks_cross_material(self, proto_params):
        run = run_protocol(proto_params, seed=90, sessions=1)
        attempts = protocol.adversary_forge_attempts(
            run.log, run.pk, proto_params, 0, b"\x11" * 32
        )
        by_name = {a.strategy: a for a in attempts}
        assert by_name["cross-session-substitution"].outcome == "insufficient"
        assert by_name["mix-and-match"].outcome == "insufficient"
        assert by_name["replay"].outcome == "rejected"

    def test_game_report_sound(self, proto_params):
        report = run_security_game(proto_params, seed=91)
        assert report.sound
        news = report.new_message_attempts
        assert len(news) >= proto_params.sessions * 4 * protocol.GAME_MESSAGES
        assert all(not a.verified for a in news)
        assert all(a.verified for a in report.same_message_attempts)

    def test_compressed_resign_reproduces_quote(self, proto_params, completed_run):
        # re-signing with the leaked material reproduces the exact quote body
        view = completed_run.log.session_views()[0]
        sig = scheme.sign_compressed(
            completed_run.pk, proto_params, 0, view.subkeys, view.selection, view.aux
        )
        assert sig.y == view.quote.y
        assert sig.z == view.quote.z
