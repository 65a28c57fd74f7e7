"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Published timing figures are embedded in benchmark
reports as orientation only and are never asserted here; all assertions
are structural (counts, identities, rejection rates, determinism).
"""

import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from otsske import bench, protocol, scheme
from otsske.cli import main as cli_main
from otsske.groups import (
    DeterministicRandomness,
    pairing_counter,
    reset_pairing_counter,
    setup,
)
from otsske.errors import SessionConsumedError
from otsske.protocol import (
    CoProcessor,
    RAEnclave,
    RemoteVerifier,
    measure,
    run_protocol,
    run_security_game,
    user_verify,
)
from otsske.scheme import CompressedSignature, FullSignature, SchemeParams

DATA_DIR = Path(__file__).parent / "data"

DEFAULT_PARAMS = SchemeParams(sessions=8, symbols=32, radix=4, security_level=256)


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def default_setup():
    group = setup(256)
    rng = DeterministicRandomness(b"acceptance")
    pk, master = scheme.keygen_setup(DEFAULT_PARAMS, rng, group=group)
    materials = [
        scheme.gen_session(pk, master, DEFAULT_PARAMS, s, rng)
        for s in range(DEFAULT_PARAMS.sessions)
    ]
    return pk, master, materials


def test_criterion_1_correctness_suite(default_setup):
    """100 random (session, message) pairs verify in both variants, < 10 min."""
    pk, _, materials = default_setup
    params = DEFAULT_PARAMS
    rng = DeterministicRandomness(b"criterion-1")
    started = time.monotonic()
    failures = 0
    for _ in range(100):
        session = int.from_bytes(rng.random_bytes(2), "big") % params.sessions
        message = rng.random_bytes(16)
        key = rng.random_bytes(16)
        material = materials[session]
        selection = scheme.prp_select(params, key, message)
        subkeys = scheme.subkeys_at(material, selection)
        full = scheme.sign_full(pk, params, session, subkeys, selection, material.aux, message, rng)
        comp = scheme.sign_compressed(pk, params, session, subkeys, selection, material.aux)
        if not scheme.verify_full(pk, params, session, full, message):
            failures += 1
        if not scheme.verify_compressed(pk, params, session, comp, message):
            failures += 1
    elapsed = time.monotonic() - started
    assert failures == 0
    assert elapsed < 600
    report(f"PASS criterion 1: 100/100 round trips in both variants ({elapsed:.1f}s)")


def test_criterion_2_aggregation_identity_exhaustive():
    """At t=2, n=2: every digit vector of both sessions matches the oracle."""
    params = SchemeParams(sessions=2, symbols=2, radix=2)
    group = setup(256)
    rng = DeterministicRandomness(b"criterion-2")
    pk, master = scheme.keygen_setup(params, rng, group=group)
    # r never leaves gen_session: replay its draws on an identically seeded
    # stream kept in step with rng
    replay = DeterministicRandomness(b"criterion-2")
    assert scheme.keygen_setup(params, replay, group=group)[0] == pk
    checked = 0
    for session in range(params.sessions):
        r, _ = scheme._session_randomness(params, replay)
        material = scheme.gen_session(pk, master, params, session, rng)
        for value in range(params.space):
            digits = scheme.decompose(params, value)
            aggregated = scheme.aggregate(
                params, [material.subkeys[j][b] for j, b in enumerate(digits)]
            )
            k = scheme.encode_index(params, session, value)
            oracle = master.g2_alpha.mul(
                scheme.index_point(pk, k).second_only().exp(r)
            ).exp(params.symbols)
            assert aggregated == oracle
            checked += 1
    assert checked == 8
    report("PASS criterion 2: aggregation identity exact on all 4 digit vectors x 2 sessions")


def test_criterion_3_rejection_suite(default_setup):
    """Six mutation classes, 20 trials each, 100% rejection."""
    pk, _, materials = default_setup
    params = DEFAULT_PARAMS
    rng = DeterministicRandomness(b"criterion-3")
    trials_per_class = 20
    rejected = {}

    def fresh(session, full_variant):
        message = rng.random_bytes(16)
        material = materials[session]
        selection = scheme.prp_select(params, rng.random_bytes(16), message)
        subkeys = scheme.subkeys_at(material, selection)
        if full_variant:
            sig = scheme.sign_full(pk, params, session, subkeys, selection, material.aux, message, rng)
        else:
            sig = scheme.sign_compressed(pk, params, session, subkeys, selection, material.aux)
        return message, sig

    def verify(session, sig, message):
        if isinstance(sig, FullSignature):
            return scheme.verify_full(pk, params, session, sig, message)
        return scheme.verify_compressed(pk, params, session, sig, message)

    # message bit-flip
    count = 0
    for trial in range(trials_per_class):
        session = trial % params.sessions
        message, sig = fresh(session, full_variant=trial % 2 == 0)
        bit = int.from_bytes(rng.random_bytes(1), "big") % (len(message) * 8)
        mutated = bytearray(message)
        mutated[bit // 8] ^= 1 << (bit % 8)
        count += not verify(session, sig, bytes(mutated))
    rejected["message bit-flip"] = count

    # session shift by one
    count = 0
    for trial in range(trials_per_class):
        session = trial % params.sessions
        message, sig = fresh(session, full_variant=False)
        shifted = session + 1 if session + 1 < params.sessions else session - 1
        count += not verify(shifted, sig, message)
    rejected["session shift"] = count

    # y-tamper (both variants)
    count = 0
    for trial in range(trials_per_class):
        session = trial % params.sessions
        message, sig = fresh(session, full_variant=trial % 2 == 0)
        bad_y = sig.y.mul(pk.g.first_only())
        if isinstance(sig, FullSignature):
            sig = FullSignature(x=sig.x, y=bad_y, z=sig.z, key=sig.key)
        else:
            sig = CompressedSignature(y=bad_y, z=sig.z, key=sig.key)
        count += not verify(session, sig, message)
    rejected["y-tamper"] = count

    # z-tamper
    count = 0
    for trial in range(trials_per_class):
        session = trial % params.sessions
        message, sig = fresh(session, full_variant=trial % 2 == 1)
        bad_z = sig.z.mul(pk.g2)
        if isinstance(sig, FullSignature):
            sig = FullSignature(x=sig.x, y=sig.y, z=bad_z, key=sig.key)
        else:
            sig = CompressedSignature(y=sig.y, z=bad_z, key=sig.key)
        count += not verify(session, sig, message)
    rejected["z-tamper"] = count

    # x-tamper (full variant only)
    count = 0
    for trial in range(trials_per_class):
        session = trial % params.sessions
        message, sig = fresh(session, full_variant=True)
        sig = FullSignature(x=sig.x.mul(pk.g2), y=sig.y, z=sig.z, key=sig.key)
        count += not verify(session, sig, message)
    rejected["x-tamper"] = count

    # truncated encoding
    count = 0
    for trial in range(trials_per_class):
        session = trial % params.sessions
        message, sig = fresh(session, full_variant=trial % 2 == 0)
        blob = scheme.encode_signature(sig)
        cut = 1 + int.from_bytes(rng.random_bytes(1), "big") % 8
        count += not scheme.verify_signature_bytes(pk, params, session, blob[:-cut], message)
    rejected["truncated encoding"] = count

    for name, count in rejected.items():
        assert count == trials_per_class, f"{name}: {count}/{trials_per_class} rejected"
    total = sum(rejected.values())
    report(f"PASS criterion 3: {total}/{6 * trials_per_class} mutations rejected across 6 classes")


@pytest.mark.parametrize("dims", [(2, 2, 2), (8, 32, 4), (2, 5, 3)])
def test_criterion_4_structural_pairing_counts(dims):
    """Compressed signing pairs 0 times, verification exactly 3, at any parameters."""
    sessions, symbols, radix = dims
    params = SchemeParams(sessions=sessions, symbols=symbols, radix=radix)
    group = setup(256)
    rng = DeterministicRandomness(b"criterion-4")
    pk, master = scheme.keygen_setup(params, rng, group=group)
    material = scheme.gen_session(pk, master, params, 0, rng)
    message = rng.random_bytes(16)
    selection = scheme.prp_select(params, b"count-key", message)
    subkeys = scheme.subkeys_at(material, selection)
    reset_pairing_counter()
    sig = scheme.sign_compressed(pk, params, 0, subkeys, selection, material.aux)
    assert pairing_counter() == 0
    reset_pairing_counter()
    assert scheme.verify_compressed(pk, params, 0, sig, message)
    assert pairing_counter() == 3
    reset_pairing_counter()
    report(f"PASS criterion 4 (structural): sign=0 verify=3 pairings at N={sessions} n={symbols} t={radix}")


def test_criterion_4_sign_faster_than_verify():
    """Measured mean compressed-sign time below mean verify time at defaults."""
    config = bench.BenchConfig(params=DEFAULT_PARAMS, repetitions=10, seed=4, compare_backends=False)
    result = bench.bench_run(config)
    sign_ms = result.stats["otsske.sign"].mean_ms
    verify_ms = result.stats["otsske.verify"].mean_ms
    assert sign_ms < verify_ms
    report(f"PASS criterion 4 (timing): sign {sign_ms:.2f} ms < verify {verify_ms:.2f} ms")


def test_criterion_5_security_game():
    """Full log of 8 honest sessions; >= 100 forgery attempts all fail;
    same-message re-signing succeeds."""
    game = run_security_game(DEFAULT_PARAMS, seed=b"criterion-5")
    news = game.new_message_attempts
    sames = game.same_message_attempts
    assert len(news) >= 100
    assert sum(a.verified for a in news) == 0
    assert len(sames) == DEFAULT_PARAMS.sessions
    assert all(a.verified for a in sames)
    assert game.sound
    report(
        f"PASS criterion 5: {len(news)} new-message forgeries rejected, "
        f"{len(sames)}/{len(sames)} same-message re-signs verified (allowed)"
    )


def test_criterion_6_oblivious_memory_contract():
    """Read-once, erasure and log containment over 50 seeded runs."""
    params = DEFAULT_PARAMS
    group = setup(256)
    mr = measure(b"criterion-6 enclave")
    for seed in range(50):
        rng = DeterministicRandomness(10_000 + seed)
        log = protocol.AdversaryLog()
        coproc = CoProcessor(params, rng, group=group, log=log)
        enclave = RAEnclave(coproc.pk, params, mr)
        verifier = RemoteVerifier(coproc.pk, params)
        coproc.generate_next(rng)
        label, buffer, aux = coproc.fetch_session()
        nonce = verifier.new_nonce(rng)
        result = b"result %d" % seed
        message = protocol.protocol_message(mr, mr, result)
        x = protocol.selector_input(nonce, message)
        subkeys, selection = buffer.read(x, mr, log=log)

        # read-once: a second read must fail
        with pytest.raises(SessionConsumedError):
            buffer.read(x, mr, log=log)
        # erasure: exactly the non-selected slots are gone
        erased = set(buffer.erased_indices())
        assert erased == set(range(params.subkey_count)) - set(selection.indices)
        # the log holds one subset of size n, nothing outside it
        reads = [e for e in log.events if isinstance(e, protocol.MemoryReadEvent)]
        assert len(reads) == 1
        assert len(reads[0].subkeys) == params.symbols
        assert reads[0].selection.indices == selection.indices
        assert reads[0].subkeys == subkeys

        sig = scheme.sign_compressed(coproc.pk, params, label - 1, subkeys, selection, aux)
        quote = protocol.Quote(counter=label, y=sig.y, z=sig.z, raenc_mr=mr, app_mr=mr, result=result)
        assert verifier.verify(quote, nonce)
    report("PASS criterion 6: read-once, erasure and log containment held on 50/50 runs")


def test_criterion_7_protocol_freshness():
    """Every accepted quote is rejected under a different nonce (100/100)."""
    params = DEFAULT_PARAMS
    group = setup(256)
    accepted = 0
    rejected_replays = 0
    run_index = 0
    while accepted < 100:
        run = run_protocol(params, seed=20_000 + run_index, sessions=params.sessions, group=group)
        assert run.all_verified
        for idx, quote in enumerate(run.quotes):
            if accepted >= 100:
                break
            accepted += 1
            other = run.nonces[(idx + 1) % len(run.nonces)]
            if not user_verify(run.pk, params, quote, other):
                rejected_replays += 1
        run_index += 1
    assert rejected_replays == 100
    report("PASS criterion 7: 100/100 nonce replays rejected")


def test_criterion_8_demo_determinism(tmp_path):
    """Seeded demo transcripts are byte-identical and match the golden file."""
    runner = CliRunner()
    outputs = []
    for name in ("first.txt", "second.txt"):
        out = tmp_path / name
        result = runner.invoke(
            cli_main,
            ["demo", "--seed", "7", "--sessions", "3", "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    golden = (DATA_DIR / "demo_seed7_sessions3.transcript").read_bytes()
    assert outputs[0] == golden
    assert outputs[0].decode().count("VERDICT true") == 3
    report("PASS criterion 8: demo transcript byte-identical across runs and to the golden file")


def test_criterion_9_benchmark_report():
    """Schema complete, phase sum within 5% of total, baseline round-trips."""
    config = bench.BenchConfig(params=DEFAULT_PARAMS, repetitions=15, seed=9, compare_backends=True)
    result = bench.bench_run(config)
    kv = dict(line.split("=", 1) for line in result.to_kv().splitlines())

    required = [
        "otsske.keygen.v_ms", "otsske.keygen.aux_ms", "otsske.keygen.sk_ms",
        "otsske.sign_ms", "otsske.verify_ms",
        "ecdsa.keygen_ms", "ecdsa.sign_ms", "ecdsa.verify_ms",
        "counts.sign_pairings", "counts.verify_pairings",
    ]
    for key in required:
        assert key in kv, f"missing report key {key}"
    assert kv["counts.sign_pairings"] == "0"
    assert kv["counts.verify_pairings"] == "3"

    total = result.stats["otsske.keygen.total"].mean_ms
    phase_sum = (
        result.stats["otsske.keygen.v"].mean_ms
        + result.stats["otsske.keygen.aux"].mean_ms
        + result.stats["otsske.keygen.sk"].mean_ms
    )
    deviation = abs(total - phase_sum) / total
    assert deviation < 0.05

    # ECDSA baseline round-trips (also exercised during measurement)
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import ec

    key = ec.generate_private_key(ec.SECP256R1())
    sig = key.sign(b"acceptance", ec.ECDSA(hashes.SHA256()))
    key.public_key().verify(sig, b"acceptance", ec.ECDSA(hashes.SHA256()))

    # reference column embedded, never asserted against measurements
    assert kv["reference.otsske.keygen.total_ms"] == "388.6"
    assert kv["reference.ecdsa.verify_ms"] == "74.2"
    report(
        f"PASS criterion 9: schema complete, keygen phases {phase_sum:.1f} ms vs "
        f"total {total:.1f} ms ({deviation * 100:.1f}% apart), baseline verified"
    )
