"""The benchmark's workloads.

Every workload is a closed loop with one client in one thread: the next
item starts only after the previous verdict, as a verifier waits for each
quote before it sends the next request.  Inputs come only from the seed,
and every verdict is checked against the one the input was built to get.

Each workload reports the same end-to-end roles, timed as below:

* ``latency``    - what the consumer waits for (attest: request issued to
  verdict; verify: signature bytes to verdict, compressed accepts only;
  provision: loading a stored session and its public key);
* ``prepare``    - producing the key material or signature it consumes
  (attest: ``CoProcessor.generate_next``; verify: a compressed signature,
  ``prp_select`` + ``subkeys_at`` + ``sign_compressed``; provision: one
  ``gen_session``);
* ``encode``     - serialising it (attest: ``quote_encode``; verify:
  ``encode_signature``; provision: saving the store and public key),
  printed but not part of the result;
* ``throughput`` - completed units per second of loop time (attest:
  verified attestations, session generation included; verify: verdicts at
  the mix below; provision: sessions generated, saved and loaded).
"""

from __future__ import annotations

import random
import traceback
from collections import defaultdict

from otsske import groups, protocol, scheme
from otsske.groups import DeterministicRandomness
from speed import Speed

SECURITY_LEVEL = 256
REPLAY_EVERY = 8
# A valid compressed G2 encoding of x = 2 (on the twist, outside the
# prime-order subgroup): rejected only by the subgroup check.
OFF_SUBGROUP_G2 = bytes([0x80]) + bytes(94) + bytes([2])

ROLES = {
    "attest": {
        "latency": "attest_rtt_ms.p50", "prepare": "keygen_session_ms.p50 (generate_next)",
        "encode": "quote_encode_ms.p50", "throughput": "attest_per_s",
    },
    "verify": {
        "latency": "verify_ms.p50", "prepare": "sign_ms.p50",
        "encode": "encode_signature_ms.p50", "throughput": "verify_per_s",
    },
    "provision": {
        "latency": "store_load_ms.p50", "prepare": "keygen_session_ms.p50",
        "encode": "store_save_ms.p50", "throughput": "provisioned_per_s",
    },
}


class Recorder:
    """Samples per role, verdict counts, completed units and host speed of one loop."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.speed = Speed()
        self.clock = self.speed.now
        self.attempted = 0
        self.failed = 0
        self.done = 0
        self.items = 0
        self.elapsed = 0.0
        self.errors: list[str] = []

    def check(self, what: str, expected: bool, actual: bool) -> bool:
        self.attempted += 1
        if actual != expected:
            self.failed += 1
            self.errors.append(f"{what}: expected {expected}, got {actual}")
        return actual == expected


class Attest:
    """``run_protocol(threaded=False)``'s loop, one request at a time."""

    name = "attest"
    # Sessions provisioned: far more than any run consumes.
    SESSIONS = 1 << 20

    def __init__(self, seed: int, dims: tuple[int, int]):
        radix, symbols = dims
        self.params = scheme.SchemeParams(sessions=self.SESSIONS, symbols=symbols, radix=radix,
                                          security_level=SECURITY_LEVEL)
        self.group = groups.setup(SECURITY_LEVEL)
        root = DeterministicRandomness(seed)
        self.keygen_rng = root.fork(b"keygen")
        self.request_rng = root.fork(b"requests")
        self.coproc = protocol.CoProcessor(self.params, self.keygen_rng, group=self.group)
        self.app_mr = protocol.measure(b"perfbench enclave (signer+app combined)")
        self.enclave = protocol.RAEnclave(self.coproc.pk, self.params, self.app_mr)
        self.verifier = protocol.RemoteVerifier(self.coproc.pk, self.params)

    def step(self, i: int, rec: Recorder) -> None:
        clock = rec.clock
        t0 = clock()
        self.coproc.generate_next(self.keygen_rng)
        t1 = clock()
        request = self.verifier.make_request(self.request_rng, b"app result %d" % i, self.app_mr)
        quote = self.enclave.handle(self.coproc, request)
        t2 = clock()
        encoded = protocol.quote_encode(quote)
        t3 = clock()
        decoded = protocol.quote_decode(self.group, encoded)
        ok = self.verifier.verify(decoded, request.nonce)
        t4 = clock()
        rec.samples["prepare"].append(t1 - t0)
        rec.samples["encode"].append(t3 - t2)
        rec.samples["latency"].append(t4 - t1)
        if rec.check(f"attestation {i}", True, ok):
            rec.done += 1
        if i % REPLAY_EVERY == REPLAY_EVERY - 1:
            rec.check(f"replay of attestation {i}", False, self.verifier.verify(decoded, request.nonce))


class Verify:
    """Sign-then-verify stream over a few fixed sessions; a quarter presented wrong."""

    name = "verify"
    SESSIONS = 8
    SESSION_INDICES = (1, 6)  # spread over the N = 8 session indices
    KEY_BYTES = 16
    # One block of 16 items: 12 compressed and 4 full signatures; 4 items,
    # one per reject class, are presented wrong.  Each block is shuffled by
    # the seed, so every seed runs the same mix.
    BLOCK = (
        [("compressed", None)] * 9 + [("full", None)] * 3
        + [("compressed", "message"), ("compressed", "session"),
           ("compressed", "truncated"), ("full", "point")]
    )

    def __init__(self, seed: int, dims: tuple[int, int]):
        radix, symbols = dims
        self.params = scheme.SchemeParams(sessions=self.SESSIONS, symbols=symbols, radix=radix,
                                          security_level=SECURITY_LEVEL)
        self.group = groups.setup(SECURITY_LEVEL)
        root = DeterministicRandomness(seed)
        keygen_rng = root.fork(b"keygen")
        self.sign_rng = root.fork(b"sign")
        self.pk, master = scheme.keygen_setup(self.params, keygen_rng, group=self.group)
        self.materials = {
            s: scheme.gen_session(self.pk, master, self.params, s, keygen_rng)
            for s in self.SESSION_INDICES
        }
        self.seed = seed
        self.rng = random.Random(seed)
        self.kinds: list[tuple[str, str | None]] = []

    def _kind(self, i: int) -> tuple[str, str | None]:
        while len(self.kinds) <= i:
            block = list(self.BLOCK)
            random.Random(f"{self.seed}/{len(self.kinds)}").shuffle(block)
            self.kinds += block
        return self.kinds[i]

    def _wrong_message(self, key: bytes, message: bytes) -> bytes:
        # a message that selects another subset; at toy sizes (t^n = 4) a
        # random one would often select the signed subset and verify
        value = scheme.prp_select(self.params, key, message).value
        while True:
            other = self.rng.randbytes(len(message))
            if scheme.prp_select(self.params, key, other).value != value:
                return other

    def step(self, i: int, rec: Recorder) -> None:
        clock = rec.clock
        kind, wrong = self._kind(i)
        session = self.rng.choice(self.SESSION_INDICES)
        material = self.materials[session]
        key = self.rng.randbytes(self.KEY_BYTES)
        message = self.rng.randbytes(self.rng.choice((16, 32)))
        params, pk = self.params, self.pk

        t0 = clock()
        selection = scheme.prp_select(params, key, message)
        subkeys = scheme.subkeys_at(material, selection)
        if kind == "compressed":
            sig = scheme.sign_compressed(pk, params, session, subkeys, selection, material.aux)
        else:
            sig = scheme.sign_full(pk, params, session, subkeys, selection, material.aux,
                                   message, self.sign_rng)
        t1 = clock()
        data = scheme.encode_signature(sig)
        t2 = clock()

        if wrong == "message":
            message = self._wrong_message(key, message)
        elif wrong == "session":
            others = [s for s in self.SESSION_INDICES if s != session]
            session = others[self.rng.randrange(len(others))]
        elif wrong == "truncated":
            data = data[:-1]
        elif wrong == "point":
            # z is the 96-byte field before the length-prefixed key
            end = len(data) - 8 - len(sig.key)
            data = data[: end - 96] + OFF_SUBGROUP_G2 + data[end:]

        t3 = clock()
        ok = scheme.verify_signature_bytes(pk, params, session, data, message)
        t4 = clock()
        if kind == "compressed":
            rec.samples["prepare"].append(t1 - t0)
            if wrong is None:
                rec.samples["latency"].append(t4 - t3)
        rec.samples["encode"].append(t2 - t1)
        if rec.check(f"item {i} ({kind}, wrong {wrong})", wrong is None, ok):
            rec.done += 1


class Provision:
    """Key set-up, one session, save and load, round after round."""

    name = "provision"
    SESSIONS = 8

    def __init__(self, seed: int, dims: tuple[int, int]):
        radix, symbols = dims
        self.params = scheme.SchemeParams(sessions=self.SESSIONS, symbols=symbols, radix=radix,
                                          security_level=SECURITY_LEVEL)
        self.group = groups.setup(SECURITY_LEVEL)
        self.rng = DeterministicRandomness(seed).fork(b"provision")
        self.pick = random.Random(seed)

    def step(self, i: int, rec: Recorder) -> None:
        clock = rec.clock
        params = self.params
        session = self.pick.randrange(params.sessions)
        pk, master = scheme.keygen_setup(params, self.rng, group=self.group)
        t0 = clock()
        material = scheme.gen_session(pk, master, params, session, self.rng)
        t1 = clock()
        store = scheme.encode_session_store(params, pk, master, [material])
        pk_bytes = scheme.encode_public_key(params, pk)
        t2 = clock()
        loaded_params, loaded_pk, loaded_master, loaded = scheme.decode_session_store(store)
        public_params, public_pk = scheme.decode_public_key(pk_bytes)
        t3 = clock()
        rec.samples["prepare"].append(t1 - t0)
        rec.samples["encode"].append(t2 - t1)
        rec.samples["latency"].append(t3 - t2)
        same = (
            loaded_params == params == public_params
            and loaded_pk == pk == public_pk
            and loaded_master == master
            and loaded == [material]
        )
        if rec.check(f"store round trip {i}", True, same):
            rec.done += 1


WORKLOADS = {cls.name: cls for cls in (Attest, Verify, Provision)}


def closed_loop(workload, rec: Recorder, items: int, seconds: float = 0.0,
                tracer=None) -> Recorder:
    """Run items back to back: at least ``items``, and until they took ``seconds``.

    The host-speed reference samples throughout, outside every timing.  An
    exception ends the loop and counts as one failed attempt.
    """
    i = 0
    with rec.speed:
        start = rec.clock()
        try:
            while i < items or rec.elapsed < seconds:
                if tracer is not None:
                    tracer.request = i
                workload.step(i, rec)
                i += 1
                rec.elapsed = rec.clock() - start
        except Exception as exc:  # the loop is the boundary that reports failures
            rec.attempted += 1
            rec.failed += 1
            rec.errors.append(f"item {i} raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            rec.elapsed = rec.clock() - start
        finally:
            if tracer is not None:
                tracer.request = -1
    rec.items = i
    return rec
