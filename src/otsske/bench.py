"""Timing harness: session-signature costs against an ECDSA baseline.

Timed regions
-------------
* ``keygen.v``      sampling r and the beta exponents, then one
                    ``g2_mul_many`` on the G2 generator's comb: the n
                    blinding points g^beta_j, each offset by the session
                    term g^(alpha r i t^n), and the first row step
                    g^(alpha r n).  Each is a tree sum of 44 entries of
                    the generator's column-shifted comb tables, with 6
                    inversions for all n + 1 together.
* ``keygen.aux``    the session's aux value g^r.
* ``keygen.sk``     filling the n x t subkey matrix: h^r (on the key's
                    comb table of h), the n row heads
                    (one ``g2_add_many``) and the row walk (the n row
                    steps in one ``g2_steps`` chain, then t - 1
                    ``g2_add_many`` calls).
* ``keygen.total``  one full session generation (the three phases plus glue).
* ``sign``          subset selection + compressed signing: one ``g2_sum``
                    of the n selected subkeys (zero pairings).
* ``verify``        compressed verification (exactly three pairings),
                    with the index point g1^k h on the key's comb table
                    of g1 and y raised to n.
* ``store_load``    decoding a store of the public key, master exponent
                    and one session (``decode_session_store``): the
                    key's h and its g1 check, then the session
                    regenerated from its stored r and betas, as
                    ``gen_session`` builds it.
* ``ecdsa.*``       P-256 keygen / SHA-256 sign / verify via OpenSSL.
* ``backend.<name>.*``  core operations of every built backend; the
                    ``miller_loop`` and ``miller_loop_fixed`` rows time
                    ``multi_miller_loop`` on one term.

Before its samples, each operation runs untimed: ``WARMUP`` times, or once
for the store load and the backend rows.  So the key's two comb tables and
the generator's shifted tables, built on first use, are built before the
keygen and verify samples.

Absolute times are hardware- and backend-specific; the published reference
measurements (C++/MIRACL on an i7-7820HQ, SGX build) are embedded in the
report for orientation and are never asserted against.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field as dataclass_field

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

from . import scheme
from .backend import available_backends
from .groups import (
    DeterministicRandomness,
    SystemRandomness,
    aux_generator,
    generator,
    pairing_counter,
    reset_pairing_counter,
    setup,
)
from .params import ORDER
from .scheme import SchemeParams

# Published reference timings (milliseconds), different hardware and library.
REFERENCE_MS = {
    "otsske.keygen.v_ms": 131.4,
    "otsske.keygen.aux_ms": 4.0,
    "otsske.keygen.sk_ms": 253.2,
    "otsske.keygen.total_ms": 388.6,
    "otsske.sign_ms": 3.4,
    "otsske.verify_ms": 127.3,
    "ecdsa.keygen_ms": 21.2,
    "ecdsa.sign_ms": 23.1,
    "ecdsa.verify_ms": 74.2,
}

MESSAGE_BYTES = 16  # 128-bit attestation messages
WARMUP = 3  # untimed calls before an operation's samples


@dataclass(frozen=True)
class BenchConfig:
    params: SchemeParams
    repetitions: int = 100
    seed: int | None = None
    compare_backends: bool = True

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class OpStats:
    mean_ms: float
    median_ms: float
    stddev_ms: float | None  # None when only one sample was taken


@dataclass
class BenchReport:
    config: BenchConfig
    backend_name: str
    stats: dict[str, OpStats]
    pairing_counts: dict[str, int]
    backend_core: dict[str, dict[str, OpStats]] = dataclass_field(default_factory=dict)

    def to_kv(self) -> str:
        """Machine-readable key=value lines."""
        lines = [
            f"config.t={self.config.params.radix}",
            f"config.n={self.config.params.symbols}",
            f"config.N={self.config.params.sessions}",
            f"config.repetitions={self.config.repetitions}",
            f"config.backend={self.backend_name}",
        ]
        for key, stat in sorted(self.stats.items()):
            lines.append(f"{key}_ms={stat.mean_ms:.3f}")
            lines.append(f"{key}_median_ms={stat.median_ms:.3f}")
            stddev = "n/a" if stat.stddev_ms is None else f"{stat.stddev_ms:.3f}"
            lines.append(f"{key}_stddev_ms={stddev}")
        for key, count in sorted(self.pairing_counts.items()):
            lines.append(f"counts.{key}={count}")
        for name, ops in sorted(self.backend_core.items()):
            for op, stat in sorted(ops.items()):
                lines.append(f"backend.{name}.{op}_ms={stat.mean_ms:.3f}")
        for key, value in sorted(REFERENCE_MS.items()):
            lines.append(f"reference.{key}={value}")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """Human-readable summary table."""
        rows = [
            ("keygen: blinding points", "otsske.keygen.v", "otsske.keygen.v_ms"),
            ("keygen: aux value", "otsske.keygen.aux", "otsske.keygen.aux_ms"),
            ("keygen: subkey matrix", "otsske.keygen.sk", "otsske.keygen.sk_ms"),
            ("keygen: total", "otsske.keygen.total", "otsske.keygen.total_ms"),
            ("sign (compressed)", "otsske.sign", "otsske.sign_ms"),
            ("verify (compressed)", "otsske.verify", "otsske.verify_ms"),
            ("store load (1 session)", "otsske.store_load", "otsske.store_load_ms"),
            ("ecdsa keygen", "ecdsa.keygen", "ecdsa.keygen_ms"),
            ("ecdsa sign", "ecdsa.sign", "ecdsa.sign_ms"),
            ("ecdsa verify", "ecdsa.verify", "ecdsa.verify_ms"),
        ]
        p = self.config.params
        head = (
            f"t={p.radix} n={p.symbols} N={p.sessions} "
            f"reps={self.config.repetitions} backend={self.backend_name}"
        )
        lines = [head, f"{'operation':28s} {'mean ms':>10s} {'median':>10s} {'stddev':>10s} {'published ref':>14s}"]
        for label, key, refkey in rows:
            stat = self.stats[key]
            stddev = "n/a" if stat.stddev_ms is None else f"{stat.stddev_ms:.2f}"
            ref = REFERENCE_MS.get(refkey)
            refs = f"{ref:.1f}" if ref is not None else "-"
            lines.append(
                f"{label:28s} {stat.mean_ms:10.3f} {stat.median_ms:10.3f} {stddev:>10s} {refs:>14s}"
            )
        lines.append(
            f"pairing counts: sign={self.pairing_counts['sign_pairings']} "
            f"verify={self.pairing_counts['verify_pairings']}"
        )
        for name, ops in sorted(self.backend_core.items()):
            core = " ".join(f"{op}={stat.mean_ms:.3f}ms" for op, stat in sorted(ops.items()))
            lines.append(f"backend[{name}]: {core}")
        lines.append("published ref: different hardware/library; reported for orientation only")
        return "\n".join(lines) + "\n"


def _stats(samples: list[float]) -> OpStats:
    return OpStats(
        mean_ms=statistics.fmean(samples),
        median_ms=statistics.median(samples),
        stddev_ms=statistics.stdev(samples) if len(samples) > 1 else None,
    )


def _samples(sample, repetitions: int, warm: int) -> list:
    """``repetitions`` results of ``sample()``, taken with the garbage
    collector off after ``warm`` untimed calls."""
    for _ in range(warm):
        sample()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return [sample() for _ in range(repetitions)]
    finally:
        if gc_was_enabled:
            gc.enable()


def _measure(func, repetitions: int, warm: int) -> OpStats:
    def sample() -> float:
        start = time.perf_counter_ns()
        func()
        return (time.perf_counter_ns() - start) / 1e6

    return _stats(_samples(sample, repetitions, warm))


def _keygen_stats(pk, master, params, rng, repetitions: int) -> dict[str, OpStats]:
    """Phase and total wall times for session generation.

    Each sample is one gen_session call: its phase sink stamps the end of
    each phase, so the phases and the total come from the same run and
    total minus the phase sum is only the call's glue.
    """

    def sample() -> tuple[float, ...]:
        stamps = [time.perf_counter_ns()]
        scheme.gen_session(pk, master, params, 0, rng,
                           phase_sink=lambda _phase: stamps.append(time.perf_counter_ns()))
        stamps.append(time.perf_counter_ns())
        t0, t1, t2, t3, t4 = stamps
        return (t1 - t0) / 1e6, (t2 - t1) / 1e6, (t3 - t2) / 1e6, (t4 - t0) / 1e6

    columns = zip(*_samples(sample, repetitions, WARMUP))
    keys = ("otsske.keygen.v", "otsske.keygen.aux", "otsske.keygen.sk", "otsske.keygen.total")
    return {key: _stats(list(column)) for key, column in zip(keys, columns)}


def _ecdsa_stats(config: BenchConfig, message: bytes) -> dict[str, OpStats]:
    reps = config.repetitions
    algo = ec.ECDSA(hashes.SHA256())
    key = ec.generate_private_key(ec.SECP256R1())
    sig = key.sign(message, algo)
    public = key.public_key()
    return {
        "ecdsa.keygen": _measure(lambda: ec.generate_private_key(ec.SECP256R1()), reps, WARMUP),
        "ecdsa.sign": _measure(lambda: key.sign(message, algo), reps, WARMUP),
        "ecdsa.verify": _measure(lambda: public.verify(sig, message, algo), reps, WARMUP),
    }


def _backend_core_stats(config: BenchConfig) -> dict[str, dict[str, OpStats]]:
    """Per-backend costs: pairing and its halves (a one-term Miller loop and
    the final exponentiation) on a variable Q ([3]g), the one-term Miller
    loop on g2's line table, a verify's 3-term loop,
    exponentiation on a variable base and on the fixed-base tables of g and
    g2, building a comb table for the variable G2 point (``g2_table``, as a
    key does for h and g1) and a 255-bit multiplication on it
    (``g2_table_mul``, against ``g2_exp``), 32 multiples of the G2 generator
    in one ``g2_mul_many`` (a session's blinding points), the sum of those
    32 points in one ``g2_sum`` (a compressed sign at n = 32), decoding and
    the subgroup check alone."""
    out: dict[str, dict[str, OpStats]] = {}
    reps = min(config.repetitions, 20)
    for name in available_backends():
        group = setup(config.params.security_level, backend=name)
        g = generator(group)
        g2 = aux_generator(group)
        g3 = g.exp(3)  # no table base
        exponent = ORDER - 3
        scalars = [exponent - i for i in range(32)]
        b = group.backend
        summands = b.g2_mul_many(g.second, scalars)
        f = b.multi_miller_loop([(g.first, g3.second)])
        # a verify's equation: a negated G1 side, and two variable Q with g2 between them
        terms = [(b.g1_neg(g.first), g3.second), (g.first, g2.second), (g.first, g3.second)]
        g1_bytes, g2_bytes = b.g1_compress(g.first), b.g2_compress(g2.second)
        table = b.g2_table(g3.second)
        out[name] = {
            "pairing": _measure(lambda: b.pairing(g.first, g3.second), reps, 1),
            "miller_loop": _measure(lambda: b.multi_miller_loop([(g.first, g3.second)]), reps, 1),
            "miller_loop_fixed": _measure(lambda: b.multi_miller_loop([(g.first, g2.second)]), reps, 1),
            "multi_miller_loop": _measure(lambda: b.multi_miller_loop(terms), reps, 1),
            "final_exp": _measure(lambda: b.final_exp(f), reps, 1),
            "g2_exp": _measure(lambda: g3.second_only().exp(exponent), reps, 1),
            "g1_exp": _measure(lambda: g3.first_only().exp(exponent), reps, 1),
            "g2_exp_fixed": _measure(lambda: g.second_only().exp(exponent), reps, 1),
            "g1_exp_fixed": _measure(lambda: g.first_only().exp(exponent), reps, 1),
            "g2_table": _measure(lambda: b.g2_table(g3.second), reps, 1),
            "g2_table_mul": _measure(lambda: b.g2_table_mul(table, exponent), reps, 1),
            "g2_mul_many": _measure(lambda: b.g2_mul_many(g.second, scalars), reps, 1),
            "g2_sum": _measure(lambda: b.g2_sum(summands), reps, 1),
            "g1_decompress": _measure(lambda: b.g1_decompress(g1_bytes), reps, 1),
            "g2_decompress": _measure(lambda: b.g2_decompress(g2_bytes), reps, 1),
            "g1_in_subgroup": _measure(lambda: b.g1_in_subgroup(g.first), reps, 1),
            "g2_in_subgroup": _measure(lambda: b.g2_in_subgroup(g2.second), reps, 1),
        }
    return out


def bench_run(config: BenchConfig) -> BenchReport:
    """Measure every operation class and assemble the report."""
    params = config.params
    rng = DeterministicRandomness(config.seed) if config.seed is not None else SystemRandomness()
    group = setup(params.security_level)
    pk, master = scheme.keygen_setup(params, rng, group=group)
    message = rng.random_bytes(MESSAGE_BYTES)
    reps = config.repetitions

    stats: dict[str, OpStats] = {}
    stats.update(_keygen_stats(pk, master, params, rng, reps))

    material = scheme.gen_session(pk, master, params, 0, rng)
    signing_key = rng.random_bytes(16)

    def do_sign():
        selection = scheme.prp_select(params, signing_key, message)
        subkeys = scheme.subkeys_at(material, selection)
        return scheme.sign_compressed(pk, params, 0, subkeys, selection, material.aux)

    stats["otsske.sign"] = _measure(do_sign, reps, WARMUP)
    signature = do_sign()
    stats["otsske.verify"] = _measure(
        lambda: scheme.verify_compressed(pk, params, 0, signature, message), reps, WARMUP
    )

    store = scheme.encode_session_store(params, pk, master, [material])
    stats["otsske.store_load"] = _measure(
        lambda: scheme.decode_session_store(store, backend=group.backend_name), min(reps, 20), 1
    )

    # structural pairing counts for one operation of each kind
    reset_pairing_counter()
    do_sign()
    sign_pairings = pairing_counter()
    reset_pairing_counter()
    scheme.verify_compressed(pk, params, 0, signature, message)
    verify_pairings = pairing_counter()
    reset_pairing_counter()

    stats.update(_ecdsa_stats(config, message))
    core = _backend_core_stats(config) if config.compare_backends else {}

    return BenchReport(
        config=config,
        backend_name=group.backend_name,
        stats=stats,
        pairing_counts={"sign_pairings": sign_pairings, "verify_pairings": verify_pairings},
        backend_core=core,
    )
