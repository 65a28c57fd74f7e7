"""Benchmark harness: schema, structural counts, baseline behaviour."""

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

from otsske import bench, scheme

REQUIRED_KEYS = [
    "otsske.keygen.v_ms",
    "otsske.keygen.aux_ms",
    "otsske.keygen.sk_ms",
    "otsske.sign_ms",
    "otsske.verify_ms",
    "ecdsa.keygen_ms",
    "ecdsa.sign_ms",
    "ecdsa.verify_ms",
    "counts.sign_pairings",
    "counts.verify_pairings",
]


@pytest.fixture(scope="module")
def small_report():
    config = bench.BenchConfig(
        params=scheme.SchemeParams(sessions=2, symbols=8, radix=4),
        repetitions=15,
        warmup=3,
        seed=42,
        compare_backends=True,
    )
    return bench.bench_run(config)


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestReportSchema:
    def test_required_keys_present(self, small_report):
        kv = parse_kv(small_report.to_kv())
        for key in REQUIRED_KEYS:
            assert key in kv, f"missing {key}"

    def test_counts_are_structural(self, small_report):
        kv = parse_kv(small_report.to_kv())
        assert kv["counts.sign_pairings"] == "0"
        assert kv["counts.verify_pairings"] == "3"

    def test_reference_column_embedded_not_asserted(self, small_report):
        kv = parse_kv(small_report.to_kv())
        assert kv["reference.otsske.keygen.total_ms"] == "388.6"
        assert kv["reference.otsske.sign_ms"] == "3.4"
        assert kv["reference.otsske.verify_ms"] == "127.3"
        assert kv["reference.ecdsa.sign_ms"] == "23.1"

    def test_backend_comparison_section(self, small_report):
        kv = parse_kv(small_report.to_kv())
        backends = {k.split(".")[1] for k in kv if k.startswith("backend.")}
        assert "pure" in backends
        for name in backends:
            for op in ("pairing", "miller_loop", "final_exp", "g1_exp", "g2_exp", "g1_decompress", "g2_decompress"):
                assert f"backend.{name}.{op}_ms" in kv

    def test_table_renders(self, small_report):
        table = small_report.to_table()
        assert "sign (compressed)" in table
        assert "ecdsa verify" in table


class TestMeasurements:
    def test_phase_sum_close_to_total(self, small_report):
        s = small_report.stats
        total = s["otsske.keygen.total"].mean_ms
        phases = (
            s["otsske.keygen.v"].mean_ms
            + s["otsske.keygen.aux"].mean_ms
            + s["otsske.keygen.sk"].mean_ms
        )
        assert abs(total - phases) / total < 0.05

    def test_sign_faster_than_verify(self, small_report):
        assert small_report.stats["otsske.sign"].mean_ms < small_report.stats["otsske.verify"].mean_ms

    def test_single_repetition_stddev_na(self):
        config = bench.BenchConfig(
            params=scheme.SchemeParams(sessions=1, symbols=4, radix=2),
            repetitions=1,
            warmup=0,
            seed=1,
            compare_backends=False,
        )
        report = bench.bench_run(config)
        kv = parse_kv(report.to_kv())
        assert kv["otsske.sign_stddev_ms"] == "n/a"

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            bench.BenchConfig(params=scheme.SchemeParams(1, 4, 2), repetitions=0)


class TestEcdsaBaseline:
    def test_roundtrip(self):
        key = ec.generate_private_key(ec.SECP256R1())
        sig = key.sign(b"baseline message", ec.ECDSA(hashes.SHA256()))
        key.public_key().verify(sig, b"baseline message", ec.ECDSA(hashes.SHA256()))

    def test_rejects_flipped_message(self):
        key = ec.generate_private_key(ec.SECP256R1())
        sig = key.sign(b"baseline message", ec.ECDSA(hashes.SHA256()))
        with pytest.raises(InvalidSignature):
            key.public_key().verify(sig, b"baseline messagf", ec.ECDSA(hashes.SHA256()))

    def test_deterministic_nonce_mode(self):
        key = ec.generate_private_key(ec.SECP256R1())
        algo = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
        assert key.sign(b"m", algo) == key.sign(b"m", algo)
        key.public_key().verify(key.sign(b"m", algo), b"m", ec.ECDSA(hashes.SHA256()))
