"""Command-line interface: pipelines, exit codes, determinism."""

import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import otsske
from conftest import forge, reuse_forger
from otsske import scheme
from otsske.cli import main
from otsske.groups import DeterministicRandomness, SourceElement

TOY = ["--t", "2", "--n", "8", "--N", "2"]


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


class TestSetup:
    def test_prints_configuration(self, runner):
        result = invoke(runner, ["setup", *TOY])
        assert result.exit_code == 0
        assert "subkeys per session: 16" in result.output

    def test_unsupported_lambda(self, runner):
        # no security-level option: every supported level selects the same curve
        result = invoke(runner, ["setup", "--lambda", "256"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--lambda" in result.output
        assert "lambda=256" in invoke(runner, ["setup"]).output

    def test_bad_radix(self, runner):
        result = invoke(runner, ["setup", "--t", "1"])
        assert result.exit_code == 2


class TestSignVerifyPipeline:
    def test_roundtrip_both_variants(self, runner, tmp_path):
        msg = tmp_path / "msg.bin"
        msg.write_bytes(bytes(range(256)) * 4)  # 1 KiB
        key = tmp_path / "key.bin"
        result = invoke(runner, ["keygen", *TOY, "--seed", "5", "--out", str(key)])
        assert result.exit_code == 0
        assert key.exists() and key.with_suffix(".bin.pub").exists()

        # one session per signature: a session signs once
        for session, variant in (("0", "compressed"), ("1", "full")):
            sig = tmp_path / f"sig-{variant}.bin"
            result = invoke(runner, [
                "sign", "--key", str(key), "--session", session, "--variant", variant,
                "--seed", "6", "--in", str(msg), "--out", str(sig),
            ])
            assert result.exit_code == 0
            result = invoke(runner, [
                "verify", "--key", str(key) + ".pub", "--session", session,
                "--in", str(msg), "--sig", str(sig),
            ])
            assert result.exit_code == 0, result.output

    def test_wrong_session_exits_one(self, runner, tmp_path):
        msg = tmp_path / "msg.bin"
        msg.write_bytes(b"payload")
        key = tmp_path / "key.bin"
        sig = tmp_path / "sig.bin"
        invoke(runner, ["keygen", *TOY, "--seed", "7", "--out", str(key)])
        invoke(runner, ["sign", "--key", str(key), "--session", "0",
                        "--seed", "8", "--in", str(msg), "--out", str(sig)])
        result = invoke(runner, ["verify", "--key", str(key) + ".pub", "--session", "1",
                                 "--in", str(msg), "--sig", str(sig)])
        assert result.exit_code == 1

    def test_tampered_message_exits_one(self, runner, tmp_path):
        msg = tmp_path / "msg.bin"
        msg.write_bytes(b"payload")
        key = tmp_path / "key.bin"
        sig = tmp_path / "sig.bin"
        invoke(runner, ["keygen", *TOY, "--seed", "9", "--out", str(key)])
        invoke(runner, ["sign", "--key", str(key), "--session", "0",
                        "--seed", "10", "--in", str(msg), "--out", str(sig)])
        msg.write_bytes(b"payloae")
        result = invoke(runner, ["verify", "--key", str(key) + ".pub", "--session", "0",
                                 "--in", str(msg), "--sig", str(sig)])
        assert result.exit_code == 1

    def test_malformed_key_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.pub"
        bad.write_bytes(b"\x00\x01\x02")
        msg = tmp_path / "m"
        msg.write_bytes(b"x")
        result = invoke(runner, ["verify", "--key", str(bad), "--session", "0",
                                 "--in", str(msg), "--sig", str(msg)])
        assert result.exit_code == 2
        assert "malformed" in result.output

    def test_key_whose_g1_is_the_identity_exits_two(self, runner, tmp_path):
        # y = g, z = h^n would verify under it for every message and session
        params = scheme.SchemeParams(sessions=2, symbols=8, radix=2)
        pk, _ = scheme.keygen_setup(params, DeterministicRandomness(14))
        group = pk.group
        key = tmp_path / "key.pub"
        key.write_bytes(scheme.encode_public_key(params, scheme.PublicKey(group, SourceElement(group, (), ()), pk.h)))
        forged = scheme.CompressedSignature(y=pk.g.first_only(), z=pk.h.exp(params.symbols), key=b"k")
        sig = tmp_path / "sig.bin"
        sig.write_bytes(scheme.encode_signature(forged))
        msg = tmp_path / "msg.bin"
        msg.write_bytes(b"payload")
        result = invoke(runner, ["verify", "--key", str(key), "--session", "1",
                                 "--in", str(msg), "--sig", str(sig)])
        assert result.exit_code == 2
        assert "malformed key file: g1 is the identity" in result.output

    def test_missing_file_exits_two(self, runner, tmp_path):
        result = invoke(runner, ["sign", "--key", str(tmp_path / "nope"), "--in",
                                 str(tmp_path / "nope"), "--out", str(tmp_path / "sig")])
        assert result.exit_code == 2

    def test_keygen_refuses_a_store_its_loader_would_refuse(self, runner, tmp_path):
        # 2 sessions of t * n = 2^18 subkeys pass the store bound: refused
        # before any session is generated, and nothing is written
        out = tmp_path / "store"
        result = invoke(runner, ["keygen", "--t", "65536", "--n", "4", "--N", "2", "--out", str(out)])
        assert result.exit_code == 2
        assert "a store holds at most 262144 subkeys, not 2 x 262144" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_unknown_session_exits_two(self, runner, tmp_path):
        msg = tmp_path / "msg.bin"
        msg.write_bytes(b"payload")
        key = tmp_path / "key.bin"
        invoke(runner, ["keygen", *TOY, "--seed", "11", "--out", str(key)])
        result = invoke(runner, ["sign", "--key", str(key), "--session", "9",
                                 "--in", str(msg), "--out", str(tmp_path / "s")])
        assert result.exit_code == 2

    def test_sign_deterministic_under_seed(self, runner, tmp_path):
        msg = tmp_path / "msg.bin"
        msg.write_bytes(b"payload")
        key = tmp_path / "key.bin"
        invoke(runner, ["keygen", *TOY, "--seed", "12", "--out", str(key)])
        # each sign spends its session, so each signs from its own copy of the store
        blobs = []
        for name in ("a", "b"):
            copy, sig = tmp_path / f"{name}.key", tmp_path / f"{name}.sig"
            copy.write_bytes(key.read_bytes())
            result = invoke(runner, ["sign", "--key", str(copy), "--session", "0", "--variant", "full",
                                     "--seed", "13", "--in", str(msg), "--out", str(sig)])
            assert result.exit_code == 0
            blobs.append(sig.read_bytes())
        assert blobs[0] == blobs[1]

    def test_a_session_signs_once(self, runner, tmp_path):
        """Two signatures of one session sign any message of it
        (``reuse_forger``), so a second sign of a session is refused, and
        the store keeps the sessions that have not signed."""
        key = tmp_path / "key.bin"
        invoke(runner, ["keygen", *TOY, "--seed", "15", "--out", str(key)])
        params, pk = scheme.decode_public_key((tmp_path / "key.bin.pub").read_bytes())
        signed = []
        for seed, name in enumerate("ab"):
            msg, sig = tmp_path / name, tmp_path / f"{name}.sig"
            msg.write_bytes(name.encode())
            result = invoke(runner, ["sign", "--key", str(key), "--session", "0", "--seed", str(seed),
                                     "--in", str(msg), "--out", str(sig)])
            signed.append((name.encode(), sig, result))
        if signed[1][1].exists():  # a second signature: forge a third message
            pairs = []
            for message, sig, _ in signed:
                signature = scheme.decode_signature(pk.group, sig.read_bytes())
                pairs.append((scheme.prp_select(params, signature.key, message).value, signature))
            (tmp_path / "c").write_bytes(b"c")
            (tmp_path / "c.sig").write_bytes(scheme.encode_signature(forge(params, reuse_forger(pairs), b"c")))
            result = invoke(runner, ["verify", "--key", str(key) + ".pub", "--session", "0",
                                     "--in", str(tmp_path / "c"), "--sig", str(tmp_path / "c.sig")])
            assert result.exit_code == 1, "a third message signed from two signatures of session 0"
        assert signed[0][2].exit_code == 0
        assert signed[1][2].exit_code == 2
        assert "session 0 was spent" in signed[1][2].output
        assert [m.session for m in scheme.decode_session_store(key.read_bytes())[3]] == [1]

    def test_spent_store_is_durable_before_the_signature(self, runner, tmp_path, monkeypatch):
        # each write syncs its file, then after the rename the directory; the
        # store's two syncs come before the signature's name exists
        key, msg, sig = tmp_path / "key.bin", tmp_path / "msg", tmp_path / "msg.sig"
        msg.write_bytes(b"payload")
        invoke(runner, ["keygen", *TOY, "--seed", "17", "--out", str(key)])
        synced, fsync = [], os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(
            (stat.S_ISDIR(os.fstat(fd).st_mode), sig.exists())) or fsync(fd))
        result = invoke(runner, ["sign", "--key", str(key), "--session", "0",
                                 "--in", str(msg), "--out", str(sig)])
        assert result.exit_code == 0
        assert synced == [(False, False), (True, False), (False, False), (True, True)]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "key.bin", "key.bin.lock", "key.bin.pub", "msg", "msg.sig"]

    def test_concurrent_signs_of_one_session(self, tmp_path):
        # two processes race for session 0: the store's lock lets one sign
        key, msg = tmp_path / "key.bin", tmp_path / "msg"
        msg.write_bytes(b"payload")
        invoke(CliRunner(), ["keygen", *TOY, "--seed", "16", "--out", str(key)])
        env = dict(os.environ, PYTHONPATH=str(Path(otsske.__file__).parent.parent))
        procs = [subprocess.Popen([sys.executable, "-m", "otsske.cli", "sign", "--key", str(key),
                                   "--session", "0", "--in", str(msg), "--out", str(tmp_path / f"{i}.sig")],
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for i in range(2)]
        outputs = [proc.communicate(timeout=120) for proc in procs]
        assert sorted(proc.returncode for proc in procs) == [0, 2], outputs
        assert [p.name for p in tmp_path.glob("*.sig")] in (["0.sig"], ["1.sig"])

    def test_garbage_corpus_never_crashes(self, runner, tmp_path):
        """Malformed inputs must map to the exit-code contract, not tracebacks."""
        from otsske.groups import DeterministicRandomness

        rng = DeterministicRandomness(99)
        msg = tmp_path / "m"
        msg.write_bytes(b"x")
        key = tmp_path / "key.bin"
        invoke(runner, ["keygen", *TOY, "--seed", "14", "--out", str(key)])
        good_pub = (tmp_path / "key.bin.pub").read_bytes()
        for trial in range(8):
            blob = rng.random_bytes(1 + trial * 17)
            bad = tmp_path / f"bad{trial}"
            bad.write_bytes(blob)
            # garbage public key -> usage error
            result = invoke(runner, ["verify", "--key", str(bad), "--session", "0",
                                     "--in", str(msg), "--sig", str(msg)])
            assert result.exit_code == 2
            # valid key, garbage signature -> verification failure
            pub = tmp_path / "pub"
            pub.write_bytes(good_pub)
            result = invoke(runner, ["verify", "--key", str(pub), "--session", "0",
                                     "--in", str(msg), "--sig", str(bad)])
            assert result.exit_code == 1


class TestDemo:
    DEMO = ["--t", "4", "--n", "16", "--N", "4"]

    def test_verdicts_true(self, runner, tmp_path):
        out = tmp_path / "transcript.txt"
        result = invoke(runner, ["demo", *self.DEMO, "--seed", "7",
                                 "--sessions", "3", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert sum(1 for l in lines if l == "VERDICT true") == 3
        assert sum(1 for l in lines if l.startswith("REQ ")) == 3
        assert sum(1 for l in lines if l.startswith("QUOTE ")) == 3

    def test_byte_identical_across_runs(self, runner, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for path in (a, b):
            result = invoke(runner, ["demo", *self.DEMO, "--seed", "3",
                                     "--sessions", "2", "--out", str(path)])
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_session_overrun_exits_two(self, runner):
        result = invoke(runner, ["demo", *self.DEMO, "--sessions", "5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_sessions_exits_two(self, runner, count):
        # nothing was verified, so this is a usage error, not a verification failure
        result = invoke(runner, ["demo", *self.DEMO, "--sessions", count])
        assert result.exit_code == 2
        assert "QUOTE" not in result.output

    @pytest.mark.parametrize("seed", [-2**63, 2**63 - 1])
    def test_seed_bounds_run(self, runner, seed):
        result = invoke(runner, ["demo", "--t", "2", "--n", "2", "--N", "2",
                                 "--sessions", "1", "--seed", str(seed)])
        assert result.exit_code == 0, result.output


class TestGame:
    def test_sound_run_exits_zero(self, runner, tmp_path):
        out = tmp_path / "game.txt"
        result = invoke(runner, ["game", "--t", "4", "--n", "16", "--N", "2",
                                 "--seed", "5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        text = out.read_text()
        assert "verified (allowed)" in text
        assert "outcome: sound" in text
        assert "rejected" in text


class TestBench:
    def test_report_written(self, runner, tmp_path):
        out = tmp_path / "bench.txt"
        result = invoke(runner, ["bench", "--t", "2", "--n", "4", "--N", "1",
                                 "--reps", "2", "--seed", "1", "--out", str(out),
                                 "--no-backend-compare"])
        assert result.exit_code == 0
        text = out.read_text()
        for key in ("otsske.keygen.v_ms", "otsske.sign_ms", "counts.verify_pairings",
                    "reference.otsske.verify_ms"):
            assert key in text

    def test_zero_reps_exits_two(self, runner):
        result = invoke(runner, ["bench", "--reps", "0"])
        assert result.exit_code == 2


@pytest.mark.parametrize("seed", [2**63, -2**63 - 1])
@pytest.mark.parametrize("command", [
    ["keygen", "--out", "key.bin"],
    ["sign", "--key", "key.bin", "--in", "msg", "--out", "sig"],
    ["demo"],
    ["game"],
    ["bench"],
])
def test_seed_outside_signed_64_bits_exits_two(runner, command, seed):
    # every seeded command takes the range the deterministic rng can encode
    result = invoke(runner, [*command, "--seed", str(seed)])
    assert result.exit_code == 2
    assert "--seed" in result.output


@pytest.mark.parametrize("command", [
    ["keygen", *TOY, "--seed", "1"],
    ["sign", "--key", "{key}", "--in", "{key}", "--seed", "1"],
    ["demo", "--t", "2", "--n", "2", "--N", "2", "--sessions", "1"],
    ["game", "--t", "2", "--n", "4", "--N", "1"],
    ["bench", "--t", "2", "--n", "4", "--N", "1", "--reps", "2", "--seed", "1", "--no-backend-compare"],
], ids=lambda command: command[0])
def test_unwritable_out_exits_two(runner, tmp_path, command):
    # an output path in a missing directory is a usage error (exit 2), not a
    # traceback with the exit status of a failed verification
    key = tmp_path / "key.bin"
    invoke(runner, ["keygen", *TOY, "--seed", "1", "--out", str(key)])
    out = tmp_path / "missing" / "out"
    result = invoke(runner, [*(arg.format(key=key) for arg in command), "--out", str(out)])
    assert result.exit_code == 2
    assert f"cannot write {out}" in result.output


def test_readme_cli_synopsis_names_real_options():
    # each `otsske <cmd>` line of the fenced block under README.md's "## CLI"
    # names only options that command has
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n+```\n(.*?)^```", text, re.M | re.S)
    assert block, "README.md has no fenced block under ## CLI"
    lines = [line.split() for line in block.group(1).splitlines() if line.startswith("otsske ")]
    assert {words[1] for words in lines} == set(main.commands)
    stale = [(words[1], option) for words in lines
             for option in re.findall(r"--[A-Za-z][\w-]*", " ".join(words[2:]))
             if not any(option in p.opts for p in main.commands[words[1]].params)]
    assert stale == []
