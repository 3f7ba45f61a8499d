"""The S-box cipher case study and the prime-and-probe attack on it."""

import random

import pytest

from repro.apps.sbox_cipher import (
    KEY_LENGTH,
    SBOX_SIZE,
    SboxCipher,
    random_key,
    reference_encrypt,
    standard_sbox,
)
from repro.adversary import recover_key_byte, run_in_process, sbox_victim
from repro.typesystem import TypingError, typecheck

RNG = random.Random(2012)
KEY = random_key(RNG)
PLAINTEXTS = [RNG.randrange(SBOX_SIZE) for _ in range(8)]


def key_byte_attack(byte_index, hardware):
    """The prime-and-probe on key byte ``byte_index``: its findings."""
    cipher = SboxCipher(length=byte_index + 1, mitigated=True)
    table, measure = sbox_victim(cipher, KEY, byte_index, hardware)
    return run_in_process(recover_key_byte(table, PLAINTEXTS), measure)


class TestCipherBasics:
    def test_sbox_is_permutation(self):
        table = standard_sbox()
        assert sorted(table) == list(range(SBOX_SIZE))

    def test_sbox_deterministic(self):
        assert standard_sbox() == standard_sbox()

    def test_reference_encrypt(self):
        out = reference_encrypt([1] * KEY_LENGTH, [2] * 16, 4)
        sbox = standard_sbox()
        assert out == [sbox[3]] * 4

    @pytest.mark.parametrize("hardware", ["null", "partitioned"])
    def test_language_matches_reference(self, hardware):
        cipher = SboxCipher(length=16, mitigated=True, budget=50)
        plaintext = [RNG.randrange(SBOX_SIZE) for _ in range(16)]
        ctext, _ = cipher.encrypt_and_check(KEY, plaintext,
                                            hardware=hardware)
        assert ctext == reference_encrypt(KEY, plaintext, 16)

    def test_length_wraps_key(self):
        cipher = SboxCipher(length=20, mitigated=False)
        plaintext = list(range(16))
        result = cipher.run(KEY, plaintext, hardware="null")
        out = [result.memory.read_elem("ctext", i) for i in range(20)]
        assert out == reference_encrypt(KEY, plaintext, 20)

    def test_bad_key_length(self):
        cipher = SboxCipher()
        with pytest.raises(ValueError):
            cipher.memory([1, 2, 3], [0] * 16)

    def test_bad_sbox(self):
        with pytest.raises(ValueError):
            SboxCipher(sbox=[0, 1, 2])


class TestTypeDiscipline:
    def test_mitigated_typechecks(self):
        cipher = SboxCipher(mitigated=True)
        info = typecheck(cipher.program, cipher.gamma)
        assert "encrypt" in info.mitigate_pc

    def test_unmitigated_rejected(self):
        cipher = SboxCipher(mitigated=False)
        with pytest.raises(TypingError):
            typecheck(cipher.program, cipher.gamma)

    def test_lookup_carries_high_write_label(self):
        # The secret-indexed lookup must run with a high write label (the
        # element address carries key bits into cache state).
        from repro.lang import ArrayAssign, labeled_commands

        cipher = SboxCipher(mitigated=True)
        stores = [
            c for c in labeled_commands(cipher.program)
            if isinstance(c, ArrayAssign) and c.array == "ctext"
        ]
        assert stores
        high = cipher.lattice["H"]
        assert all(c.write_label == high for c in stores)


class TestCacheAttack:
    def test_attack_succeeds_on_nopar(self):
        findings = key_byte_attack(0, "nopar")
        candidates = findings.extra["candidates"]
        # Line granularity: the top 5 bits are recoverable, the bottom
        # 3 are not (32-byte lines, 4-byte entries).
        assert findings.bits_extracted >= 5.0
        assert (KEY[0] >> 3) in {c >> 3 for c in candidates}
        assert KEY[0] in candidates  # never excludes the truth

    @pytest.mark.parametrize("hardware", ["nofill", "partitioned"])
    def test_attack_blind_on_secure_hardware(self, hardware):
        findings = key_byte_attack(0, hardware)
        assert len(findings.extra["candidates"]) == SBOX_SIZE
        assert findings.bits_extracted == 0.0

    def test_attack_on_other_byte_index(self):
        findings = key_byte_attack(1, "nopar")
        # Position 0's lookup adds noise; the truth must still survive.
        assert KEY[1] in findings.extra["candidates"]

    def test_attack_deterministic(self):
        r1 = key_byte_attack(0, "nopar")
        r2 = key_byte_attack(0, "nopar")
        assert r1.extra["candidates"] == r2.extra["candidates"]


class TestTimingMitigation:
    def test_mitigated_encryption_time_constant(self):
        # With mitigation, encryption latency is secret-independent even
        # though the access pattern varies.
        cipher = SboxCipher(length=8, mitigated=True, budget=2000)
        times = set()
        for seed in range(5):
            key = random_key(random.Random(seed))
            r = cipher.run(key, [3] * 16, hardware="partitioned")
            times.add(r.time)
        assert len(times) == 1

    def test_unmitigated_latency_can_vary_with_key(self):
        # On nopar, different keys touch different line sets: collisions
        # with already-cached lines make latency key-dependent.
        cipher = SboxCipher(length=8, mitigated=False)
        times = set()
        for seed in range(8):
            key = random_key(random.Random(seed))
            r = cipher.run(key, [3] * 16, hardware="nopar")
            times.add(r.time)
        assert len(times) > 1
