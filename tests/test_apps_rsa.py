"""The RSA case study (Sec. 8.4): correctness, channel, and mitigation."""

import random

import pytest

from repro.apps.rsa import RsaSystem
from repro.apps.rsa_math import (
    RsaKey,
    decrypt,
    egcd,
    encrypt,
    encrypt_blocks,
    generate_keypair,
    is_prime,
    modinv,
    random_prime,
)
from repro.adversary import hamming_weight_attack, rsa_victim, run_in_process
from repro.attacks import fit_weight_model
from repro.typesystem import TypingError, typecheck

KEY_BITS = 16
BLOCKS = 2


def keys_with_distinct_weights(bits=KEY_BITS, count=2, spread=3):
    """Deterministically pick keys whose private exponents differ in
    Hamming weight by at least ``spread``."""
    picked = []
    for seed in range(200):
        key = generate_keypair(bits, seed=seed)
        if all(abs(key.hamming_weight() - k.hamming_weight()) >= spread
               for k in picked):
            picked.append(key)
        if len(picked) == count:
            return picked
    raise AssertionError("could not find keys with spread weights")


def weight_attack(system, calibration, target, message, hardware):
    """Calibrate on ``calibration``, then recover ``target``'s weight:
    returns the fit and the predicted weight's error."""
    findings = run_in_process(
        hamming_weight_attack([k.hamming_weight() for k in calibration],
                              KEY_BITS),
        rsa_victim(system, calibration + [target], message,
                   hardware=hardware),
    )
    error = abs(findings.extra["weight"] - target.hamming_weight())
    return findings.extra["model"], error


class TestRsaMath:
    def test_miller_rabin_small(self):
        primes = {2, 3, 5, 7, 11, 13, 97, 7919}
        for n in range(2, 100):
            assert is_prime(n) == (n in primes or n in
                                   {17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                                    59, 61, 67, 71, 73, 79, 83, 89})

    def test_miller_rabin_carmichael(self):
        # 561, 1105, 1729 fool Fermat but not Miller-Rabin.
        for n in (561, 1105, 1729, 2465):
            assert not is_prime(n)

    def test_random_prime_bits(self):
        rng = random.Random(0)
        for bits in (5, 8, 16):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_prime(p)

    def test_egcd(self):
        g, x, y = egcd(240, 46)
        assert g == 2 and 240 * x + 46 * y == 2

    def test_modinv(self):
        assert (modinv(3, 11) * 3) % 11 == 1
        with pytest.raises(ValueError):
            modinv(4, 8)

    def test_keypair_valid(self):
        key = generate_keypair(24, seed=5)
        message = 12345 % key.n
        assert decrypt(encrypt(message, key), key) == message

    def test_roundtrip_many(self):
        key = generate_keypair(KEY_BITS, seed=7)
        rng = random.Random(1)
        for _ in range(20):
            m = rng.randrange(key.n)
            assert decrypt(encrypt(m, key), key) == m

    def test_private_bits(self):
        key = generate_keypair(KEY_BITS, seed=3)
        bits = key.private_bits(64)
        assert sum(b << i for i, b in enumerate(bits)) == key.d

    def test_hamming_weight(self):
        key = RsaKey(n=100, e=3, d=0b10110)
        assert key.hamming_weight() == 3


class TestDecryptionProgram:
    @pytest.mark.parametrize("mode", ["language", "none", "system"])
    def test_decryption_correct(self, mode):
        system = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                           mitigation_mode=mode, budget=100)
        key = generate_keypair(KEY_BITS, seed=2)
        rng = random.Random(0)
        message = [rng.randrange(1, key.n) for _ in range(BLOCKS)]
        cipher = encrypt_blocks(message, key)
        result = system.run(key, cipher, hardware="null")
        plain = [result.memory.read_elem("plain", i) for i in range(BLOCKS)]
        assert plain == message

    def test_decrypt_and_check_helper(self):
        system = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                           mitigation_mode="language", budget=100)
        key = generate_keypair(KEY_BITS, seed=4)
        message = [5, 6]
        plain, _ = system.decrypt_and_check(key, encrypt_blocks(message, key))
        assert plain == message

    def test_wrong_block_count_rejected(self):
        system = RsaSystem(key_bits=KEY_BITS, blocks=2)
        key = generate_keypair(KEY_BITS, seed=2)
        with pytest.raises(ValueError):
            system.memory(key, [1, 2, 3])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            RsaSystem(mitigation_mode="quantum")


class TestTypeDiscipline:
    def test_language_mode_typechecks(self):
        system = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                           mitigation_mode="language")
        info = typecheck(system.program, system.gamma)
        assert "rsa_block" in info.mitigate_pc

    @pytest.mark.parametrize("mode", ["none", "system"])
    def test_other_modes_ill_typed(self, mode):
        system = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                           mitigation_mode=mode)
        with pytest.raises(TypingError):
            typecheck(system.program, system.gamma)


class TestTimingChannel:
    def test_unmitigated_time_tracks_key_weight(self):
        system = RsaSystem(key_bits=KEY_BITS, blocks=1,
                           mitigation_mode="none")
        keys = [generate_keypair(KEY_BITS, seed=s) for s in range(8)]
        message = [3]
        times = []
        for key in keys:
            cipher = encrypt_blocks(message, key)
            times.append(system.run(key, cipher, hardware="null").time)
        model = fit_weight_model([k.hamming_weight() for k in keys], times)
        assert model.correlation > 0.95

    def test_unmitigated_distinguishes_keys(self):
        system = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                           mitigation_mode="none")
        k1, k2 = keys_with_distinct_weights()
        message = [7] * BLOCKS
        t1 = system.run(k1, encrypt_blocks(message, k1),
                        hardware="partitioned").time
        t2 = system.run(k2, encrypt_blocks(message, k2),
                        hardware="partitioned").time
        assert t1 != t2

    def test_mitigated_constant_across_keys(self):
        system = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                           mitigation_mode="language")
        system.calibrate_budget(samples=4)
        k1, k2 = keys_with_distinct_weights()
        message = [7] * BLOCKS
        t1 = system.run(k1, encrypt_blocks(message, k1),
                        hardware="partitioned").time
        t2 = system.run(k2, encrypt_blocks(message, k2),
                        hardware="partitioned").time
        assert t1 == t2

    def test_weight_attack_end_to_end(self):
        unmitigated = RsaSystem(key_bits=KEY_BITS, blocks=1,
                                mitigation_mode="none")
        calibration = [generate_keypair(KEY_BITS, seed=s)
                       for s in range(6)]
        target = generate_keypair(KEY_BITS, seed=99)
        _, error = weight_attack(unmitigated, calibration, target, [9],
                                 hardware="null")
        assert error <= 1.0

    def test_weight_attack_defeated_by_mitigation(self):
        mitigated = RsaSystem(key_bits=KEY_BITS, blocks=1,
                              mitigation_mode="language")
        mitigated.calibrate_budget(samples=4)
        calibration = [generate_keypair(KEY_BITS, seed=s)
                       for s in range(6)]
        target = generate_keypair(KEY_BITS, seed=99)
        model, error = weight_attack(mitigated, calibration, target, [9],
                                     hardware="partitioned")
        # The fitted line is flat: recovery degenerates (a NaN error
        # compares false).
        assert abs(model.slope) < 1e-6 or not error <= 0.5

    def test_per_block_mitigation_durations_uniform(self):
        system = RsaSystem(key_bits=KEY_BITS, blocks=4,
                           mitigation_mode="language")
        system.calibrate_budget(samples=4)
        key = generate_keypair(KEY_BITS, seed=1)
        message = [3, 4, 5, 6]
        result = system.run(key, encrypt_blocks(message, key),
                            hardware="partitioned")
        assert len(result.mitigations) == 4
        assert len({m.duration for m in result.mitigations}) <= 2


class TestBalancedMode:
    """Agat-style branch balancing (the Sec. 9 code-transformation line)."""

    def test_balanced_decrypts_correctly(self):
        system = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                           mitigation_mode="balanced")
        key = generate_keypair(KEY_BITS, seed=6)
        message = [11, 12]
        cipher = encrypt_blocks(message, key)
        result = system.run(key, cipher, hardware="null")
        plain = [result.memory.read_elem("plain", i) for i in range(BLOCKS)]
        assert plain == message

    def test_balanced_closes_weight_channel_on_null(self):
        system = RsaSystem(key_bits=KEY_BITS, blocks=1,
                           mitigation_mode="balanced")
        times = set()
        for seed in range(6):
            key = generate_keypair(KEY_BITS, seed=seed)
            times.add(system.run(key, encrypt_blocks([5], key),
                                 hardware="null").time)
        assert len(times) == 1

    def test_balanced_still_ill_typed(self):
        # The transformation carries no certificate.
        system = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                           mitigation_mode="balanced")
        with pytest.raises(TypingError):
            typecheck(system.program, system.gamma)

    def test_balanced_slower_than_unbalanced(self):
        key = generate_keypair(KEY_BITS, seed=6)
        cipher = encrypt_blocks([5], key)
        plain_sys = RsaSystem(key_bits=KEY_BITS, blocks=1,
                              mitigation_mode="none")
        bal_sys = RsaSystem(key_bits=KEY_BITS, blocks=1,
                            mitigation_mode="balanced")
        t_plain = plain_sys.run(key, cipher, hardware="null").time
        t_bal = bal_sys.run(key, cipher, hardware="null").time
        assert t_bal > t_plain
