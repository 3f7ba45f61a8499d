#!/usr/bin/env python
"""The RSA case study (Sec. 8.4): Kocher-style key recovery and its defeat.

Square-and-multiply executes one extra modular multiply per set bit of the
private exponent, so unmitigated decryption time is an affine function of
the key's Hamming weight.  This script calibrates that line on known keys,
recovers a target key's weight from a single timing measurement, and then
shows per-block language-level mitigation flattening the channel while
decryption stays correct.

Run: python examples/rsa_decryption.py
"""

from repro.adversary import hamming_weight_attack, rsa_victim, run_in_process
from repro.apps.rsa import RsaSystem
from repro.apps.rsa_math import encrypt_blocks, generate_keypair

KEY_BITS = 32
BLOCKS = 2


def weight_attack(system, calibration, target, message):
    """Fit the calibration keys' times, then predict the target's weight."""
    findings = run_in_process(
        hamming_weight_attack([k.hamming_weight() for k in calibration],
                              KEY_BITS),
        rsa_victim(system, calibration + [target], message,
                   hardware="partitioned"),
    )
    return findings.extra["model"], findings.extra["weight"]


def main():
    calibration = [generate_keypair(KEY_BITS, seed=s) for s in range(8)]
    target = generate_keypair(KEY_BITS, seed=1234)
    message = [123456789 % min(k.n for k in calibration + [target]),
               987654321 % min(k.n for k in calibration + [target])]

    # --- attack the unmitigated implementation -----------------------------
    unmitigated = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                            mitigation_mode="none")
    model, weight = weight_attack(unmitigated, calibration, target, message)
    true_weight = target.hamming_weight()
    verdict = ("ATTACK SUCCEEDED" if abs(weight - true_weight) <= 1.0
               else "attack failed")
    print("Unmitigated decryption:")
    print(f"  calibration fit: time = {model.intercept:.0f} + "
          f"{model.slope:.1f} * weight  "
          f"(r = {model.correlation:.3f})")
    print(f"  target key true weight(d) = {true_weight}, "
          f"recovered = {weight:.1f}  -> {verdict}")

    # --- the defense ---------------------------------------------------------
    mitigated = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                          mitigation_mode="language")
    budget = mitigated.calibrate_budget(samples=6, hardware="partitioned")
    print(f"\nPer-block mitigation on (initial prediction {budget} cycles):")
    model, weight = weight_attack(mitigated, calibration, target, message)
    print(f"  calibration fit slope: {model.slope:.4f} "
          "cycles/bit (flat: timing no longer tracks the key)")
    # A flat line predicts NaN, whose error compares false.
    verdict = ("ATTACK SUCCEEDED" if abs(weight - true_weight) <= 0.5
               else "attack defeated")
    print(f"  recovery attempt: {verdict}")

    # --- correctness is preserved --------------------------------------------
    cipher = encrypt_blocks(message, target)
    plain, result = mitigated.decrypt_and_check(
        target, cipher, hardware="partitioned"
    )
    print(f"\nDecryption still correct: {plain == message} "
          f"(total {result.time} cycles, "
          f"{len(result.mitigations)} mitigated blocks)")


if __name__ == "__main__":
    main()
