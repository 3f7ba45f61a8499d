"""Exact results of the S-box and RSA key-recovery attacks.

The case-study tests check only the shape of each attack (enough bits
learned, the truth survives); these pin what each attack concludes, so a
rewrite of either attack must reproduce it exactly.
"""

import pytest

from repro.apps.rsa import RsaSystem
from repro.apps.rsa_math import generate_keypair
from repro.apps.sbox_cipher import SBOX_SIZE

from tests.test_apps_rsa import KEY_BITS, weight_attack
from tests.test_apps_sbox import key_byte_attack

ALL = list(range(SBOX_SIZE))

#: (byte index, hardware) -> (surviving candidates, chosen plaintexts used).
SBOX_GOLDEN = {
    (0, "nopar"): ([48, 49, 50, 51], 8),
    (0, "nofill"): (ALL, 8),
    (0, "partitioned"): (ALL, 8),
    (1, "nopar"): ([242], 5),
    (1, "nofill"): (ALL, 8),
    (1, "partitioned"): (ALL, 8),
}


@pytest.mark.parametrize("byte_index, hardware", sorted(SBOX_GOLDEN))
def test_sbox_candidates(byte_index, hardware):
    findings = key_byte_attack(byte_index, hardware)
    candidates, used = SBOX_GOLDEN[byte_index, hardware]
    assert findings.extra["candidates"] == candidates
    assert findings.extra["plaintexts"] == used


def test_rsa_weight_fit():
    unmitigated = RsaSystem(key_bits=KEY_BITS, blocks=1,
                            mitigation_mode="none")
    calibration = [generate_keypair(KEY_BITS, seed=s) for s in range(6)]
    target = generate_keypair(KEY_BITS, seed=99)
    model, error = weight_attack(unmitigated, calibration, target, [9],
                                 hardware="null")
    assert model.slope == 5.0
    assert model.intercept == 332.0
    assert model.correlation == 1.0
    # The recovered weight is exactly the target's, 8.
    assert target.hamming_weight() == 8 and error == 0.0
