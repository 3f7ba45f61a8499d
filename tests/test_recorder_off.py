"""``recorder=None`` is off: an unrecorded run calls no telemetry code and
never reads the clock.

The check is deterministic rather than timed: ``sys.setprofile`` sees
every Python function entry and every C call a run makes.  Each shipped
app runs on every registered hardware model twice -- unrecorded, where
the probe must see neither a function from ``repro/telemetry/`` nor a
``time.perf_counter_ns`` call, and with a :class:`Profiler` attached,
where it must see both (the positive control that keeps the probe
honest).
"""

import os
import random
import sys
import time

import pytest

import repro.telemetry
from repro.apps import (
    KEY_LENGTH,
    CredentialTable,
    LoginSystem,
    PasswordChecker,
    RsaSystem,
    SboxCipher,
)
from repro.apps.rsa_math import encrypt_blocks, generate_keypair
from repro.hardware.registry import REGISTRY
from repro.telemetry import Profiler

TELEMETRY_DIR = os.path.dirname(repro.telemetry.__file__) + os.sep


def _apps():
    """{name: run(hardware, recorder)} for each shipped app, small sizes."""
    password = PasswordChecker(length=6)
    sbox = SboxCipher(length=6, plaintext_length=6)
    login = LoginSystem(table_size=8)
    table = CredentialTable.generate(size=8, valid=4, rng=random.Random(0))
    key = generate_keypair(8, seed=7)
    rsa = RsaSystem(key_bits=key.key_bits, blocks=1)
    ciphertext = encrypt_blocks([2], key)
    return {
        "password": lambda **kw: password.run(
            [1, 2, 3, 4, 5, 6], [1, 2, 3, 0, 0, 0], **kw),
        "sbox": lambda **kw: sbox.run(
            list(range(KEY_LENGTH)), list(range(6)), **kw),
        "login": lambda **kw: login.run(
            table, table.usernames[0], table.passwords[0], **kw),
        "rsa": lambda **kw: rsa.run(key, ciphertext, **kw),
    }


APPS = _apps()


def _observe(run):
    """Run ``run()`` under a profile hook; return the telemetry functions
    it entered and how many times it called ``time.perf_counter_ns``."""
    entered = set()
    clock_reads = 0

    def probe(frame, event, arg):
        nonlocal clock_reads
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(TELEMETRY_DIR):
                entered.add(f"{os.path.basename(code.co_filename)}:"
                            f"{code.co_name}")
        elif event == "c_call" and arg is time.perf_counter_ns:
            clock_reads += 1

    sys.setprofile(probe)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered, clock_reads


@pytest.mark.parametrize("model", REGISTRY.names())
@pytest.mark.parametrize("app", sorted(APPS))
def test_unrecorded_run_touches_no_telemetry_and_no_clock(app, model):
    run = APPS[app]
    entered, clock_reads = _observe(
        lambda: run(hardware=model, recorder=None))
    assert entered == set()
    assert clock_reads == 0

    entered, clock_reads = _observe(
        lambda: run(hardware=model, recorder=Profiler()))
    assert entered
    assert clock_reads > 0
