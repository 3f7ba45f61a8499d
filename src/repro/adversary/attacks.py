"""The registered adversaries: strategies the measurement engine hosts.

Each strategy is a generator following the :data:`~.engine.Strategy`
protocol -- yield a batch of :class:`~.engine.Probe` descriptors, receive
``{key: [times]}`` back, finish by returning :class:`AttackFindings`.
The same strategy runs through the gateway
(:class:`~.engine.ProbeSource`) or against an in-process victim
(:func:`~.engine.run_in_process`):

* :func:`prefix_crack` is the adaptive prefix attack on the early-exit
  compare (Sec. 2.1) in the DorFerenc two-stage shape: a *quick rank*
  of every symbol from one cheap sample each, then a *verify* pass that
  re-measures only the promoted candidates with median-of-N and
  distinct suffix fillers.  A full crack with the default ``quick_top``
  takes ``length x (alphabet + 3 x verify_repeats)`` probes plus one
  confirmation batch: linear where blind guessing is exponential;
* :func:`password_crack` runs it against the password tenant;
* :func:`tag_forge` is the oscar230 hex sweep -- the same prefix crack
  over the 16-symbol nibble alphabet of a keyed-hash tag, forging a
  valid tag for a message the adversary chose;
* :func:`analyze_contention` scores the cross-tenant contention probe's
  receiver samples (collected by :class:`~.engine.ContentionSource`);
* :func:`recover_key_byte` is the coresident prime-and-probe on the
  S-box cipher (Sec. 2.1's cache adversary) and
  :func:`hamming_weight_attack` the Kocher-style weight fit on RSA
  (Sec. 8.4).  They run in process, against the oracles
  :func:`sbox_victim` and :func:`rsa_victim` build; the campaign does not
  register them.

Extraction is *strict-signal gated*: a position only counts as extracted
when the best candidate's median beats the runner-up's strictly, in the
direction the early-exit compare predicts.  On the virtual clock the
quantized policy collapses every observable onto quantum boundaries, so
all medians tie exactly and the gate reports zero positions -- the
adversary cannot luck its way into "extracting" bits from a flat channel.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..attacks.distinguisher import (
    AdvantageResult,
    advantage,
    fit_weight_model,
    median,
    threshold_classifier,
)
from .engine import ContentionSample, Probe, Strategy


@dataclass
class AttackFindings:
    """What one adversary run learned, before scoring against the truth."""

    #: Recovered secret symbols, in position order (may be partial).
    recovered: List[int]
    #: Positions where the strict-signal gate held.
    extracted: int
    #: ``extracted * log2(alphabet)`` -- the adversary's claimed haul.
    bits_extracted: float
    #: Welch verdict from the first position's verify samples: the
    #: statistical evidence that the channel exists at all.
    evidence: Optional[AdvantageResult]
    #: Attack-specific context (e.g. the forged message) for scoring.
    extra: Dict[str, Any] = field(default_factory=dict)


def _verify_fillers(alphabet: int, repeats: int) -> List[int]:
    """Distinct first-filler symbols for the verify pass.

    Each verify repeat pads the guess with a different symbol at the
    position after the candidate, so at most one repeat can accidentally
    extend the matching prefix -- the median over ``repeats`` distinct
    fillers is immune to that contamination.
    """
    return [fv % alphabet for fv in range(repeats)]


def prefix_crack(
    length: int,
    alphabet: int,
    make_args: Callable[[List[int]], Dict[str, Any]],
    quick_top: int = 3,
    verify_repeats: int = 3,
) -> Strategy:
    """The shared per-position crack against an early-exit compare.

    For each position: rank all symbols from one sample each, promote the
    ``quick_top`` best, verify each with ``verify_repeats`` median-of-N
    measurements, and accept the winner only through the strict-signal
    gate.  Signal direction follows the compare's structure: a longer
    matching prefix runs *longer*, except at the final position where a
    mismatch executes the extra ``ok := 0`` and the full match is
    fastest.

    At the first position the crack also runs a *confirmation batch* --
    repeated measurements of the winner vs the runner-up with identical
    payloads -- whose Welch verdict becomes the findings' ``evidence``:
    the statistical claim that the channel exists, free of the verify
    pass's filler variation.

    Raises ``ValueError`` at the first ``next()`` when ``alphabet < 2``
    or ``verify_repeats < 1``.
    """
    if alphabet < 2:
        raise ValueError(f"alphabet must have >= 2 symbols, got {alphabet}")
    if verify_repeats < 1:
        raise ValueError(f"verify_repeats must be >= 1 sample per "
                         f"candidate, got {verify_repeats}")
    recovered: List[int] = []
    extracted = 0
    evidence: Optional[AdvantageResult] = None
    confirm_repeats = max(3, verify_repeats)
    for pos in range(length):
        want_max = pos < length - 1
        filler_len = length - pos - 1

        def guess_for(symbol: int, filler: int) -> List[int]:
            return (recovered + [symbol]
                    + [filler % alphabet] * filler_len)

        # Stage 1: quick rank, one sample per symbol, one shared filler.
        quick = [
            Probe(key=("q", pos, s), args=make_args(guess_for(s, 0)))
            for s in range(alphabet)
        ]
        times = yield quick
        ranked = sorted(
            range(alphabet),
            key=lambda s: (
                -median(times[("q", pos, s)]) if want_max
                else median(times[("q", pos, s)]),
                s,
            ),
        )
        promoted = ranked[:max(2, quick_top)]
        # Stage 2: verify the promoted candidates, median over distinct
        # fillers (or plain repeats at the final position).
        batch: List[Probe] = []
        for s in promoted:
            if filler_len:
                for fv in _verify_fillers(alphabet, verify_repeats):
                    batch.append(Probe(
                        key=("v", pos, s, fv),
                        args=make_args(guess_for(s, fv)),
                    ))
            else:
                batch.append(Probe(
                    key=("v", pos, s, 0),
                    args=make_args(guess_for(s, 0)),
                    repeats=verify_repeats,
                ))
        times = yield batch

        def samples_of(s: int) -> List[int]:
            out: List[int] = []
            for (tag, p, sym, fv), values in times.items():
                if sym == s:
                    out.extend(values)
            return out

        medians = {s: median(samples_of(s)) for s in promoted}
        order = sorted(
            promoted,
            key=lambda s: (-medians[s] if want_max else medians[s], s),
        )
        best, runner = order[0], order[1]
        if pos == 0:
            confirm = yield [
                Probe(key=("c", pos, s), args=make_args(guess_for(s, 0)),
                      repeats=confirm_repeats)
                for s in (best, runner)
            ]
            evidence = advantage(
                confirm[("c", pos, best)], confirm[("c", pos, runner)],
                label_a="best", label_b="runner-up",
            )
        strict = (
            medians[best] > medians[runner] if want_max
            else medians[best] < medians[runner]
        )
        if not strict:
            # Flat channel: every promoted candidate measures the same.
            # Claiming a symbol here would be reading tie-break noise.
            break
        recovered.append(best)
        extracted += 1
    return AttackFindings(
        recovered=recovered,
        extracted=extracted,
        bits_extracted=extracted * math.log2(alphabet),
        evidence=evidence,
    )


def password_crack(profile: Dict[str, Any], rng: random.Random,
                   samples: int = 3) -> Strategy:
    """Crack the password tenant's stored secret, symbol by symbol."""
    length = int(profile["length"])
    alphabet = int(profile["alphabet"])
    return prefix_crack(
        length, alphabet, lambda guess: {"guess": guess},
        verify_repeats=samples,
    )


def tag_forge(profile: Dict[str, Any], rng: random.Random,
              samples: int = 3) -> Strategy:
    """Forge the keyed-hash tag for an adversary-chosen message.

    The message is drawn from the attack's seeded RNG and fixed for the
    whole sweep (the tag depends on it); the findings carry it so the
    campaign can score the forgery against the true tag.
    """
    nibbles = int(profile["nibbles"])
    message = [rng.randrange(256)
               for _ in range(int(profile["message_len"]))]

    def run() -> Strategy:
        findings = yield from prefix_crack(
            nibbles, 16,
            lambda guess: {"message": list(message), "tag": guess},
            verify_repeats=samples,
        )
        findings.extra["message"] = message
        return findings

    return run()


def analyze_contention(
    samples: Sequence[ContentionSample],
    phase_len: int,
    phases: int,
    warm_phases: int = 2,
) -> AttackFindings:
    """Score the contention probe: did load modulation move latency?

    The receiver's samples are labeled by the phase parity of their
    arrival (odd = burst).  The first ``warm_phases`` phases are
    discarded as warm-up.  The probe extracts one bit per analyzed phase
    -- "was the other tenant busy?" -- and the haul is gated the same
    strict way as the cracks: bits count only when the Welch verdict is
    significant *and* every phase's median latency lands on the correct
    side of the best threshold.
    """
    window = [
        s for s in samples
        if warm_phases * phase_len <= s.arrival < phases * phase_len
    ]
    by_phase: Dict[int, List[int]] = {}
    for s in window:
        by_phase.setdefault(s.arrival // phase_len, []).append(s.latency)
    quiet = [s.latency for s in window
             if (s.arrival // phase_len) % 2 == 0]
    burst = [s.latency for s in window
             if (s.arrival // phase_len) % 2 == 1]
    if len(quiet) < 2 or len(burst) < 2:
        raise ValueError(
            f"contention probe needs >= 2 receiver samples per phase "
            f"class, got quiet={len(quiet)} burst={len(burst)}"
        )
    evidence = advantage(quiet, burst, label_a="quiet", label_b="burst")
    quiet_medians = [median(v) for p, v in sorted(by_phase.items())
                     if p % 2 == 0]
    burst_medians = [median(v) for p, v in sorted(by_phase.items())
                     if p % 2 == 1]
    separated = threshold_classifier(
        quiet_medians, burst_medians, "quiet", "burst"
    )
    n_phases = len(by_phase)
    extracted = (
        n_phases
        if evidence.significant() and separated.accuracy == 1.0
        else 0
    )
    return AttackFindings(
        recovered=[1 if m > median(quiet) else 0 for m in burst_medians],
        extracted=extracted,
        bits_extracted=float(extracted),
        evidence=evidence,
        extra={
            "phase_medians": {
                str(p): median(v) for p, v in sorted(by_phase.items())
            },
            "receiver_samples": len(window),
        },
    )


def recover_key_byte(
    table: Sequence[int],
    plaintexts: Sequence[int],
    block_bytes: int = 32,
) -> Strategy:
    """Prime-and-probe recovery of one key byte of a table-lookup cipher.

    The classic one-round AES cache analysis (Osvik-Shamir-Tromer): the
    encryption of plaintext byte ``p`` touches the S-box line holding
    entry ``p ^ k``, so the lines a public probe finds warm confine the
    key byte ``k``, and intersecting over chosen plaintexts converges.
    ``table`` is the address of every S-box entry (the static layout the
    attacker knows).  Each plaintext is one batch with one probe per
    cache block the table covers, ``{"byte": p, "address": block}``,
    answered with that block's probe cost after one victim run; the
    attack stops once at most one candidate is left.

    Line granularity is the resolution limit, as in the literature:
    ``(p ^ k) >> 3 = (p >> 3) ^ (k >> 3)``, so 32-byte lines of 4-byte
    entries reveal the top 5 bits of ``k`` and never the bottom 3.
    Expect >= 5 bits against ``nopar`` and exactly 0 against no-fill and
    the partitioned design, whose bottom probes cannot see the victim's
    high lookups (Property 6).
    """
    size = len(table)
    entries: Dict[int, Set[int]] = {}
    for entry, address in enumerate(table):
        entries.setdefault(address // block_bytes * block_bytes,
                           set()).add(entry)
    blocks = sorted(entries)
    candidates: Set[int] = set(range(size))
    used = 0
    for p in plaintexts:
        byte = p % size
        times = yield [Probe(key=block, args={"byte": byte, "address": block})
                       for block in blocks]
        used += 1
        costs = {block: times[block][0] for block in blocks}
        fast = min(costs.values())
        if fast == max(costs.values()):
            continue  # no contrast: the probe learned nothing this round
        candidates &= {
            (entry ^ byte) % size
            for block in blocks if costs[block] == fast
            for entry in entries[block]
        }
        if len(candidates) <= 1:
            break
    pinned = sorted(candidates) if len(candidates) == 1 else []
    return AttackFindings(
        recovered=pinned,
        extracted=len(pinned),
        bits_extracted=(math.log2(size / len(candidates))
                        if candidates else 0.0),
        evidence=None,
        extra={"candidates": sorted(candidates), "plaintexts": used},
    )


def hamming_weight_attack(weights: Sequence[int],
                          key_bits: int) -> Strategy:
    """Kocher-style recovery of an RSA private exponent's Hamming weight.

    Square-and-multiply runs one modular multiply per set exponent bit,
    so unmitigated decryption time is affine in the key's weight.  One
    batch times a decryption under each calibration key ``{"key": i}``
    (of known weight ``weights[i]``) and under the target,
    ``{"key": len(weights)}``; the fitted line then reads the target's
    weight off its time.  Under mitigation the line is flat, the
    predicted weight is NaN and nothing is recovered.  ``extra`` holds
    the fit (``model``) and the unrounded prediction (``weight``).
    """
    target = len(weights)
    times = yield [Probe(key=i, args={"key": i}) for i in range(target + 1)]
    model = fit_weight_model(weights, [times[i][0] for i in range(target)])
    weight = model.predict_weight(times[target][0])
    recovered = [round(weight)] if model.slope else []
    return AttackFindings(
        recovered=recovered,
        extracted=len(recovered),
        bits_extracted=len(recovered) * math.log2(key_bits + 1),
        evidence=None,
        extra={"model": model, "weight": weight},
    )


def sbox_victim(cipher, key: Sequence[int], byte_index: int = 0,
                hardware: str = "nopar", params=None
                ) -> Tuple[List[int], Callable[[Dict[str, Any]], int]]:
    """The S-box table's entry addresses and the oracle
    :func:`recover_key_byte` probes.

    The oracle encrypts a plaintext whose byte ``byte_index`` is the
    probe's ``byte`` (the rest zero) on a fresh ``hardware`` environment,
    once per plaintext byte, and answers each probe with
    :func:`~repro.hardware.verify.probe`'s cost for its ``address``.
    """
    from ..hardware.verify import probe
    from ..machine.layout import WORD_BYTES, Layout

    template = [0] * cipher.plaintext_length
    # Static layout: the attacker derives addresses exactly as the loader
    # does.  (Address-space randomization is out of scope, as in the paper.)
    layout = Layout.build(cipher.program, cipher.memory(list(key), template))
    base = layout.array_addr["sbox"]
    table = [base + WORD_BYTES * e for e in range(layout.array_len["sbox"])]

    @lru_cache(maxsize=1)
    def victim(byte: int):
        plaintext = list(template)
        plaintext[byte_index % cipher.plaintext_length] = byte
        return cipher.run(list(key), plaintext, hardware=hardware,
                          params=params).environment

    def measure(args: Dict[str, Any]) -> int:
        return probe(victim(args["byte"]), [args["address"]])[0]

    return table, measure


def rsa_victim(system, keys: Sequence[Any], message: List[int],
               hardware: str = "partitioned", params=None
               ) -> Callable[[Dict[str, Any]], int]:
    """The oracle :func:`hamming_weight_attack` probes: the time
    ``system`` takes to decrypt ``message``, encrypted under
    ``keys[args["key"]]``."""
    from ..apps.rsa_math import encrypt_blocks

    def measure(args: Dict[str, Any]) -> int:
        key = keys[args["key"]]
        return system.run(key, encrypt_blocks(message, key),
                          hardware=hardware, params=params).time

    return measure
