"""The contract-verification campaign: the hardware zoo, attacked.

``repro verify-hw`` treats every :class:`~repro.hardware.registry.HardwareSpec`
as a falsifiable claim and attacks it with seeded random cases:

* for **expected-secure** models (null / nofill / partitioned), the campaign
  must fail to find any violation of Properties 2 and 5-7 across every
  supported lattice and machine-parameter point;
* for **expected-insecure** models (standard/bus/writeback/speculative/
  frequency/leakytlb), the campaign must *detect* a violation of one of the
  properties the spec declares it breaks -- an undetected insecure model
  means the checkers are vacuous, which is just as much a failure.

One example is a :class:`~repro.hardware.contract.ContractCase` drawn by
:func:`~repro.hardware.contract.random_cases`, the same generator behind
``repro contract``: a shared warm-up stimulus sequence, a divergence phase
whose write labels cannot reach the observation level (so the two
environments stay ``~level``-equivalent by Property 5), and a probe step.
The contract's one checker, :func:`~repro.hardware.contract.check_case`,
evaluates all four properties on that case; the first failing case is
shrunk by :func:`~repro.hardware.contract.shrink_case` to a small one that
still fails the same property first.

Counterexamples serialize to JSON (schema ``repro.verify-hw/1``) together
with the lattice, the point's seed, and the violated property, and
:func:`replay_counterexample` re-executes them from the file alone.  The
directory they are written to is also the campaign's memory: a later run
replays a point's stored counterexample before generating fresh cases.  The
CI job uploads them as artifacts and a regression test replays a stored one.

For each *detected* model the campaign then quantifies the leak end to end
(:func:`measure_end_to_end`): it runs the unmitigated password and S-box
victims over a family of secrets and measures how many distinguishable
probe signatures a coresident adversary observes -- secure hardware yields
exactly one class (that is Properties 5/6 in action); leaky hardware yields
several, i.e. ``log2(classes)`` bits per run through the hardware channel
alone (the *direct* completion-time channel exists on every model and is
the mitigation's job, not the hardware's).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union
from zlib import crc32

from ..lattice import Lattice
from ..machine.layout import AccessTrace, Layout
from .contract import (
    ContractCase,
    EnvFactory,
    Stimulus,
    Violation,
    check_case,
    random_cases,
    shrink_case,
)
from .interface import MachineEnvironment, StepKind
from .registry import (
    LATTICE_POINTS,
    PARAM_POINTS,
    REGISTRY,
    HardwareRegistry,
    HardwareRegistryError,
    HardwareSpec,
)

#: JSON schema tag for serialized counterexamples.
COUNTEREXAMPLE_SCHEMA = "repro.verify-hw/1"


# ---------------------------------------------------------------------------
# Counterexample serialization (schema repro.verify-hw/1)
# ---------------------------------------------------------------------------


def lattice_to_dict(lattice: Lattice) -> Dict[str, object]:
    levels = [level.name for level in lattice.levels()]
    covers = [
        [low.name, high.name]
        for low in lattice.levels()
        for high in lattice.levels()
        if low is not high and low.flows_to(high)
    ]
    return {"levels": levels, "covers": covers}


def lattice_from_dict(doc: Dict[str, object]) -> Lattice:
    return Lattice(
        [str(name) for name in doc["levels"]],
        [(str(lo), str(hi)) for lo, hi in doc["covers"]],
    )


def stimulus_to_dict(stim: Stimulus) -> Dict[str, object]:
    return {
        "kind": stim.kind.value,
        "read_label": stim.read_label.name,
        "write_label": stim.write_label.name,
        "trace": {
            "instruction": stim.trace.instruction,
            "reads": list(stim.trace.reads),
            "writes": list(stim.trace.writes),
            "taken": stim.trace.taken,
        },
    }


def stimulus_from_dict(doc: Dict[str, object], lattice: Lattice) -> Stimulus:
    trace = doc["trace"]
    return Stimulus(
        kind=StepKind(doc["kind"]),
        trace=AccessTrace(
            instruction=int(trace["instruction"]),
            reads=tuple(trace["reads"]),
            writes=tuple(trace["writes"]),
            taken=trace["taken"],
        ),
        read_label=lattice[str(doc["read_label"])],
        write_label=lattice[str(doc["write_label"])],
    )


def case_to_dict(case: ContractCase) -> Dict[str, object]:
    return {
        "level": case.level.name,
        "shared": [stimulus_to_dict(s) for s in case.shared],
        "divergent": [stimulus_to_dict(s) for s in case.divergent],
        "probe": stimulus_to_dict(case.probe),
    }


def case_from_dict(doc: Dict[str, object], lattice: Lattice) -> ContractCase:
    return ContractCase(
        level=lattice[str(doc["level"])],
        shared=tuple(
            stimulus_from_dict(s, lattice) for s in doc["shared"]
        ),
        divergent=tuple(
            stimulus_from_dict(s, lattice) for s in doc["divergent"]
        ),
        probe=stimulus_from_dict(doc["probe"], lattice),
    )


def counterexample_to_dict(
    *,
    model: str,
    lattice_point: str,
    param_point: str,
    seed: int,
    violation: Violation,
    case: ContractCase,
    lattice: Lattice,
) -> Dict[str, object]:
    """A fully replayable record of one falsified contract property."""
    return {
        "schema": COUNTEREXAMPLE_SCHEMA,
        "model": model,
        "lattice_point": lattice_point,
        "param_point": param_point,
        "seed": seed,
        "violation": violation.as_dict(),
        "lattice": lattice_to_dict(lattice),
        "case": case_to_dict(case),
    }


def replay_counterexample(
    doc: Union[str, Path, Dict[str, object]],
    registry: HardwareRegistry = REGISTRY,
) -> Optional[Violation]:
    """Re-execute a serialized counterexample; returns the fresh verdict.

    Accepts the JSON document itself or a path to it.  The stored lattice
    is reconstructed from the file, so replay does not depend on the
    campaign's lattice-point table staying stable.
    """
    if isinstance(doc, (str, Path)):
        doc = json.loads(Path(doc).read_text())
    if doc.get("schema") != COUNTEREXAMPLE_SCHEMA:
        raise ValueError(
            f"not a verify-hw counterexample (schema "
            f"{doc.get('schema')!r}, expected {COUNTEREXAMPLE_SCHEMA!r})"
        )
    lattice = lattice_from_dict(doc["lattice"])
    case = case_from_dict(doc["case"], lattice)
    spec = registry.get(str(doc["model"]))
    params_factory = PARAM_POINTS[str(doc["param_point"])]
    violations = check_case(
        lambda: spec.make(lattice, params_factory()), lattice, case
    )
    return violations[0] if violations else None


# ---------------------------------------------------------------------------
# The campaign over one (model, lattice, params) point
# ---------------------------------------------------------------------------


def campaign_point(
    factory: EnvFactory,
    lattice: Lattice,
    *,
    max_examples: int = 300,
    seed: int = 0,
) -> Dict[str, object]:
    """Attack one model instance with up to ``max_examples`` random cases.

    Returns ``{"examples": n, "violation": ..., "case": ...}``.  Cases come
    from :func:`~repro.hardware.contract.random_cases` seeded with ``seed``
    and stop at the first violation; the case returned is that one after
    :func:`~repro.hardware.contract.shrink_case`, with its own first
    violation.  ``examples`` counts generated cases, not the shrinker's
    re-checks.
    """
    cases = islice(random_cases(random.Random(seed), lattice), max_examples)
    for examples, case in enumerate(cases, 1):
        violations = check_case(factory, lattice, case)
        if violations:
            case = shrink_case(factory, lattice, case, violations[0].prop)
            return {
                "examples": examples,
                "violation": check_case(factory, lattice, case)[0],
                "case": case,
            }
    return {"examples": max_examples, "violation": None, "case": None}


def point_seed(campaign_seed: int, model: str, lattice_point: str,
               param_point: str) -> int:
    """A stable per-point seed derived from the campaign's."""
    return campaign_seed ^ crc32(
        f"{model}:{lattice_point}:{param_point}".encode()
    )


# ---------------------------------------------------------------------------
# End-to-end leak quantification
# ---------------------------------------------------------------------------


@dataclass
class LeakMeasurement:
    """How much a coresident adversary learns from one victim run.

    ``probe_*`` counts distinguishable *hardware* observations (cache/TLB/
    predictor/clock probes after the victim ran) across the secret family;
    on contract-satisfying hardware there is exactly one class.  ``direct_*``
    counts distinguishable victim completion times -- the direct channel the
    unmitigated programs leak on *every* model (mitigation's job).
    """

    secrets: int
    probe_classes: int
    direct_classes: int

    @property
    def probe_bits(self) -> float:
        return math.log2(self.probe_classes) if self.probe_classes else 0.0

    @property
    def direct_bits(self) -> float:
        return math.log2(self.direct_classes) if self.direct_classes else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "secrets": self.secrets,
            "probe_classes": self.probe_classes,
            "probe_bits": round(self.probe_bits, 3),
            "direct_classes": self.direct_classes,
            "direct_bits": round(self.direct_bits, 3),
        }


def probe(
    environment: MachineEnvironment, addresses: Sequence[int]
) -> Tuple[int, ...]:
    """The coresident adversary's prime-and-probe: the cost of a public
    (bottom-labeled) read of each address after the victim ran.

    Each read runs on its own clone of ``environment``, so probes do not
    disturb each other (the strongest, simultaneous variant).  Property 6
    says these costs depend on bottom state only: on contract-satisfying
    hardware they cannot tell two ``~bottom``-equivalent runs apart.
    """
    bottom = environment.lattice.bottom
    costs = []
    for address in addresses:
        clone = environment.clone()
        costs.append(
            clone.step(
                StepKind.ASSIGN,
                AccessTrace(
                    instruction=0x7FFF_0000, reads=(address,), writes=()
                ),
                bottom,
                bottom,
            )
        )
    return tuple(costs)


def _branch_probe_costs(
    environment: MachineEnvironment, instructions: Sequence[int]
) -> Tuple[int, ...]:
    """Bottom-labeled branch probes at the victim's instruction addresses.

    On hardware with a shared predictor this reads back what the victim's
    branches trained (the Spectre-style observation); contract-satisfying
    hardware charges the same cost regardless of the victim's secrets.
    """
    bottom = environment.lattice.bottom
    costs = []
    for instruction in instructions:
        for taken in (False, True):
            clone = environment.clone()
            costs.append(
                clone.step(
                    StepKind.BRANCH,
                    AccessTrace(
                        instruction=instruction, reads=(), writes=(),
                        taken=taken,
                    ),
                    bottom,
                    bottom,
                )
            )
    return tuple(costs)


def measure_end_to_end(
    spec: HardwareSpec,
    *,
    secrets: int = 8,
    password_length: int = 16,
    params_point: Optional[str] = None,
) -> LeakMeasurement:
    """Drive the unmitigated password and S-box victims over a family of
    ``secrets`` secrets on ``spec``'s hardware and count what an adversary's
    probes can tell apart."""
    from ..apps.password import PasswordChecker
    from ..apps.sbox_cipher import KEY_LENGTH, SboxCipher

    if params_point is None:
        params_point = spec.quantify_point
    params_factory = PARAM_POINTS[params_point]
    checker = PasswordChecker(mitigated=False, length=password_length)
    cipher = SboxCipher(mitigated=False, length=32, plaintext_length=16)
    guess = [0] * password_length
    plaintext = list(range(16))

    # The adversary knows the (static, public) layouts: it probes the
    # victims' own data addresses and branch sites, the strongest
    # coresident position.
    pw_layout = Layout.build(checker.program, checker.memory(guess, guess))
    pw_data = [
        pw_layout.data_address(access)
        for access in _array_accesses(pw_layout, "stored")
    ]
    pw_code = sorted(pw_layout.instr_addr.values())
    sbox_layout = Layout.build(
        cipher.program, cipher.memory([0] * KEY_LENGTH, plaintext)
    )
    sbox_data = [
        sbox_layout.data_address(access)
        for access in _array_accesses(sbox_layout, "ctext")
    ] + [
        sbox_layout.data_address(access)
        for access in _array_accesses(sbox_layout, "sbox")
    ][::16]

    probe_signatures = set()
    direct_times = set()
    for index in range(secrets):
        prefix = index % (password_length + 1)
        stored = [0] * prefix + [1] * (password_length - prefix)
        key = [(index * 37 + i * 11) % 251 for i in range(KEY_LENGTH)]
        pw_run = checker.run(
            stored, guess, hardware=spec.name, params=params_factory()
        )
        sbox_run = cipher.run(
            key, plaintext, hardware=spec.name, params=params_factory()
        )
        probe_signatures.add(
            probe(pw_run.environment, pw_data)
            + _branch_probe_costs(pw_run.environment, pw_code)
            + probe(sbox_run.environment, sbox_data)
        )
        direct_times.add((pw_run.time, sbox_run.time))
    return LeakMeasurement(
        secrets=secrets,
        probe_classes=len(probe_signatures),
        direct_classes=len(direct_times),
    )


def _array_accesses(layout: Layout, name: str):
    from ..machine.layout import DataAccess

    return [
        DataAccess(name, i) for i in range(layout.array_len[name])
    ]


# ---------------------------------------------------------------------------
# The full campaign
# ---------------------------------------------------------------------------


@dataclass
class ModelVerdict:
    """The campaign's outcome for one (model, lattice, params) point."""

    model: str
    lattice_point: str
    param_point: str
    expected_secure: bool
    violates: Tuple[str, ...]
    seed: int
    examples: int = 0
    violation: Optional[Violation] = None
    counterexample: Optional[Dict[str, object]] = None
    leak: Optional[LeakMeasurement] = None

    @property
    def detected(self) -> bool:
        return self.violation is not None

    def as_expected(self) -> bool:
        """Did this point behave as its spec claims?

        Secure models must survive; insecure models must be detected, and
        when the spec names the broken properties the detected violation
        must be one of them.
        """
        if self.expected_secure:
            return not self.detected
        if not self.detected:
            return False
        if self.violates:
            return self.violation.prop in self.violates
        return True

    def as_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "lattice": self.lattice_point,
            "params": self.param_point,
            "expected": "secure" if self.expected_secure else "insecure",
            "violates": list(self.violates),
            "seed": self.seed,
            "examples": self.examples,
            "detected": self.detected,
            "as_expected": self.as_expected(),
            "violation": self.violation.as_dict() if self.violation else None,
            "leak": self.leak.as_dict() if self.leak else None,
        }


@dataclass
class CampaignResult:
    """Every verdict from one ``repro verify-hw`` run."""

    verdicts: List[ModelVerdict] = field(default_factory=list)
    seed: int = 0
    max_examples: int = 0

    def ok(self) -> bool:
        return all(v.as_expected() for v in self.verdicts)

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro.verify-hw.campaign/1",
            "seed": self.seed,
            "max_examples": self.max_examples,
            "ok": self.ok(),
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def render_verify_campaign(doc: Dict[str, object]) -> List[str]:
    """A ``repro.verify-hw.campaign/1`` document as report lines: one per
    point, then the verdict and the points that defied their spec."""
    seed = doc["seed"]
    lines = [f"campaign seed: {seed} (per-point seeds listed below; rerun "
             f"with --seed {seed} to reproduce)",
             f"examples per point: {doc['max_examples']}", ""]
    surprises = []
    for v in doc["verdicts"]:
        point = f"{v['model']}[{v['lattice']},{v['params']}]"
        outcome = ("all properties held" if not v["detected"]
                   else f"VIOLATED {v['violation']['prop']}")
        if v["leak"] is not None:
            # The bits from the class count, not the rounded field.
            classes = v["leak"]["probe_classes"]
            bits = math.log2(classes) if classes else 0.0
            outcome += (f"; adversary observes {classes} probe classes "
                        f"(~{bits:.1f} bits/run)")
        lines.append(f"{'ok ' if v['as_expected'] else 'BAD'} {point:34s} "
                     f"expected {v['expected']:8s} [{v['examples']} "
                     f"examples, seed {v['seed']}] {outcome}")
        if not v["as_expected"]:
            surprises.append(f"  {point}: " + (
                "expected secure but a violation was found"
                if v["expected"] == "secure" else
                "expected insecure but went undetected or was misattributed"))
    if not surprises:
        return lines + ["", "campaign passed: secure models held, "
                            "insecure models detected"]
    return lines + ["", f"CAMPAIGN FAILED: {len(surprises)} point(s) "
                        f"defied their spec", *surprises]


def _replay_stored_failures(
    path: Optional[Path],
    point: Tuple[str, str, str],
    registry: HardwareRegistry,
) -> Optional[Dict[str, object]]:
    """Re-check the counterexample a prior run stored at ``path``.

    Returns a ``campaign_point``-shaped state (the replay is its one
    example) when the stored document still falsifies the contract at
    ``point`` (model, lattice point, parameter point), else None.  A stored
    document that does not parse, belongs to another point or no longer
    reproduces is deleted, so the store tracks the current models.
    """
    if path is None or not path.is_file():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        stored = (doc["model"], doc["lattice_point"], doc["param_point"])
        violation = (
            replay_counterexample(doc, registry) if stored == point else None
        )
        case = case_from_dict(doc["case"], lattice_from_dict(doc["lattice"]))
    except (ValueError, KeyError, TypeError, HardwareRegistryError):
        violation = None
    if violation is None:
        path.unlink()
        return None
    return {"examples": 1, "violation": violation, "case": case}


def run_campaign(
    registry: HardwareRegistry = REGISTRY,
    *,
    models: Optional[Sequence[str]] = None,
    lattice_points: Optional[Sequence[str]] = None,
    max_examples: int = 300,
    seed: int = 0,
    quantify: bool = True,
    counterexample_dir: Optional[Union[str, Path]] = None,
) -> CampaignResult:
    """Run the verification campaign over the registry.

    Every selected model is attacked at every (lattice point, parameter
    point) its spec declares, each with a seed derived stably from
    ``seed`` and the point's name (so single-model reruns reproduce the
    full campaign's generation exactly).

    With ``counterexample_dir`` each detected point's shrunk counterexample
    is written there as replayable JSON, one file per point, and a later
    campaign replays that file before generating fresh cases -- so a known
    leak is refound at once even with a tiny example budget.  The directory
    is checked (and created) before any point runs.
    """
    specs = (
        [registry.get(name) for name in models]
        if models
        else list(registry)
    )
    store = None if counterexample_dir is None else Path(counterexample_dir)
    if store is not None:
        if store.exists() and not store.is_dir():
            raise NotADirectoryError(
                f"counterexample store {store} is not a directory"
            )
        store.mkdir(parents=True, exist_ok=True)
    result = CampaignResult(seed=seed, max_examples=max_examples)
    for spec in specs:
        quantified = False
        for lattice_point in spec.lattice_points:
            if lattice_points and lattice_point not in lattice_points:
                continue
            for param_point in spec.param_points:
                lattice = LATTICE_POINTS[lattice_point]()
                params_factory = PARAM_POINTS[param_point]
                sub_seed = point_seed(
                    seed, spec.name, lattice_point, param_point
                )
                path = None if store is None else store / (
                    f"counterexample_{spec.name}_"
                    f"{lattice_point}_{param_point}.json"
                )
                state = _replay_stored_failures(
                    path, (spec.name, lattice_point, param_point), registry
                )
                if state is None:
                    state = campaign_point(
                        lambda s=spec, l=lattice, pf=params_factory: s.make(
                            l, pf()
                        ),
                        lattice,
                        max_examples=max_examples,
                        seed=sub_seed,
                    )
                verdict = ModelVerdict(
                    model=spec.name,
                    lattice_point=lattice_point,
                    param_point=param_point,
                    expected_secure=spec.expected_secure,
                    violates=spec.violates,
                    seed=sub_seed,
                    examples=int(state["examples"]),
                    violation=state["violation"],
                )
                if verdict.detected:
                    verdict.counterexample = counterexample_to_dict(
                        model=spec.name,
                        lattice_point=lattice_point,
                        param_point=param_point,
                        seed=sub_seed,
                        violation=state["violation"],
                        case=state["case"],
                        lattice=lattice,
                    )
                    if path is not None:
                        path.write_text(
                            json.dumps(verdict.counterexample, indent=2)
                            + "\n"
                        )
                    if quantify and not quantified:
                        verdict.leak = measure_end_to_end(spec)
                        quantified = True
                result.verdicts.append(verdict)
    return result
