"""The four benchmark workloads, as lists of checked operations.

Each workload turns ``(root, seed)`` into a fixed list of :class:`Op`.
An op is one call into the repo's public API (one file linted, one
program run, one gateway run, one attack cell).  Its result yields

* ``outcome``: the deterministic output the fingerprint table pins
  (diagnostic codes, cost intervals, tune winners, simulated cycles, a
  digest of makespan + per-request latencies + audit verdict, a digest
  of an attack cell's verdict and haul);
* ``work``: the units of work it completed (files, programs,
  interpreted steps, requests, probes);
* ``violation``: a seed-independent invariant, checked on top of the
  fingerprint (cycles inside the static cost interval, the red team's
  expected haul).

Secrets, guesses and payloads come from ``seed % VARIANTS``; input sizes
never depend on the seed.  ``analyze`` has no secrets: its input is the
shipped corpus, and the seed only orders it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.adversary import campaign
from repro.adversary.registry import REGISTRY as ATTACKS
from repro.analysis.cost import compute_cost
from repro.analysis.engine import LintOptions, analyze_source
from repro.analysis.rules import COST_RULE_CODES
from repro.analysis.synthesize import synthesize
from repro.apps.login import CredentialTable, LoginSystem
from repro.apps.password import PasswordChecker
from repro.apps.rsa import RsaSystem
from repro.apps.rsa_math import encrypt, generate_keypair
from repro.apps.sbox_cipher import KEY_LENGTH, SBOX_SIZE, SboxCipher
from repro.hardware import make_hardware
from repro.hardware.registry import REGISTRY as MODELS
from repro.semantics.full import execute
from repro.semantics.mitigation import MitigationState
from repro.service import WorkloadSpec, audit_service, serve_workload
from repro.service.workload import POLICY_CHOICES

#: Distinct seeded input sets; ``--seed n`` selects ``n % VARIANTS``.
VARIANTS = 64

#: ``repro lint --bits-budget`` value armed for the lint phase.
LINT_BITS_BUDGET = 1.0


@dataclass
class Op:
    """One checked, timed call."""

    key: Any  # fingerprint key: a corpus path (analyze) or an op index
    phase: str  # lint | cost | tune | run | serve | cell
    fn: Callable[[], Any]
    outcome: Callable[[Any], Any]
    work: Callable[[Any], float]
    violation: Callable[[Any], Optional[str]] = lambda result: None


def digest(value: Any) -> str:
    """A short stable digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def _one(_result: Any) -> float:
    return 1.0


# -- analyze -----------------------------------------------------------------


def corpus(root: Path) -> List[str]:
    """The shipped programs, as repo-relative paths."""
    paths = []
    for pattern in ("examples/*.tl", "examples/lint/*.tl",
                    "examples/tune/*.tl"):
        paths.extend(sorted(p.relative_to(root).as_posix()
                            for p in root.glob(pattern)))
    return paths


def _lint(source: str, path: str):
    return analyze_source(source, path=path, options=LintOptions(
        audit=True, bits_budget=LINT_BITS_BUDGET))


def _cost(source: str, path: str):
    """`repro cost`: the cost-rule lint, then every registry model."""
    result = analyze_source(source, path=path, options=LintOptions(
        select=frozenset(COST_RULE_CODES) | {"TL000"}))
    if result.fatal or result.program is None:
        return result, None
    reports = {model: compute_cost(result.program, hardware=model)
               for model in MODELS.names()}
    return result, reports


def _cost_outcome(pair) -> Any:
    result, reports = pair
    codes = [d.code for d in result.diagnostics]
    if reports is None:
        return {"codes": codes}
    return {"codes": codes,
            "program": {model: [r.program.lo, r.program.hi]
                        for model, r in reports.items()}}


def _tune(source: str, path: str):
    """`repro tune --bits-budget 0` over every model and both schemes."""
    result = analyze_source(source, path=path, options=LintOptions(
        lints=False, audit=False))
    return synthesize(result.program, result.gamma, 0.0,
                      models=MODELS.names())


def _tune_outcome(tuned) -> Any:
    best = tuned.best
    return {"feasible": tuned.feasible,
            "objective": best.objective if best else None,
            "bits": best.worst_capacity()[1] if best else None}


def analyze_ops(root: Path, seed: int) -> List[Op]:
    sources = {path: (root / path).read_text() for path in corpus(root)}
    ops: List[Op] = []
    for path, source in sources.items():
        ops.append(Op(
            f"lint:{path}", "lint",
            lambda s=source, p=path: _lint(s, p),
            lambda r: [d.code for d in r.diagnostics], _one))
        ops.append(Op(
            f"cost:{path}", "cost",
            lambda s=source, p=path: _cost(s, p), _cost_outcome, _one))
        if path.startswith("examples/tune/"):
            ops.append(Op(
                f"tune:{path}", "tune",
                lambda s=source, p=path: _tune(s, p), _tune_outcome, _one))
    random.Random(seed).shuffle(ops)
    return ops


# -- simulate ----------------------------------------------------------------


#: How many leading symbols of a simulated password guess match.
GUESS_PREFIX = 16


def simulate_ops(root: Path, seed: int) -> List[Op]:
    """Per registry model: password and sbox, mitigated and not, as
    short runs (~100 steps); login, mitigated and not, and RSA as long
    ones (>= 1,000 steps).  Each run gets fresh hardware and fresh
    mitigation state, with no recorder and no profiler.

    The seed picks every secret and payload but not the control flow:
    a guess always mismatches first at ``GUESS_PREFIX`` and a login
    always names a valid user, so each run's step count (bar RSA's key
    bits) and the step mix behind the rate stay the same across seeds."""
    variant = seed % VARIANTS
    rng = random.Random(variant)
    key = generate_keypair(bits=64, seed=variant)
    apps = {
        "password-m": PasswordChecker(length=24, mitigated=True),
        "password-u": PasswordChecker(length=24, mitigated=False),
        "sbox-m": SboxCipher(length=24, plaintext_length=24, mitigated=True),
        "sbox-u": SboxCipher(length=24, plaintext_length=24,
                             mitigated=False),
        "login-m": LoginSystem(table_size=192, mitigated=True),
        "login-u": LoginSystem(table_size=192, mitigated=False),
        "rsa-m": RsaSystem(key_bits=key.key_bits, blocks=4),
    }
    table = CredentialTable.generate(size=192, valid=96, rng=rng)

    def memory_args(name: str):
        if name.startswith("password"):
            stored = [rng.randrange(256) for _ in range(24)]
            guess = [rng.randrange(256) for _ in range(24)]
            guess[:GUESS_PREFIX] = stored[:GUESS_PREFIX]
            guess[GUESS_PREFIX] = (stored[GUESS_PREFIX] + 1) % 256
            return stored, guess
        if name.startswith("sbox"):
            length = apps[name].length
            return ([rng.randrange(SBOX_SIZE) for _ in range(KEY_LENGTH)],
                    [rng.randrange(SBOX_SIZE) for _ in range(length)])
        if name == "rsa-m":
            return key, [encrypt(rng.randrange(2, key.n - 1), key)
                         for _ in range(4)]
        index = rng.randrange(table.valid)
        return table, table.usernames[index], table.passwords[index]

    def runner(app, args, model):
        pc = dict(app.typing.mitigate_pc) if app.typing else {}

        def run():
            environment = make_hardware(model, app.lattice, None)
            return execute(app.program, app.memory(*args), environment,
                           mitigation=MitigationState(), mitigate_pc=pc)
        return run

    def in_interval(app, model):
        """The soundness check for runs without ``mitigate``.  It runs
        after the op's timer stops; the static interval is computed on
        the first check and kept."""
        if app.typing is not None:
            return lambda result: None
        interval = []

        def violation(result):
            if not interval:
                interval.append(compute_cost(app.program,
                                             hardware=model).program)
            if interval[0].contains(result.time):
                return None
            return (f"{result.time} cycles outside the static interval "
                    f"[{interval[0].lo}, {interval[0].hi}]")
        return violation

    ops: List[Op] = []
    for model in MODELS.names():
        for name, app in apps.items():
            ops.append(Op(
                len(ops), "run", runner(app, memory_args(name), model),
                lambda r: r.time, lambda r: float(r.steps),
                in_interval(app, model)))
    return ops


# -- serve -------------------------------------------------------------------

#: The 4-tenant mix of examples/service/basic.json.
TENANTS = [
    {"name": "acme-login", "app": "login", "weight": 2.0,
     "config": {"table_size": 8}},
    {"name": "bank-passwords", "app": "password", "weight": 2.0,
     "config": {"length": 6}},
    {"name": "hsm-rsa", "app": "rsa", "weight": 1.0,
     "config": {"key_bits": 8}},
    {"name": "cdn-sbox", "app": "sbox", "weight": 1.0,
     "config": {"length": 6}},
]

#: Requests per gateway run.
SERVE_REQUESTS = 64

ARRIVALS = [
    {"kind": "closed", "clients": 4, "think": 512},
    {"kind": "closed", "clients": 12, "think": 512},
    {"kind": "open", "mean_gap": 900},
]


def _serve(spec: WorkloadSpec):
    result = serve_workload(spec)
    return result, audit_service(result)


def _serve_outcome(pair) -> str:
    result, audit = pair
    return digest({
        "makespan": result.makespan,
        "responses": [[r.request.req_id, r.tenant, r.status, r.latency]
                      for r in result.responses],
        "audit_ok": audit.ok,
    })


def serve_ops(root: Path, seed: int) -> List[Op]:
    variant = seed % VARIANTS
    ops: List[Op] = []
    for policy in POLICY_CHOICES:
        for arrival in ARRIVALS:
            spec = WorkloadSpec.from_dict({
                "seed": variant * 1009 + len(ops),
                "requests": SERVE_REQUESTS,
                "policy": policy,
                "quantum": 2048,
                "workers": 2,
                "queue_depth": 8,
                "arrival": arrival,
                "tenants": TENANTS,
            })
            ops.append(Op(
                len(ops), "serve", lambda s=spec: _serve(s), _serve_outcome,
                lambda pair: float(len(pair[0].completed()))))
    return ops


# -- attack ------------------------------------------------------------------

#: Bits the prefix attacks must extract where the gateway leaks.
FULL_HAUL = {"password-crack": 12.0, "tag-forge": 20.0}


def _cell_outcome(cell) -> str:
    return digest({
        "cell": [cell.attack, cell.policy, cell.clients],
        "expected": cell.expected, "ok": cell.ok,
        "significant": cell.significant, "recovered": cell.recovered,
        "bits": cell.bits_extracted, "within": cell.within_budget,
        "probes": cell.probes, "makespan": cell.makespan,
    })


def _cell_violation(cell) -> Optional[str]:
    if not cell.ok:
        return f"{cell.attack}/{cell.policy}: defended cell beaten"
    if cell.attack in FULL_HAUL:
        want = 0.0 if cell.expected == "defeated" else FULL_HAUL[cell.attack]
        if cell.bits_extracted != want:
            return (f"{cell.attack}/{cell.policy}: extracted "
                    f"{cell.bits_extracted} bits, expected {want}")
    return None


def attack_ops(root: Path, seed: int) -> List[Op]:
    """The cells of ``run_campaign(quick=True)``: every attack under every
    policy at its first client count."""
    variant = seed % VARIANTS
    ops: List[Op] = []
    for spec in ATTACKS.specs():
        for policy in POLICY_CHOICES:
            clients = spec.client_counts[0]
            ops.append(Op(
                len(ops), "cell",
                lambda s=spec, p=policy, c=clients: campaign.run_cell(
                    s, p, c, seed=variant),
                _cell_outcome, lambda cell: float(cell.probes),
                _cell_violation))
    return ops


WORKLOADS: Dict[str, Callable[[Path, int], List[Op]]] = {
    "analyze": analyze_ops,
    "simulate": simulate_ops,
    "serve": serve_ops,
    "attack": attack_ops,
}

#: The unit of ``work`` per workload, and the phases' own rate names.
PHASE_RATES = {
    "lint": "lint.files_per_s",
    "cost": "cost.files_per_s",
    "tune": "tune.programs_per_s",
    "run": "simulate.steps_per_s",
    "serve": "serve.requests_per_s",
    "cell": "attack.probes_per_s",
}


def fingerprint_key(workload: str, seed: int) -> str:
    """Which fingerprint table entry a run checks against."""
    return "corpus" if workload == "analyze" else str(seed % VARIANTS)
