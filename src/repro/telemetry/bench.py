"""The perf-trajectory harness: ``BENCH_*.json`` producers + compare gate.

Every future scaling PR (register-VM, vectorized hardware, sharded
gateway) needs a number to move and a gate that notices when it moves
the wrong way.  This module measures **cycles simulated per
wall-second** for the subsystems the ROADMAP names -- representative
programs (password, sbox, rsa; mitigated and unmitigated), every
registered hardware model's access path, the profiled subsystem
attribution, and the gateway event loop -- and writes the results as a
``repro.bench/1`` document:

.. code-block:: json

    {"schema": "repro.bench/1",
     "kind": "core",
     "config": {"repeats": 3, "...": "..."},
     "entries": {"program/password/mitigated":
                     {"cycles": 1730, "wall_s": 0.0021,
                      "cycles_per_sec": 823809.5, "runs": 3,
                      "meta": {"hardware": "partitioned"}},
                 "...": {}},
     "overhead": {"overhead_pct": 1.2, "tolerance_pct": 5.0, "ok": true}}

``BENCH_core.json`` at the repo root is the committed baseline;
``repro bench --compare BENCH_core.json`` re-measures and exits 1 when
any entry's rate drops more than ``--tolerance`` (default 20%) below
the baseline -- the CI regression gate.  Timings use the *minimum* over
``repeats`` runs (the standard microbenchmark noise filter: the
simulator is deterministic, so the minimum is the least-interfered
sample).

The module also hosts :class:`SeamlessInterpreter` -- the interpreter
with the observation seam physically deleted from the per-step hot path
-- which :func:`measure_seam_overhead` races against the shipped
interpreter to enforce the "zero overhead when off" claim (<= 5%).
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..apps.password import PasswordChecker
from ..apps.rsa import RsaSystem
from ..apps.rsa_math import encrypt_blocks, generate_keypair
from ..apps.sbox_cipher import SboxCipher
from ..hardware import make_hardware
from ..hardware.registry import REGISTRY
from ..semantics.full import Interpreter, execute
from ..semantics.mitigation import MitigationState
from ..service import WorkloadSpec, audit_service, serve_workload
from .profiling import Profiler, StreamingHistogram
from .recorder import TraceRecorder

#: Schema tag every BENCH document carries.
SCHEMA = "repro.bench/1"

#: Default relative slowdown tolerated before --compare reports a
#: regression (20%, per-entry, on cycles_per_sec).
DEFAULT_TOLERANCE = 0.20

#: Maximum profiler-off overhead the seam is allowed to cost, vs a build
#: with the seam removed (asserted by benchmarks/bench_core_speed.py).
OVERHEAD_TOLERANCE_PCT = 5.0

# The canonical service sweep (shared with
# benchmarks/bench_service_throughput.py so both producers of
# BENCH_service.json agree on the cell grid).
SERVICE_POLICIES: Tuple[str, ...] = ("fifo", "rr", "quantized")
SERVICE_CLIENT_COUNTS: Tuple[int, ...] = (4, 12)
SERVICE_REQUESTS = 80
SERVICE_QUANTUM = 2048
SERVICE_SEED = 2012
SERVICE_TENANTS: List[Dict[str, object]] = [
    {"name": "acme-login", "app": "login", "weight": 2.0,
     "config": {"table_size": 8}},
    {"name": "bank-passwords", "app": "password", "weight": 2.0,
     "config": {"length": 6}},
    {"name": "cdn-sbox", "app": "sbox", "weight": 1.0,
     "config": {"length": 6}},
]

_NS = 1e9


class BenchError(RuntimeError):
    """Raised on unusable bench documents (bad schema, kind mismatch)."""


def service_spec(policy: str, clients: int,
                 requests: int = SERVICE_REQUESTS,
                 seed: int = SERVICE_SEED) -> WorkloadSpec:
    """One cell of the canonical closed-loop service sweep."""
    return WorkloadSpec.from_dict({
        "seed": seed,
        "requests": requests,
        "policy": policy,
        "quantum": SERVICE_QUANTUM,
        "workers": 2,
        "queue_depth": 8,
        "arrival": {"kind": "closed", "clients": clients, "think": 512},
        "tenants": SERVICE_TENANTS,
    })


# -- document plumbing -------------------------------------------------------


def make_entry(cycles: int, wall_s: float, runs: int,
               **meta) -> Dict[str, object]:
    """One BENCH entry; ``cycles_per_sec`` is the trajectory number."""
    entry: Dict[str, object] = {
        "cycles": int(cycles),
        "wall_s": round(float(wall_s), 9),
        "cycles_per_sec": (
            round(cycles / wall_s, 1) if cycles and wall_s > 0 else None
        ),
        "runs": int(runs),
    }
    if meta:
        entry["meta"] = meta
    return entry


def write_bench_document(path: str, doc: Mapping) -> str:
    """Write a BENCH document (stamping the schema) and return the path."""
    out = dict(doc)
    out.setdefault("schema", SCHEMA)
    with open(path, "w") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench_document(path: str) -> Dict:
    """Load and validate a BENCH document."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as err:
        raise BenchError(f"{path}: cannot read ({err.strerror or err})")
    except json.JSONDecodeError as err:
        raise BenchError(f"{path}: not valid JSON ({err})")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise BenchError(
            f"{path}: not a {SCHEMA} document "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    if not isinstance(doc.get("entries"), dict):
        raise BenchError(f"{path}: missing entries section")
    return doc


# -- the core suite ----------------------------------------------------------


def _min_wall_run(run, repeats: int) -> Tuple[int, float]:
    """Run ``run()`` once to warm caches, then ``repeats`` timed times;
    returns (cycles per run, minimum wall seconds)."""
    run()
    best = None
    cycles = 0
    for _ in range(max(repeats, 1)):
        started = time.perf_counter_ns()
        result = run()
        wall = time.perf_counter_ns() - started
        cycles = result.time
        if best is None or wall < best:
            best = wall
    return cycles, best / _NS


def _program_cases(config: Mapping) -> List[Tuple[str, object, object, dict]]:
    """(key, app, run-closure inputs) for the representative programs."""
    length = int(config["password_length"])
    sbox_len = int(config["sbox_length"])
    rsa_bits = int(config["rsa_bits"])
    rsa_blocks = int(config["rsa_blocks"])

    cases: List[Tuple[str, object, object, dict]] = []
    for mitigated in (True, False):
        app = PasswordChecker(length=length, mitigated=mitigated)
        memory = (list(range(length)), list(range(length)))
        cases.append((
            f"program/password/{'mitigated' if mitigated else 'unmitigated'}",
            app, memory, {"length": length},
        ))
    for mitigated in (True, False):
        app = SboxCipher(length=sbox_len, plaintext_length=sbox_len,
                         mitigated=mitigated)
        # The cipher's key width is fixed (KEY_LENGTH); only the
        # plaintext/ciphertext length scales.
        memory = (list(range(16)), list(range(sbox_len)))
        cases.append((
            f"program/sbox/{'mitigated' if mitigated else 'unmitigated'}",
            app, memory, {"length": sbox_len},
        ))
    key = generate_keypair(rsa_bits, seed=7)
    ciphertext = encrypt_blocks(list(range(1, rsa_blocks + 1)), key)
    app = RsaSystem(key_bits=rsa_bits, blocks=rsa_blocks)
    cases.append((
        "program/rsa/language", app, (key, ciphertext),
        {"key_bits": rsa_bits, "blocks": rsa_blocks},
    ))
    return cases


def _app_runner(app, memory_args, hardware: str,
                interpreter_cls=Interpreter,
                recorder: Optional[TraceRecorder] = None):
    """A closure executing ``app`` on a fresh environment + memory each
    call (so cache state never leaks between timed runs)."""
    typing = getattr(app, "typing", None)
    mitigate_pc = dict(typing.mitigate_pc) if typing is not None else {}

    def run():
        interp = interpreter_cls(
            program=app.program,
            memory=app.memory(*memory_args),
            environment=make_hardware(hardware, app.lattice, None),
            mitigation=MitigationState(),
            mitigate_pc=mitigate_pc,
            recorder=recorder,
        )
        return interp.run()
    return run


def run_core_bench(repeats: int = 3,
                   password_length: int = 24,
                   sbox_length: int = 24,
                   rsa_bits: int = 16,
                   rsa_blocks: int = 2,
                   hardware: str = "partitioned",
                   gateway_requests: int = 24,
                   check_overhead: bool = True) -> Dict:
    """Measure the core simulator and return a ``kind="core"`` document."""
    config = {
        "repeats": repeats,
        "password_length": password_length,
        "sbox_length": sbox_length,
        "rsa_bits": rsa_bits,
        "rsa_blocks": rsa_blocks,
        "hardware": hardware,
        "gateway_requests": gateway_requests,
    }
    entries: Dict[str, Dict[str, object]] = {}

    # Representative programs on the reference hardware model.
    cases = _program_cases(config)
    for key, app, memory_args, meta in cases:
        cycles, wall = _min_wall_run(
            _app_runner(app, memory_args, hardware), repeats
        )
        entries[key] = make_entry(cycles, wall, repeats,
                                  hardware=hardware, **meta)

    # Every registered hardware model's access path, driven by the same
    # (unmitigated, so model-agnostic) password loop.
    probe = PasswordChecker(length=password_length, mitigated=False)
    probe_memory = (list(range(password_length)),
                    list(range(password_length)))
    for spec in REGISTRY.specs():
        cycles, wall = _min_wall_run(
            _app_runner(probe, probe_memory, spec.name), repeats
        )
        entries[f"hardware/{spec.name}"] = make_entry(
            cycles, wall, repeats,
            expected_secure=spec.expected_secure,
        )

    # Profiled subsystem attribution: one mitigated workload with the
    # profiler on, split by where the cycles and the wall-time went.
    profiler = Profiler()
    mitigated = cases[0]  # password/mitigated
    profiled_run = _app_runner(mitigated[1], mitigated[2], hardware,
                               recorder=profiler)
    for _ in range(max(repeats, 1)):
        profiled_run()
    for name in profiler.subsystems():
        cycles = profiler.cycles.get(name, 0)
        wall_ns = profiler.wall_ns.get(name, 0)
        entries[f"subsystem/{name}"] = make_entry(
            cycles, wall_ns / _NS, repeats,
            calls=profiler.calls.get(name, 0),
        )

    # The gateway event loop, profiled end to end on a small closed-loop
    # workload: rate = virtual makespan per second of host loop time.
    gw_profiler = Profiler()
    spec = service_spec("quantized", clients=4, requests=gateway_requests)
    started = time.perf_counter_ns()
    result = serve_workload(spec, recorder=gw_profiler)
    gw_wall = (time.perf_counter_ns() - started) / _NS
    entries["gateway/serve"] = make_entry(
        result.makespan, gw_wall, 1,
        completed=len(result.completed()),
        events=gw_profiler.calls.get("gateway.loop", 0),
    )
    handler_ns = gw_profiler.wall_ns.get("gateway.handlers", 0)
    entries["gateway/handlers"] = make_entry(
        gw_profiler.cycles.get("gateway.handlers", 0), handler_ns / _NS, 1,
        calls=gw_profiler.calls.get("gateway.handlers", 0),
    )

    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "kind": "core",
        "config": config,
        "entries": entries,
    }
    if check_overhead:
        doc["overhead"] = measure_seam_overhead(
            repeats=max(repeats * 2, 5), length=password_length
        )
    return doc


# -- the service suite -------------------------------------------------------


def service_case(result, audit, wall_s: float) -> Dict[str, object]:
    """Convert one measured service cell into a BENCH entry (shared with
    benchmarks/bench_service_throughput.py)."""
    hist = StreamingHistogram()
    for response in result.completed():
        hist.observe(response.latency)
    quantiles = hist.quantiles()
    return make_entry(
        result.makespan, wall_s, 1,
        completed=len(result.completed()),
        req_per_mcycle=round(result.throughput_per_mcycle(), 2),
        latency_p50=quantiles["p50"],
        latency_p95=quantiles["p95"],
        latency_p99=quantiles["p99"],
        leaked_bits=round(audit.max_observed_bits(), 3),
        audit_ok=audit.ok,
    )


def run_service_bench(requests: int = SERVICE_REQUESTS,
                      client_counts: Sequence[int] = SERVICE_CLIENT_COUNTS,
                      policies: Sequence[str] = SERVICE_POLICIES,
                      seed: int = SERVICE_SEED) -> Dict:
    """Measure the service sweep and return a ``kind="service"`` document."""
    entries: Dict[str, Dict[str, object]] = {}
    for policy in policies:
        for clients in client_counts:
            spec = service_spec(policy, clients, requests=requests,
                                seed=seed)
            started = time.perf_counter_ns()
            result = serve_workload(spec)
            wall = (time.perf_counter_ns() - started) / _NS
            audit = audit_service(result)
            entries[f"service/{policy}/c{clients}"] = service_case(
                result, audit, wall
            )
    return {
        "schema": SCHEMA,
        "kind": "service",
        "config": {
            "requests": requests,
            "client_counts": list(client_counts),
            "policies": list(policies),
            "quantum": SERVICE_QUANTUM,
            "seed": seed,
            "tenants": [t["name"] for t in SERVICE_TENANTS],
        },
        "entries": entries,
    }


# -- the seam-overhead check -------------------------------------------------


class SeamlessInterpreter(Interpreter):
    """The interpreter with the observation seam physically removed from
    the per-step hot path -- the calibration baseline for the <= 5%
    profiler-off overhead claim in BENCH_core.json.  Mirrors
    :meth:`Interpreter._charge`, the one method every charged step goes
    through, minus its ``recorder is not None`` check."""

    def _charge(self, kind, trace, read_label, write_label):
        self.time += self.environment.step(kind, trace, read_label,
                                           write_label)


def measure_seam_overhead(repeats: int = 7,
                          length: int = 24) -> Dict[str, object]:
    """Race the shipped interpreter (no recorder) against
    :class:`SeamlessInterpreter` on the mitigated password workload.

    Measurements are interleaved A/B/A/B and each side keeps its minimum,
    so a scheduler hiccup hits both sides alike.  When the first batch
    still shows overhead past tolerance, the measurement extends itself
    (up to 6x the requested repeats): per-side minima only ever improve
    with more rounds, so transient noise settles while a *real* seam
    cost keeps failing no matter how long we measure."""
    app = PasswordChecker(length=length, mitigated=True)
    memory_args = (list(range(length)), list(range(length)))
    with_seam = _app_runner(app, memory_args, "partitioned")
    seamless = _app_runner(app, memory_args, "partitioned",
                           interpreter_cls=SeamlessInterpreter)
    with_seam()
    seamless()
    batch = max(repeats, 3)
    best = {"seam": None, "seamless": None}
    done = 0
    while True:
        for _ in range(batch):
            for name, run in (("seam", with_seam), ("seamless", seamless)):
                started = time.perf_counter_ns()
                run()
                wall = time.perf_counter_ns() - started
                if best[name] is None or wall < best[name]:
                    best[name] = wall
        done += batch
        overhead = best["seam"] / best["seamless"] - 1.0
        if overhead * 100.0 <= OVERHEAD_TOLERANCE_PCT or done >= batch * 6:
            break
    return {
        "with_seam_s": round(best["seam"] / _NS, 9),
        "seamless_s": round(best["seamless"] / _NS, 9),
        "overhead_pct": round(overhead * 100.0, 2),
        "tolerance_pct": OVERHEAD_TOLERANCE_PCT,
        "repeats": done,
        "ok": overhead * 100.0 <= OVERHEAD_TOLERANCE_PCT,
    }


# -- the regression gate -----------------------------------------------------


def compare_documents(current: Mapping, baseline: Mapping,
                      tolerance: float = DEFAULT_TOLERANCE) -> Dict:
    """Diff two BENCH documents entry by entry.

    An entry *regresses* when its current ``cycles_per_sec`` falls more
    than ``tolerance`` below the baseline's, or when a baseline entry
    disappears.  Entries without a rate on the baseline side are
    informational.  Returns ``{"ok": bool, "rows": [...], ...}``.
    """
    if current.get("schema") != SCHEMA or baseline.get("schema") != SCHEMA:
        raise BenchError("both documents must carry schema " + SCHEMA)
    if current.get("kind") != baseline.get("kind"):
        raise BenchError(
            f"kind mismatch: current={current.get('kind')!r} "
            f"baseline={baseline.get('kind')!r}"
        )
    if not 0.0 <= tolerance < 1.0:
        raise BenchError(f"tolerance out of range [0, 1): {tolerance}")
    cur_entries = current.get("entries") or {}
    base_entries = baseline.get("entries") or {}
    rows: List[Dict[str, object]] = []
    regressions: List[str] = []
    for key in sorted(base_entries):
        base_rate = (base_entries[key] or {}).get("cycles_per_sec")
        cur = cur_entries.get(key)
        if cur is None:
            rows.append({"key": key, "status": "missing",
                         "baseline": base_rate, "current": None,
                         "ratio": None})
            regressions.append(key)
            continue
        cur_rate = cur.get("cycles_per_sec")
        if not base_rate or not cur_rate:
            rows.append({"key": key, "status": "info",
                         "baseline": base_rate, "current": cur_rate,
                         "ratio": None})
            continue
        ratio = cur_rate / base_rate
        if ratio < 1.0 - tolerance:
            status = "regression"
            regressions.append(key)
        elif ratio > 1.0 + tolerance:
            status = "improved"
        else:
            status = "ok"
        rows.append({"key": key, "status": status,
                     "baseline": base_rate, "current": cur_rate,
                     "ratio": round(ratio, 4)})
    for key in sorted(set(cur_entries) - set(base_entries)):
        rows.append({"key": key, "status": "new", "baseline": None,
                     "current": (cur_entries[key] or {}).get(
                         "cycles_per_sec"),
                     "ratio": None})
    return {
        "kind": current.get("kind"),
        "tolerance": tolerance,
        "rows": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


# -- rendering ---------------------------------------------------------------


def render_bench_lines(doc: Mapping) -> List[str]:
    """Human-readable summary of one BENCH document."""
    lines = [f"BENCH kind={doc.get('kind')} schema={doc.get('schema')}"]
    entries = doc.get("entries") or {}
    if entries:
        lines.append(f"{'entry':<34} {'cycles':>12} {'wall ms':>10} "
                     f"{'Mcyc/s':>8}")
        for key in sorted(entries):
            entry = entries[key] or {}
            rate = entry.get("cycles_per_sec")
            rate_text = f"{rate / 1e6:>8.3f}" if rate else f"{'-':>8}"
            lines.append(
                f"{key:<34} {entry.get('cycles', 0):>12} "
                f"{float(entry.get('wall_s', 0.0)) * 1e3:>10.3f} {rate_text}"
            )
    overhead = doc.get("overhead")
    if overhead:
        verdict = "ok" if overhead.get("ok") else "EXCEEDED"
        lines.append(
            f"profiler-off seam overhead: {overhead.get('overhead_pct')}% "
            f"(tolerance {overhead.get('tolerance_pct')}%) [{verdict}]"
        )
    return lines


def render_comparison_lines(comparison: Mapping) -> List[str]:
    """Human-readable summary of one compare_documents() result."""
    tol = comparison.get("tolerance", DEFAULT_TOLERANCE)
    lines = [
        f"compare kind={comparison.get('kind')} "
        f"tolerance={tol * 100:.0f}%"
    ]
    lines.append(f"{'entry':<34} {'baseline':>12} {'current':>12} "
                 f"{'ratio':>7}  status")
    for row in comparison.get("rows", []):
        def fmt_rate(value):
            return f"{value / 1e6:.3f}M" if value else "-"
        ratio = row.get("ratio")
        lines.append(
            f"{row['key']:<34} {fmt_rate(row.get('baseline')):>12} "
            f"{fmt_rate(row.get('current')):>12} "
            f"{ratio if ratio is not None else '-':>7}  {row['status']}"
        )
    regressions = comparison.get("regressions", [])
    if regressions:
        lines.append(f"REGRESSED ({len(regressions)}): "
                     + ", ".join(regressions))
    else:
        lines.append("no regressions")
    return lines
