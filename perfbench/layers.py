"""Where the traced run puts its wrappers, and the per-layer metrics.

:func:`install` wraps the public boundaries of every layer the
benchmark reports on; :func:`layer_metrics` turns the tracer's
aggregates into the ``per_layer`` metrics of ``BENCHMARK.json``.  A
layer the workload never enters reports 0.
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, Iterable, List, Mapping

from repro.adversary.engine import ContentionSource, ProbeSource
from repro.hardware.registry import REGISTRY as MODELS
from repro.lattice import two_point
from repro.semantics.full import Interpreter
from repro.semantics.mitigation import MitigationState
from repro.service.gateway import Gateway
from repro.service.handlers import HANDLERS
from repro.service.scheduler import (
    FifoPolicy, QuantizedPolicy, RoundRobinPolicy,
)
from repro.telemetry.leakage import DynamicLeakageMeter
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import RecordingTraceRecorder, TeeRecorder

from tracer import Tracer, repro_modules

# import_module, not ``import a.b as b``: a package may re-export a
# function under its submodule's name (``repro.analysis.quantify``).
(campaign, audit, cfg, collector, cost, dataflow, engine, flows, lints,
 quantify, synthesize, distinguisher, hardware, parser, core,
 service_audit, inference) = (
    import_module(f"repro.{name}") for name in (
        "adversary.campaign", "analysis.audit", "analysis.cfg",
        "analysis.collector", "analysis.cost", "analysis.dataflow",
        "analysis.engine", "analysis.flows", "analysis.lints",
        "analysis.quantify", "analysis.synthesize",
        "attacks.distinguisher", "hardware", "lang.parser",
        "semantics.core", "service.audit", "typesystem.inference"))

#: Module-level functions: (function, layer name).
FUNCTIONS = [
    (parser.parse, "lang.parse"),
    (inference.infer_labels, "typesystem.infer"),
    (collector.collect_typing_diagnostics, "typesystem.check"),
    (cfg.build_cfg, "analysis.cfg"),
    (cfg.reachable_commands, "analysis.cfg"),
    (dataflow.solve, "analysis.dataflow"),
    (flows.build_tdg, "analysis.flows"),
    (lints.run_lints, "analysis.lints"),
    (audit.audit_leakage, "analysis.audit"),
    (cost.compute_cost, "analysis.cost"),
    (engine.analyze_source, "analysis.engine"),
    (core.eval_expr_traced, "semantics.expr"),
    (hardware.make_hardware, "hardware.make"),
    (service_audit.audit_service, "service.audit"),
    (distinguisher.welch_t, "attacks.welch"),
]

TELEMETRY_CLASSES = (RecordingTraceRecorder, TeeRecorder)
POLICIES = (FifoPolicy, RoundRobinPolicy, QuantizedPolicy)
HANDLER_APPS = ("login", "password", "rsa", "sbox", "tag")


def _count(counter: str, read):
    def hook(tracer: Tracer, result, args) -> None:
        tracer.counters[counter] += read(result)
    return hook


def _set_request(tracer: Tracer, result, args) -> None:
    if result is not None:
        tracer.request = result.req_id


def _clear_request(tracer: Tracer, result, args) -> None:
    tracer.request = None


def _gateway_done(tracer: Tracer, result, args) -> None:
    # Every pushed event has been popped once serve() returns.
    tracer.counters["service.gateway.events"] += args[0]._seq
    tracer.counters["service.retries"] += result.retries


def _synthesized(tracer: Tracer, result, args) -> None:
    tracer.counters["analysis.synthesize.explored"] += result.explored
    tracer.counters["analysis.synthesize.pruned"] += result.pruned


def _model_classes() -> Dict[type, str]:
    """Registry model name by environment class."""
    lattice = two_point()
    return {type(MODELS.make(name, lattice)): name for name in MODELS.names()}


def install(tracer: Tracer, extra: Iterable = ()) -> None:
    """Wrap every layer boundary; ``extra`` namespaces (the workload
    module) get their imported names patched too."""
    namespaces = repro_modules(extra)
    for func, name in FUNCTIONS:
        tracer.wrap_function(func, name, namespaces)
    tracer.wrap_function(
        quantify.quantify, "analysis.quantify", namespaces,
        _count("analysis.quantify.classes", lambda r: r.classes))
    tracer.wrap_function(synthesize.synthesize, "analysis.synthesize",
                         namespaces, _synthesized)
    tracer.wrap_function(campaign.run_cell, "adversary.cell", namespaces,
                         _count("adversary.probes", lambda r: r.probes))

    tracer.wrap_methods([(Interpreter, "run", "semantics.run")],
                        _count("semantics.steps", lambda r: r.steps))
    tracer.wrap_methods([(Interpreter, "__post_init__", "semantics.setup")])
    tracer.wrap_methods([(MitigationState, "settle", "mitigation.settle")])

    layer_of = {cls: f"hardware.{name}"
                for cls, name in _model_classes().items()}
    tracer.wrap_methods(
        [(cls, "step", lambda env: layer_of.get(type(env), "hardware.other"))
         for cls in layer_of])

    telemetry: List[tuple] = [
        (cls, attr, "telemetry")
        for cls in TELEMETRY_CLASSES
        for attr in sorted(vars(cls)) if attr.startswith("on_")
    ]
    telemetry += [(MetricsRegistry, attr, "telemetry")
                  for attr in ("inc", "observe", "set_gauge")]
    telemetry.append((DynamicLeakageMeter, "observe", "telemetry"))
    tracer.wrap_methods(telemetry)

    tracer.wrap_methods([(Gateway, "serve", "service.gateway")],
                        _gateway_done)
    tracer.wrap_methods([(cls, "select", "service.scheduler")
                         for cls in POLICIES], _set_request)
    tracer.wrap_methods([(HANDLERS[app], "run", f"service.handler.{app}")
                         for app in HANDLER_APPS], _clear_request)
    tracer.wrap_methods([(cls, attr, "adversary.source")
                         for cls in (ProbeSource, ContentionSource)
                         for attr in ("initial", "on_response")])

    tracer.per_step |= set(layer_of.values()) | {
        "semantics.expr", "mitigation.settle", "telemetry",
        "service.scheduler"}
    tracer.keep_durations |= {f"service.handler.{app}"
                              for app in HANDLER_APPS}


def _percentile(values: List[int], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, per_pass: Mapping[str, float]
                  ) -> Dict[str, float]:
    """The per-layer metrics from one traced window.  Times per call,
    step, event or probe divide the window's totals; the count metrics
    are ``per_pass`` (one pass over the workload's ops), so they do not
    grow with speed."""
    calls, self_ns, counters = tracer.calls, tracer.self_ns, tracer.counters

    def per_call(name: str) -> float:
        return tracer.self_us_per(name, calls.get(name, 0))

    def count(name: str) -> float:
        return per_pass.get(name, 0)

    steps = counters.get("semantics.steps", 0)
    explored = count("analysis.synthesize.explored")
    pruned = count("analysis.synthesize.pruned")
    events = counters.get("service.gateway.events", 0)
    probes = counters.get("adversary.probes", 0)
    m: Dict[str, float] = {
        "lang.parse.calls": count("lang.parse"),
        "lang.parse.us_per_call": per_call("lang.parse"),
        "typesystem.infer.us_per_call": per_call("typesystem.infer"),
        "typesystem.check.us_per_call": per_call("typesystem.check"),
    }
    for layer in ("cfg", "dataflow", "flows", "lints", "audit"):
        m[f"analysis.{layer}.us_per_call"] = per_call(f"analysis.{layer}")
    m.update({
        "analysis.cost.calls": count("analysis.cost"),
        "analysis.cost.us_per_call": per_call("analysis.cost"),
        "analysis.quantify.calls": count("analysis.quantify"),
        "analysis.quantify.us_per_call": per_call("analysis.quantify"),
        "analysis.quantify.classes": count("analysis.quantify.classes"),
        "analysis.synthesize.ms_per_call":
            per_call("analysis.synthesize") / 1e3,
        "analysis.synthesize.explored": explored,
        "analysis.synthesize.pruned": pruned,
        "analysis.synthesize.prune_ratio":
            pruned / (explored + pruned) if explored + pruned else 0.0,
        "semantics.steps": count("semantics.steps"),
        "semantics.dispatch.us_per_step":
            tracer.self_us_per("semantics.run", steps),
        "semantics.expr.us_per_call": per_call("semantics.expr"),
        "semantics.setup.us_per_run": per_call("semantics.setup"),
        "hardware.make.us_per_run": per_call("hardware.make"),
        "mitigation.settle.calls": count("mitigation.settle"),
        "mitigation.settle.us_per_call": per_call("mitigation.settle"),
    })
    for model in MODELS.names():
        m[f"hardware.{model}.accesses"] = count(f"hardware.{model}")
        m[f"hardware.{model}.step_us"] = per_call(f"hardware.{model}")
    m.update({
        "telemetry.recorder.calls": count("telemetry"),
        "telemetry.recorder.us_per_step":
            tracer.self_us_per("telemetry", steps),
        "service.gateway.events": count("service.gateway.events"),
        "service.gateway.self_us_per_event":
            tracer.self_us_per("service.gateway", events),
        "service.scheduler.select_us": per_call("service.scheduler"),
    })
    for app in HANDLER_APPS:
        durations = tracer.durations.get(f"service.handler.{app}", [])
        m[f"service.handler.{app}.us_p50"] = _percentile(durations, 0.5) / 1e3
        m[f"service.handler.{app}.us_p99"] = _percentile(durations, 0.99) / 1e3
    audits = calls.get("service.audit", 0)
    m.update({
        "service.audit.ms": (self_ns.get("service.audit", 0) / audits / 1e6
                             if audits else 0.0),
        "service.retries": count("service.retries"),
        "adversary.probes": count("adversary.probes"),
        "adversary.source.us_per_probe":
            tracer.self_us_per("adversary.source", probes),
        "attacks.welch.us_per_call": per_call("attacks.welch"),
    })
    return m
