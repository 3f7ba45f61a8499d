"""Service throughput: client count x scheduler policy sweep.

The serving-layer cousin of the paper's Sec. 8 overhead tables: the
multi-tenant gateway (docs/SERVICE.md) serves a closed-loop workload --
each simulated client keeps one request outstanding -- and we sweep the
concurrency level against the three scheduler policies:

* **fifo**     -- release at completion, global arrival order (baseline);
* **rr**       -- release at completion, per-tenant round-robin fairness;
* **quantized** -- TIFC-style batched starts and grid-aligned releases.

Per cell the table reports throughput (completed requests per million
cycles of makespan), p50/p95/p99 client-observed latency (streamed
through :class:`repro.telemetry.StreamingHistogram`, the same quantile
machinery ``repro serve --profile`` uses), the worst tenant's observed
release-time leakage in bits, the worst cross-tenant distinguisher
advantage, and the audit verdict.  The expected shape:

* every cell's audit holds (observed bits within the Theorem 2 bound --
  the handlers' language-level mitigation plus the release discipline do
  their job at every load level);
* quantized throughput <= fifo throughput at equal load, and quantized
  latency >= fifo latency: the price of holding releases to the grid is
  idle boundary time, which is exactly Ford's TIFC trade-off.
"""

from repro.service import WorkloadSpec, audit_service, serve_workload
from repro.service.audit import service_document
from repro.telemetry import StreamingHistogram

from _report import Report, repo_path, write_metrics

POLICIES = ("fifo", "rr", "quantized")
CLIENT_COUNTS = (4, 12)
REQUESTS = 80
QUANTUM = 2048
SEED = 2012
TENANTS = [
    {"name": "acme-login", "app": "login", "weight": 2.0,
     "config": {"table_size": 8}},
    {"name": "bank-passwords", "app": "password", "weight": 2.0,
     "config": {"length": 6}},
    {"name": "cdn-sbox", "app": "sbox", "weight": 1.0,
     "config": {"length": 6}},
]


def service_spec(policy, clients):
    """One cell of the closed-loop sweep."""
    return WorkloadSpec.from_dict({
        "seed": SEED,
        "requests": REQUESTS,
        "policy": policy,
        "quantum": QUANTUM,
        "workers": 2,
        "queue_depth": 8,
        "arrival": {"kind": "closed", "clients": clients, "think": 512},
        "tenants": TENANTS,
    })


def _sweep():
    """Run and audit every cell: {(policy, clients): (result, audit)}."""
    cells = {}
    for policy in POLICIES:
        for clients in CLIENT_COUNTS:
            result = serve_workload(service_spec(policy, clients))
            cells[(policy, clients)] = (result, audit_service(result))
    return cells


def _latency_quantiles(result):
    hist = StreamingHistogram()
    for response in result.completed():
        hist.observe(response.latency)
    return hist.quantiles()


def _build_report():
    cells = _sweep()
    report = Report(
        "service_throughput",
        "Service throughput: client count x scheduler policy",
    )
    report.line(f"{REQUESTS} closed-loop requests over {len(TENANTS)} "
                f"tenants; quantum={QUANTUM} cycles; seed={SEED}")
    report.line()

    rows = []
    for (policy, clients), (result, audit) in sorted(cells.items()):
        q = _latency_quantiles(result)
        cross = max(
            (p.probe.result.advantage for p in audit.cross_tenant), default=0.0
        )
        rows.append((
            policy, clients, len(result.completed()),
            f"{result.throughput_per_mcycle():.1f}",
            q["p50"], q["p95"], q["p99"],
            f"{audit.max_observed_bits():.3f}",
            f"{cross:+.3f}",
            "ok" if audit.ok else "VIOLATED",
        ))
    report.table(
        ("policy", "clients", "completed", "req/Mcycle", "p50 lat",
         "p95 lat", "p99 lat", "leaked bits", "cross adv", "audit"),
        rows,
    )

    all_ok = all(audit.ok for _, audit in cells.values())
    report.expect(
        "every policy x load cell within the Theorem 2 bound",
        "all audits hold",
        f"{sum(a.ok for _, a in cells.values())}/{len(cells)} ok",
        all_ok,
    )
    tifc_price = all(
        cells[("quantized", c)][0].throughput_per_mcycle()
        <= cells[("fifo", c)][0].throughput_per_mcycle()
        for c in CLIENT_COUNTS
    )
    report.expect(
        "quantized release trades throughput for uniformity",
        "quantized <= fifo req/Mcycle at equal load",
        {c: (f"q={cells[('quantized', c)][0].throughput_per_mcycle():.1f}"
             f" vs f={cells[('fifo', c)][0].throughput_per_mcycle():.1f}")
         for c in CLIENT_COUNTS},
        tifc_price,
    )

    # One full telemetry document for the heaviest quantized cell, so the
    # service section is inspectable with `repro report`.
    heavy = cells[("quantized", CLIENT_COUNTS[-1])]
    metrics_path = write_metrics(
        "service_throughput", service_document(heavy[0], heavy[1])
    )
    report.line()
    report.line(f"Telemetry (quantized, {CLIENT_COUNTS[-1]} clients): "
                f"{repo_path(metrics_path)}")
    report.emit()
    return all_ok and tifc_price


def test_service_throughput(benchmark):
    ok = benchmark.pedantic(_build_report, rounds=1, iterations=1)
    assert ok
