"""The timing-safe serving layer (src/repro/service, docs/SERVICE.md)."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.hardware import REGISTRY
from repro.service import (
    FifoPolicy,
    Gateway,
    LoadGenerator,
    QuantizedPolicy,
    RoundRobinPolicy,
    WorkloadError,
    WorkloadSpec,
    audit_service,
    make_policy,
    serve_workload,
    service_document,
)
from repro.service.audit import quantile
from repro.service.scheduler import new_queues
from repro.service.workload import Request, _tenant_seed


def spec_dict(**overrides):
    base = {
        "seed": 11,
        "requests": 20,
        "policy": "fifo",
        "workers": 2,
        "queue_depth": 8,
        "arrival": {"kind": "open", "mean_gap": 900},
        "tenants": [
            {"name": "alpha", "app": "login", "config": {"table_size": 4}},
            {"name": "beta", "app": "password", "config": {"length": 4}},
            {"name": "gamma", "app": "sbox", "config": {"length": 4}},
        ],
    }
    base.update(overrides)
    return base


class TestWorkloadSpec:
    def test_round_trips_and_validates(self):
        spec = WorkloadSpec.from_dict(spec_dict())
        assert [t.name for t in spec.tenants] == ["alpha", "beta", "gamma"]
        assert spec.policy == "fifo"

    def test_rejects_unknown_spec_key(self):
        with pytest.raises(WorkloadError, match="unknown spec keys"):
            WorkloadSpec.from_dict(spec_dict(quantumm=64))

    def test_rejects_unknown_tenant_key(self):
        raw = spec_dict()
        raw["tenants"][0]["color"] = "red"
        with pytest.raises(WorkloadError, match="unknown tenant keys"):
            WorkloadSpec.from_dict(raw)

    def test_rejects_bad_policy(self):
        with pytest.raises(WorkloadError, match="policy"):
            WorkloadSpec.from_dict(spec_dict(policy="lifo"))

    def test_rejects_duplicate_tenant_names(self):
        raw = spec_dict()
        raw["tenants"].append(dict(raw["tenants"][0]))
        with pytest.raises(WorkloadError, match="unique"):
            WorkloadSpec.from_dict(raw)

    def test_rejects_unknown_app(self):
        raw = spec_dict()
        raw["tenants"][0]["app"] = "graphql"
        with pytest.raises(WorkloadError, match="graphql"):
            WorkloadSpec.from_dict(raw).build_handlers()

    def test_rejects_bad_arrival(self):
        with pytest.raises(WorkloadError, match="arrival.kind"):
            WorkloadSpec.from_dict(
                spec_dict(arrival={"kind": "sine", "mean_gap": 10})
            )
        with pytest.raises(WorkloadError, match="clients"):
            WorkloadSpec.from_dict(
                spec_dict(arrival={"kind": "closed", "clients": 0,
                                   "think": 1})
            )

    def test_rejects_unknown_hardware(self):
        with pytest.raises(WorkloadError, match="hardware"):
            WorkloadSpec.from_dict(spec_dict(hardware="abacus"))

    def test_accepts_any_registered_hardware(self):
        from repro.hardware import REGISTRY

        for name in REGISTRY.choices():
            spec = WorkloadSpec.from_dict(spec_dict(hardware=name))
            assert spec.hardware == name

    def test_rejects_bad_scheme_and_penalty(self):
        with pytest.raises(WorkloadError, match="scheme"):
            WorkloadSpec.from_dict(spec_dict(scheme="cubic"))
        with pytest.raises(WorkloadError, match="penalty"):
            WorkloadSpec.from_dict(spec_dict(penalty="shared"))

    def test_tenant_seed_is_stable_and_per_tenant(self):
        assert _tenant_seed(11, "alpha") == _tenant_seed(11, "alpha")
        assert _tenant_seed(11, "alpha") != _tenant_seed(11, "beta")
        assert _tenant_seed(11, "alpha") != _tenant_seed(12, "alpha")


class TestLoadGenerator:
    def test_open_loop_is_deterministic_and_monotone(self):
        spec = WorkloadSpec.from_dict(spec_dict())
        handlers = spec.build_handlers()
        first = LoadGenerator(spec, handlers).initial()
        second = LoadGenerator(spec, handlers).initial()
        assert [r.arrival for r in first] == [r.arrival for r in second]
        assert [r.tenant for r in first] == [r.tenant for r in second]
        assert all(a.arrival <= b.arrival
                   for a, b in zip(first, second[1:]))
        assert len(first) == spec.requests

    def test_closed_loop_keeps_one_request_per_client(self):
        spec = WorkloadSpec.from_dict(spec_dict(
            arrival={"kind": "closed", "clients": 3, "think": 100},
            requests=10,
        ))
        handlers = spec.build_handlers()
        gen = LoadGenerator(spec, handlers)
        initial = gen.initial()
        assert len(initial) == 3  # one outstanding request per client
        follow = gen.on_done(initial[0], 5_000)
        assert follow is not None
        assert follow.client == initial[0].client
        assert follow.arrival == 5_000 + 100

    def test_closed_loop_stops_at_request_budget(self):
        spec = WorkloadSpec.from_dict(spec_dict(
            arrival={"kind": "closed", "clients": 2, "think": 0},
            requests=3,
        ))
        gen = LoadGenerator(spec, spec.build_handlers())
        outstanding = gen.initial()
        assert gen.on_done(outstanding[0], 10) is not None
        assert gen.on_done(outstanding[1], 20) is None  # budget spent


class TestSchedulerPolicies:
    @staticmethod
    def _queues(*requests):
        queues = new_queues(sorted({r.tenant for r in requests}))
        for request in requests:
            queues[request.tenant].append(request)
        return queues

    @staticmethod
    def _req(req_id, tenant, arrival):
        return Request(req_id=req_id, tenant=tenant, arrival=arrival,
                       payload=None)

    def test_fifo_picks_earliest_arrival_across_tenants(self):
        queues = self._queues(
            self._req(0, "a", 50), self._req(1, "b", 10),
            self._req(2, "c", 30),
        )
        policy = FifoPolicy()
        assert [policy.select(queues).req_id for _ in range(3)] == [1, 2, 0]

    def test_round_robin_cycles_tenants(self):
        queues = self._queues(
            self._req(0, "a", 0), self._req(1, "a", 1),
            self._req(2, "b", 2), self._req(3, "c", 3),
        )
        policy = RoundRobinPolicy(["a", "b", "c"])
        order = [policy.select(queues).tenant for _ in range(4)]
        assert order == ["a", "b", "c", "a"]
        assert policy.select(queues) is None

    def test_quantized_aligns_dispatch_and_release(self):
        policy = QuantizedPolicy(100)
        assert policy.dispatch_time(0) == 0
        assert policy.dispatch_time(1) == 100
        assert policy.dispatch_time(100) == 100
        # Release lands on the grid and is held at least one quantum.
        assert policy.release_time(100, 130) == 200
        assert policy.release_time(100, 100) == 200
        assert policy.release_time(100, 201) == 300

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            make_policy("edf", ["a"])
        with pytest.raises(ValueError, match="quantum"):
            QuantizedPolicy(0)


class TestGateway:
    def test_same_spec_same_release_times(self):
        raw = spec_dict(policy="quantized", quantum=1024)
        first = serve_workload(raw)
        second = serve_workload(raw)
        assert first.release_times() == second.release_times()
        assert [r.status for r in first.responses] == [
            r.status for r in second.responses
        ]

    def test_different_seed_different_stream(self):
        first = serve_workload(spec_dict(seed=1))
        second = serve_workload(spec_dict(seed=2))
        assert ([r.request.tenant for r in first.responses]
                != [r.request.tenant for r in second.responses]
                or first.release_times() != second.release_times())

    def test_quantized_starts_and_releases_on_grid(self):
        quantum = 1024
        result = serve_workload(spec_dict(policy="quantized",
                                          quantum=quantum))
        completed = result.completed()
        assert completed
        for response in completed:
            assert response.start % quantum == 0
            assert response.release % quantum == 0
            assert response.observable >= quantum
            assert response.observable % quantum == 0

    def test_fifo_serves_in_arrival_order_per_tenant(self):
        result = serve_workload(spec_dict())
        by_tenant = {}
        for response in result.completed():
            by_tenant.setdefault(response.tenant, []).append(
                response.request.arrival
            )
        for arrivals in by_tenant.values():
            assert arrivals == sorted(arrivals)

    def test_backpressure_sheds_load_without_deadlock(self):
        result = serve_workload(spec_dict(
            requests=30, workers=1, queue_depth=1, max_retries=2,
            retry_backoff=64,
            arrival={"kind": "open", "mean_gap": 1},
        ))
        statuses = {r.status for r in result.responses}
        assert "rejected" in statuses
        assert result.retries > 0
        # Every submitted request reached a terminal state.
        assert len(result.responses) == 30
        assert result.registry.counter("service.requests.rejected") > 0

    def test_timeout_drops_stale_requests(self):
        result = serve_workload(spec_dict(
            requests=30, workers=1, queue_depth=30, timeout=2_000,
            arrival={"kind": "open", "mean_gap": 1},
        ))
        assert any(r.status == "timeout" for r in result.responses)
        assert len(result.responses) == 30

    def test_per_tenant_mitigation_state_is_isolated(self):
        result = serve_workload(spec_dict())
        states = list(result.states.values())
        assert len({id(s) for s in states}) == len(states)
        meters = list(result.meters.values())
        assert len({id(m) for m in meters}) == len(meters)
        # Each tenant's meter saw exactly that tenant's completed runs.
        for name, meter in result.meters.items():
            assert meter.runs == result.stats[name].completed

    def test_telemetry_counters_add_up(self):
        result = serve_workload(spec_dict())
        registry = result.registry
        total = (registry.counter("service.requests.ok")
                 + registry.counter("service.requests.rejected")
                 + registry.counter("service.requests.timeout"))
        assert registry.counter("service.requests.submitted") == total == 20
        per_tenant = sum(
            reg.counter("service.requests.submitted")
            for reg in result.tenant_registries.values()
        )
        assert per_tenant == 20

    def test_closed_loop_completes_budget(self):
        result = serve_workload(spec_dict(
            arrival={"kind": "closed", "clients": 4, "think": 256},
            requests=16,
        ))
        assert len(result.responses) == 16


class TestAudit:
    def test_quantized_audit_within_bound(self):
        result = serve_workload(spec_dict(policy="quantized", quantum=2048,
                                          requests=24))
        audit = audit_service(result)
        assert audit.ok
        for tenant in audit.tenants.values():
            assert tenant.observed_bits <= tenant.bound_bits + 1e-9
            assert tenant.deadline_within

    def test_observed_bits_counts_distinct_observables(self):
        result = serve_workload(spec_dict(policy="quantized", quantum=2048,
                                          requests=24))
        audit = audit_service(result)
        for name, tenant in audit.tenants.items():
            distinct = {
                r.observable for r in result.completed()
                if r.tenant == name
            }
            expected = math.log2(len(distinct)) if distinct else 0.0
            assert tenant.observed_bits == pytest.approx(expected)

    def test_probe_reports_secret_classes(self):
        result = serve_workload(spec_dict(requests=40))
        audit = audit_service(result)
        login = audit.tenants["alpha"]
        assert login.probe is not None
        assert {login.probe.class_a, login.probe.class_b} == {
            "valid", "invalid"
        }
        # sbox payloads carry no secret class -> no probe.
        assert audit.tenants["gamma"].probe is None

    def test_audit_stats_reach_the_registry(self):
        result = serve_workload(spec_dict(requests=30))
        audit_service(result)
        gauges = [name for name in result.registry.gauges
                  if name.startswith("attack.service.")]
        assert gauges

    def test_service_document_shape(self):
        result = serve_workload(spec_dict(policy="quantized"))
        doc = service_document(result)
        assert doc["schema"] == "repro.telemetry/1"
        service = doc["service"]
        assert service["policy"].startswith("quantized")
        assert set(service["tenants"]) == {"alpha", "beta", "gamma"}
        for tenant in service["tenants"].values():
            assert {"app", "requests", "latency", "observable",
                    "audit"} <= set(tenant)
        assert isinstance(service["audit_ok"], bool)

    def test_quantile_nearest_rank(self):
        assert quantile([], 0.5) == 0
        assert quantile([7], 0.99) == 7
        assert quantile([1, 2, 3, 4], 0.5) == 2
        assert quantile(list(range(1, 101)), 0.99) == 99


class TestSchemePenaltyPlumbing:
    def test_spec_scheme_and_penalty_reach_the_states(self):
        result = serve_workload(spec_dict(scheme="polynomial",
                                          penalty="global", requests=6))
        for state in result.states.values():
            assert "Polynomial" in state.describe()
            assert state.policy == "global"

    def test_gateway_accepts_prebuilt_spec(self):
        spec = WorkloadSpec.from_dict(spec_dict(requests=6))
        result = Gateway(spec).serve()
        assert len(result.responses) == 6


class TestHandlerKnobs:
    """The red-team victim knobs: ``alphabet``, ``mitigated``, and the
    keyed-hash tag endpoint (docs/ATTACKS.md)."""

    def test_password_alphabet_bounds_the_stored_secret(self):
        raw = spec_dict(tenants=[
            {"name": "t", "app": "password",
             "config": {"length": 4, "alphabet": 8}},
        ])
        handler = WorkloadSpec.from_dict(raw).build_handlers()["t"]
        assert len(handler.stored) == 4
        assert all(0 <= s < 8 for s in handler.stored)

    def test_mitigated_must_be_a_bool(self):
        raw = spec_dict(tenants=[
            {"name": "t", "app": "password",
             "config": {"length": 4, "mitigated": "yes"}},
        ])
        with pytest.raises((WorkloadError, ValueError), match="bool"):
            WorkloadSpec.from_dict(raw).build_handlers()

    def test_unmitigated_password_varies_its_service_time(self):
        raw = spec_dict(requests=30, tenants=[
            {"name": "t", "app": "password",
             "config": {"mitigated": False, "length": 4, "alphabet": 8}},
        ])
        result = serve_workload(raw)  # fifo: observable = service time
        assert len(set(result.stats["t"].observables)) > 1

    def test_mitigated_password_is_flat_at_covering_budget(self):
        raw = spec_dict(requests=30, tenants=[
            {"name": "t", "app": "password",
             "config": {"mitigated": True, "length": 4, "alphabet": 8,
                        "budget": 4096}},
        ])
        result = serve_workload(raw)
        assert len(set(result.stats["t"].observables)) == 1

    def tag_handler(self, **config):
        raw = spec_dict(tenants=[
            {"name": "t", "app": "tag", "config": config},
        ])
        return WorkloadSpec.from_dict(raw).build_handlers()["t"]

    def test_tag_for_is_deterministic_and_nibble_bounded(self):
        handler = self.tag_handler(nibbles=5)
        tag = handler.tag_for([1, 2, 3, 4])
        assert tag == handler.tag_for([1, 2, 3, 4])
        assert len(tag) == 5
        assert all(0 <= n < 16 for n in tag)

    def test_tag_payload_classes_match_the_true_tag(self):
        import random as _random

        handler = self.tag_handler(nibbles=5)
        rng = _random.Random(3)
        seen = set()
        for _ in range(40):
            payload = handler.new_payload(rng)
            seen.add(payload.secret_class)
            true_tag = handler.tag_for(payload.args["message"])
            if payload.secret_class == "valid":
                assert payload.args["tag"] == true_tag
            else:
                assert payload.args["tag"] != true_tag
        assert seen == {"valid", "forged"}

    def test_tag_nibbles_capped_at_digest_width(self):
        with pytest.raises((WorkloadError, ValueError), match="nibbles"):
            self.tag_handler(nibbles=8)

    def test_tag_tenant_serves_and_audits(self):
        raw = spec_dict(requests=20, policy="quantized", tenants=[
            {"name": "t", "app": "tag", "config": {"nibbles": 5}},
        ])
        result = serve_workload(raw)
        audit = audit_service(result)
        assert result.stats["t"].completed > 0
        assert audit.ok


class TestRequestSourceSeam:
    """The programmatic multi-client injection seam the adversary
    subsystem drives (``Gateway(spec, source=...)``)."""

    class ScriptedSource:
        def __init__(self, handlers, tenant, count=6):
            import random as _random

            self.rng = _random.Random(1)
            self.handlers = handlers
            self.tenant = tenant
            self.count = count
            self.seen = []

        def _request(self, req_id, arrival):
            return Request(
                req_id=req_id, tenant=self.tenant, arrival=arrival,
                payload=self.handlers[self.tenant].new_payload(self.rng),
            )

        def initial(self):
            return [self._request(1_000_000, 0)]

        def on_response(self, response, time):
            self.seen.append(response.request.req_id)
            if len(self.seen) >= self.count:
                return None
            # A bare Request (not a list): the seam accepts both.
            return self._request(1_000_000 + len(self.seen), time + 100)

    def test_gateway_serves_a_custom_source(self):
        wspec = WorkloadSpec.from_dict(spec_dict())
        gateway = Gateway(wspec)
        source = self.ScriptedSource(gateway.handlers, "beta")
        result = gateway.use_source(source).serve()
        assert source.seen == [1_000_000 + i for i in range(6)]
        assert len(result.completed()) == 6
        assert all(r.tenant == "beta" for r in result.completed())

    def test_source_constructor_argument(self):
        wspec = WorkloadSpec.from_dict(spec_dict())
        handlers = wspec.build_handlers()
        source = self.ScriptedSource(handlers, "alpha", count=3)
        result = Gateway(wspec, source=source).serve()
        assert len(source.seen) == 3
        assert all(r.tenant == "alpha" for r in result.completed())

    def test_default_source_is_the_spec_load_generator(self):
        result = Gateway(WorkloadSpec.from_dict(spec_dict())).serve()
        assert len(result.responses) == 20


class TestServeEveryModel:
    """``examples/service/basic.json`` cut to 24 requests, served on every
    registry model.  Each digest covers every response's timeline and the
    gateway's whole metrics document, so it moves with any change to a
    simulated cycle or a telemetry count."""

    BASIC = Path(__file__).resolve().parent.parent / "examples" / \
        "service" / "basic.json"

    DIGESTS = {
        "null":
            "9e7f2cad97e0f93af75689b58b4eeee5801f94b62ee55349d3cd153bd89e4375",
        "standard":
            "2d7dadb06f1a8f610f54908bfd75ec7d3cf9047679a24837fa1dee7615a6ab71",
        "nofill":
            "61497a0879c38f5d14339ba30f830e451d7b10a1d62e68ae30487185e7996bd6",
        "partitioned":
            "4f876045161dd37af031db3caf8358a77fe57651c67b2acab531c8062ffa4797",
        "bus":
            "e369e66423c0dd9dec492a49d9d4d1bf3516863e67d9e9c3a4c37ab7f7bf7b17",
        "writeback":
            "4f876045161dd37af031db3caf8358a77fe57651c67b2acab531c8062ffa4797",
        "speculative":
            "0115faa782bb442a54cbd9bf01d571cd629d5493d9ad6f5178b1e00904b5580d",
        "frequency":
            "2c897b14c3d647c4c000baf977982a704a116361f70e48c6bd9e601e8e26a822",
        "leakytlb":
            "4f876045161dd37af031db3caf8358a77fe57651c67b2acab531c8062ffa4797",
    }

    @staticmethod
    def digest(result):
        responses = [
            [r.tenant, r.status, r.request.arrival, r.request.attempts,
             r.start, r.completion, r.release, r.service]
            for r in result.responses
        ]
        document = {"responses": responses,
                    "metrics": result.registry.as_dict()}
        return hashlib.sha256(
            json.dumps(document, sort_keys=True).encode()).hexdigest()

    def test_digests_cover_the_registry(self):
        assert tuple(self.DIGESTS) == REGISTRY.names()

    def test_one_environment_per_tenant(self, monkeypatch):
        built = []
        make = REGISTRY.make

        def counting(name, lattice, params=None):
            built.append(name)
            return make(name, lattice, params)

        monkeypatch.setattr(REGISTRY, "make", counting)
        raw = json.loads(self.BASIC.read_text())
        raw.update(requests=24, hardware="bus")
        result = serve_workload(raw)
        assert len(result.completed()) > len(raw["tenants"])
        assert built == ["bus"] * len(raw["tenants"])

    @pytest.mark.parametrize("model", sorted(DIGESTS))
    def test_responses_digest(self, model):
        raw = json.loads(self.BASIC.read_text())
        raw.update(requests=24, hardware=model)
        result = serve_workload(raw)
        assert len(result.responses) == 24
        assert self.digest(result) == self.DIGESTS[model]
