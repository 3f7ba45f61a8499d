"""The red-team adversary subsystem (src/repro/adversary, docs/ATTACKS.md)."""

import json
import math
import random

import pytest

from repro.adversary import (
    REGISTRY,
    AttackRegistry,
    AttackRegistryError,
    AttackSpec,
    CampaignError,
    ContentionSample,
    ContentionSource,
    Probe,
    ProbeSource,
    analyze_contention,
    cell_seed,
    password_crack,
    prefix_crack,
    render_campaign,
    run_campaign,
    run_cell,
    run_in_process,
    tag_forge,
    worker_seed,
)
from repro.adversary.engine import ADVERSARY_ID_BASE
from repro.service.gateway import Gateway
from repro.service.handlers import Payload
from repro.service.workload import WorkloadSpec


def early_exit_oracle(secret, base=100, step=16):
    """Deterministic model of the early-exit compare: time grows with
    the matched prefix, and the full match skips the final mismatch
    write (so it is strictly fastest among final-position candidates)."""

    def oracle(args):
        guess = args["guess"] if "guess" in args else args["tag"]
        matched = 0
        for got, want in zip(guess, secret):
            if got != want:
                break
            matched += 1
        if matched == len(secret):
            return base + step * (len(secret) - 1) + step // 2
        return base + step * matched + step

    return oracle


class TestSeeds:
    def test_worker_seed_is_stable(self):
        assert worker_seed(7, "a:b:1") == worker_seed(7, "a:b:1")

    def test_worker_seed_separates_points(self):
        seeds = {worker_seed(7, f"attack:{p}:{c}")
                 for p in ("fifo", "rr", "quantized") for c in (1, 4)}
        assert len(seeds) == 6

    def test_cell_seed_matches_worker_seed_discipline(self):
        assert cell_seed(3, "password-crack", "fifo", 4) == worker_seed(
            3, "password-crack:fifo:4"
        )


class TestRegistry:
    def test_default_registry_contents(self):
        assert set(REGISTRY.names()) == {
            "password-crack", "password-crack-mitigated", "tag-forge",
            "contention-probe",
        }
        assert len(REGISTRY) == 4

    def test_unknown_attack_raises(self):
        with pytest.raises(AttackRegistryError, match="unknown attack"):
            REGISTRY.get("port-scan")

    def test_expected_word(self):
        spec = REGISTRY.get("password-crack")
        assert spec.expected_word("quantized") == "defeated"
        assert spec.expected_word("fifo") == "leaks"

    def test_duplicate_registration_raises(self):
        registry = AttackRegistry()
        spec = REGISTRY.get("password-crack")
        registry.register(spec)
        with pytest.raises(AttackRegistryError, match="already registered"):
            registry.register(spec)

    def test_probe_spec_requires_strategy_and_profile(self):
        registry = AttackRegistry()
        with pytest.raises(AttackRegistryError, match="strategy"):
            registry.register(AttackSpec(
                name="x", summary="", kind="probe", target_app="password",
                defeated_by=frozenset(), metric="observable",
                client_counts=(1,), workload=dict,
            ))

    def test_contention_spec_requires_parameters(self):
        registry = AttackRegistry()
        with pytest.raises(AttackRegistryError, match="phase parameters"):
            registry.register(AttackSpec(
                name="x", summary="", kind="contention",
                target_app="password", defeated_by=frozenset(),
                metric="latency", client_counts=(2,), workload=dict,
            ))

    def test_unknown_kind_raises(self):
        registry = AttackRegistry()
        with pytest.raises(AttackRegistryError, match="kind"):
            registry.register(AttackSpec(
                name="x", summary="", kind="social", target_app="password",
                defeated_by=frozenset(), metric="observable",
                client_counts=(1,), workload=dict,
            ))


class TestStrategies:
    def test_password_crack_recovers_against_leaky_oracle(self):
        secret = [2, 1, 3, 0]
        strategy = password_crack({"length": 4, "alphabet": 4}, None)
        findings = run_in_process(strategy, early_exit_oracle(secret))
        assert findings.recovered == secret
        assert findings.extracted == 4
        assert findings.bits_extracted == pytest.approx(4 * math.log2(4))
        assert findings.evidence is not None
        assert findings.evidence.significant()

    def test_password_crack_extracts_nothing_from_flat_oracle(self):
        strategy = password_crack({"length": 4, "alphabet": 4}, None)
        findings = run_in_process(strategy, lambda args: 4096)
        assert findings.recovered == []
        assert findings.extracted == 0
        assert findings.bits_extracted == 0.0
        assert not findings.evidence.significant()

    def test_tag_forge_recovers_tag_and_carries_message(self):
        import random
        target = [0xA, 0x3, 0xF]
        strategy = tag_forge(
            {"nibbles": 3, "message_len": 4}, random.Random(5)
        )
        findings = run_in_process(strategy, early_exit_oracle(target))
        assert findings.recovered == target
        assert findings.bits_extracted == pytest.approx(3 * 4)
        assert len(findings.extra["message"]) == 4

    @pytest.mark.parametrize("kwargs, message", [
        ({"alphabet": 1}, "alphabet must have >= 2 symbols, got 1"),
        ({"alphabet": 4, "verify_repeats": 0},
         "verify_repeats must be >= 1 sample per candidate, got 0"),
    ])
    def test_prefix_crack_rejects_degenerate_inputs(self, kwargs, message):
        strategy = prefix_crack(4, make_args=dict, **kwargs)
        with pytest.raises(ValueError, match=message):
            next(strategy)


class TestRunInProcess:
    def test_measures_each_probe_repeats_times_and_returns_findings(self):
        def toy():
            first = yield [Probe(key="a", args={"x": 1}, repeats=3),
                           Probe(key="b", args={"x": 2})]
            second = yield [Probe(key="c", args={"x": 5}, repeats=2)]
            return first, second

        calls = []

        def measure(args):
            calls.append(args["x"])
            return 10 * args["x"] + len(calls)

        first, second = run_in_process(toy(), measure)
        assert first == {"a": [11, 12, 13], "b": [24]}
        assert second == {"c": [55, 56]}
        assert calls == [1, 1, 1, 2, 5, 5]

    #: The quick campaign's fifo cell at seed 0: what the gateway
    #: adversary extracts, position by position.
    FIFO_EXTRACTED = {"password-crack": 4, "tag-forge": 5,
                      "password-crack-mitigated": 0}

    @pytest.mark.parametrize("name", sorted(FIFO_EXTRACTED))
    def test_in_process_oracle_agrees_with_the_gateway(self, name):
        # Build the cell's victim exactly as run_cell does, then run the
        # same strategy against the handler directly: under fifo the
        # gateway's observable is the handler's service time.
        spec = REGISTRY.get(name)
        clients = spec.client_counts[0]
        derived = cell_seed(0, name, "fifo", clients)
        workload = spec.workload()
        workload.update(policy="fifo", seed=derived, quantum=4096)
        wspec = WorkloadSpec.from_dict(workload)
        gateway = Gateway(wspec)
        handler = gateway.handlers[spec.victim]
        state = gateway.states[spec.victim]
        strategy = spec.strategy(
            spec.profile(handler),
            random.Random(worker_seed(derived, "strategy")), 3,
        )
        findings = run_in_process(
            strategy,
            lambda args: handler.run(Payload(args, None), state, None,
                                     wspec.hardware).time,
        )
        cell = run_cell(spec, "fifo", clients, seed=0)
        assert findings.recovered == cell.recovered
        assert findings.extracted == cell.extracted
        assert cell.extracted == self.FIFO_EXTRACTED[name]
        if cell.extracted:
            assert findings.recovered == spec.truth(handler,
                                                    findings.extra)


class TestAnalyzeContention:
    @staticmethod
    def synthetic(phase_len=100, phases=4, quiet=50, burst=150, gap=10):
        samples = []
        for arrival in range(0, phases * phase_len, gap):
            phase = arrival // phase_len
            latency = burst if phase % 2 else quiet
            samples.append(ContentionSample(arrival=arrival, latency=latency))
        return samples

    def test_separated_phases_extract_one_bit_each(self):
        findings = analyze_contention(self.synthetic(), 100, 4)
        # Two analyzed phases after the two warm-up phases.
        assert findings.extracted == 2
        assert findings.bits_extracted == 2.0
        assert findings.recovered == [1]
        assert findings.evidence.significant()

    def test_flat_latency_extracts_nothing(self):
        findings = analyze_contention(
            self.synthetic(quiet=80, burst=80), 100, 4
        )
        assert findings.extracted == 0
        assert not findings.evidence.significant()

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError, match="receiver samples"):
            analyze_contention(self.synthetic(gap=99), 100, 4)


def crack_workload(policy, seed, **overrides):
    spec = REGISTRY.get("password-crack")
    workload = spec.workload()
    workload.update(policy=policy, seed=seed, quantum=4096)
    workload.update(overrides)
    return WorkloadSpec.from_dict(workload)


class TestProbeSource:
    def simple_strategy(self):
        first = yield [
            Probe(key="a", args={"guess": [0, 0, 0, 0]}),
            Probe(key="b", args={"guess": [1, 0, 0, 0]}, repeats=3),
        ]
        second = yield [Probe(key="c", args={"guess": [2, 0, 0, 0]})]
        return {"first": first, "second": second}

    def test_collects_batches_with_warmup_and_repeats(self):
        wspec = crack_workload("fifo", 11)
        gateway = Gateway(wspec)
        source = ProbeSource(
            wspec, gateway.handlers, "victim", self.simple_strategy(),
            clients=2, warmup=3, seed=11,
        )
        gateway.use_source(source).serve()
        assert source.warmup_discarded == 3
        assert source.probes_sent >= 3 + 1 + 3 + 1
        first = source.findings["first"]
        assert len(first["a"]) == 1 and len(first["b"]) == 3
        assert len(source.findings["second"]["c"]) == 1
        # Adversary ids never collide with the background generator's.
        assert ADVERSARY_ID_BASE > wspec.requests

    def test_unknown_victim_rejected(self):
        wspec = crack_workload("fifo", 11)
        gateway = Gateway(wspec)
        with pytest.raises(ValueError, match="victim"):
            ProbeSource(wspec, gateway.handlers, "nobody",
                        self.simple_strategy())

    def test_contention_source_validates_phases(self):
        wspec = crack_workload("fifo", 11)
        gateway = Gateway(wspec)
        with pytest.raises(ValueError, match="phases"):
            ContentionSource(wspec, gateway.handlers, sender="mixer",
                             receiver="victim", phases=3)


class TestCampaign:
    def test_fifo_cell_leaks_the_unmitigated_victim(self):
        cell = run_cell(REGISTRY.get("password-crack"), "fifo", 1, seed=5)
        assert cell.expected == "leaks"
        assert cell.bits_extracted > 0
        assert cell.accuracy == 1.0
        assert cell.significant
        assert not cell.within_budget  # zero budget, nonzero haul
        assert cell.ok  # leaking under fifo is the expected direction

    def test_quantized_cell_is_defeated(self):
        cell = run_cell(REGISTRY.get("password-crack"), "quantized", 1,
                        seed=5)
        assert cell.expected == "defeated"
        assert cell.bits_extracted == 0.0
        assert cell.within_budget
        assert cell.ok

    def test_mitigated_victim_holds_under_fifo(self):
        cell = run_cell(
            REGISTRY.get("password-crack-mitigated"), "fifo", 4, seed=5
        )
        assert cell.bits_extracted == 0.0
        assert cell.budget_bits > 0
        assert cell.within_budget and cell.ok

    def test_unknown_policy_raises(self):
        with pytest.raises(CampaignError, match="unknown policy"):
            run_campaign(policies=["lifo"])

    def test_unknown_attack_raises(self):
        with pytest.raises(AttackRegistryError, match="unknown attack"):
            run_campaign(attacks=["port-scan"], policies=["fifo"])

    def test_positive_control_checked_only_with_fifo(self):
        doc = run_campaign(attacks=["password-crack"],
                           policies=["quantized"], quick=True, seed=5)
        assert not doc["positive_control"]["checked"]
        assert doc["ok"] and doc["defended_ok"]

    def test_fifo_sweep_satisfies_the_positive_control(self):
        doc = run_campaign(attacks=["password-crack"], policies=["fifo"],
                           quick=True, seed=5)
        assert doc["positive_control"]["checked"]
        assert doc["positive_control"]["ok"]
        assert doc["ok"]

    def test_same_seed_identical_documents(self):
        kwargs = dict(attacks=["password-crack"],
                      policies=["fifo", "quantized"], quick=True, seed=9)
        first = run_campaign(**kwargs)
        second = run_campaign(**kwargs)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seed_different_document(self):
        base = dict(attacks=["password-crack"], policies=["fifo"],
                    quick=True)
        first = run_campaign(seed=1, **base)
        second = run_campaign(seed=2, **base)
        assert json.dumps(first) != json.dumps(second)

    def test_document_shape(self):
        doc = run_campaign(attacks=["contention-probe"], policies=["fifo"],
                           seed=5)
        assert doc["schema"] == "repro.adversary/1"
        (cell,) = doc["cells"]
        assert cell["attack"] == "contention-probe"
        assert cell["metric"] == "latency"
        for key in ("advantage", "p_value", "bits_extracted",
                    "budget_bits", "within_budget", "ok"):
            assert key in cell
        # Infinite t statistics serialize as null, never as Infinity.
        assert "Infinity" not in json.dumps(doc)

    def test_render_campaign(self):
        doc = run_campaign(attacks=["password-crack"],
                           policies=["fifo", "quantized"], quick=True,
                           seed=5)
        text = render_campaign(doc)
        assert "red-team campaign" in text
        assert "leaks (expected)" in text
        assert "defeated" in text
        assert "positive control" in text
        assert "campaign: OK" in text

    def test_render_rejects_foreign_documents(self):
        with pytest.raises(CampaignError, match="repro.adversary/1"):
            render_campaign({"schema": "repro.telemetry/1"})


class TestCrossTenantIsolationUnderLoad:
    """The satellite claim: >12 closed-loop clients, quantized release,
    no cross-tenant signal -- while fifo at the same load leaks."""

    @staticmethod
    def contention(policy, senders=15):
        workload = {
            "tenants": [
                {"name": "observer", "app": "password",
                 "config": {"mitigated": True, "length": 4,
                            "budget": 512}},
                {"name": "bursty", "app": "password",
                 "config": {"mitigated": True, "length": 4,
                            "budget": 512}},
            ],
            "workers": 4, "queue_depth": 64, "requests": 1,
            "arrival": {"kind": "closed", "clients": 1, "think": 1024},
            "policy": policy, "seed": 42, "quantum": 4096,
        }
        wspec = WorkloadSpec.from_dict(workload)
        gateway = Gateway(wspec)
        source = ContentionSource(
            wspec, gateway.handlers, sender="bursty", receiver="observer",
            phases=8, phase_len=16384, think_send=512, think_recv=64,
            senders=senders, seed=99,
        )
        gateway.use_source(source).serve()
        return analyze_contention(source.samples, 16384, 8)

    def test_sixteen_clients_quantized_shows_no_signal(self):
        findings = self.contention("quantized")
        assert findings.bits_extracted == 0.0
        assert not findings.evidence.significant()

    def test_sixteen_clients_fifo_leaks_the_load_pattern(self):
        findings = self.contention("fifo")
        assert findings.bits_extracted > 0
        assert findings.evidence.significant()
