"""End-to-end user journeys: the workflows a downstream adopter runs.

Each test is one complete story through the public API, mirroring the
paper's intended usage: write a program, let the tools find and fix the
timing channels, calibrate, run on verified hardware, and audit the leak.
"""

import math

from repro import api, two_point
from repro.lang import DEFAULT_LATTICE, mitigates, parse, pretty
from repro.machine import Memory
from repro.hardware import (
    PartitionedHardware,
    make_hardware,
    run_contract_suite,
    tiny_machine,
)
from repro.quantitative import (
    leakage_bound,
    measure_leakage,
    secret_variants,
    verify_theorem2,
)
from repro.semantics import MitigationState
from repro.typesystem import (
    SecurityEnvironment,
    TypingError,
    auto_mitigate,
    infer_labels,
    typecheck,
)

LAT = DEFAULT_LATTICE


class TestDevelopJourney:
    """Write -> reject -> auto-fix -> calibrate -> deploy -> audit."""

    SRC = """
    // tally how many of the first n secret scores exceed the threshold
    count := 0;
    i := 0;
    while i < n do {
        if scores[i] > threshold then { count := count + 1 } else { skip };
        i := i + 1
    };
    published := n
    """
    GAMMA = {
        "scores": "H", "threshold": "H", "count": "H", "i": "H",
        "n": "L", "published": "L",
    }

    def _env(self):
        return SecurityEnvironment(
            LAT, {k: LAT[v] for k, v in self.GAMMA.items()}
        )

    def test_full_journey(self):
        gamma = self._env()

        # 1. The raw program is rejected with an actionable error.
        program = infer_labels(parse(self.SRC), gamma)
        try:
            typecheck(program, gamma)
            raise AssertionError("expected a timing-channel rejection")
        except TypingError as err:
            assert "mitigate" in str(err)

        # 2. Auto-repair inserts one mitigate; the result typechecks and
        #    survives a pretty-print/parse round trip.
        fixed, placements = auto_mitigate(program, gamma)
        assert len(placements) == 1
        reparsed = infer_labels(parse(pretty(fixed)), gamma)
        info = typecheck(reparsed, gamma)
        (mit,) = mitigates(reparsed)

        # 3. Calibrate the budget by sampling (the Sec. 8.2 rule), then
        #    pin it into the program.
        base_memory = {
            "scores": [5, 9, 1, 7, 3, 8, 2, 6], "threshold": 4,
            "count": 0, "i": 0, "n": 8, "published": 0,
        }
        samples = []
        for t in range(0, 8):
            mem = dict(base_memory, threshold=t)
            result = api.CompiledProgram(
                program=reparsed, gamma=gamma, lattice=LAT, typing=info
            ).run(mem, hardware="partitioned")
            samples.append(result.mitigations[0].duration)
        budget = max(1, int(1.1 * sum(samples) / len(samples)))
        from repro.lang import ast
        mit.budget = ast.IntLit(budget)

        # 4. Verify the deployment hardware against the contract.
        report = run_contract_suite(
            lambda: make_hardware("partitioned", LAT, tiny_machine()),
            LAT, trials=6,
        )
        assert report.ok()

        # 5. Serve requests from a long-running process; the public
        #    'published' event's timing must not vary with the secrets.
        state = MitigationState()
        compiled = api.CompiledProgram(
            program=reparsed, gamma=gamma, lattice=LAT, typing=info
        )
        times = set()
        for threshold in range(8):
            mem = dict(base_memory, threshold=threshold)
            result = compiled.run(mem, hardware="partitioned",
                                  mitigation=state)
            times.add(next(e.time for e in result.events
                           if e.name == "published"))
        assert len(times) <= 2  # at most the one warm-up doubling

        # 6. Audit: exhaustive leakage over the threshold secret is within
        #    Theorem 2 and the closed-form bound.
        base = Memory(base_memory)
        variants = secret_variants(
            base, ({"threshold": t} for t in range(10))
        )
        audit = verify_theorem2(
            reparsed, gamma, LAT, [LAT["H"]], LAT["L"], base,
            PartitionedHardware(LAT, tiny_machine()), variants,
            mitigate_pc=info.mitigate_pc,
        )
        assert audit.holds
        bound = leakage_bound(LAT, [LAT["H"]], LAT["L"],
                              audit.leakage.latest_event_time, 1)
        assert audit.leakage.bits <= bound


class TestOperatorJourney:
    """Evaluate candidate hardware, then choose by measured security/cost."""

    def test_hardware_selection(self):
        lattice = two_point()
        program = api.compile_program(
            "l := 1; mitigate(64, H) { sleep(h) }; l2 := 2",
            gamma={"h": "H", "l": "L", "l2": "L"}, lattice=lattice,
        )
        verdicts = {}
        costs = {}
        for name in ("nopar", "nofill", "partitioned"):
            report = run_contract_suite(
                lambda n=name: make_hardware(n, lattice, tiny_machine()),
                lattice, trials=6,
            )
            verdicts[name] = report.ok()
            costs[name] = program.run(
                {"h": 3, "l": 0, "l2": 0},
                hardware=name, params=tiny_machine(),
            ).time
        # nopar is fastest but fails the contract; of the secure designs,
        # the partitioned one is the better buy.
        assert not verdicts["nopar"]
        assert verdicts["nofill"] and verdicts["partitioned"]
        assert costs["partitioned"] <= costs["nofill"]

    def test_leakage_budgeting(self):
        # An operator sets a leakage budget and checks a service against it.
        program = api.compile_program(
            "mitigate(8, H) { sleep(h) }; l := 1",
            gamma={"h": "H", "l": "L"},
        )
        base = Memory({"h": 0, "l": 0})
        result = measure_leakage(
            program.program, program.gamma, LAT, [LAT["H"]], LAT["L"],
            base, PartitionedHardware(LAT, tiny_machine()),
            secret_variants(base, ({"h": v} for v in range(256))),
            mitigate_pc=program.typing.mitigate_pc,
        )
        # 256 secrets, budget of 4 bits: the doubling schedule keeps the
        # measured leakage far inside it.
        assert result.bits <= 4.0
        assert result.bits < math.log2(256)
