"""The one-stop pipeline: compile_program / CompiledProgram.run."""

import gc
import json
import weakref

import pytest

from repro import Memory, api, chain
from repro.apps import CredentialTable, LoginSystem, PasswordChecker
from repro.hardware import (
    PartitionedHardware, make_hardware, paper_machine, tiny_machine,
)
from repro.lang import ParseError
from repro.machine import Layout
from repro.semantics import MitigationState, execute
from repro.telemetry import Profiler
from repro.telemetry.recorder import RecordingTraceRecorder
from repro.typesystem import SecurityEnvironment, TypingError


class TestCompile:
    def test_source_string(self):
        cp = api.compile_program("l := 1", gamma={"l": "L"})
        assert cp.typing.end_label.name == "L"

    def test_ast_input(self):
        from repro.lang import B

        b = B(api.compile_program("l := 1", gamma={"l": "L"}).lattice)
        prog = b.assign("l", 1)
        cp = api.compile_program(prog, gamma={"l": "L"})
        assert cp.program is prog

    def test_gamma_label_objects(self):
        lat = chain(("L", "M", "H"))
        cp = api.compile_program("m := 1", gamma={"m": lat["M"]},
                                 lattice=lat)
        assert cp.gamma["m"] == lat["M"]

    def test_gamma_security_environment(self):
        lat = chain(("L", "M", "H"))
        env = SecurityEnvironment(lat, {"m": lat["M"]})
        cp = api.compile_program("m := 1", gamma=env, lattice=lat)
        assert cp.gamma is env

    def test_parse_error_propagates(self):
        with pytest.raises(ParseError):
            api.compile_program("while {", gamma={})

    def test_typing_error_propagates(self):
        with pytest.raises(TypingError):
            api.compile_program("l := h", gamma={"l": "L", "h": "H"})

    def test_check_false_skips_typecheck(self):
        cp = api.compile_program("l := h", gamma={"l": "L", "h": "H"},
                                 check=False)
        r = cp.run({"l": 0, "h": 7}, hardware="null")
        assert r.memory.read("l") == 7

    def test_infer_false_requires_annotations(self):
        from repro.semantics import SemanticsError

        cp = api.compile_program("l := 1 [L,L]", gamma={"l": "L"},
                                 infer=False)
        assert cp.run({"l": 0}, hardware="null").memory.read("l") == 1
        cp2 = api.compile_program("l := 1 [L,L]; x := 2 [L,L]",
                                  gamma={"l": "L", "x": "L"}, infer=False)
        assert cp2.run({"l": 0, "x": 0}, hardware="null").time > 0

    def test_require_cache_labels_forwarded(self):
        with pytest.raises(TypingError):
            api.compile_program("h := 1 [L,H]", gamma={"h": "H"},
                                infer=False, require_cache_labels=True)


class TestRun:
    def test_memory_mapping_accepted(self):
        cp = api.compile_program("l := a[0]", gamma={"l": "L", "a": "L"})
        r = cp.run({"l": 0, "a": [42, 0]})
        assert r.memory.read("l") == 42

    def test_memory_object_accepted(self):
        cp = api.compile_program("l := 1", gamma={"l": "L"})
        mem = Memory({"l": 0})
        r = cp.run(mem)
        assert r.memory is mem

    def test_hardware_by_name(self):
        cp = api.compile_program("l := 1", gamma={"l": "L"})
        for name in ("null", "nopar", "standard", "nofill", "partitioned"):
            assert cp.run({"l": 0}, hardware=name).time > 0

    def test_hardware_instance(self):
        cp = api.compile_program("l := 1", gamma={"l": "L"})
        env = PartitionedHardware(cp.lattice, tiny_machine())
        r = cp.run({"l": 0}, hardware=env)
        assert r.environment is env

    def test_params_forwarded(self):
        cp = api.compile_program("l := 1", gamma={"l": "L"})
        r1 = cp.run({"l": 0}, hardware="partitioned", params=tiny_machine())
        r2 = cp.run({"l": 0}, hardware="partitioned", params=paper_machine())
        assert r1.time > 0 and r2.time > 0

    def test_mitigation_state_forwarded(self):
        cp = api.compile_program(
            "mitigate(10, H) { sleep(h) }", gamma={"h": "H"}
        )
        state = MitigationState()
        cp.run({"h": 100}, hardware="null", mitigation=state)
        assert state.misses(cp.lattice["H"]) > 0

    def test_mitigate_pc_threaded_automatically(self):
        cp = api.compile_program(
            "mitigate@blk (10, H) { sleep(h) }", gamma={"h": "H"}
        )
        r = cp.run({"h": 3}, hardware="null")
        assert r.mitigations[0].pc_label == cp.lattice["L"]


def _outcome(result):
    """What a run produces, minus the hardware object."""
    return (result.time, result.events, result.mitigations, result.steps,
            result.memory.snapshot())


def _fresh(app, memory):
    """The same run through a one-shot ``execute`` on copies."""
    pc = app.typing.mitigate_pc if app.typing else {}
    return execute(app.program, memory.copy(),
                   make_hardware("partitioned", app.lattice),
                   mitigation=MitigationState(), mitigate_pc=pc)


STORED, GUESS = [3, 1, 4, 1, 5, 9], [3, 1, 4, 0, 0, 0]


class TestReuse:
    """A compiled program runs many times; every run matches a fresh one."""

    def test_repeated_runs_match_fresh_runs(self):
        app = PasswordChecker(length=6)
        for guess in (GUESS, STORED, GUESS):
            memory = app.memory(STORED, guess)
            expected = _outcome(_fresh(app, memory))
            assert _outcome(app.run(STORED, guess)) == expected
        assert app.compiled._interpreter is not None

    def test_memory_is_mutated_in_place(self):
        cp = api.compile_program("l := l + 1; a[0] := l",
                                 gamma={"l": "L", "a": "L"})
        for start in (1, 5):
            mem = Memory({"l": start, "a": [0, 0]})
            assert cp.run(mem, hardware="null").memory is mem
            assert mem.read("l") == start + 1
            assert mem.read_elem("a", 0) == start + 1

    def test_after_a_timeout_mid_loop(self):
        app = PasswordChecker(length=6)
        with pytest.raises(TimeoutError):
            app.run(STORED, STORED, max_steps=9)
        expected = _outcome(_fresh(app, app.memory(STORED, GUESS)))
        assert _outcome(app.run(STORED, GUESS)) == expected

    def test_after_another_memory_shape(self):
        # A table of another size is another memory shape: it compiles
        # anew, and the first shape compiles again when it comes back.
        system = LoginSystem(table_size=4)
        tables = [CredentialTable.generate(size=size, valid=2, seed=size)
                  for size in (4, 6, 4)]
        compiled = []
        for table in tables:
            args = (table, table.usernames[0], table.passwords[0])
            expected = _outcome(_fresh(system, system.memory(*args)))
            assert _outcome(system.run(*args)) == expected
            compiled.append(system.compiled._interpreter)
        assert len(set(map(id, compiled))) == 3
        args = (tables[2], tables[2].usernames[1], tables[2].passwords[1])
        system.run(*args)
        assert system.compiled._interpreter is compiled[2]

    def test_after_calibration(self):
        system = LoginSystem(table_size=4)
        table = CredentialTable.generate(size=4, valid=2, seed=1)
        args = (table, table.usernames[0], table.passwords[0])
        before = system.compiled
        system.run(*args)
        system.calibrate_budget(attempts=2)
        assert system.compiled is not before
        expected = _outcome(_fresh(system, system.memory(*args)))
        assert _outcome(system.run(*args)) == expected

    def test_recorder_on_then_off(self):
        # A reused program detaches the previous run's recorder, like a
        # fresh one (tests/test_telemetry.py pins it for ``execute``).
        app = PasswordChecker(length=6)
        environment = make_hardware("partitioned", app.lattice)
        state = MitigationState()
        recorder = RecordingTraceRecorder()
        memory = app.memory(STORED, GUESS)
        app.compiled.run(memory.copy(), environment, mitigation=state,
                         recorder=recorder)
        snapshot = json.dumps(recorder.registry.as_dict())
        app.compiled.run(memory.copy(), environment, mitigation=state)
        assert json.dumps(recorder.registry.as_dict()) == snapshot
        assert environment.hw is None and state.recorder is None
        assert _outcome(app.run(STORED, GUESS)) == _outcome(
            _fresh(app, memory))

    def test_layout_applies_to_one_run(self):
        cp = api.compile_program("l := 1", gamma={"l": "L"})
        cp.run({"l": 0})
        kept = cp._interpreter
        layout = Layout.build(cp.program, Memory({"l": 0}))
        cp.run({"l": 0}, layout=layout)
        assert cp._interpreter is kept


class TestNoCycles:
    """Compiled code forms no reference cycle: runs leave no garbage for
    the cycle collector, and a dropped program is freed at once."""

    def test_runs_leave_no_cyclic_garbage(self):
        self.check_runs_leave_no_cyclic_garbage(lambda: None)

    # A recorded step goes through the run state's charge, an unrecorded
    # one calls the hardware directly; neither may tie the state to itself.
    @pytest.mark.parametrize("recorder", [RecordingTraceRecorder, Profiler])
    def test_recorded_runs_leave_no_cyclic_garbage(self, recorder):
        self.check_runs_leave_no_cyclic_garbage(recorder)

    @staticmethod
    def check_runs_leave_no_cyclic_garbage(recorder):
        app = PasswordChecker(length=6)
        pc = app.typing.mitigate_pc
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                # The program's own interpreter, then a fresh one.
                app.run(STORED, GUESS, recorder=recorder())
                execute(app.program, app.memory(STORED, GUESS),
                        make_hardware("partitioned", app.lattice),
                        mitigate_pc=pc, recorder=recorder())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unresolved_step_leaves_no_cyclic_garbage(self):
        # The error an unlabeled dead branch defers keeps no compile frame.
        cp = api.compile_program("x := 0; if x then { y := 1 } "
                                 "else { skip }", gamma={"x": "L", "y": "L"})
        (dead,) = [c for c in cp.program.walk()
                   if getattr(c, "target", None) == "y"]
        dead.read_label = dead.write_label = None
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                api.compile_program(cp.program, gamma=cp.gamma, infer=False,
                                    check=False).run({"x": 0, "y": 0})
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dropped_program_dies_without_a_collection(self):
        self.check_dropped_program_dies(lambda: None)

    @pytest.mark.parametrize("recorder", [RecordingTraceRecorder, Profiler])
    def test_dropped_recorded_program_dies_without_a_collection(
            self, recorder):
        self.check_dropped_program_dies(recorder)

    @staticmethod
    def check_dropped_program_dies(recorder):
        app = PasswordChecker(length=6)
        app.run(STORED, GUESS, recorder=recorder())
        interpreter = app.compiled._interpreter
        refs = [weakref.ref(app.compiled), weakref.ref(interpreter),
                weakref.ref(interpreter._state)]
        gc.collect()
        gc.disable()
        try:
            del app, interpreter
            assert [ref() for ref in refs] == [None, None, None]
            assert gc.collect() == 0  # not even a self-referencing loop
        finally:
            gc.enable()
