"""Interpreter edge cases: timeouts, deep nesting, layout pinning, errors."""

import pytest

from repro.lang import DEFAULT_LATTICE, ast, parse
from repro.lattice import chain
from repro.machine import Layout, Memory
from repro.hardware import NullHardware, PartitionedHardware, tiny_machine
from repro.machine.memory import MemoryError_
from repro.semantics import (
    EvaluationError,
    MitigationState,
    SemanticsError,
    execute,
    run_core,
)

LAT = DEFAULT_LATTICE


def run(src, mem, env=None, **kw):
    env = env if env is not None else NullHardware(LAT)
    return execute(parse(src), Memory(mem), env, **kw)


class TestTimeouts:
    def test_max_steps_enforced(self):
        with pytest.raises(TimeoutError):
            run("while 1 do { skip [L,L] } [L,L]", {}, max_steps=50)

    def test_max_steps_counts_only_real_steps(self):
        # 5 commands, well within a budget of 10.
        r = run("skip [L,L]; skip [L,L]; skip [L,L]; skip [L,L]; skip [L,L]",
                {}, max_steps=10)
        assert r.steps == 5


class TestDeepNesting:
    def test_deeply_nested_mitigates(self):
        depth = 12
        src = ""
        for _ in range(depth):
            src += "mitigate(1, H) { "
        src += "skip [L,L]"
        src += " } [L,L]" * depth
        r = run(src, {})
        assert len(r.mitigations) == depth
        # Inner blocks complete first.
        ends = [m.end_time for m in r.mitigations]
        assert ends == sorted(ends)

    def test_deep_seq_chain(self):
        src = "; ".join(["x := x + 1 [L,L]"] * 200)
        r = run(src, {"x": 0})
        assert r.memory.read("x") == 200
        assert len(r.events) == 200

    def test_nested_loops(self):
        src = """
        total := 0 [L,L];
        i := 4 [L,L];
        while i > 0 do {
            j := 3 [L,L];
            while j > 0 do {
                total := total + 1 [L,L];
                j := j - 1 [L,L]
            } [L,L];
            i := i - 1 [L,L]
        } [L,L]
        """
        r = run(src, {"total": 0, "i": 0, "j": 0})
        assert r.memory.read("total") == 12


class TestErrors:
    def test_array_oob_in_full_semantics(self):
        with pytest.raises(EvaluationError, match=(
                r"^array read a\[9\] out of bounds \(length 2\)$")):
            run("x := a[9] [L,L]", {"x": 0, "a": [1, 2]})

    def test_array_store_oob(self):
        with pytest.raises(EvaluationError, match=(
                r"^array write a\[5\] out of bounds \(length 1\)$")):
            run("a[5] := 1 [L,L]", {"a": [0]})

    def test_unlabeled_dead_branch_still_runs(self):
        # Resolution errors surface only when the step is reached.
        r = run("x := 1 [L,L]; if x then { skip [L,L] } "
                "else { y := 2 } [L,L]", {"x": 0, "y": 0})
        assert r.steps == 3

    def test_unlabeled_command_fails_when_reached(self):
        with pytest.raises(SemanticsError, match=(
                r"^command Assign \(node \d+\) has no timing labels; "
                r"annotate it or run label inference first$")):
            run("x := 0 [L,L]; if x then { skip [L,L] } "
                "else { y := 2 } [L,L]", {"x": 0, "y": 0})

    @pytest.mark.parametrize("src, mem, error, message", [
        ("sleep(a[3]) [L,L]", {"a": [1]}, EvaluationError,
         "array read a[3] out of bounds (length 1)"),
        ("x := y + 1 [L,L]", {"x": 0}, MemoryError_,
         "undeclared scalar variable 'y'"),
        ("x := a[0] [L,L]", {"x": 0, "a": 3}, MemoryError_,
         "undeclared array 'a'"),
        ("a[0] := 1 [L,L]", {"a": 3}, MemoryError_,
         "undeclared array 'a'"),
        ("z := 1 [L,L]", {"x": 0}, KeyError,
         "name 'z' has no address in this layout"),
        # Evaluation runs before label resolution, so its error wins.
        ("x := a[9]", {"x": 0, "a": [1]}, EvaluationError,
         "array read a[9] out of bounds (length 1)"),
    ])
    def test_runtime_errors_keep_their_messages(self, src, mem, error,
                                                message):
        with pytest.raises(error) as raised:
            run(src, mem)
        assert raised.value.args == (message,)

    def test_foreign_layout_rejected(self):
        prog = parse("x := 1 [L,L]")
        other = parse("y := 2 [L,L]")
        layout = Layout.build(other, Memory({"y": 0}))
        with pytest.raises(KeyError):
            execute(prog, Memory({"x": 0}), NullHardware(LAT),
                    layout=layout)


class TestOperandFolding:
    # A binary operator folds a literal or an untraced scalar operand into
    # its own closure; every pair of operand kinds must keep the value and
    # the operand order, in untraced steps and in steps that read an
    # array element (whose scalar reads are traced).
    @pytest.mark.parametrize("expr, value", [
        ("7 - 3", 4),
        ("7 - y", -3),
        ("7 - (z * 2)", -1),
        ("y - 3", 7),
        ("y - z", 6),
        ("y - (z * 2)", 2),
        ("(y * 2) - 3", 17),
        ("(y * 2) - z", 16),
        ("(y * 2) - (z * 3)", 8),
        ("7 - a[1]", 1),
        ("a[1] - y", -4),
        ("y - a[0]", 5),
        ("(a[0] * 2) - (z - 1)", 7),
    ])
    def test_every_operand_pair_keeps_value_and_order(self, expr, value):
        mem = {"x": 0, "y": 10, "z": 4, "a": [5, 6]}
        r = run(f"x := {expr} [L,L]", mem)
        assert r.memory.read("x") == value
        assert r.memory == run_core(parse(f"x := {expr}"), Memory(mem))


class TestMitigationInterplay:
    def test_events_inside_mitigate_not_delayed(self):
        # Predictive mitigation delays the block's *completion*; events
        # inside occur at their natural times (the type system is what
        # keeps public events out of mitigated high regions).
        src = "mitigate(1000, H) { h := 1 [H,H] } [L,L]"
        r = run(src, {"h": 0})
        event = r.events[0]
        assert event.time < 1000
        assert r.time >= 1000

    def test_mitigation_state_policy_respected_in_runs(self):
        lat = chain(("L", "M", "H"))
        src = ("mitigate(10, H) { sleep(h) [H,H] } [L,L];"
               "mitigate(10, M) { sleep(m) [M,M] } [L,L]")
        prog = parse(src, lat)
        local = execute(prog, Memory({"h": 100, "m": 1}),
                        NullHardware(lat),
                        mitigation=MitigationState(policy="local"))
        glob = execute(prog, Memory({"h": 100, "m": 1}),
                       NullHardware(lat),
                       mitigation=MitigationState(policy="global"))
        m_local = local.mitigations[1].duration
        m_global = glob.mitigations[1].duration
        assert m_local < m_global

    def test_zero_time_body(self):
        r = run("mitigate(5, H) { sleep(0 - 1) [H,H] } [L,L]", {})
        assert r.mitigations[0].duration == 5


class TestHardwareInteraction:
    def test_repeated_runs_on_same_env_warm_up(self):
        env = PartitionedHardware(LAT, tiny_machine())
        prog = parse("x := y + 1 [L,L]")
        layout = Layout.build(prog, Memory({"x": 0, "y": 0}))
        t1 = execute(prog, Memory({"x": 0, "y": 0}), env,
                     layout=layout).time
        t2 = execute(prog, Memory({"x": 0, "y": 0}), env,
                     layout=layout).time
        assert t2 < t1  # caches stay warm across runs on one environment

    def test_shared_layout_consistent_addressing(self):
        # Two programs over the same memory shape share data addresses.
        m = Memory({"x": 0, "a": [0] * 4})
        l1 = Layout.build(parse("x := 1 [L,L]"), m)
        l2 = Layout.build(parse("a[0] := x [L,L]"), m)
        assert l1.var_addr == l2.var_addr
        assert l1.array_addr == l2.array_addr
