"""The dataflow layer: CFG, worklist solver, TDG, explanations, audit."""

import os

from repro.analysis.cfg import (
    EdgeKind,
    build_cfg,
    cfg_to_dot,
    reachable_commands,
)
from repro.analysis.dataflow import (
    ConstantPropagation,
    ReachingDefinitions,
    eval_const,
    solve,
)
from repro.analysis.engine import LintOptions, analyze_source
from repro.analysis.flows import (
    FlowExplainer,
    build_tdg,
    duration_vars,
    tdg_to_dot,
)
from repro.analysis.render import render_json, render_lint
from repro.lang import ast, parse
from repro.lang.parser import DEFAULT_LATTICE
from repro.typesystem import SecurityEnvironment

LINT_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "lint")

LAT = DEFAULT_LATTICE


def gamma(**bindings):
    return SecurityEnvironment(
        LAT, {name: LAT[level] for name, level in bindings.items()}
    )


def node_of(program, predicate):
    for cmd in program.walk():
        if isinstance(cmd, ast.LabeledCommand) and predicate(cmd):
            return cmd
    raise AssertionError("no command matches")


def assign_to(program, name):
    return node_of(
        program,
        lambda c: isinstance(c, ast.Assign) and c.target == name,
    )


class TestCFG:
    def test_straight_line_is_one_block(self):
        program = parse("x := 1;\ny := 2;\nskip\n")
        cfg = build_cfg(program)
        body_blocks = {
            cfg.block_of[c.node_id]
            for c in program.walk()
            if isinstance(c, ast.LabeledCommand)
        }
        assert len(body_blocks) == 1

    def test_entry_and_exit_are_empty_sentinels(self):
        cfg = build_cfg(parse("if h > 0 then { skip } else { skip }\n"))
        assert not cfg.blocks[cfg.entry].commands
        assert not cfg.blocks[cfg.exit].commands

    def test_if_edges(self):
        program = parse("if h > 0 then { x := 1 } else { y := 2 }\n")
        cfg = build_cfg(program)
        guard = node_of(program, lambda c: isinstance(c, ast.If))
        out = cfg.successors(cfg.block_of[guard.node_id])
        assert {e.kind for e in out} == {EdgeKind.TRUE, EdgeKind.FALSE}
        # Both arms rejoin at a single block.
        then_blk = cfg.block_of[assign_to(program, "x").node_id]
        else_blk = cfg.block_of[assign_to(program, "y").node_id]
        joins = ({e.dst for e in cfg.successors(then_blk)}
                 & {e.dst for e in cfg.successors(else_blk)})
        assert len(joins) == 1

    def test_while_has_back_edge(self):
        program = parse("while x > 0 do { x := x - 1 }\n")
        cfg = build_cfg(program)
        guard_blk = cfg.block_of[
            node_of(program, lambda c: isinstance(c, ast.While)).node_id
        ]
        kinds = {e.kind for e in cfg.predecessors(guard_blk)}
        assert EdgeKind.BACK in kinds

    def test_mitigate_enter_exit_edges(self):
        program = parse("mitigate(1, H) { sleep(h) }\n")
        cfg = build_cfg(program)
        kinds = {e.kind for e in cfg.edges}
        assert EdgeKind.ENTER in kinds
        assert EdgeKind.EXIT in kinds

    def test_every_command_is_placed(self):
        program = parse(
            "x := 1;\n"
            "if x > 0 then { while x > 0 do { x := x - 1 } }\n"
            "else { mitigate(1, H) { sleep(h) } };\n"
            "y := x\n"
        )
        cfg = build_cfg(program)
        for cmd in program.walk():
            if isinstance(cmd, ast.LabeledCommand):
                assert cmd.node_id in cfg.block_of

    def test_block_spans_cover_source(self):
        program = parse("x := 1;\ny := 2\n")
        cfg = build_cfg(program)
        blk = cfg.blocks[cfg.block_of[assign_to(program, "x").node_id]]
        assert blk.span.line == 1
        assert blk.span.end_line == 2

    def test_dot_renders_blocks_and_edge_kinds(self):
        program = parse("while x > 0 do { x := x - 1 }\n")
        dot = cfg_to_dot(build_cfg(program))
        assert dot.startswith("digraph")
        assert "ENTRY" in dot and "EXIT" in dot
        assert "while x > 0" in dot
        assert "back" in dot


class TestSolver:
    def test_reaching_definitions_join_at_if(self):
        program = parse(
            "x := 1;\n"
            "if c > 0 then { x := 2 } else { skip };\n"
            "y := x\n"
        )
        cfg = build_cfg(program)
        sol = solve(cfg, ReachingDefinitions())
        use = assign_to(program, "y")
        defs = sol.problem.of(sol.before(use.node_id), "x")
        first = assign_to(program, "x")
        assert len(defs) == 2  # both the initial and the then-side def
        assert first.node_id in defs

    def test_reaching_definitions_kill_in_straight_line(self):
        program = parse("x := 1;\nx := 2;\ny := x\n")
        cfg = build_cfg(program)
        sol = solve(cfg, ReachingDefinitions())
        use = assign_to(program, "y")
        defs = sol.problem.of(sol.before(use.node_id), "x")
        assert len(defs) == 1

    def test_array_assign_is_weak_update(self):
        program = parse("a[0] := 1;\na[1] := 2;\nx := a[0]\n")
        cfg = build_cfg(program)
        sol = solve(cfg, ReachingDefinitions())
        use = assign_to(program, "x")
        assert len(sol.problem.of(sol.before(use.node_id), "a")) == 2

    def test_constants_propagate_through_assignments(self):
        program = parse("x := 2;\ny := x + 3;\nz := y\n")
        cfg = build_cfg(program)
        sol = solve(cfg, ConstantPropagation())
        use = assign_to(program, "z")
        assert dict(sol.before(use.node_id))["y"] == 5

    def test_constants_meet_at_join(self):
        program = parse(
            "x := 1;\n"
            "if c > 0 then { x := 2; y := 7 } else { y := 7 };\n"
            "z := x + y\n"
        )
        cfg = build_cfg(program)
        sol = solve(cfg, ConstantPropagation())
        env = dict(sol.before(assign_to(program, "z").node_id))
        assert "x" not in env  # 1 vs 2: not a constant
        assert env["y"] == 7  # 7 on both sides: still a constant

    def test_loop_body_invalidates_constants(self):
        program = parse(
            "x := 1;\nwhile c > 0 do { x := x + 1 };\ny := x\n"
        )
        cfg = build_cfg(program)
        sol = solve(cfg, ConstantPropagation())
        env = dict(sol.before(assign_to(program, "y").node_id))
        assert "x" not in env

    def test_eval_const_uses_interpreter_semantics(self):
        expr = parse("x := 7 / 0\n")  # trunc-div by zero yields 0
        cmd = assign_to(expr, "x")
        assert eval_const(cmd.expr) == 0


class TestReachability:
    def test_all_reachable_without_constants(self):
        program = parse("if c > 0 then { x := 1 } else { y := 2 }\n")
        cfg = build_cfg(program)
        labeled = {c.node_id for c in program.walk()
                   if isinstance(c, ast.LabeledCommand)}
        assert reachable_commands(cfg) == labeled

    def test_syntactic_constant_guard_prunes(self):
        program = parse("if 0 then { x := 1 } else { y := 2 }\n")
        cfg = build_cfg(program)
        live = reachable_commands(cfg)
        assert assign_to(program, "x").node_id not in live
        assert assign_to(program, "y").node_id in live

    def test_propagated_constant_guard_prunes(self):
        program = parse(
            "k := 0;\nif k > 0 then { x := 1 } else { y := 2 };\nz := 3\n"
        )
        cfg = build_cfg(program)
        constants = solve(cfg, ConstantPropagation())
        live = reachable_commands(cfg, constants)
        assert assign_to(program, "x").node_id not in live
        assert assign_to(program, "y").node_id in live
        assert assign_to(program, "z").node_id in live

    def test_constant_true_loop_cuts_continuation(self):
        program = parse("while 1 do { x := 1 };\ny := 2\n")
        cfg = build_cfg(program)
        constants = solve(cfg, ConstantPropagation())
        live = reachable_commands(cfg, constants)
        assert assign_to(program, "x").node_id in live
        assert assign_to(program, "y").node_id not in live


class TestTDG:
    def test_sleep_taints_everything_after(self):
        program = parse("sleep(h);\nl := 0\n")
        tdg = build_tdg(program, gamma(h="H", l="L"))
        sink = assign_to(program, "l")
        assert tdg.timing_tainted(sink.node_id)
        sources = {s.name for s in tdg.start_sources(sink.node_id)}
        assert sources == {"h"}

    def test_taint_closes_over_value_flow(self):
        program = parse("x := h + 1;\nsleep(x);\nl := 0\n")
        tdg = build_tdg(program, gamma(h="H", x="H", l="L"))
        sink = assign_to(program, "l")
        names = {s.name for s in tdg.start_sources(sink.node_id)}
        assert "h" in names  # h flows into x, x into the sleep

    def test_branch_guard_taints_inside(self):
        program = parse(
            "if h > 0 then { sleep(5) } else { skip };\nl := 0\n"
        )
        tdg = build_tdg(program, gamma(h="H", l="L"))
        sink = assign_to(program, "l")
        assert tdg.timing_tainted(sink.node_id)

    def test_mitigate_absorbs_body_taint(self):
        program = parse("mitigate(1, H) { sleep(h) };\nl := 0\n")
        tdg = build_tdg(program, gamma(h="H", l="L"))
        sink = assign_to(program, "l")
        assert not tdg.timing_tainted(sink.node_id)
        mit = node_of(program, lambda c: isinstance(c, ast.Mitigate))
        assert "h" in tdg.mitigate_body_taint[mit.mit_id]

    def test_secret_budget_escapes_mitigate(self):
        program = parse("mitigate(h, H) { skip };\nl := 0\n")
        tdg = build_tdg(program, gamma(h="H", l="L"))
        assert tdg.timing_tainted(assign_to(program, "l").node_id)

    def test_while_fixpoint_feeds_guard_back(self):
        # x becomes secret only inside the loop body; the fixpoint must
        # still see the second iteration's sleep(x) as h-tainted.
        program = parse(
            "x := 0;\n"
            "while c > 0 do { sleep(x); x := h };\n"
            "l := 0\n"
        )
        tdg = build_tdg(program, gamma(h="H", x="L", c="L", l="L"))
        sink = assign_to(program, "l")
        assert "h" in {s.name for s in tdg.start_sources(sink.node_id)}

    def test_observer_level_filters_taint(self):
        program = parse("sleep(h);\nl := 0\n")
        tdg = build_tdg(program, gamma(h="H", l="L"))
        sink = assign_to(program, "l")
        assert tdg.timing_tainted(sink.node_id, observer=LAT["L"])
        assert not tdg.timing_tainted(sink.node_id, observer=LAT["H"])

    def test_duration_vars_cover_addresses(self):
        program = parse("a[i] := h;\nx := a[j] + 1\n")
        store = node_of(program, lambda c: isinstance(c, ast.ArrayAssign))
        load = assign_to(program, "x")
        assert duration_vars(store) == frozenset({"i"})
        assert duration_vars(load) == frozenset({"j"})

    def test_dot_renders_levels_and_edges(self):
        program = parse("x := h;\nsleep(x);\nl := 0\n")
        tdg = build_tdg(program, gamma(h="H", x="H", l="L"))
        dot = tdg_to_dot(tdg)
        assert "h : H" in dot
        assert "explicit" in dot
        assert "timing" in dot


class TestExplainer:
    def analyze_explained(self, source, **gamma_spec):
        options = LintOptions(gamma=gamma_spec or {"h": "H", "l": "L"},
                              explain=True)
        return analyze_source(source, path="test.tl", options=options)

    def flow_for(self, result, code):
        for diag in result.diagnostics:
            if diag.code == code and diag.flow:
                return diag.flow
        raise AssertionError(f"no {code} diagnostic with a flow")

    def test_explicit_flow_path_walks_assignments(self):
        result = self.analyze_explained(
            "t := h;\nu := t + 1;\nl := u\n",
            h="H", t="H", u="H", l="L",
        )
        flow = self.flow_for(result, "TL001")
        assert flow[0].kind == "source"
        assert flow[-1].kind == "sink"
        assert [s.kind for s in flow[1:-1]] == ["flow", "flow"]
        assert "'h'" in flow[0].message

    def test_implicit_flow_path_has_branch_step(self):
        result = self.analyze_explained(
            "if h > 0 then { l := 1 } else { skip }\n"
        )
        flow = self.flow_for(result, "TL002")
        assert [s.kind for s in flow] == ["source", "branch", "sink"]

    def test_timing_flow_path_has_timing_step(self):
        result = self.analyze_explained("sleep(h);\nl := 0\n")
        flow = self.flow_for(result, "TL003")
        kinds = [s.kind for s in flow]
        assert kinds[0] == "source"
        assert "timing" in kinds
        assert kinds[-1] == "sink"

    def test_array_index_path(self):
        result = self.analyze_explained(
            "x := a[h] [L,L]\n", h="H", a="L", x="H"
        )
        flow = self.flow_for(result, "TL006")
        assert flow[0].kind == "source"
        assert "address" in flow[-1].message

    def test_steps_carry_real_spans(self):
        result = self.analyze_explained("sleep(h);\nl := 0\n")
        for step in self.flow_for(result, "TL003"):
            assert not step.span.is_synthetic

    def test_without_explain_no_flows_attached(self):
        options = LintOptions(gamma={"h": "H", "l": "L"})
        result = analyze_source("sleep(h);\nl := 0\n", path="t.tl",
                                options=options)
        assert all(d.flow is None for d in result.diagnostics)

    def test_explainer_returns_none_for_unshaped_rules(self):
        result = self.analyze_explained("x := 1\n", x="L")
        tl015 = [d for d in result.diagnostics if d.code == "TL015"]
        assert tl015 and tl015[0].flow is None


def fixture(name):
    with open(os.path.join(LINT_DIR, name)) as handle:
        return handle.read()


class TestNewRules:
    def analyze_fixture(self, name):
        return analyze_source(fixture(name), path=name)

    def test_tl017_dead_mitigate(self):
        result = self.analyze_fixture("tl017_dead_mitigate.tl")
        codes = {d.code for d in result.diagnostics}
        assert "TL017" in codes

    def test_tl017_silent_when_body_varies(self):
        options = LintOptions(gamma={"h": "H"})
        result = analyze_source("mitigate(1, H) { sleep(h) }\n",
                                path="t.tl", options=options)
        assert "TL017" not in {d.code for d in result.diagnostics}

    def test_tl018_constant_secret_branch(self):
        result = self.analyze_fixture("tl018_constant_secret_branch.tl")
        codes = {d.code for d in result.diagnostics}
        assert "TL018" in codes
        # The syntactic fold cannot see this one, so TL016 is silent.
        assert "TL016" not in codes

    def test_tl018_silent_on_literal_guard(self):
        options = LintOptions(gamma={"l": "L"})
        result = analyze_source(
            "if 0 then { l := 1 } else { skip }\n",
            path="t.tl", options=options)
        codes = {d.code for d in result.diagnostics}
        assert "TL018" not in codes  # public literal: TL016's territory
        assert "TL016" in codes

    def test_tl019_shadowed_mitigate(self):
        result = self.analyze_fixture("tl019_shadowed_mitigate.tl")
        codes = {d.code for d in result.diagnostics}
        assert "TL019" in codes
        assert "TL012" not in codes  # levels are incomparable downward

    def test_tl020_unreachable_mitigate(self):
        result = self.analyze_fixture("tl020_unreachable_mitigate.tl")
        codes = {d.code for d in result.diagnostics}
        assert "TL020" in codes
        assert "TL017" not in codes  # unreachable sites are TL020 only


class TestAuditPrecision:
    def test_reachable_bound_strictly_tighter(self):
        result = analyze_source(
            fixture("tl020_unreachable_mitigate.tl"),
            path="tl020_unreachable_mitigate.tl",
        )
        audit = result.audit
        assert audit is not None
        assert audit.bound_bits < audit.syntactic_bound_bits
        assert audit.relevant_count < audit.syntactic_relevant_count
        assert audit.pruned_count == 1

    def test_unreachable_site_is_marked(self):
        result = analyze_source(
            fixture("tl020_unreachable_mitigate.tl"),
            path="tl020_unreachable_mitigate.tl",
        )
        sites = result.audit.sites
        dead = [s for s in sites if not s.reachable]
        assert len(dead) == 1
        assert not dead[0].relevant
        assert "unreachable" in dead[0].reason

    def test_delta_is_reported_in_text_and_json(self):
        result = analyze_source(
            fixture("tl020_unreachable_mitigate.tl"),
            path="tl020_unreachable_mitigate.tl",
        )
        text = "\n".join(render_lint(
            render_json([], {result.path: result.audit})))
        assert "syntactic bound" in text
        doc = result.audit.as_dict()
        assert doc["syntactic"]["pruned_count"] == 1
        assert doc["syntactic"]["bound_bits"] > doc["bound_bits"]

    def test_no_delta_when_everything_reachable(self):
        options = LintOptions(gamma={"h": "H"}, adversary="L")
        result = analyze_source("mitigate(1, H) { sleep(h) }\n",
                                path="t.tl", options=options)
        audit = result.audit
        assert audit.bound_bits == audit.syntactic_bound_bits
        assert audit.pruned_count == 0


class TestInferFlag:
    def test_directive_off_yields_missing_labels(self):
        result = analyze_source(fixture("unannotated_infer.tl"),
                                path="unannotated_infer.tl")
        assert "TL007" in {d.code for d in result.diagnostics}

    def test_forced_infer_overrides_directive(self):
        result = analyze_source(
            fixture("unannotated_infer.tl"),
            path="unannotated_infer.tl",
            options=LintOptions(infer=True),
        )
        codes = {d.code for d in result.diagnostics}
        assert "TL007" not in codes
        assert "TL003" in codes  # the real flow is still reported

    def test_forced_off_overrides_directive(self):
        source = "// infer: on\nl := 1\n"
        result = analyze_source(source, path="t.tl",
                                options=LintOptions(infer=False,
                                                    gamma={"l": "L"}))
        assert "TL007" in {d.code for d in result.diagnostics}
