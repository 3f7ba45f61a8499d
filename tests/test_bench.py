"""The perf-trajectory harness (src/repro/telemetry/bench.py, `repro bench`).

Covers the BENCH document machinery (schema stamping, validation), the
regression comparator (including the acceptance criterion: a synthetic
>=20% per-subsystem slowdown must trip a nonzero exit), the measured
core/service suites on shrunken workloads, and the committed repo-root
baselines the CI gate compares against.
"""

import json
import os

import pytest

from repro.apps.password import PasswordChecker
from repro.cli import main
from repro.telemetry.bench import (
    BenchError,
    DEFAULT_TOLERANCE,
    SCHEMA,
    SeamlessInterpreter,
    _app_runner,
    compare_documents,
    load_bench_document,
    make_entry,
    measure_seam_overhead,
    run_core_bench,
    run_service_bench,
    write_bench_document,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _doc(entries, kind="core"):
    return {"schema": SCHEMA, "kind": kind, "config": {}, "entries": entries}


def _entry(rate, cycles=1000):
    return make_entry(cycles, cycles / rate, 1)


class TestDocuments:
    def test_write_stamps_schema_and_roundtrips(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        write_bench_document(path, {"kind": "core",
                                    "entries": {"a": _entry(1e6)}})
        doc = load_bench_document(path)
        assert doc["schema"] == SCHEMA
        assert doc["entries"]["a"]["cycles"] == 1000

    def test_load_rejects_bad_input(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        with pytest.raises(BenchError, match="cannot read"):
            load_bench_document(missing)
        garbled = tmp_path / "bad.json"
        garbled.write_text("{not json")
        with pytest.raises(BenchError, match="not valid JSON"):
            load_bench_document(str(garbled))
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "other/9", "entries": {}}))
        with pytest.raises(BenchError, match="not a repro.bench/1"):
            load_bench_document(str(wrong))
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema": SCHEMA}))
        with pytest.raises(BenchError, match="entries"):
            load_bench_document(str(empty))


class TestCompare:
    def test_within_tolerance_is_ok(self):
        base = _doc({"a": _entry(1.00e6)})
        cur = _doc({"a": _entry(0.90e6)})  # 10% slower, tolerance 20%
        comparison = compare_documents(cur, base)
        assert comparison["ok"]
        assert comparison["tolerance"] == DEFAULT_TOLERANCE
        (row,) = [r for r in comparison["rows"] if r["key"] == "a"]
        assert row["status"] == "ok"

    def test_twenty_percent_slowdown_regresses(self):
        # The acceptance criterion: inject a >=20% per-subsystem slowdown
        # and the gate must report a regression.
        base = _doc({
            "subsystem/hardware.partitioned": _entry(1.00e6),
            "subsystem/interpreter.dispatch": make_entry(0, 0.001, 1),
        })
        cur = _doc({
            "subsystem/hardware.partitioned": _entry(0.75e6),
            "subsystem/interpreter.dispatch": make_entry(0, 0.001, 1),
        })
        comparison = compare_documents(cur, base)
        assert not comparison["ok"]
        assert comparison["regressions"] == [
            "subsystem/hardware.partitioned"
        ]

    def test_missing_baseline_key_regresses_and_new_key_informs(self):
        base = _doc({"a": _entry(1e6), "gone": _entry(1e6)})
        cur = _doc({"a": _entry(1e6), "fresh": _entry(1e6)})
        comparison = compare_documents(cur, base)
        assert not comparison["ok"]
        statuses = {r["key"]: r["status"] for r in comparison["rows"]}
        assert statuses["gone"] == "missing"
        assert statuses["fresh"] == "new"

    def test_rate_less_entries_are_informational(self):
        base = _doc({"a": make_entry(0, 0.001, 1)})
        cur = _doc({"a": make_entry(0, 0.010, 1)})  # 10x wall, no rate
        comparison = compare_documents(cur, base)
        assert comparison["ok"]
        assert comparison["rows"][0]["status"] == "info"


class TestCoreSuite:
    @pytest.fixture(scope="class")
    def quick_doc(self):
        return run_core_bench(
            repeats=1, password_length=6, sbox_length=8, rsa_bits=8,
            rsa_blocks=1, gateway_requests=6, check_overhead=False,
        )

    def test_document_shape(self, quick_doc):
        assert quick_doc["schema"] == SCHEMA
        assert quick_doc["kind"] == "core"
        keys = set(quick_doc["entries"])
        assert {"program/password/mitigated", "program/password/unmitigated",
                "program/sbox/mitigated", "program/rsa/language",
                "gateway/serve", "gateway/handlers"} <= keys
        assert "subsystem/hardware.partitioned" in keys
        assert "subsystem/mitigation.padding" in keys

    def test_every_registered_model_is_probed(self, quick_doc):
        from repro.hardware import REGISTRY

        probed = {k.split("/", 1)[1] for k in quick_doc["entries"]
                  if k.startswith("hardware/")}
        assert probed == {spec.name for spec in REGISTRY.specs()}
        for key in sorted(quick_doc["entries"]):
            if key.startswith("hardware/"):
                meta = quick_doc["entries"][key]["meta"]
                assert isinstance(meta["expected_secure"], bool)

    def test_measured_entries_carry_rates(self, quick_doc):
        entry = quick_doc["entries"]["program/password/mitigated"]
        assert entry["cycles"] > 0
        assert entry["wall_s"] > 0
        assert entry["cycles_per_sec"] == pytest.approx(
            entry["cycles"] / entry["wall_s"], rel=1e-6
        )

    def test_seam_overhead_measurement(self):
        overhead = measure_seam_overhead(repeats=3, length=8)
        assert set(overhead) >= {"with_seam_s", "seamless_s",
                                 "overhead_pct", "tolerance_pct", "ok"}
        assert overhead["with_seam_s"] > 0
        assert overhead["seamless_s"] > 0

    def test_seamless_side_runs_its_own_charge(self, monkeypatch):
        # The overhead race measures something only if every charged step
        # of the seamless side goes through its override.
        charged = []
        seamless_charge = SeamlessInterpreter._charge

        def counting(self, *args):
            charged.append(args[0])
            seamless_charge(self, *args)
        monkeypatch.setattr(SeamlessInterpreter, "_charge", counting)
        app = PasswordChecker(length=4, mitigated=True)
        args = ([1, 2, 3, 4], [1, 2, 0, 0])
        seamless = _app_runner(app, args, "partitioned",
                               interpreter_cls=SeamlessInterpreter)()
        shipped = _app_runner(app, args, "partitioned")()
        assert (seamless.time, seamless.steps) == (shipped.time,
                                                   shipped.steps)
        # Every step but the mitigate exits is a charged hardware step.
        assert len(charged) == shipped.steps - len(shipped.mitigations) > 0


class TestServiceSuite:
    def test_quick_sweep_document(self):
        doc = run_service_bench(requests=12, client_counts=(3,),
                                policies=("fifo",))
        assert doc["kind"] == "service"
        entry = doc["entries"]["service/fifo/c3"]
        assert entry["meta"]["audit_ok"] is True
        assert entry["meta"]["completed"] > 0
        assert entry["meta"]["latency_p50"] <= entry["meta"]["latency_p99"]


class TestCommittedBaselines:
    def test_repo_root_baselines_are_valid(self):
        for kind in ("core", "service"):
            path = os.path.join(REPO_ROOT, f"BENCH_{kind}.json")
            assert os.path.exists(path), (
                f"{path} is the committed perf baseline; regenerate with "
                f"`repro bench` (docs/PROFILING.md)"
            )
            doc = load_bench_document(path)
            assert doc["kind"] == kind
            assert doc["entries"]


class TestCli:
    def _write(self, tmp_path, name, entries):
        path = str(tmp_path / name)
        write_bench_document(path, _doc(entries))
        return path

    def test_compare_identical_documents_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", {"a": _entry(1e6)})
        rc = main(["bench", "--compare", base, "--current", base])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_slowdown_exits_one(self, tmp_path, capsys):
        # Acceptance criterion, end to end: a synthetic >=20% slowdown in
        # one subsystem entry flips the exit code.
        base = self._write(tmp_path, "base.json", {
            "subsystem/hardware.partitioned": _entry(1.00e6),
            "program/password/mitigated": _entry(2.00e6),
        })
        cur = self._write(tmp_path, "cur.json", {
            "subsystem/hardware.partitioned": _entry(0.75e6),
            "program/password/mitigated": _entry(2.00e6),
        })
        rc = main(["bench", "--compare", base, "--current", cur])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "subsystem/hardware.partitioned" in out

    def test_bad_inputs_exit_two(self, tmp_path, capsys):
        ok = self._write(tmp_path, "ok.json", {"a": _entry(1e6)})
        assert main(["bench", "--compare",
                     str(tmp_path / "nope.json"), "--current", ok]) == 2
        assert main(["bench", "--current", ok]) == 2
        capsys.readouterr()

    def test_quick_measurement_writes_documents(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        rc = main(["bench", "--suite", "core", "--quick", "--repeats", "1",
                   "--output-dir", out_dir])
        assert rc == 0
        doc = load_bench_document(os.path.join(out_dir, "BENCH_core.json"))
        assert doc["kind"] == "core"
        # --quick skips the noise-sensitive seam-overhead measurement.
        assert "overhead" not in doc
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_mismatched_suite_and_baseline_exit_two(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_service.json")
        write_bench_document(path, _doc({"a": _entry(1e6)},
                                        kind="service"))
        rc = main(["bench", "--suite", "core", "--quick", "--repeats", "1",
                   "--output-dir", str(tmp_path / "out2"),
                   "--compare", path])
        assert rc == 2
        assert "kind='service'" in capsys.readouterr().err
