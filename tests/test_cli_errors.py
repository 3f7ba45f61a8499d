"""Malformed input to ``python -m repro`` exits with a message, never a
traceback: 2 for bad input (argparse ``usage:`` for a bad option value,
``repro <command>: <message>`` otherwise), 1 for a negative verdict."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

PROGRAMS = {
    "leaky.tl": "while h > 0 do { h := h - 1 };\nready := 1\n",
    "mitigated.tl": (
        "mitigate(16, H) { while h > 0 do { h := h - 1 } };\nready := 1\n"
    ),
    "secret_only.tl": "mitigate(16, H) { while h > 0 do { h := h - 1 } }\n",
    "explicit_flow.tl": "l := h\n",
    "array_read.tl": "x := a[5] + 1\n",
    "array_write.tl": "a[x] := 1\n",
    "repeated_levels.tl": "// levels: L,H,L\nready := 1\n",
    "directive_level.tl": "// gamma: h=X\nready := 1\n",
    "three_levels.tl": "// levels: L,M,H\nready := 1\n",
    "budget_nan.tl": "// budget: nan\nready := 1\n",
    "budget_words.tl": "// budget: lots\nready := 1\n",
}

#: A program file that is not UTF-8 text.
NOT_UTF8 = {"latin1.tl": b"\xff\xfe x := 1"}

#: Workload specs whose login tenant has a bad ``valid`` count.
SPECS = {
    f"valid_{name}.json": json.dumps({"requests": 4, "tenants": [{
        "name": "acme", "app": "login",
        "config": {"table_size": 8, "valid": value}}]})
    for name, value in (("negative", -1), ("string", "x"))
}

GAMMA = ["--gamma", "h=H,ready=L"]

ROWS = [
    (["run", "mitigated.tl", *GAMMA, "--set", "h=abc"], 2),
    (["leakage", "mitigated.tl", *GAMMA, "--secret", "h",
      "--values", "5"], 2),
    (["leakage", "mitigated.tl", *GAMMA, "--secret", "h",
      "--adversary", "X"], 2),
    (["leakage", "mitigated.tl", *GAMMA, "--secret", "zz"], 2),
    (["run", "missing.tl"], 2),
    (["infer", "missing.tl"], 2),
    # Ill-typed without --unchecked.
    (["run", "leaky.tl", *GAMMA, "--set", "h=3", "--set", "ready=0"], 2),
    # An explicit flow is not timing-induced: no mitigate repairs it.
    (["fix", "explicit_flow.tl", "--gamma", "h=H,l=L"], 1),
    (["check", "mitigated.tl", "--gamma", "h=H", "--levels", "L"], 2),
    (["check", "mitigated.tl", "--gamma", "h=TOPSECRET"], 2),
    (["check", "secret_only.tl", "--gamma", "h = H"], 0),
    (["bench"], 2),
    # The counterexample store's parent is a file: no point runs.
    (["verify-hw", "--models", "bus", "--no-quantify",
      "--counterexamples", "mitigated.tl/store"], 2),
]

#: A bad option value is an argparse error naming the option and why.
OPTION_ROWS = [
    (["contract", "partitioned", "--trials", "0"],
     "argument --trials: must be >= 1, got 0"),
    (["contract", "partitioned", "--trials", "-2"],
     "argument --trials: must be >= 1, got -2"),
    (["verify-hw", "--max-examples", "0"],
     "argument --max-examples: must be >= 1, got 0"),
    (["run", "mitigated.tl", *GAMMA, "--max-steps", "0"],
     "argument --max-steps: must be >= 1, got 0"),
    (["run", "mitigated.tl", *GAMMA, "--max-steps", "-3"],
     "argument --max-steps: must be >= 1, got -3"),
    (["check", "mitigated.tl", "--gamma", "h=H", "--levels", "L,H,L"],
     "argument --levels: level names must be non-empty and distinct, "
     "got 'L,H,L'"),
    (["run", "mitigated.tl", *GAMMA, "--levels", "L,L"],
     "argument --levels: level names must be non-empty and distinct, "
     "got 'L,L'"),
    (["lint", "mitigated.tl", "--levels", "L,,H"],
     "argument --levels: level names must be non-empty and distinct, "
     "got 'L,,H'"),
    (["contract", "partitioned", "--levels", "L,H,L"],
     "argument --levels: level names must be non-empty and distinct, "
     "got 'L,H,L'"),
    # The secret range is half-open: an empty one would sweep nothing.
    (["leakage", "mitigated.tl", *GAMMA, "--secret", "h",
      "--values", "5..1"],
     "argument --values: the range [5, 1) holds no value"),
    (["leakage", "mitigated.tl", *GAMMA, "--secret", "h",
      "--values", "3..3"],
     "argument --values: the range [3, 3) holds no value"),
    (["attack", "--quick", "--samples", "0"],
     "argument --samples: must be >= 1, got 0"),
    (["attack", "--quick", "--quantum", "0"],
     "argument --quantum: must be >= 1, got 0"),
    (["attack", "--quick", "--clients", "abc"],
     "argument --clients: expected an integer, got 'abc'"),
    # An empty pool list would silently run the default sweep.
    (["attack", "--quick", "--clients", ","],
     "argument --clients: expected an integer, got ''"),
    (["attack", "--quick", "--clients", "2,0"],
     "argument --clients: must be >= 1, got 0"),
]


ARRAYS = ["--gamma", "x=L,a=L"]

#: Input that fails only once the command runs (a program on the given
#: memory, a degenerate attack setting): exit 2 with the error's own
#: message (unquoted), never a traceback.
RUNTIME_ROWS = [
    (["run", "array_read.tl", *ARRAYS, "--set", "a=1:2"],
     "repro run: array read a[5] out of bounds (length 2)"),
    (["run", "array_write.tl", *ARRAYS, "--set", "a=1:2", "--set", "x=7"],
     "repro run: array write a[7] out of bounds (length 2)"),
    (["run", "array_read.tl", *ARRAYS, "--set", "a=3"],
     "repro run: undeclared array 'a'"),
    (["run", "array_write.tl", *ARRAYS, "--set", "x=1:2"],
     "repro run: undeclared scalar variable 'x'"),
    (["leakage", "array_read.tl", *ARRAYS, "--set", "a=1:2",
      "--secret", "x", "--values", "0..1"],
     "repro leakage: array read a[5] out of bounds (length 2)"),
    # A secret range sets scalars: an array secret, or a scalar that
    # --set declared an array, does not fit it.
    (["leakage", "array_read.tl", *ARRAYS, "--set", "a=1:2",
      "--secret", "a", "--values", "0..2"],
     "repro leakage: 'a' is declared as an array of length 2; a variant "
     "cannot set it to 0"),
    (["leakage", "mitigated.tl", *GAMMA, "--secret", "h",
      "--values", "0..2", "--set", "h=1:2"],
     "repro leakage: 'h' is declared as an array of length 2; a variant "
     "cannot set it to 0"),
    # A secret the adversary observes is not in the varied set L_{lA}.
    (["leakage", "mitigated.tl", *GAMMA, "--secret", "h",
      "--adversary", "H"],
     "repro leakage: variant differs from the baseline at level H, which "
     "is outside the varied set L_{lA}"),
    # A counterexample store that is a regular file is refused before any
    # point runs (bus would be detected, and written, on its first case).
    (["verify-hw", "--models", "bus", "--no-quantify",
      "--counterexamples", "mitigated.tl"],
     "repro verify-hw: counterexample store mitigated.tl is not a "
     "directory"),
]

#: A program (or, for ``report``, telemetry) file that does not decode is
#: bad input, never a traceback.
ENCODING_ROWS = [
    ([command, "latin1.tl"], f"repro {command}: latin1.tl: not UTF-8 text")
    for command in ("check", "lint", "cost", "run", "report")
]

#: A malformed directive is bad input; ``lint`` reports it and carries on.
DIRECTIVE_ROWS = [
    (["lint", "repeated_levels.tl"],
     "repro lint: repeated_levels.tl: levels directive: level names must "
     "be non-empty and distinct, got 'L,H,L'"),
]

BUDGET = "bits budget must be >= 0 and finite, got"

#: A bad bits budget is bad input with one message, whether it comes from
#: ``--bits-budget`` or a ``// budget:`` directive; ``tune`` takes the
#: directive's and needs the flag only when the file has none.  A bad flag
#: is rejected once, when it is parsed, however many files follow it; a
#: bad directive is reported for its own file.
FLAG_BUDGET = "error: argument --bits-budget: " + BUDGET

BUDGET_ROWS = [
    (["lint", "mitigated.tl", "--bits-budget", "nan"],
     f"repro lint: {FLAG_BUDGET} nan"),
    (["lint", "mitigated.tl", "secret_only.tl", "--bits-budget", "nan"],
     f"repro lint: {FLAG_BUDGET} nan"),
    (["lint", "budget_nan.tl"], f"repro lint: budget_nan.tl: {BUDGET} nan"),
    (["lint", "budget_words.tl"],
     f"repro lint: budget_words.tl: {BUDGET} lots"),
    (["tune", "mitigated.tl", "--bits-budget", "-1"],
     f"repro tune: {FLAG_BUDGET} -1"),
    (["tune", "budget_nan.tl"], f"repro tune: budget_nan.tl: {BUDGET} nan"),
    (["tune", "mitigated.tl"],
     "repro tune: mitigated.tl: no bits budget (give --bits-budget or a "
     "'// budget:' directive)"),
]


TWO = "lattice levels are ['L', 'H']"

#: A level outside the program's lattice is bad input with one message,
#: whichever command reads the program and whether the level comes from
#: a flag or a directive; a flag's level is checked against the lattice
#: the file's `// levels:` line declares.
LEVEL_ROWS = [
    (["run", "mitigated.tl", "--gamma", "h=X,ready=L"],
     f"repro run: mitigated.tl: unknown security level 'X'; {TWO}"),
    (["leakage", "mitigated.tl", *GAMMA, "--secret", "h",
      "--adversary", "X"],
     f"repro leakage: mitigated.tl: unknown security level 'X'; {TWO}"),
    (["lint", "mitigated.tl", "--gamma", "h=X"],
     f"repro lint: mitigated.tl: unknown security level 'X'; {TWO}"),
    (["lint", "mitigated.tl", "--adversary", "X"],
     f"repro lint: mitigated.tl: unknown security level 'X'; {TWO}"),
    (["check", "directive_level.tl"],
     f"repro check: directive_level.tl: unknown security level 'X'; {TWO}"),
    (["infer", "three_levels.tl", "--gamma", "ready=Q"],
     "repro infer: three_levels.tl: unknown security level 'Q'; lattice "
     "levels are ['L', 'M', 'H']"),
    (["leakage", "mitigated.tl", *GAMMA, "--secret", "zz"],
     "repro leakage: --secret 'zz' has no security level (give it one "
     "with --gamma or // gamma:)"),
]


#: A bad handler config is bad input: the handlers are built while the
#: spec is read, so the message names the tenant and the value.
SPEC_ROWS = [
    (["serve", "--spec", "valid_negative.json"],
     "repro serve: tenant 'acme': handler config 'valid' must be an int "
     "from 0 to table_size (8), got -1"),
    (["serve", "--spec", "valid_string.json"],
     "repro serve: tenant 'acme': handler config 'valid' must be an int "
     "from 0 to table_size (8), got 'x'"),
]


def _repro(tmp_path, argv):
    for name, text in {**PROGRAMS, **SPECS}.items():
        (tmp_path / name).write_text(text)
    for name, data in NOT_UTF8.items():
        (tmp_path / name).write_bytes(data)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )


@pytest.mark.parametrize(
    "argv, message", RUNTIME_ROWS + SPEC_ROWS,
    ids=[" ".join(argv) for argv, _ in RUNTIME_ROWS + SPEC_ROWS],
)
def test_runtime_error_exits_2_with_its_message(tmp_path, argv, message):
    proc = _repro(tmp_path, argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == message


@pytest.mark.parametrize(
    "argv, code", ROWS, ids=[" ".join(argv) for argv, _ in ROWS]
)
def test_bad_input_exits_with_a_message(tmp_path, argv, code):
    proc = _repro(tmp_path, argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert (f"repro {argv[0]}:" in proc.stderr
                or "usage:" in proc.stderr), proc.stderr


@pytest.mark.parametrize(
    "argv, message", OPTION_ROWS,
    ids=[" ".join(argv) for argv, _ in OPTION_ROWS],
)
def test_bad_option_value_exits_2_naming_it(tmp_path, argv, message):
    proc = _repro(tmp_path, argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"repro {argv[0]}: error: {message}"), proc.stderr


@pytest.mark.parametrize(
    "argv, message", DIRECTIVE_ROWS + LEVEL_ROWS + BUDGET_ROWS,
    ids=[" ".join(argv)
         for argv, _ in DIRECTIVE_ROWS + LEVEL_ROWS + BUDGET_ROWS],
)
def test_bad_directive_exits_2_with_its_message(tmp_path, argv, message):
    proc = _repro(tmp_path, argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    if lines[0].startswith("usage: "):
        # argparse rejected a flag value: its usage block, then one error.
        lines = lines[-1:]
    assert lines == [message]


@pytest.mark.parametrize(
    "argv, message", ENCODING_ROWS,
    ids=[" ".join(argv) for argv, _ in ENCODING_ROWS],
)
def test_non_utf8_program_exits_2_naming_the_file(tmp_path, argv, message):
    proc = _repro(tmp_path, argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == message


#: A report over inputs that could not be read does not call them clean.
UNREAD_ROWS = [
    (["lint", "missing.tl"], ["no findings", "1 input not analyzed"]),
    (["lint", "latin1.tl"], ["no findings", "1 input not analyzed"]),
    (["cost", "missing.tl"], ["no programs analyzed",
                              "no cost-backed findings",
                              "1 input not analyzed"]),
    (["cost", "latin1.tl", "missing.tl"], ["no programs analyzed",
                                           "no cost-backed findings",
                                           "2 inputs not analyzed"]),
]


@pytest.mark.parametrize(
    "argv, summary", UNREAD_ROWS,
    ids=[" ".join(argv) for argv, _ in UNREAD_ROWS],
)
def test_unread_input_is_not_called_clean(tmp_path, argv, summary):
    proc = _repro(tmp_path, argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == summary


def test_non_utf8_stdin_exits_2_naming_it(tmp_path):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "-"],
        input=NOT_UTF8["latin1.tl"], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.decode().strip() == "repro run: -: not UTF-8 text"
