"""Malformed input to ``python -m repro`` exits with a message, never a
traceback: 2 for bad input (argparse ``usage:`` for a bad option value,
``repro <command>: <message>`` otherwise), 1 for a negative verdict."""

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
]


@pytest.mark.parametrize(
    "argv, code", ROWS, ids=[" ".join(argv) for argv, _ in ROWS]
)
def test_bad_input_exits_with_a_message(tmp_path, argv, code):
    for name, text in PROGRAMS.items():
        (tmp_path / name).write_text(text)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert (f"repro {argv[0]}:" in proc.stderr
                or "usage:" in proc.stderr), proc.stderr
