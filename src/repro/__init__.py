"""repro: a reproduction of "Language-Based Control and Mitigation of Timing
Channels" (Zhang, Askarov, Myers; PLDI 2012).

The package implements the paper's language with read/write timing labels,
its security type system with quantitative leakage guarantees, predictive
mitigation of timing channels, the software/hardware contract (Properties
1-7) as executable checkers, and simulated hardware designs -- including the
statically partitioned cache/TLB of Sec. 4.3 -- together with the paper's
two case studies (web login, multi-block RSA decryption).

Entry points:

* :func:`repro.api.compile_program` -- parse/infer/typecheck, then run;
* :mod:`repro.lattice` -- security lattices;
* :mod:`repro.lang` -- AST, parser, builder DSL;
* :mod:`repro.semantics` -- core and full semantics, predictive mitigation;
* :mod:`repro.hardware` -- machine environments and contract checkers;
* :mod:`repro.typesystem` -- the Fig. 4 checker and label inference;
* :mod:`repro.quantitative` -- Definitions 1-2, Theorem 2, Sec. 7 bounds;
* :mod:`repro.telemetry` -- runtime telemetry and dynamic leakage accounting;
* :mod:`repro.apps` -- the Sec. 8 case studies;
* :mod:`repro.adversary` -- the timing adversaries the paper defends against;
* :mod:`repro.attacks` -- the statistics they report with.
"""

import re as _re
from importlib import metadata as _metadata
from pathlib import Path as _Path

from . import api, telemetry
from .api import CompiledProgram, compile_program
from .lattice import Label, Lattice, chain, diamond, powerset, two_point
from .machine.memory import Memory


def _source_version() -> str:
    """``version`` from pyproject.toml, for an uninstalled source tree.

    A plain text read: ``tomllib`` needs Python 3.11.
    """
    pyproject = _Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        match = _re.search(r'^version\s*=\s*"([^"]+)"',
                           pyproject.read_text(), _re.MULTILINE)
    except OSError:
        match = None
    return match.group(1) if match else "0.0.0"


try:
    # Single source of truth: pyproject.toml, via the packaging metadata
    # when installed.
    __version__ = _metadata.version("repro")
except _metadata.PackageNotFoundError:
    __version__ = _source_version()

__all__ = [
    "CompiledProgram",
    "Label",
    "Lattice",
    "Memory",
    "api",
    "chain",
    "compile_program",
    "diamond",
    "powerset",
    "telemetry",
    "two_point",
    "__version__",
]
