"""Address layout: the compiler-like pass that places a program in memory.

The paper's evaluation runs compiled C on a simulated processor, so data and
instruction *addresses* -- not language-level names -- drive the cache and
TLB.  This pass plays the compiler's role: every scalar gets a word, every
array a contiguous block, and every labeled command an instruction slot, so
that the hardware models see realistic spatial locality (several commands per
instruction-cache block, array walks striding through data-cache blocks).

The layout is purely static: it depends only on declared names and the
program text, never on values.  That is essential for the security
properties -- if layout depended on confidential values it would itself be a
channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

from ..lang import ast
from .memory import Memory

WORD_BYTES = 4
#: Bytes reserved per labeled command; 8 bytes approximates a couple of
#: machine instructions, so a 32-byte I-cache block holds 4 commands.
INSTR_BYTES = 8
DATA_BASE = 0x1000_0000
CODE_BASE = 0x0040_0000


@dataclass(frozen=True)
class DataAccess:
    """A resolved data access: a name plus an element index (0 for scalars)."""

    name: str
    index: int = 0


class AccessTrace(NamedTuple):
    """The addresses one evaluation step touches.

    ``instruction`` is the fetch address of the executing command;
    ``reads``/``writes`` are data addresses; ``taken`` is the resolved
    branch outcome for ``if``/``while`` guard steps (None otherwise) -- it
    drives the optional branch-predictor component.  This is the only
    information about a step (besides its read/write labels and any sleep
    duration) that reaches the hardware model.  The branch outcome is a
    function of ``vars1`` values, so including it preserves Property 6's
    discipline: two runs whose ``vars1`` values agree produce identical
    traces.  A named tuple, so that hashing and comparing one (the step
    trie of :mod:`repro.hardware.replay` keys on it) runs in C.
    """

    instruction: int
    reads: Tuple[int, ...] = ()
    writes: Tuple[int, ...] = ()
    taken: Optional[bool] = None


@dataclass
class Layout:
    """Static addresses for a (program, memory-shape) pair."""

    var_addr: Dict[str, int] = field(default_factory=dict)
    array_addr: Dict[str, int] = field(default_factory=dict)
    array_len: Dict[str, int] = field(default_factory=dict)
    instr_addr: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def build(cls, program: ast.Command, memory: Memory) -> "Layout":
        """Lay out ``memory``'s names and ``program``'s commands.

        Scalars come first (sorted, one word each), then arrays (sorted,
        contiguous).  Labeled commands get consecutive instruction slots in
        preorder, mirroring how a compiler would emit them.
        """
        layout = cls()
        addr = DATA_BASE
        for name in sorted(n for n in memory.names() if memory.is_scalar(n)):
            layout.var_addr[name] = addr
            addr += WORD_BYTES
        for name in sorted(n for n in memory.names() if memory.is_array(n)):
            layout.array_addr[name] = addr
            layout.array_len[name] = memory.array_length(name)
            addr += WORD_BYTES * memory.array_length(name)
        code = CODE_BASE
        for cmd in program.walk():
            if isinstance(cmd, ast.LabeledCommand):
                layout.instr_addr[cmd.node_id] = code
                code += INSTR_BYTES
        return layout

    def data_address(self, access: DataAccess) -> int:
        """The byte address of a resolved data access."""
        base, stride = self.placement(access.name)
        return base + stride * access.index

    def placement(self, name: str) -> Tuple[int, int]:
        """``(base, stride)``: element ``i`` of ``name`` lives at
        ``base + stride * i`` (a scalar has stride 0).  The static half of
        :meth:`data_address`, resolved once by compiled code."""
        if name in self.var_addr:
            return self.var_addr[name], 0
        if name in self.array_addr:
            return self.array_addr[name], WORD_BYTES
        raise KeyError(f"name {name!r} has no address in this layout")

    def instruction_address(self, node_id: int) -> int:
        """The fetch address of a labeled command, by node id."""
        try:
            return self.instr_addr[node_id]
        except KeyError:
            raise KeyError(
                f"command node {node_id} was not part of the laid-out program"
            ) from None
