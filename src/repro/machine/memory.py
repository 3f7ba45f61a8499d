"""Program memory: the ``m`` component of configurations.

Memory maps scalar variable names to integers and array names to fixed-length
integer sequences.  Sec. 3.4 of the paper defines two relations on memories,
both implemented here against a security environment Gamma (a map from names
to labels):

* ``l``-equivalence ``m1 ~l m2``: agreement on every location at level
  ``l`` *or below* -- what an observer at ``l`` can tell apart.
* projected equivalence ``m1 =l= m2``: agreement on locations at *exactly*
  level ``l`` -- the building block of the quantitative definitions.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from ..lattice import Label

ValueSpec = Union[int, Sequence[int]]


class MemoryError_(KeyError):
    """Raised on access to an undeclared variable or an out-of-bounds index."""


class Memory:
    """A store for scalars and arrays.

    The set of names and the array lengths are fixed at construction --
    programs cannot allocate.  This matches the paper's while-language, where
    the variable set is implicit in the program, and keeps the address layout
    (:mod:`repro.machine.layout`) static.
    """

    def __init__(self, values: Mapping[str, ValueSpec] = ()):
        self._scalars: Dict[str, int] = {}
        self._arrays: Dict[str, list] = {}
        for name, spec in dict(values).items():
            if isinstance(spec, bool):
                self._scalars[name] = int(spec)
            elif isinstance(spec, int):
                self._scalars[name] = spec
            else:
                self._arrays[name] = [int(v) for v in spec]

    # -- declaration queries -------------------------------------------------

    def is_scalar(self, name: str) -> bool:
        """Is ``name`` a declared scalar?"""
        return name in self._scalars

    def is_array(self, name: str) -> bool:
        """Is ``name`` a declared array?"""
        return name in self._arrays

    def names(self) -> Tuple[str, ...]:
        """All declared names, scalars then arrays, each sorted."""
        return tuple(sorted(self._scalars)) + tuple(sorted(self._arrays))

    def array_length(self, name: str) -> int:
        """The fixed length of array ``name``."""
        self._require_array(name)
        return len(self._arrays[name])

    def stores(self) -> Tuple[Dict[str, int], Dict[str, list]]:
        """The live scalar and array stores, for compiled code to read and
        write in place.  Names and array lengths never change after
        construction, so code resolved against them stays valid; callers
        may only assign values to existing cells."""
        return self._scalars, self._arrays

    # -- reads and writes -------------------------------------------------------

    def read(self, name: str) -> int:
        """The current value of scalar ``name``."""
        if name not in self._scalars:
            raise MemoryError_(f"undeclared scalar variable {name!r}")
        return self._scalars[name]

    def write(self, name: str, value: int) -> None:
        """Set scalar ``name`` to ``value``."""
        if name not in self._scalars:
            raise MemoryError_(f"undeclared scalar variable {name!r}")
        self._scalars[name] = int(value)

    def read_elem(self, name: str, index: int) -> int:
        """The value of ``name[index]`` (bounds-checked)."""
        self._check_index(name, index)
        return self._arrays[name][index]

    def write_elem(self, name: str, index: int, value: int) -> None:
        """Set ``name[index]`` to ``value`` (bounds-checked)."""
        self._check_index(name, index)
        self._arrays[name][index] = int(value)

    def _require_array(self, name: str) -> None:
        if name not in self._arrays:
            raise MemoryError_(f"undeclared array {name!r}")

    def _check_index(self, name: str, index: int) -> None:
        self._require_array(name)
        if not 0 <= index < len(self._arrays[name]):
            raise MemoryError_(
                f"index {index} out of bounds for array {name!r} "
                f"of length {len(self._arrays[name])}"
            )

    # -- copying and comparison ---------------------------------------------------

    def copy(self) -> "Memory":
        """An independent deep copy of the store."""
        clone = Memory()
        clone._scalars = dict(self._scalars)
        clone._arrays = {k: list(v) for k, v in self._arrays.items()}
        return clone

    def snapshot(self) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
        """An immutable, hashable view of the whole store."""
        items = [(k, (v,)) for k, v in self._scalars.items()]
        items += [(k, tuple(v)) for k, v in self._arrays.items()]
        return tuple(sorted(items))

    def value_of(self, name: str) -> ValueSpec:
        """The value of a scalar, or an array's contents as a tuple."""
        if name in self._scalars:
            return self._scalars[name]
        if name in self._arrays:
            return tuple(self._arrays[name])
        raise MemoryError_(f"undeclared name {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __hash__(self) -> int:
        return hash(self.snapshot())

    def __repr__(self) -> str:
        parts = [f"{k}={v}" for k, v in self._scalars.items()]
        parts += [f"{k}={v}" for k, v in self._arrays.items()]
        return f"Memory({', '.join(parts)})"


def equivalent(
    m1: Memory, m2: Memory, gamma: Mapping[str, Label], level: Label
) -> bool:
    """``m1 ~l m2``: agreement on all locations at ``level`` or below."""
    names = set(m1.names()) | set(m2.names())
    for name in names:
        label = gamma.get(name)
        if label is None:
            raise KeyError(f"no security label for {name!r}")
        if label.flows_to(level) and m1.value_of(name) != m2.value_of(name):
            return False
    return True


def projected_equivalent(
    m1: Memory, m2: Memory, gamma: Mapping[str, Label], level: Label
) -> bool:
    """``m1 =l= m2``: agreement on locations at exactly ``level``."""
    names = set(m1.names()) | set(m2.names())
    for name in names:
        label = gamma.get(name)
        if label is None:
            raise KeyError(f"no security label for {name!r}")
        if label == level and m1.value_of(name) != m2.value_of(name):
            return False
    return True


def memories_agreeing_on(
    m1: Memory, m2: Memory, names: Iterable[str]
) -> bool:
    """Do the two memories agree on the given names (Property 6 premise)?"""
    return all(m1.value_of(name) == m2.value_of(name) for name in names)
