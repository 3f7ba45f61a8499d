"""Hypothesis checks of the hardware models' fast paths.

``Cache``/``Tlb`` allocate a set on first use and split addresses with
shift/mask; here they are driven by random operation sequences next to
an eager reference kept in this file (a list of ``OrderedDict`` sets,
``//`` and ``%`` arithmetic), comparing every hit result and snapshot.

``PartitionedHardware`` precomputes, per timing label, which partitions
an access searches and which it evicts from; here those routes are
compared with the lattice computation they replace, on a chain and on a
diamond, including after ``clone()``.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.hardware import (
    Cache, PartitionedHardware, Tlb, paper_machine, tiny_machine,
)
from repro.hardware.interface import StepKind
from repro.lattice import chain, diamond
from repro.machine.layout import CODE_BASE, DATA_BASE, AccessTrace


class Reference:
    """Eager set-associative LRU store: the behaviour the fast path must
    keep."""

    def __init__(self, sets, ways, line_bytes):
        self.sets, self.ways, self.line = sets, ways, line_bytes
        self.lines = [OrderedDict() for _ in range(sets)]

    def _locate(self, address):
        block = address // self.line
        return self.lines[block % self.sets], block // self.sets

    def lookup(self, address):
        lines, tag = self._locate(address)
        return tag in lines

    def touch(self, address):
        lines, tag = self._locate(address)
        if tag in lines:
            lines.move_to_end(tag)
            return True
        if len(lines) >= self.ways:
            lines.popitem(last=False)
        lines[tag] = None
        return False

    def evict(self, address):
        lines, tag = self._locate(address)
        if tag in lines:
            del lines[tag]
            return True
        return False

    def flush(self):
        for lines in self.lines:
            lines.clear()

    def clone(self):
        twin = Reference(self.sets, self.ways, self.line)
        twin.lines = [OrderedDict(lines) for lines in self.lines]
        return twin

    def state(self):
        return tuple(tuple(lines) for lines in self.lines)


def _components():
    """Every cache and TLB geometry of the paper and tiny machines."""
    out = []
    for machine in (paper_machine(), tiny_machine()):
        for params in (machine.l1_data, machine.l2_data, machine.l1_inst,
                       machine.l2_inst):
            out.append((Cache, params, params.block_bytes))
        for params in (machine.data_tlb, machine.inst_tlb):
            out.append((Tlb, params, params.page_bytes))
    return out


COMPONENTS = _components()
OPS = ("touch", "touch", "lookup", "evict", "flush", "clone")


@st.composite
def scenarios(draw):
    cls, params, line = draw(st.sampled_from(COMPONENTS))
    # Addresses that collide in a few sets (so ways fill and evict) mixed
    # with arbitrary ones across the data and code regions.
    span = params.sets * line
    colliding = st.builds(
        lambda base, k, off: base + k * span + off,
        st.sampled_from([0, DATA_BASE, CODE_BASE]),
        st.integers(0, params.ways + 2),
        st.integers(0, 3 * line),
    )
    anywhere = st.integers(0, DATA_BASE + (1 << 16))
    address = st.one_of(colliding, anywhere)
    ops = draw(st.lists(st.tuples(st.sampled_from(OPS), address),
                        min_size=1, max_size=80))
    return cls, params, line, ops


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_lazy_sets_match_the_eager_reference(scenario):
    cls, params, line, ops = scenario
    subject = cls(params)
    reference = Reference(params.sets, params.ways, line)
    retired = []
    for op, address in ops:
        if op == "clone":
            # Continue on the clones; the originals must stay frozen.
            retired.append((subject, reference.state()))
            subject, reference = subject.clone(), reference.clone()
        elif op == "flush":
            subject.flush()
            reference.flush()
        else:
            assert getattr(subject, op)(address) == \
                getattr(reference, op)(address), (op, address)
        assert subject.state() == reference.state()
    assert subject.occupancy() == sum(len(s) for s in reference.lines)
    for original, frozen in retired:
        assert original.state() == frozen


LATTICES = [chain(("L", "M", "H")), diamond()]

#: Per side, (route fields, hierarchy component) for each component.
SIDES = {
    False: ((("tlb", "tlbs", "tlbs_above"), "data_tlb"),
            (("l1", "l1s", "l1s_above"), "l1_data"),
            (("l2", "l2s", "l2s_above"), "l2_data")),
    True: ((("tlb", "tlbs", "tlbs_above"), "inst_tlb"),
           (("l1", "l1s", "l1s_above"), "l1_inst"),
           (("l2", "l2s", "l2s_above"), "l2_inst")),
}


def _same(got, expected):
    return len(got) == len(expected) and all(
        a is b for a, b in zip(got, expected))


def _check_routes(env):
    """Every precomputed route is the per-access lattice walk it
    replaces, over this environment's own components (in order)."""
    levels = env.lattice.levels()
    for label in levels:
        below = [p for p in levels if p.flows_to(label)]
        above = [q for q in levels if q != label and label.flows_to(q)]
        for instruction, components in SIDES.items():
            route = env._routes[label][instruction]
            for (own, searched, evicted), name in components:
                def of(ls):
                    return [getattr(env.partitions[p], name) for p in ls]
                assert getattr(route, own) is of([label])[0]
                assert _same(getattr(route, searched), of(below))
                assert _same(getattr(route, evicted), of(above))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(LATTICES),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                       st.integers(0, 64), st.booleans()),
             min_size=1, max_size=40),
    st.integers(0, 40),
)
def test_partitioned_routes_match_the_lattice(lattice, steps, cut):
    levels = lattice.levels()
    env = PartitionedHardware(lattice, tiny_machine())
    replay = PartitionedHardware(lattice, tiny_machine())
    _check_routes(env)
    for n, (lr, lw, slot, write) in enumerate(steps):
        if n == cut:
            env = env.clone()
            _check_routes(env)
        read_label = levels[lr % len(levels)]
        write_label = levels[lw % len(levels)]
        address = DATA_BASE + 4 * slot
        trace = AccessTrace(CODE_BASE + 8 * (slot % 8),
                            reads=() if write else (address,),
                            writes=(address,) if write else ())
        assert env.step(StepKind.ASSIGN, trace, read_label, write_label) \
            == replay.step(StepKind.ASSIGN, trace, read_label, write_label)
        assert env.full_state() == replay.full_state()
