"""Unit tests for security lattices (repro.lattice)."""

import pytest

from repro.lattice import Lattice, LatticeError, chain, diamond, powerset, two_point


class TestTwoPoint:
    def test_levels(self):
        lat = two_point()
        assert {l.name for l in lat} == {"L", "H"}

    def test_order(self):
        lat = two_point()
        assert lat["L"].flows_to(lat["H"])
        assert not lat["H"].flows_to(lat["L"])

    def test_reflexive(self):
        lat = two_point()
        for level in lat:
            assert level.flows_to(level)

    def test_bottom_top(self):
        lat = two_point()
        assert lat.bottom == lat["L"]
        assert lat.top == lat["H"]

    def test_join_meet(self):
        lat = two_point()
        assert lat.join(lat["L"], lat["H"]) == lat["H"]
        assert lat.meet(lat["L"], lat["H"]) == lat["L"]

    def test_operator_sugar(self):
        lat = two_point()
        assert (lat["L"] | lat["H"]) == lat["H"]
        assert (lat["L"] & lat["H"]) == lat["L"]
        assert lat["L"] <= lat["H"]
        assert lat["L"] < lat["H"]
        assert lat["H"] >= lat["L"]
        assert lat["H"] > lat["L"]


class TestChain:
    def test_three_level_order(self):
        lat = chain(("L", "M", "H"))
        assert lat["L"] < lat["M"] < lat["H"]
        assert lat["L"] < lat["H"]

    def test_is_chain(self):
        assert chain(("a", "b", "c", "d")).is_chain()
        assert not diamond().is_chain()

    def test_single_element(self):
        lat = chain(("only",))
        assert lat.bottom == lat.top == lat["only"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chain(())

    @pytest.mark.parametrize("names", [("L", "H", "L"), ("L", "L"),
                                       ("L", "", "H"), ("",)])
    def test_repeated_or_empty_names_rejected(self, names):
        # A repeat would close a cycle (L,H,L) or merge levels (L,L).
        with pytest.raises(LatticeError, match="non-empty and distinct"):
            chain(names)


class TestDiamond:
    def test_incomparable_middles(self):
        lat = diamond()
        m1, m2 = lat["M1"], lat["M2"]
        assert not m1.flows_to(m2)
        assert not m2.flows_to(m1)

    def test_join_of_middles_is_top(self):
        lat = diamond()
        assert lat.join(lat["M1"], lat["M2"]) == lat["H"]

    def test_meet_of_middles_is_bottom(self):
        lat = diamond()
        assert lat.meet(lat["M1"], lat["M2"]) == lat["L"]


class TestPowerset:
    def test_size(self):
        lat = powerset(["a", "b", "c"])
        assert len(lat) == 8

    def test_subset_order(self):
        lat = powerset(["a", "b"])
        assert lat["{a}"].flows_to(lat["{a,b}"])
        assert not lat["{a}"].flows_to(lat["{b}"])

    def test_join_is_union(self):
        lat = powerset(["a", "b"])
        assert lat.join(lat["{a}"], lat["{b}"]) == lat["{a,b}"]

    def test_meet_is_intersection(self):
        lat = powerset(["a", "b"])
        assert lat.meet(lat["{a}"], lat["{a,b}"]) == lat["{a}"]

    def test_bottom_is_empty_set(self):
        lat = powerset(["a", "b"])
        assert lat.bottom.name == "{}"


class TestConstruction:
    def test_cycle_rejected(self):
        with pytest.raises(LatticeError, match="cycle"):
            Lattice(("a", "b"), (("a", "b"), ("b", "a")))

    def test_non_lattice_rejected(self):
        # Two maximal elements: no join for the two bottoms' cover targets.
        with pytest.raises(LatticeError):
            Lattice(("a", "b", "c", "d"),
                    (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")))

    def test_unknown_cover_element(self):
        with pytest.raises(LatticeError, match="unknown element"):
            Lattice(("a",), (("a", "zzz"),))

    def test_empty_rejected(self):
        with pytest.raises(LatticeError):
            Lattice((), ())

    def test_duplicate_names_collapse(self):
        lat = Lattice(("a", "a", "b"), (("a", "b"),))
        assert len(lat) == 2

    def test_unknown_level_lookup(self):
        lat = two_point()
        with pytest.raises(KeyError, match="no level named"):
            lat["X"]

    def test_contains(self):
        lat = two_point()
        assert "L" in lat
        assert "X" not in lat


class TestCrossLattice:
    def test_labels_from_different_lattices_rejected(self):
        a, b = two_point(), two_point()
        with pytest.raises(LatticeError, match="different lattice"):
            a.leq(a["L"], b["H"])

    def test_equality_is_per_lattice(self):
        a, b = two_point(), two_point()
        assert a["L"] != b["L"]
        assert a["L"] == a["L"]

    def test_labels_are_interned(self):
        # Equality and hashing are identity: one label object per level.
        lat = chain(("L", "M", "H"))
        assert lat["M"] is lat["M"] is lat.levels()[1]
        assert lat.join(lat["L"], lat["M"]) is lat["M"]
        assert {lat["H"]: 1}[lat.top] == 1


class TestDerivedOperators:
    def test_observable_by(self):
        lat = chain(("L", "M", "H"))
        assert lat.observable_by(lat["M"]) == frozenset({lat["L"], lat["M"]})

    def test_exclude_observable(self):
        # Paper example (Sec. 6.2): L g M g H, adversary M, L = {M, H}.
        lat = chain(("L", "M", "H"))
        result = lat.exclude_observable([lat["M"], lat["H"]], lat["M"])
        assert result == frozenset({lat["H"]})

    def test_upward_closure_paper_example(self):
        # Sec. 6.3: L = {M}, adversary L: closure is {M, H}.
        lat = chain(("L", "M", "H"))
        excluded = lat.exclude_observable([lat["M"]], lat["L"])
        assert lat.upward_closure(excluded) == frozenset(
            {lat["M"], lat["H"]}
        )

    def test_upward_closure_empty(self):
        lat = two_point()
        assert lat.upward_closure([]) == frozenset()

    def test_downward_closure(self):
        lat = diamond()
        down = lat.downward_closure([lat["M1"]])
        assert down == frozenset({lat["L"], lat["M1"]})

    def test_join_all_empty_is_bottom(self):
        lat = two_point()
        assert lat.join_all([]) == lat.bottom

    def test_meet_all_empty_is_top(self):
        lat = two_point()
        assert lat.meet_all([]) == lat.top


class TestProduct:
    def test_product_size(self):
        lat = two_point().product(two_point())
        assert len(lat) == 4

    def test_product_order(self):
        lat = two_point().product(two_point())
        assert lat["L*L"].flows_to(lat["H*H"])
        assert not lat["L*H"].flows_to(lat["H*L"])

    def test_product_is_lattice(self):
        lat = two_point().product(chain(("L", "M", "H")))
        assert lat.join(lat["H*L"], lat["L*M"]) == lat["H*M"]
