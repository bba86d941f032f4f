"""Kite algebras over partially ordered groups, with bounded machine checks.

The package builds the two-layer partial algebras obtained by stacking
coordinate tuples of a po-group's negative cone over tuples of its positive
cone, twisting the mixed addition by two index bijections. Everything a
theorem asserts about these algebras is re-checked here on finite windows:
the partial-addition axioms, the eight MV-style axioms when the base is a
lattice, Riesz decomposition properties with constructive witnesses, the
perfect split and its unique two-valued state, normal ideals and orbit
connectivity, canonical shapes, and window isomorphisms onto interval
algebras of twisted lexicographic groups.
"""

from .axioms import (Algebra, PerfectSplit, StateTable, check_commutative,
                     check_pea_axioms, check_pmv_axioms, check_symmetric,
                     find_infinitesimals, perfect_split, unique_state)
from .ideals import (IdealSet, OrbitReport, canonical_form, ideal_closure,
                     is_normal, least_normal_ideal, least_o_ideal,
                     normal_ideal_generated, orbits, phi_o_ideal)
from .kite import Kite, KiteElement, KiteShape, LOWER, UPPER
from .pogroup import (CapabilityError, Elem, Integers, PoGroup,
                      PositiveCone, Product, StrictCone2, TwistedLexGroup,
                      UsageError, Window, check_directed, check_group_laws,
                      cone_window, enumerate_interval, enumerate_window,
                      integer_product, parse_group, window_sample)
from .representations import (IntervalPEA, MapSpec, check_strong_unit,
                              mapspec_family, perfect_representation,
                              scrimger_fixture, stored_mapspec,
                              twisted_lex_group, verify_iso)
from .riesz import (RdpLevel, RefinementTable, check_com, check_rdp_level,
                    find_interpolant, find_refinement,
                    kite_rdp0_split_constructive,
                    kite_refinement_constructive, rdp0_split)
from .verdict import Status, Tally, Verdict

__version__ = "0.1.0"

__all__ = [
    "Algebra", "CapabilityError", "Elem", "IdealSet", "Integers",
    "IntervalPEA", "Kite", "KiteElement", "KiteShape", "LOWER", "MapSpec",
    "OrbitReport", "PerfectSplit", "PoGroup", "PositiveCone", "Product",
    "RdpLevel", "RefinementTable", "StateTable", "Status", "StrictCone2",
    "Tally", "TwistedLexGroup", "UPPER", "UsageError", "Verdict", "Window",
    "canonical_form", "check_com", "check_commutative", "check_directed",
    "check_group_laws", "check_pea_axioms", "check_pmv_axioms",
    "check_rdp_level", "check_strong_unit", "check_symmetric",
    "cone_window", "enumerate_interval", "enumerate_window",
    "find_infinitesimals", "find_interpolant", "find_refinement",
    "ideal_closure", "integer_product", "is_normal",
    "kite_rdp0_split_constructive", "kite_refinement_constructive",
    "least_normal_ideal", "least_o_ideal", "mapspec_family",
    "normal_ideal_generated", "orbits", "parse_group",
    "perfect_representation", "perfect_split", "phi_o_ideal", "rdp0_split",
    "scrimger_fixture", "stored_mapspec", "twisted_lex_group",
    "unique_state", "verify_iso", "window_sample",
]
