"""Skein-relation invariants of welded and extended welded links."""

from weldskein.algebra import (DeltaFraction, LaurentPoly, Polynomial, delta,
                               divide_by_delta, parse_fraction,
                               parse_polynomial, to_alpha_beta)
from weldskein.diagram import (ClassicalCrossing, Diagram, Tangle,
                               VirtualCrossing, Wen, components,
                               disjoint_union, parse, parse_tangle, serialize,
                               validate, virtual_writhe, wen_count, writhe)
from weldskein.moves import MoveKind, MoveSite, apply_move, enumerate_sites, scramble
from weldskein.skein import (CoefficientSystem, State, WenError, bracket,
                             state_sums, state_value, y_invariant)
from weldskein.verifier import (Constraint, ConstraintSet, TangleBracket,
                                close, constraints_for, kink_coefficients,
                                move_constraints, tangle_bracket,
                                verify_solution)

__version__ = '0.1.0'
