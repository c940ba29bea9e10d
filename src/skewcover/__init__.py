"""Skew group algebras of bound quiver algebras over prime fields:
construction of the basic presentation, the pushdown semi-covering functor
between module categories, and Auslander-Reiten-theoretic verification."""

from .field import PrimeField, solve_linear, nullspace_basis, algebra_radical
from .quiver import Quiver, PathWord, RelationElement, BoundAlgebra, is_gentle, is_skew_gentle, make_path
from .action import AbelianGroup, Character, QuiverAction, character_group, validate_action, orbits_stabilizers, arrow_character
from .skew import SkewAlgebra, SkewContext, SkewPresentation, build_presentation
from .rep import Representation, RepMorphism, HomSpace, hom_basis, twist, is_indecomposable, decompose, is_isomorphic, isomorphism, IsoClasses, match_summands, RadicalCalculator, irr_space, module_stabilizer
from .ar import ARToolkit, AlmostSplitSequence, ARQuiver, almost_split_sequence, knit_ar_quiver, category_rank, RankValue, projective_modules, injective_modules, simple_modules, ar_quiver_dot
from .pushdown import pushdown_module, pushdown_morphism, restrict_G_lambda, GLambda, verify_semi_covering, decompose_pushdown, sequence_stabilizer
from .transport import GluedSequenceSet, pushdown_sequence
from .inputfmt import parse_input, build_input, serialize_presentation, InputDocument
