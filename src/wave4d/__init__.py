"""Numerical laboratory for the multi-soliton machinery of the focusing
cubic wave equation in four space dimensions: stationary states and their
symmetry group, linearized spectral theory, interaction decay laws,
modulation decomposition, refined energy functionals, and a cylindrical and
radial finite-difference evolver with bootstrap monitors."""

from .fields import (FieldPair, FormulaField, Grid2DCyl, PolyRadialField,
                     SampledField, ScalarField, hardy_sobolev_check,
                     inner_hdot1, inner_l2, inner_pair_h, inner_pair_l2,
                     load_field, load_field_csv, norm_pair, save_field)
from .quadrature import QuadratureResult, QuadratureSpec, integrate_callable
from .states import (GENERATOR_IDS, SurrogateSpec, TransformParams,
                     apply_transform, dilate, ground_state, kelvin,
                     kernel_basis, rotate, surrogate_excited_state,
                     symmetry_generator, translate)

__version__ = "0.1.0"
