"""Exact design-strength verification for codes, lattices and graded traces.

The package computes with truncated q-expansions over exact rationals and
uses them to decide combinatorial, spherical and conformal design properties
of the homogeneous pieces of the associated structures.
"""

from .errors import (CapExceededError, DesignLabError, FixtureError,
                     OffsetError, PrecisionError)
from .qseries import QSeries
from .modforms import (FitResult, ModFormSpace, delta_eisenstein, delta_eta,
                       eisenstein, eta, eta_quotient, factorize, fit_in_space,
                       mf_basis, mf_dim, ord_p, ramanujan_tau, sigma)
from .codes import (AntisymmetryReport, BinaryCode, BlockFamily,
                    DiscreteHarmonic, DivisibilityReport, LambdaResult,
                    TwoWeightReport, antisymmetry_check, code_from_rows,
                    code_from_text, d16_plus, delsarte_design_check,
                    design_lambda, direct_sum, divisibility_structure_check,
                    golay_g24, hamming_e8, harm_basis, harm_dim,
                    harmonic_family_sums, harmonic_weight_enumerator,
                    is_doubly_even, is_self_dual, min_weight, shell,
                    two_weight_design_check, weight_distribution)
from .lattices import (HarmonicPolynomial, Lattice, MembershipReport,
                       MomentReport, Shell, TDesignReport, ThetaDesignReport,
                       constant_poly, construction_a, determinant,
                       gegenbauer_component_sums, gram_from_text,
                       harmonic_theta, is_even, lattice_a2, lattice_e8,
                       lattice_zn, moment_design_test, shell_enum,
                       shell_sizes_up_to, sphere_moment,
                       spherical_T_design_report, theta_design_report,
                       theta_membership_check, to_modular_q,
                       zonal_harmonic_coords, zonal_shell_sum)
from .voa import (ConformalTSet, LehmerScan, ObstructionResult,
                  ProportionalityCertificate, Remark4Report, StrengthReport,
                  TraceSeries, a_series, b_series, certified_zonal_trace,
                  conformal_T_set, graded_trace, lehmer_scan,
                  modular_obstruction, ord_criterion, remark4_series,
                  strength_at)

__version__ = "0.1.0"
