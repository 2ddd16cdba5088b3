"""Exact computational algebra for finite skew braces and their
group-algebra Hopf braces."""

__version__ = "0.1.0"

from .errors import (BraceFileError, CompatibilityError, CrossCheckError,
                     IdentityMismatchError, MorphismError, NormalityError,
                     NotAGroupError, PrimeFieldError, ValidationError)
from .linalg import SparseVector, Subspace, common_nullspace
from .skewbrace import (BraceMap, FiniteGroup, SkewBrace, cyclic_group,
                        dihedral_group, direct_product, opposite_brace,
                        radical_c4_brace, symmetric_group, trivial_brace,
                        validate_skew_brace)
from .hopf import (Element, HopfBrace, PrimeField, RATIONALS, Tensor2,
                   random_element)
from .subobjects import (HopfMorphism, Subbrace, generated_subbrace,
                         hopf_kernel, normal_agreement, quotient,
                         trivial_subbrace, whole_subbrace)
from .series import (CoincidenceReport, NilpotencyReport, SeriesResult,
                     SocleData, coincidence_report, full_abelianization,
                     gamma_series, hopf_center, huq_commutator, left_series,
                     nilpotency_report, relative_commutator, right_series,
                     socle_annihilator, star_abelianization,
                     star_closure_subbrace)
from .extensions import (ExtensionReport, analyze_extension,
                         centrality_consequences, check_central_hopfcoc,
                         check_central_huq)
from .catalog import (BraceDescriptor, builtin_catalog, catalog_names,
                      load_brace, load_map, lookup, resolve, save_brace,
                      save_map)
from .verify import (CheckReport, DEFAULT_SAMPLES, DEFAULT_SEED, SUITES,
                     Violation, verify_hopf_brace_axiom, verify_propositions,
                     verify_star_lemma, verify_structure_identities,
                     verify_suite)

__all__ = [name for name in dir() if not name.startswith("_")]
