"""Antipodal integer metric spaces: membership, completion, expansion, witnesses.

The package works with finite edge-labelled graphs (partial integer metric
spaces with a diameter bound).  It decides membership in the antipodal
triangle-constraint families, folds and unfolds along the matching of
longest edges, completes partial structures canonically, builds the
valuation-marked expansions that make parity choices definable, lifts partial
automorphisms to the marked level, and verifies or searches extension-property
witnesses at desk scale.  The ``antipodal`` command line exposes the same
operations on a line-oriented file format.
"""

from .completion import (BoundSearch, CycleSpec, FViolation, OrientationSet,
                         ParityFunction, antipodal_complete, check_f_conditions,
                         find_non_metric_cycle, forbidden_cycle_oracle,
                         local_finiteness_bound, shortest_path_completion)
from .errors import (AntipodalError, CompletionError, CompletionNotEquivariant,
                     FormatError, InputError, InternalError, NonMetricCycleError,
                     PreconditionError, SizeLimitError)
from .extension import (GammaPartialAutomorphism, PipelineResult, WitnessReport,
                        compatible_language_parts, expand_witness,
                        extend_partial_automorphism, gamma_automorphisms,
                        gamma_partial_automorphisms, pipeline, search_witness,
                        verify_eppa_witness, verify_irreducible_faithful,
                        witness_candidates)
from .membership import (ClassDescriptor, DeltaMatching, GeneralClassDescriptor,
                         Variant, antipodal_closure, delta_matching,
                         find_forbidden_triple, fold, is_forbidden_triangle,
                         is_member, parity_parts, unfold)
from .structures import (Automorphism, EdgeLabelledGraph, PartialMap, Vertex,
                         automorphisms, is_completion_of, is_irreducible,
                         partial_automorphisms)
from .valuations import (FlipSet, GammaLStructure, IndexPermutation,
                         LanguagePermutation, ValuationFunction,
                         build_suitable_expansion, closure, compose,
                         f_from_marks, flip_permute, invert,
                         is_suitable_expansion, pad_bipartition,
                         suitable_expansion_violations)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
