"""Spectra and invariants of edge-to-polygon graph growth.

Each growth step keeps every edge {i, j} and adds a new path of length n
between i and j, turning the edge into an (n+1)-gon. The package computes
the normalized-Laplacian spectrum of the grown graph directly from the
base spectrum, closed-form invariant chains (multiplicative
degree-Kirchhoff index, Kemeny's constant, spanning-tree count), and
cross-checks everything against a brute-force oracle.
"""

from .aseries import ASeriesPoly, coeffs_a, eval_a, linear_combination
from .graphs import (CapExceededError, Graph, GraphError, GrowthCounts,
                     iterate_transform, make_graph, parse_edge_list,
                     polygon_transform, predict_counts)
from .invariants import (InvariantReport, degree_product,
                         degree_product_closed, exact_invariants,
                         invariants_from_spectrum, kemeny_closed,
                         kirchhoff_closed, spanning_trees_closed)
from .oracle import (ComparisonReport, DenseSymMatrix, compare_spectra,
                     eig_sym, laplacian_matvec, matrix_tree_count,
                     normalized_laplacian)
from .roots import (FamilyKind, RootFamily, RootIsolationError, RootSet,
                    family_polynomial, lambda_polynomial, roots_of_family,
                    solve_lambda_equation, solve_lambda_many, vieta_sums)
from .spectrum import (Spectrum, SpectrumContext, SpectrumEntry,
                       base_spectrum, iterate_spectrum, lift_eigenvector,
                       transform_spectrum)

__version__ = "0.1.0"

__all__ = [
    "ASeriesPoly", "CapExceededError", "ComparisonReport", "DenseSymMatrix",
    "FamilyKind", "Graph", "GraphError", "GrowthCounts", "InvariantReport",
    "RootFamily", "RootIsolationError", "RootSet", "Spectrum",
    "SpectrumContext", "SpectrumEntry", "base_spectrum", "coeffs_a",
    "compare_spectra", "degree_product", "degree_product_closed", "eig_sym",
    "eval_a", "exact_invariants", "family_polynomial",
    "invariants_from_spectrum", "iterate_spectrum", "iterate_transform",
    "kemeny_closed", "kirchhoff_closed", "lambda_polynomial",
    "laplacian_matvec", "lift_eigenvector", "linear_combination",
    "make_graph", "matrix_tree_count", "normalized_laplacian",
    "parse_edge_list", "polygon_transform", "predict_counts",
    "roots_of_family", "solve_lambda_equation", "solve_lambda_many",
    "spanning_trees_closed", "transform_spectrum", "vieta_sums",
]
