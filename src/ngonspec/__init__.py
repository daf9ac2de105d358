"""Spectra and invariants of edge-to-polygon graph growth.

Each growth step keeps every edge {i, j} and adds a new path of length n
between i and j, turning the edge into an (n+1)-gon. The package computes
the normalized-Laplacian spectrum of the grown graph directly from the
base spectrum, closed-form invariant chains (multiplicative
degree-Kirchhoff index, Kemeny's constant, spanning-tree count), and
cross-checks everything against a brute-force oracle.
"""

from .graphs import (CapExceededError, Graph, GraphError, GrowthCounts,
                     iterate_transform, make_graph, parse_edge_list,
                     polygon_transform)
from .invariants import (InvariantReport, degree_product,
                         degree_product_closed, exact_invariants,
                         invariants_from_spectrum, kemeny_closed,
                         kirchhoff_closed, spanning_trees_closed)
from .oracle import (ComparisonReport, DenseSymMatrix, compare_spectra,
                     eig_sym, laplacian_matvec, matrix_tree_count,
                     normalized_laplacian)
from .roots import (FamilyKind, RootFamily, RootIsolationError,
                    roots_of_family, solve_lambda_equation, solve_lambda_many)
from .spectrum import (Spectrum, SpectrumEntry, UnderflowError,
                       base_spectrum, iterate_spectrum, lift_eigenvector,
                       transform_spectrum)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError", "ComparisonReport", "DenseSymMatrix", "FamilyKind",
    "Graph", "GraphError", "GrowthCounts", "InvariantReport", "RootFamily",
    "RootIsolationError", "Spectrum", "SpectrumEntry", "UnderflowError",
    "base_spectrum", "compare_spectra", "degree_product",
    "degree_product_closed", "eig_sym", "exact_invariants",
    "invariants_from_spectrum", "iterate_spectrum", "iterate_transform",
    "kemeny_closed", "kirchhoff_closed", "laplacian_matvec",
    "lift_eigenvector", "make_graph", "matrix_tree_count",
    "normalized_laplacian", "parse_edge_list", "polygon_transform",
    "roots_of_family", "solve_lambda_equation", "solve_lambda_many",
    "spanning_trees_closed", "transform_spectrum",
]
