"""Exact arithmetic for hyperfields and their polynomial hyperstructures:
carriers with set-valued addition, coefficient boxes for hyperproducts,
membership/equality certificates, root multiplicities, tropical
factorization, and associativity analysis."""

from .carriers import (ArcSet, CarrierSet, Element, ElementSet, FiniteSet,
                       Hyperfield, IntervalSet, ProbeSpec, UndecidedError,
                       by_name, check_axioms, cyclic_group_table,
                       default_probe, gf, is_doubly_distributive, krasner,
                       load_cayley_table, signs, weak_group, weak_signs)
from .polyalg import (CertStep, EqualCertificate, MemberCertificate, PolyBox,
                      PolyLeaf, Polynomial, ProdNode, Resolved, SumNode,
                      box_hyperadd, box_of, boxprod, boxsum, expr_equal,
                      expr_member, format_expr, format_poly, monic_decompose,
                      parse_expr, parse_poly, replay_member, resolve,
                      resolved_members, scalar_prod, scale_box)
from .divide import (QuotientSet, is_root, linear_for_root, mult_at,
                     mult_set, quotients, tropical_root_points)
from .tropical import (BoxEquivalence, ReducibilityCertificate, RootMultiset,
                       box_equivalence, is_reducible, linear_product_box,
                       root_multiset, trop_hypersum_sorted)
from .assoc import (AssocReport, OnePlusOneReport, PointwiseReport,
                    ScanReport, assoc_check, assoc_scan,
                    one_plus_one_criterion, pointwise_products_equal)
from .repro import ReproResult, format_table, run_all

__version__ = "0.1.0"

__all__ = [
    "ArcSet", "CarrierSet", "Element", "ElementSet", "FiniteSet",
    "Hyperfield", "IntervalSet", "ProbeSpec", "UndecidedError",
    "by_name", "check_axioms", "cyclic_group_table", "default_probe", "gf",
    "is_doubly_distributive", "krasner", "load_cayley_table", "signs",
    "weak_group", "weak_signs",
    "CertStep", "EqualCertificate", "MemberCertificate", "PolyBox",
    "PolyLeaf", "Polynomial", "ProdNode", "Resolved", "SumNode",
    "box_hyperadd", "box_of", "boxprod", "boxsum", "expr_equal",
    "expr_member", "format_expr", "format_poly", "monic_decompose",
    "parse_expr", "parse_poly", "replay_member", "resolve",
    "resolved_members", "scalar_prod", "scale_box",
    "QuotientSet", "is_root", "linear_for_root", "mult_at", "mult_set",
    "quotients", "tropical_root_points",
    "BoxEquivalence", "ReducibilityCertificate", "RootMultiset",
    "box_equivalence", "is_reducible", "linear_product_box",
    "root_multiset", "trop_hypersum_sorted",
    "AssocReport", "OnePlusOneReport", "PointwiseReport", "ScanReport",
    "assoc_check", "assoc_scan", "one_plus_one_criterion",
    "pointwise_products_equal",
    "ReproResult", "format_table", "run_all",
    "__version__",
]
