"""Homomorphism complexes of maximal chains in graded posets.

Builds Hom(C_m, P) for graded posets P, runs the discrete Morse matching on
products of chains, and certifies the structural properties (cubicality,
acyclicity, the critical-cell bijection, vanishing Morse incidences,
torsion-free homology, Euler-characteristic identities) by independent
brute-force computation.
"""

from .posets import (
    CapExceeded,
    FinitePoset,
    GradedPoset,
    antichain,
    chain,
    chain_factors,
    delete_element,
    disjoint_union,
    find_folds,
    ideal_lattice,
    parse_poset_text,
    product,
    product_of_chains,
)
from .words import (
    CellWord,
    ChainSpec,
    as_spec,
    cellword,
    count_critical_rst,
    critical_pairs,
    descents,
    enumerate_words,
    parse_cellword,
    render_cellword,
    signed_faces,
)
from .complexes import (
    CellComplex,
    cellword_to_multihom,
    chain_product_complex,
    hom_complex_generic,
    is_cubical,
    maximal_chain_complex,
)
from .morse import (
    AcyclicityError,
    MorseMatching,
    SpecMatchContext,
    check_critical_structure,
    check_fiber_monotonicity,
    critical_cells,
    fiber_trace,
    loop_schedule,
    match_product_of_chains,
    validate_acyclic,
)
from .chains import (
    ComplexMatchContext,
    HomologyReport,
    check_squared,
    homology,
    involution_partner,
    morse_complex,
    path_censuses,
    smith_normal_form,
    verify_fold_consequence,
)
from .euler import euler_closed_form, euler_formula, euler_recursion, euler_table, f_vector_bn

__all__ = [name for name in dir() if not name.startswith("_")]
