"""Exact product-set growth toolkit over finite groups.

Everything size-like is an integer and every inequality is checked in
integer or rational arithmetic; ledgers collect the checks row by row.
"""

from .constants import (
    chain_exponent,
    cover_poly_value,
    positive_power_exponent,
    word_exponent,
)
from .exact import ceil_isqrt, ceil_sqrt_frac, frac
from .families import (
    FAMILY_NAMES,
    SetFamilySpec,
    generate_set,
    measured_difference_ratio,
    measured_tripling,
)
from .groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    FiniteGroup,
    NormalSubgroupView,
    NotNormalError,
    QuotientGroup,
    SymmetricGroup,
    construct_group,
    quotient_map,
    subgroup_closure,
    verify_group_axioms,
)
from .setops import (
    ConvolutionProfile,
    EnergyValue,
    MSet,
    RuzsaDistanceValue,
    convolution,
    energy,
    energy_quadruple_count,
    inverse_set,
    partial_product,
    power_set,
    product_set,
    ruzsa_distance,
    symmetrize,
    translate_left,
    translate_right,
)
from .structure import (
    ApproxGroupWitness,
    ConstantLedger,
    LedgerError,
    LedgerRow,
    SymmetricCore,
    approx_group_from_tripling,
    classify_small_doubling,
    local_tripling_check,
    ruzsa_cover,
    symmetric_core,
    tripling_chain,
    verify_approx_group,
)
from .bsg import (
    BsgExtract,
    EnergyEquivalenceWitness,
    WeakBsgResult,
    bsg_extract,
    energy_equivalences,
    weak_bsg,
)
from .entropy import (
    CoverResult,
    MetricCloud,
    ProfileReport,
    QuaternionGroup,
    TorusGroup,
    TriplingEntropyReport,
    WordMetricGroup,
    approx_energy,
    arc_union_measure,
    build_entropy_report,
    covering_number,
    entropy_tripling_check,
    metric_profile_check,
    separated_set,
)
from .heisenberg import (
    AbelianApproxWitness,
    ExactSplit,
    HeisenbergGroup,
    PairingSpec,
    SplitWitness,
    build_heisenberg,
    exact_split_oracle,
    heisen_inverse,
    hull_tripling_bound,
    parse_pairing_spec,
    split_approximate,
    verify_inverse_converse,
)
from .suites import (
    Report,
    ReportRow,
    SuiteConfig,
    SuiteJob,
    SUITE_NAMES,
    default_config,
    emit_report,
    parse_suite_config,
    run_named_suite,
    run_suite,
)

__version__ = "0.1.0"
