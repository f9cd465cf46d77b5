"""ldpkit: free energies, conjugates, and rate-function checks on the line.

The package estimates scaled log-moment (free-energy) functions along nets
of finite-support sub-probability measures, computes classical and abstract
Legendre-Fenchel conjugates on grids, builds empirical local rate functions,
and mechanically checks the derivative-range conditions under which a vague
or narrow large deviation principle holds.
"""

from .conjugate import abstract_lf, stable_abstract_lf
from .convex import (
    DerivativeRange,
    GridFunction,
    brute_force_conjugate,
    convex_lsc_hull,
    conv_lemma_check,
    derivative_range,
    essential_smoothness_check,
    inf_over_open,
    lf_transform,
    load_grid_csv,
    save_grid_csv,
)
from .free_energy import (
    FamilyTable,
    L_from_table,
    LimitEstimate,
    WindowSpec,
    lambda_family_table,
    lambda_of,
    window_for_t_range,
)
from .measures import (
    FiniteSupportMeasure,
    RegionSet,
    ScaledMeasureNet,
    bernoulli_half_base,
    coin_example_net,
    demzei_example_net,
    iid_mean_example_net,
)
from .scenario import Scenario, load_scenario
from .pipeline import run_free_energy, run_scenario
from .tilts import (
    TiltFamily,
    TiltFunction,
    explicit_family,
    family_union,
    linear_family,
    q_bump_tilt,
    qn_family,
    two_slope_family,
)
from .verifier import (
    RangeTargets,
    RateFunctionEstimate,
    conjugate_consistency_check,
    derivative_bound_scan,
    exponential_tightness_check,
    ldp_bounds_check,
    range_condition_check,
    rate_comparison,
    rate_grid,
    sandwich_check,
    vague_ldp_check,
    varadhan_identity_check,
)

__version__ = "0.1.0"
