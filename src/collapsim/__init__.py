"""Exact small-dimension quantum measurement simulation with pluggable
collapse policies, plus experiment harnesses built on top of them."""

from .agent import (
    AgentTrace,
    AlternativeSet,
    NormFunction,
    act,
    attention,
    born_reference,
    robot_act,
    selection,
)
from .behavior import (
    EventSequence,
    PatternReport,
    classify,
    generate_sequence,
    tail_exponent,
)
from .energy import EnergyAudit, Hamiltonian, audit_measurement, commutation_check, energy_expectation
from .errors import (
    AllZeroPriorities,
    BadParameter,
    CollapsimError,
    ConfigError,
    DegenerateSequence,
    DimensionMismatch,
    ForbiddenOutcome,
    InvalidTable,
    LengthMismatch,
    NoAdmissibleAlternative,
    TooLarge,
    ZeroVector,
)
from .kochen_specker import (
    ColoringResult,
    Context,
    KSTable,
    Ray,
    builtin_ks_table,
    fwt_trial,
    ks_coloring_search,
    parity_certificate,
    twin_state,
    validate_table,
)
from .policies import (
    Biased,
    Born,
    CollapsePolicy,
    Forced,
    OutcomeSample,
    Scripted,
    deviation_statistic,
    parse_policy,
    policy_distribution,
)
from .quantum import (
    DensityOperator,
    ProbabilityDistribution,
    ProjectiveMeasurement,
    StateVector,
    born_distribution,
    collapse,
    make_state,
    nonselective_update,
)
from .sat import (
    OracleFunction,
    SatResult,
    build_sat_state,
    classical_brute_force,
    decide_sat,
)
from .signaling import SignalingReport, bob_marginal_analytic, channel_capacity, signaling_experiment

__version__ = "0.1.0"
