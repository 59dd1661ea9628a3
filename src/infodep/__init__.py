"""Exact engine for finite information-field models.

Configuration spaces, information fields as atom partitions, conditional
precedence and topological separation, closed-loop solvability and
causality, and exact-rational verification of the one-rule do-calculus.
"""

from .fieldcore import (
    ConfigSet,
    ConfigSpace,
    Configuration,
    CoordinateMask,
    FieldcoreError,
    FiniteSpace,
    Partition,
    SpaceMismatchError,
    field_subset_witness,
    partition_from_codes,
    partition_from_mask,
    partition_from_observation,
)
from .model import (
    Dag,
    InformationField,
    InterventionSpec,
    ModelError,
    ModelMeta,
    Prior,
    ScmSpec,
    ValidationReport,
    WModel,
    builtin,
    builtin_names,
    dag_to_idm,
    extend_profile,
    intervene,
    scm_to_idm,
    validate_model,
)
from .precedence import (
    PrecedenceRelation,
    SeparationCertificate,
    Splitting,
    closure,
    is_closed,
    precedes,
    precedes_oracle,
    topologically_separated,
)
from .solvability import (
    CausalOrdering,
    CausalityCheck,
    FactorizationCertificate,
    FactorizationReport,
    InvalidCertificateError,
    Policy,
    PolicyProfile,
    SolutionMap,
    SolvabilityVerdict,
    UnsolvableProfileError,
    check_causal_ordering,
    enumerate_policies,
    find_causal_ordering,
    is_model_solvable,
    policy_count,
    sample_policies,
    sample_profiles,
    solve,
    verify_factorization,
)
from .probability import (
    CIResult,
    CondQuery,
    ConditionalTable,
    DoCalculusReport,
    ExactDist,
    Table1Result,
    ZeroMassContextError,
    cond_independent,
    conditional,
    display_3dec,
    project_dist,
    pushforward,
    reproduce_table1,
    restrict,
    verify_docalculus,
)
from .dsep import (
    DsepQuery,
    HarnessReport,
    d_separated,
    d_separated_oracle,
    equivalence_harness,
    random_dag,
)

__version__ = "0.1.0"
