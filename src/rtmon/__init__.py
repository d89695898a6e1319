"""Role-based trust policies with integrity-constraint monitoring.

The library evaluates role membership for delegation-style policies,
decides which policy changes can possibly violate a registered containment
constraint, and -- when only some participants report their changes --
falls back to sound lower/upper-bound reasoning.
"""

from .model import (
    EVERY_ROLE,
    TOP,
    ChangeEvent,
    ChangeKind,
    Constraint,
    IntersectionExpr,
    IntersectionInclusion,
    LinkingInclusion,
    PolicyState,
    PositiveRoleExpr,
    Principal,
    PrincipalSet,
    Role,
    RoleMonitor,
    RoleName,
    RoleRef,
    SimpleInclusion,
    SimpleMember,
    Statement,
    UnionExpr,
    roles_of,
)
from .engine import (
    ConstraintCheck,
    SemanticsIndex,
    check_constraint,
    eval_expr,
    evaluate,
    role_members,
)
from .deps import (
    JustifiedEntry,
    JustifiedSemantics,
    NoSupport,
    credential_support_for_constraint,
    gamma,
    gamma_expr,
    justified_semantics,
    support_for_constraint,
)
from .analysis import (
    BoundIndex,
    BoundedCheck,
    CoreSet,
    bounds,
    check_bounded_containment,
    core,
    gamma_restricted_expr,
    lower_bound,
    upper_bound,
)
from .monitor import (
    FullTrust,
    FullTrustCredential,
    MonitorRecord,
    MonitorWarning,
    RecordStatus,
    RestrictedTrust,
    SessionResult,
    WarningCause,
    WarningOutcome,
    classify,
    register,
    run_session,
)
from .parser import (
    ParseError,
    ParseErrorKind,
    SourceSpan,
    parse_changelog,
    parse_constraint,
    parse_constraints,
    parse_expr,
    parse_monitor,
    parse_policy,
    parse_statement,
    serialize_changelog,
    serialize_constraint,
    serialize_expr,
    serialize_monitor,
    serialize_policy,
    serialize_statement,
)

__version__ = "0.1.0"
