"""soma_kit: knowledge-representation and activity-interpretation toolkit.

A two-branch concept model (physical and social branches linked by
classification), an Allen interval-algebra reasoner, plan-as-grammar
activity parsing over event tokens, disposition-based object selection, and
a force-dynamics classifier.
"""

from .allen import (
    BaseRelation,
    ConcreteInterval,
    ConstraintNetwork,
    PropagationResult,
    RelationSet,
    compose,
    compose_base,
    converse,
    relation_from_endpoints,
)
from .activity import (
    Binding,
    ConditionalSuccedence,
    Description,
    EventTypeRef,
    Goal,
    GoalResult,
    PhaseConstraint,
    Situation,
    ValidationIssue,
    check_goal,
    compile_constraints,
    interpretation_square_violations,
    validate_description,
)
from .grounding import (
    ForceExpression,
    ForceOutcome,
    Scene,
    StrongerEntity,
    Tendency,
    force_outcome,
    select_objects,
)
from .ontology import (
    And,
    Concept,
    ConceptKind,
    Entity,
    EntityKind,
    HasDisposition,
    KindIs,
    OntologyStore,
    Or,
    Quality,
    RegionWithin,
    Restriction,
    TypeTagIn,
)
from .parsing import (
    CompiledLibrary,
    Episode,
    Interpretation,
    RawEvent,
    Token,
    TokenClass,
    parse,
    rank,
    tokenize,
    verify_interpretation,
)
from .formats import (
    FORMAT_VERSION,
    dumps_canonical,
    load_episode,
    load_library,
    serialize_episode,
    serialize_library,
)

__version__ = "0.1.0"
