"""sftkit: exact arithmetic for shifts of finite type.

Presentations, eventually periodic points, cylinder functions, cohomology
positivity with certificates, the tail-equivalence groupoid, towers and
flow-equivalence invariants, and the constructive orbit-equivalence to
flow-equivalence pipeline.
"""

from .presentation import (
    Presentation,
    build_presentation,
    from_forbidden_words,
    full_shift,
    golden_mean,
    higher_block,
    word,
)
from .points import (
    BiPoint,
    EvPerPoint,
    is_isolated,
)
from .cylinders import (
    CylinderFunction,
    orbit_sum,
)
from .maps import (
    PointMap,
    identity_map,
    prefix_exchange,
    relabel_map,
    sliding_block_conjugacy,
)
from .cohomology import (
    NegativeCycleWitness,
    PositivityCertificate,
    Potential,
    WeightedTransitionGraph,
    class_is_positive,
    decompose_positive,
    find_potential,
    groupoid_cocycle_eval,
    positive_on_cycles,
    solve_coboundary,
    transition_graph,
)
from .groupoid import (
    CylinderBisection,
    GroupoidElement,
    TowerGroupoidElement,
    compose,
    invert,
    make_element,
    make_tower_element,
    phi_from_oe_data,
    tower_iso,
    unit,
)
from .flow import (
    InvariantReport,
    Tower,
    TowerSpec,
    bowen_franks,
    graph_move,
    in_split,
    out_split,
    out_split_conjugacy,
)
from .suspension import (
    ClaimReport,
    FlowMapData,
    SuspensionPoint,
    WeightProfile,
    bold_varphi,
    m_eval,
    psi_eval,
    quarter_grid,
    r_eval,
    verify_flow_claims,
)
from .orbit import (
    CocyclePair,
    COEReport,
    OrbitEquivalence,
    check_least_period_preserving,
    coe_to_flow_pipeline,
    derive_cocycle_pair,
    verify_coe,
)

__version__ = "0.1.0"
