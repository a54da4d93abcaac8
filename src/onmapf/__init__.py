"""Online multi-agent path finding at desk scale.

Agents appear over time at start vertices, must reach goals collision-free,
and disappear on arrival. The package provides the instance model, one
exact A* planner for joint plans and single agents alike, the online
execution loop with its controllability modes and rationalization,
adversarial instance generators, and a benchmark CLI (``onmapf``).
"""

from .adversary import (
    LineCosts,
    RandomSpec,
    ReductionOutput,
    SatInstance,
    TwoByTwoAdversary,
    decode_assignment,
    gen_2x2_adversary,
    gen_line,
    gen_random,
    line_closed_forms,
    parse_dimacs,
    reduce_sat,
)
from .core import (
    Agent,
    Conflict,
    DynamicObstacleSet,
    Metrics,
    OnlineInstance,
    Path,
    Plan,
    RatioReport,
    ReleaseGroup,
    build_obstacles,
    detect_conflicts,
    evaluate,
    is_rational_at,
    partition_by_release,
    rationality_bounds,
    sequential_chain,
    validate_agent,
    validate_path,
)
from .errors import (
    BudgetExhausted,
    DisconnectedWorld,
    EmptyWorld,
    InvalidEdge,
    MalformedSat,
    NotMakespanThree,
    OddM,
    OnlineMapfError,
    ParseError,
    ProtocolViolation,
    UnplannedAgent,
)
from .online import (
    CustomContext,
    InstanceSource,
    OnlinePolicy,
    RevealSource,
    SimulationTrace,
    Snapshot,
    custom_policy,
    opt_rational,
    rationalize_wrap,
    run,
    sequence_policy,
)
from .search import (
    JointTask,
    joint_plan,
    offline_optimal,
    plan_min_arrival,
)
from .world import (
    Graph,
    GridMap,
    build_graph,
    build_grid,
    shortest_dist,
    shortest_path_lex,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
