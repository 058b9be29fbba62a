"""Integer additive set-indexers (IASIs) of simple graphs.

Label vertices with finite sets of non-negative integers; every edge then
carries the sumset of its endpoints. This package provides the sumset and
progression arithmetic, verification and classification of such labelings,
constructions that always succeed, label-preserving graph transforms, a
JSON/DOT interchange layer, and an exhaustive small-graph checking harness
(also available as the ``iasi`` command).
"""

from .sets import (
    U64_MAX,
    APSet,
    IntegerSet,
    detect_ap,
    predicted_edge_cardinality,
    sumset,
)
from .graphs import (
    Graph,
    GraphViolation,
    LabeledGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from .classify import (
    ClassificationReport,
    Collision,
    EdgeClassification,
    GcdReport,
    InjectivityReport,
    MultiplierReport,
    MultiplierViolation,
    check_gcd_invariant,
    check_multiplier_condition,
    classify_arithmetic,
    classify_edges,
    verify_iasi,
)
from .construct import (
    ConstructionParams,
    ConstructionResult,
    construct_arbitrary,
    construct_complete,
    distinct_sum_sequence,
)
from .transforms import (
    contract_edge,
    reduce_topologically,
    subdivide,
    to_line_graph,
    to_total_graph,
)
from .io import (
    document_text,
    dot_text,
    export_dot,
    load_document,
    load_graph,
    save_document,
)
from .catalog import (
    CheckRecord,
    check_one_graph,
    enumerate_connected_graphs,
    probe_k3_three_index,
    records_jsonl,
    run_catalog_checks,
)
from .errors import (
    DisconnectedGraphError,
    GraphValidationError,
    IasiError,
    InvalidLabelingError,
    LabelCollisionError,
    LabelOverflowError,
    NotArithmeticError,
    SchemaError,
)

__version__ = "0.1.0"
