"""Curve arrangements as 4-regular plane graphs.

Validation of the unique-face-incidence property, 4-connectivity
certificates (max-flow and constructive), Hamilton cycles, and extension
of Venn diagrams by a new curve through a Hamilton cycle of the planar
dual.
"""

from .arrio import (
    ArrSemanticError,
    ArrSyntaxError,
    PathNames,
    format_cut_certificate,
    format_path_certificate,
    parse_arr,
    write_arr,
)
from .connectivity import (
    Counterexample,
    CutCertificate,
    Distance2Certification,
    NotAVertexError,
    NotDistanceTwoError,
    NotVGraphError,
    PathCertificate,
    ProofPathsResult,
    SameVertexError,
    VacuousCertificationError,
    certify_distance_two,
    max_disjoint_paths,
    proof_paths,
    verify_certificate,
    verify_cut,
    vertex_connectivity,
)
# ``dual`` the function stays in ``venngraph.dual``: re-exported here it
# would shadow the submodule of the same name.
from .dual import DualNotHamiltonianError, NotVennError, winkler_extend
from .generators import from_circles, gen_venn, gen_venn3, gen_weave
from .hamilton import (
    BudgetExceededError,
    HamiltonCycle,
    find_hamilton,
    verify_cycle,
)
from .maps import (
    BadSlotError,
    DisconnectedError,
    MapError,
    NonInvolutiveTwinError,
    NotPlaneError,
    PlaneGraph,
    RotationMap,
    SelfCrossingCurveError,
    SelfTwinError,
)
from .render import LayoutUnavailableError, barycentric_layout, render_svg
from .validate import (
    GeneralPositionReport,
    UfiViolation,
    ValidationReport,
    VennReport,
    check_ufi,
    two_faces,
    validate,
    venn_check,
)

__version__ = "0.1.0"
