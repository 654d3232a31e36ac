"""strandalg: strand algebras of decorated surfaces over GF(2).

Combinatorial engines for the finite algebras attached to decorated surfaces,
their type A and type D modules, box-tensor and morphism-complex pairings,
and the Floer complexes of nice closed Heegaard diagrams.
"""

from .diagrams import (
    ClosedDiagram,
    DiagramDomain,
    DiagramError,
    Region,
    cf_hat,
    enumerate_generators,
    euler_measure,
    maslov_index,
    parse_diagram,
    serialize_diagram,
)
from .homalg import (
    ChainComplex,
    ChainMap,
    NotAChainMap,
    homology_rank,
    identity_map,
    mapping_cone,
    zero_complex,
)
from .inputs import InputError
from .modules import (
    DepthExceeded,
    IdempotentMismatch,
    TruncationUnsound,
    TypeAModule,
    TypeDModule,
    algebra_as_module,
    box_tensor,
    check_typeA,
    check_typeD,
    dump_module,
    load_module,
    mor_complex,
)
from .strands import (
    Algebra,
    BasisElement,
    NotInMatchedSpan,
    check_algebra,
    consum_check,
    consum_failures,
    directedness_check,
    opposite_check,
    opposite_failures,
)
from .surface import (
    DecoratedSurface,
    SurfaceError,
    SurfaceReport,
    analyze_surface,
    arc_slide,
    boundary_connected_sum,
    make_surface,
    parse_surface,
    reverse_orientation,
    serialize_surface,
)

__version__ = "0.1.0"
