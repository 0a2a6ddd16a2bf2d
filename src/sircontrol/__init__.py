"""Optimal vaccination/treatment schedules for an SIR virus-spreading model.

The model adds a Defective compartment (nodes destroyed by the virus) to
the classic SIR dynamics and minimizes a quadratic control cost plus the
defected-node count.  The first-order optimality conditions are solved as
a two-point boundary-value problem by single shooting with RK4, with a
forward-backward sweep solver and a brute-force schedule enumeration as
independent cross-checks, and an alpha study contrasting this objective
against the legacy infected-load form it replaces.
"""

# Each module's __all__ is its share of the public API; the package
# republishes those eight lists and nothing else.
from .alpha_sweep import *
from .brute_force import *
from .config import *
from .errors import *
from .integrate import *
from .model import *
from .selfcheck import *
from .solvers import *

__version__ = "0.1.0"

__all__ = (
    alpha_sweep.__all__ + brute_force.__all__ + config.__all__ + errors.__all__
    + integrate.__all__ + model.__all__ + selfcheck.__all__ + solvers.__all__
    + ["__version__"]
)
