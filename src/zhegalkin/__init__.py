"""Boolean functions as Zhegalkin (ANF) polynomials, with a differential
and integral calculus over the Hamming cube."""

from .anf import *
from .bench import *
from .exprs import *
from .forms import *
from .integration import *
from .secant import *
from .textio import *

__version__ = "0.1.0"

# each submodule's __all__ names its own public surface
__all__ = (anf.__all__ + bench.__all__ + exprs.__all__ + forms.__all__
           + integration.__all__ + secant.__all__ + textio.__all__)
