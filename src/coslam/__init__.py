"""coslam: the eigenvalue calculus of cosine and sine transforms on
Grassmannians over R, C and H, with independent numerical verification.

The closed-form spectrum lives in `coslam.spectral`, matrix geometry and
Haar sampling in `coslam.geometry`, quadrature/Monte Carlo realizations of
the transforms in `coslam.transform`, and the command-line front end in
`coslam.cli`.  The package exports the public names (`__all__`) of
`scalar`, `spectral`, `geometry` and `transform`.
"""

from . import geometry, scalar, spectral, transform
from .scalar import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .transform import *  # noqa: F401,F403

__version__ = "1.0.0"

__all__ = [*scalar.__all__, *spectral.__all__, *geometry.__all__, *transform.__all__,
           "__version__"]
