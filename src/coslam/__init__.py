"""coslam: the eigenvalue calculus of cosine and sine transforms on
Grassmannians over R, C and H, with independent numerical verification.

The closed-form spectrum lives in `coslam.spectral`, matrix geometry and
Haar sampling in `coslam.geometry`, quadrature/Monte Carlo realizations of
the transforms in `coslam.transform`, and the command-line front end in
`coslam.cli`.
"""

from .scalar import GammaPole, QuadratureRule1D, gauss_legendre, gegenbauer, log_gamma
from .spectral import (
    FieldTag,
    GrassmannSignature,
    KType,
    SpectralValue,
    c_p,
    enumerate_ktypes,
    eta,
    eta_by_recursion,
    eta_step_ratio,
    ktype,
    nu,
    omega,
    sphere_eta,
)
from .geometry import (
    FramePoint,
    GroupElement,
    act,
    alpha_p,
    base_point,
    cos_angle,
    group_compose,
    group_inverse,
    haar_batch,
    haar_sample,
    perp,
    torus_point,
)
from .transform import (
    ConvergenceError,
    McEstimate,
    SphereGrid,
    cos_transform_sphere,
    funk_hecke_1d,
    mc_c_p,
    mc_transform_ktype,
    selberg_closed,
    selberg_oracle,
    sin_transform_numeric,
    sphere_grid,
    zonal_values,
)

__version__ = "1.0.0"

__all__ = [
    "GammaPole",
    "QuadratureRule1D",
    "gauss_legendre",
    "gegenbauer",
    "log_gamma",
    "FieldTag",
    "GrassmannSignature",
    "KType",
    "SpectralValue",
    "ktype",
    "c_p",
    "enumerate_ktypes",
    "eta",
    "eta_by_recursion",
    "eta_step_ratio",
    "nu",
    "omega",
    "sphere_eta",
    "FramePoint",
    "GroupElement",
    "act",
    "alpha_p",
    "base_point",
    "cos_angle",
    "group_compose",
    "group_inverse",
    "haar_batch",
    "haar_sample",
    "perp",
    "torus_point",
    "ConvergenceError",
    "McEstimate",
    "SphereGrid",
    "cos_transform_sphere",
    "funk_hecke_1d",
    "mc_c_p",
    "mc_transform_ktype",
    "selberg_closed",
    "selberg_oracle",
    "sin_transform_numeric",
    "sphere_grid",
    "zonal_values",
    "__version__",
]
