"""Numerical lab for graph hypersurfaces in the hyperbolic upper half-space.

Builds curvature tensors of vertical graphs x_{n+1} = f(x), classifies pointwise
convexity regimes, verifies the nonnegative-Ricci inequality chain down to
n-subharmonicity of the height log f, runs rigidity and recession-set analyses, and
provides a p-Dirichlet solver with a viscosity-comparison probe.
"""

from .asymptotics import RecessionReport, recession_report
from .curvature import (FundamentalForms, ShapeSpectrum, commutation_residual, fd_residuals,
                        fundamental_forms, ricci_coordinate, ricci_from_shape)
from .errors import (DataError, DegenerateGradientError, DomainError, HypcurvError,
                     HypothesisContradiction, NumericError, ParameterError)
from .gridfn import GridFunction, load_grid_function, save_grid_function
from .heightfield import (Box, HeightField, Jet2, SampledGridField, fd_validate_jet,
                          field_from_descriptor, field_from_json, field_to_descriptor,
                          make_catalog_surface, sample_height_grid)
from .inequalities import (Regime, RegimeReport, convexity_classify, grad_direction_ricci,
                           point_regime_report)
from .plaplace import SolverConfig, solve_p_harmonic, viscosity_probe
from .rigidity import ConstancyScan, Verdict, classify_global, constancy_scan

__version__ = "0.1.0"
