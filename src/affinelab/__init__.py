"""affinelab: a chart-based numerical engine for affine manifolds.

Manifolds are finite atlases of charts; affine connections live as
per-chart bilinear fields B_x.  On top of one chart-hopping RK4
integrator the package builds geodesics, parallel transport, the frame
bundle with its soldering/connection forms, standard horizontal flows,
natural lifts, affine-Killing verification and seed extension, and
flow-generated automorphisms, with a scenario harness that checks every
claim against closed-form oracles at desk scale.
"""
from .atlas import Atlas, Chart, Point, Tangent, Transition
from .automorphism import (ClosedFormDiffeo, Diffeo, FlowWord, FrameDiffeo, affine_residual,
                           exp_aut, exp_commutes_defect, frame_gap, frame_lift,
                           kappa_pullback_defect, orbit_point)
from .bundles import frame_atlas, tangent_atlas
from .catalog import Catalog, default_catalog, plane_affine_map, rotation_matrix_3d, sphere_rotation
from .connection import (ConnChart, ConnectionField, SecondOrderTangent,
                         change_of_variable_residual, connector_apply, covariant_derivative,
                         from_christoffel)
from .errors import (BasePointMismatch, ChartMissing, GeometryError, HopLimit, IoError,
                     LeftAtlas, NoCommonChart, NoConvergence, NotInOverlap, NotKilling,
                     ParseError, ScenarioError, SeedChartMismatch, SingularFrame,
                     SingularGroupElement, StencilLeavesDomain, UnknownCatalogName)
from .flows import (ChartField, IntegratorConfig, VectorField, combine,
                    commutation_defect, constant_field, integrate, lie_derivative_defect,
                    parameter_flow_derivative_defect, variational_flow)
from .frame_bundle import (Frame, FrameTangent, KappaValue, connection_form, horizontal_flow,
                           horizontal_projection_defect, horizontal_projection_parts, kappa,
                           kappa_inverse, kappa_inverse_family, kappa_inverse_field,
                           kappa_matrix, rho, soldering, standard_horizontal)
from .geodesics import (CurveSpec, completeness_probe, exp_inverse, exp_map, exp_map_rows,
                        geodesic, parallel_transport)
from .harness import Report, Scenario, emit, load_scenario, run_suite, scenario_from_dict
from .killing import (HorizontalPath, KillingSeed, bracket, ev_embedding, extend_killing,
                      gram_rank, killing_residual, lift_commutation_defect, natural_lift,
                      path_to)

__version__ = "0.1.0"
