"""Short-term zone-level demand forecasting with temporal (VAR) and
spatio-temporal (STAR, LASSO-STAR) autoregressive models."""

from .panel import (
    DemandPanel, ModelOrder, SplitSpec, Standardization,
    make_panel, read_panel_csv, standardize, write_panel_csv,
)
from .weights import (
    AdjacencyGraph, WeightStack,
    adjacency_rings, centroid_rings, make_adjacency, row_normalize,
    validate_stack, read_stack, write_stack,
)
from .estimators import (
    DesignMatrix, LassoConfig, StarModel, VarModel,
    build_design, fit_lasso_star, fit_star_ols, fit_var_ols, lambda_max, tune_lambda,
)
from .forecast import (
    EvalReport, ScenarioGrid,
    mspe, predict_range, render_table, reports_to_csv,
    run_grid, run_scenario,
)
from .ingest import (
    IngestReport, TripFormat, Trips, ZoneGeometry,
    bin_counts, load_zones_centroid_csv, load_zones_geojson, make_zone,
    parse_trips,
)
from .synth import (
    ProcessSpec,
    gen_star_process, gen_var_process, random_centroid_stack, random_sparse_star_spec,
    spectral_radius,
)
from .errors import ConfigError, DataError, NumericalError

__version__ = "0.1.0"
