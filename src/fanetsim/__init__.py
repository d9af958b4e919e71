"""Distance-greedy geographic routing for dynamic UAV networks.

Library layout:

* :mod:`fanetsim.geometry`   - lens areas and the per-hop progress distribution
* :mod:`fanetsim.analysis`   - hop/distance/success bounds and range sizing
* :mod:`fanetsim.mobility`   - two-mode Markov mobility and position prediction
* :mod:`fanetsim.topology`   - contact snapshots and neighbor queries
* :mod:`fanetsim.routing`    - greedy forwarding and the Dijkstra baseline
* :mod:`fanetsim.simharness` - seeded Monte Carlo experiment driver
* :mod:`fanetsim.cli`        - command-line front end
"""

from .analysis import (
    BoundsReport,
    NetworkParams,
    bounds_report,
    expected_total_distance,
    hop_bounds,
    isolation_probability,
    min_range_for_isolation,
    success_probability,
)
from .geometry import (
    LensParams,
    ProgressDistribution,
    QuadratureError,
    expected_progress,
    lens_area,
    progress_cdf,
    progress_tail,
)
from .mobility import Fleet, MobilityConfig, MobilityMode
from .routing import (
    HopRecord,
    PathWeight,
    SessionOutcome,
    SessionStatus,
    execute_path,
    greedy_next_hop,
    route_dijkstra,
    route_greedy,
)
from .simharness import (
    Algorithm,
    ExperimentConfig,
    ExperimentResult,
    SweepSpec,
    figure3_dataset,
    figure5_dataset,
    figure6_dataset,
    run_experiment,
)
from .topology import ContactSnapshot, NetworkTrace

__version__ = "0.1.0"
