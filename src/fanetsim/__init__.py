"""Distance-greedy geographic routing for dynamic UAV networks.

Library layout:

* :mod:`fanetsim.geometry`   - lens areas and the per-hop progress distribution
* :mod:`fanetsim.analysis`   - hop/distance/success bounds and range sizing
* :mod:`fanetsim.mobility`   - two-mode Markov mobility and position prediction
* :mod:`fanetsim.topology`   - contact snapshots and neighbor queries
* :mod:`fanetsim.routing`    - greedy forwarding and the Dijkstra baseline
* :mod:`fanetsim.simharness` - seeded Monte Carlo experiment driver
* :mod:`fanetsim.cli`        - command-line front end

The package re-exports nothing: import each name from its module, e.g.
``from fanetsim.analysis import bounds_report``.  So the bounds alone
(``geometry`` and ``analysis``) load neither numpy nor the simulator.
"""

__version__ = "0.1.0"
