"""Country-level reachability and outage analysis from IXP route-server snapshots.

The package turns daily routing-table CSVs from Internet exchange points
into per-country visibility metrics, baseline-vs-final reachability
reports and detected outage events, with ASNs attributed to countries via
RIR delegated-statistics data.  A deterministic synthetic-scenario
generator (`ixpreach.synth`, imported on its own) provides exact ground
truth for end-to-end testing.
"""

__version__ = "0.1.0"
