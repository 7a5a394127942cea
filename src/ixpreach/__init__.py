"""Country-level reachability and outage analysis from IXP route-server snapshots.

The package turns daily routing-table CSVs from Internet exchange points
into per-country visibility metrics, baseline-vs-final reachability
reports and detected outage events, with ASNs attributed to countries via
RIR delegated-statistics data.  A deterministic synthetic-scenario
generator (`ixpreach.synth`, imported on its own) provides exact ground
truth for end-to-end testing.
"""

from .asndb import AsnDb, AsnRecord, MergedRecords, build_from_files, merge, parse_delegated
from .metrics import (
    METRIC_NAMES,
    MetricSeries,
    PresenceMap,
    build_series,
    origin_presence,
)
from .outage import CatalogEvent, OutageEvent, annotate, detect_dips, load_seed_catalog
from .pipeline import AnalysisResult, RunConfig, run_analysis, write_outputs
from .reachability import (
    ReachabilityReport,
    average_pct,
    diff_reachability,
    pct_lost,
)
from .rtingest import (
    DateRange,
    Snapshot,
    SnapshotSchema,
    SnapshotSeries,
    load_series,
    parse_snapshot,
)

__version__ = "0.1.0"
