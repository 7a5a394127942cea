"""Command-line interface tying the pipeline together.

Subcommands: `build-asndb`, `analyze`, `plot`, `synth`.  Exit codes:
0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from pathlib import Path

from . import asndb, metrics, outage, pipeline, svgchart, synth
from .metrics import METRIC_NAMES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise UsageError(f"bad date {text!r}, expected YYYY-MM-DD") from None


def _split_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> _Parser:
    parser = _Parser(prog="ixpreach", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-asndb", help="merge RIR delegated files into an ASN database")
    p.add_argument("--rir", action="append", required=True, metavar="REGISTRY=PATH",
                   help="delegated statistics file for one registry (repeatable)")
    p.add_argument("--out", required=True, help="output database path")
    p.set_defaults(func=_cmd_build_asndb)

    p = sub.add_parser("analyze", help="run the full per-IXP per-country analysis")
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--asndb", help="ASN database file (from build-asndb)")
    p.add_argument("--snapshots", help="snapshot root directory (<root>/<ixp>/<date>.csv)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--ixps", help="comma-separated IXP ids")
    p.add_argument("--countries", help="comma-separated country codes")
    p.add_argument("--baseline-date", help="baseline snapshot date (YYYY-MM-DD)")
    p.add_argument("--final-date", help="final snapshot date (YYYY-MM-DD)")
    p.add_argument("--confirmation-window", type=int, help="days of confirmed absence")
    p.add_argument("--trailing-window", type=int, help="dip detector reference window")
    p.add_argument("--threshold", type=float, help="dip detector drop fraction")
    p.add_argument("--min-reference", type=float, help="dip detector noise guard")
    p.add_argument("--catalog", help="event catalog file for outage annotation; the reserved "
                   f"word {pipeline.SEED_CATALOG!r} names the catalog packaged with ixpreach "
                   f"(write ./{pipeline.SEED_CATALOG} for a file of that name)")
    p.add_argument("--annotation-slack", type=int, help="catalog matching slack in days")
    p.add_argument("--schema", help="snapshot column-mapping file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plot", help="render a metric series as a self-contained SVG chart")
    p.add_argument("--metrics", required=True, help="metrics CSV written by analyze")
    p.add_argument("--metric", required=True, help=f"one of: {', '.join(METRIC_NAMES)}")
    p.add_argument("--ixp", help="filter to one IXP (needed when the CSV has several)")
    p.add_argument("--country", help="filter to one country")
    p.add_argument("--events", help="outage events CSV; spans are shaded")
    p.add_argument("--out", help="output SVG path")
    p.add_argument("--table", action="store_true", help="print the plotted values as text")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("synth", help="generate a synthetic scenario dataset")
    p.add_argument("--spec", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    return parser


def _cmd_build_asndb(args: argparse.Namespace) -> int:
    items = []
    for spec in args.rir:
        registry, sep, path = spec.partition("=")
        if not sep or not registry or not path:
            raise UsageError(f"--rir wants REGISTRY=PATH, got {spec!r}")
        if registry not in asndb.REGISTRIES:
            raise UsageError(f"unknown registry {registry!r}; expected one of {', '.join(asndb.REGISTRIES)}")
        items.append((registry, Path(path)))
    try:
        db, skipped = asndb.build_from_files(items)
    except OSError as exc:
        registry = next((r for r, p in items if str(p) == getattr(exc, "filename", None)), None)
        prefix = f"{registry}: " if registry else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return EXIT_DATA
    asndb.save(db, args.out)
    print(f"records={len(db)} conflicts={db.conflicts} skipped={len(skipped)}")
    return EXIT_OK


_CONFIG_KEYS = {
    "asndb", "snapshots", "out", "ixps", "countries", "baseline_date", "final_date",
    "confirmation_window", "trailing_window", "threshold", "min_reference",
    "catalog", "annotation_slack", "schema",
}


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown or malformed config entry {line!r}")
            values[key] = value
    return values


def _build_run_config(args: argparse.Namespace) -> pipeline.RunConfig:
    file_values = _load_config_file(args.config) if args.config else {}

    def pick(flag, key: str):
        return flag if flag is not None else file_values.get(key)

    asndb_path = pick(args.asndb, "asndb")
    snapshot_root = pick(args.snapshots, "snapshots")
    output_dir = pick(args.out, "out")
    missing = [name for name, value in
               (("asndb", asndb_path), ("snapshots", snapshot_root), ("out", output_dir))
               if value is None]
    if missing:
        raise UsageError(f"missing required setting(s): {', '.join(missing)} "
                         "(set via flag or config file)")

    kwargs: dict = {}
    ixps = pick(args.ixps, "ixps")
    if ixps is not None:
        kwargs["ixps"] = _split_list(ixps)
    countries = pick(args.countries, "countries")
    if countries is not None:
        kwargs["countries"] = _split_list(countries)
    baseline = pick(args.baseline_date, "baseline_date")
    if baseline is not None:
        kwargs["baseline_date"] = _parse_date(baseline)
    final = pick(args.final_date, "final_date")
    if final is not None:
        kwargs["final_date"] = _parse_date(final)
    for attr, key, conv in (
        ("confirmation_window", "confirmation_window", int),
        ("trailing_window", "trailing_window", int),
        ("threshold", "threshold", float),
        ("min_reference", "min_reference", float),
        ("annotation_slack", "annotation_slack", int),
    ):
        value = pick(getattr(args, attr), key)
        if value is not None:
            try:
                kwargs[attr] = conv(value)
            except ValueError:
                raise UsageError(f"bad value for {key}: {value!r}") from None
    catalog = pick(args.catalog, "catalog")
    if catalog is not None:
        kwargs["catalog_path"] = catalog if catalog == pipeline.SEED_CATALOG else Path(catalog)
    schema = pick(args.schema, "schema")
    if schema is not None:
        kwargs["schema_path"] = Path(schema)

    try:
        return pipeline.RunConfig(
            asndb_path=Path(asndb_path),
            snapshot_root=Path(snapshot_root),
            output_dir=Path(output_dir),
            **kwargs,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _build_run_config(args)
    result = pipeline.run_analysis(config)
    written = pipeline.write_outputs(result)
    print(f"wrote {len(written)} files under {config.output_dir}")
    for country in sorted(result.averages):
        print(f"{country}: average pct lost {result.averages[country]:.2f}")
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    if args.metric not in METRIC_NAMES:
        raise UsageError(f"unknown metric {args.metric!r}; valid metrics: {', '.join(METRIC_NAMES)}")
    if not args.out and not args.table:
        raise UsageError("nothing to do: pass --out and/or --table")

    with open(args.metrics, encoding="utf-8") as handle:
        rows = metrics.read_metrics_csv(handle)
    if args.ixp:
        rows = [r for r in rows if r.ixp == args.ixp]
    if args.country:
        rows = [r for r in rows if r.country == args.country]
    pairs = sorted({(r.ixp, r.country) for r in rows})
    if len(pairs) > 1:
        listing = ", ".join(f"{i}/{c}" for i, c in pairs)
        raise UsageError(f"metrics CSV covers several series ({listing}); "
                         "narrow it down with --ixp/--country")
    if not rows:
        raise ValueError("no metric rows left after filtering")
    rows.sort(key=lambda r: r.date)
    ixp, country = pairs[0]
    points = [(r.date, float(getattr(r, args.metric))) for r in rows]

    spans: list[tuple[dt.date, dt.date, str]] = []
    if args.events:
        with open(args.events, encoding="utf-8") as handle:
            for ev in outage.read_events_csv(handle):
                if ev.ixp == ixp and ev.country == country and ev.metric == args.metric:
                    spans.append((ev.start, ev.end, ev.annotation or "outage"))

    if args.out:
        chart = svgchart.render_chart(
            points,
            title=f"{ixp} {country}: {args.metric}",
            y_label=args.metric,
            events=spans,
        )
        Path(args.out).write_text(chart, encoding="utf-8")
        print(f"wrote {args.out}")
    if args.table:
        print(f"# {ixp} {country} {args.metric}")
        for day, value in points:
            print(f"{day.isoformat()} {value:g}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = synth.load_scenario(args.spec)
    synth.generate(spec, args.out)
    gt_path = Path(args.out) / "ground_truth.json"
    print(f"ground truth: {gt_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
