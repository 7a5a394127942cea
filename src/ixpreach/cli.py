"""Command-line interface tying the pipeline together.

Subcommands: `build-asndb`, `analyze`, `plot`, `synth`.  Exit codes:
0 success, 1 usage error, 2 data error.

`analyze` takes every setting as a flag; only `--asndb`, `--snapshots`
and `--out` are required, and the others default to the paper's study.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from pathlib import Path

from . import asndb, metrics, outage, pipeline
from .metrics import METRIC_NAMES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _split_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _catalog(text: str) -> Path | str:
    return text if text == pipeline.SEED_CATALOG else Path(text)


# Each `analyze` setting once: key (the flag is `--key` with `_` written
# as `-`) -> (RunConfig field, converter, help).
_ANALYZE_SETTINGS = {
    "asndb": ("asndb_path", Path, "ASN database file (from build-asndb)"),
    "snapshots": ("snapshot_root", Path, "snapshot root directory (<root>/<ixp>/<date>.csv)"),
    "out": ("output_dir", Path, "output directory"),
    "ixps": ("ixps", _split_list, "comma-separated IXP ids"),
    "countries": ("countries", _split_list, "comma-separated country codes"),
    "baseline_date": ("baseline_date", dt.date.fromisoformat, "baseline snapshot date (YYYY-MM-DD)"),
    "final_date": ("final_date", dt.date.fromisoformat, "final snapshot date (YYYY-MM-DD)"),
    "confirmation_window": ("confirmation_window", int, "days of confirmed absence"),
    "trailing_window": ("trailing_window", int, "dip detector reference window"),
    "threshold": ("threshold", float, "dip detector drop fraction"),
    "min_reference": ("min_reference", float, "dip detector noise guard"),
    "catalog": ("catalog_path", _catalog, "event catalog file for outage annotation; the reserved "
                f"word {pipeline.SEED_CATALOG!r} names the catalog packaged with ixpreach "
                f"(write ./{pipeline.SEED_CATALOG} for a file of that name)"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="ixpreach", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-asndb", help="merge RIR delegated files into an ASN database")
    p.add_argument("--rir", action="append", required=True, metavar="REGISTRY=PATH",
                   help="delegated statistics file for one registry (repeatable)")
    p.add_argument("--out", required=True, help="output database path")
    p.set_defaults(func=_cmd_build_asndb)

    p = sub.add_parser("analyze", help="run the full per-IXP per-country analysis")
    for key, (field, _, help_text) in _ANALYZE_SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), help=help_text,
                       required=field not in pipeline.RunConfig._field_defaults)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plot", help="render a metric series as a self-contained SVG chart")
    p.add_argument("--metrics", required=True, help="one metrics/<ixp>_<cc>.csv written by analyze")
    p.add_argument("--metric", required=True, help=f"one of: {', '.join(METRIC_NAMES)}")
    p.add_argument("--events", help="outage events CSV (outages/<ixp>_<cc>.csv); spans are shaded")
    p.add_argument("--out", help="output SVG path")
    p.add_argument("--table", action="store_true", help="print the plotted values as text")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("synth", help="generate a synthetic scenario dataset")
    p.add_argument("--spec", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    return parser


def _cmd_build_asndb(args: argparse.Namespace) -> int:
    items: dict[Path, tuple[str, Path]] = {}  # by resolved path: a file read twice counts its ASNs as conflicts
    for spec in args.rir:
        registry, sep, path = spec.partition("=")
        if not sep or not registry or not path:
            raise UsageError(f"--rir wants REGISTRY=PATH, got {spec!r}")
        if registry not in asndb.REGISTRIES:
            raise UsageError(f"unknown registry {registry!r}; expected one of {', '.join(asndb.REGISTRIES)}")
        resolved = Path(path).resolve()
        if resolved in items:
            raise UsageError(f"--rir names {resolved} twice; name each file once")
        items[resolved] = (registry, Path(path))
    for written in (Path(args.out).resolve(), asndb._index_path(args.out).resolve()):
        if written in items:
            raise UsageError(f"--out {args.out} would overwrite the --rir file {written}; name another output")
    try:
        db, skipped = asndb.build_from_files(items.values())
    except OSError as exc:
        registry = next((r for r, p in items.values() if str(p) == getattr(exc, "filename", None)), None)
        prefix = f"{registry}: " if registry else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return EXIT_DATA
    asndb.save(db, args.out)
    for registry, lineno, reason in skipped:
        print(f"warning: {registry}:{lineno}: {reason}", file=sys.stderr)
    print(f"records={len(db)} conflicts={db.conflicts} skipped={len(skipped)}")
    return EXIT_OK


def _build_run_config(args: argparse.Namespace) -> pipeline.RunConfig:
    kwargs = {}
    for key, (field, convert, help_text) in _ANALYZE_SETTINGS.items():
        text = getattr(args, key)
        if text is None:
            continue
        try:
            kwargs[field] = convert(text)
        except ValueError:
            raise UsageError(f"bad value for {key}: {text!r} ({help_text})") from None
    try:
        return pipeline.RunConfig(**kwargs)
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

    with open(args.metrics, encoding="utf-8-sig") as handle:
        mseries = metrics.read_metrics_csv(handle)
    ixp, country = mseries.ixp, mseries.country
    points = list(zip(mseries.dates, map(float, mseries.values(args.metric))))

    spans: list[tuple[dt.date, dt.date, str]] = []
    if args.events:
        with open(args.events, encoding="utf-8-sig") as handle:
            for ev in outage.read_events_csv(handle):
                if ev.ixp == ixp and ev.country == country and ev.metric == args.metric:
                    spans.append((ev.start, ev.end, ev.annotation or "outage"))

    if args.out:
        from . import svgchart  # only a chart needs it
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
    from . import synth  # only this subcommand needs the generator

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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
