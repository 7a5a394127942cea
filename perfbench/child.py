"""Run one `ixpreach` command in this fresh process and report on it.

    python3 child.py SRC_DIR REQUEST_JSON
    python3 child.py --probe

REQUEST_JSON holds `argv` (the CLI arguments), `trace` (bool) and `gt`
(a ground-truth path for `analyze`, else null).  The last line of stdout
is one JSON object: the command's exit code and captured stdout,
`elapsed_s` from before the program's import to the command's return,
`peak_rss_mb`, `probe_s` (the speed probe, timed before the program is
imported), and for `analyze` the `synth.verify` problems.  Verification
runs after the clock stops.  Nothing is pinned: the program may use every
core the process is given.  `--probe` only times the probe and prints the
seconds, for a probe in a fresh process after a child has exited.

With `trace` true, the public module attributes the CLI path calls are
wrapped from here and each call is recorded as a span (name, start, end,
parent, counts), plus a call counter on `ipaddress.ip_network`.  A wrapped
attribute that is missing, or never called, is an error that names it.
"""

import contextlib
import csv
import gc
import io
import ipaddress
import json
import resource
import sys
import time

_ip_network = ipaddress.ip_network  # bound before a traced run counts the calls
_PROBE_CSV = "".join(f"{20 + (i >> 16)}.{(i >> 8) & 255}.{i & 255}.0/24,{970000 + i % 40} {100000 + i * 7 % 50000}\n"
                     for i in range(25_000))


def probe_s() -> float:
    """Time a fixed parse-like loop: stdlib csv, int, ipaddress and dict
    work, like analyze's but none of it the program's code.  The collector
    is off, so the loop's time does not depend on what the heap holds."""
    gc.disable()
    try:
        start = time.perf_counter()
        origins: dict[int, int] = {}
        for prefix, path in csv.reader(io.StringIO(_PROBE_CSV)):
            asns = tuple(int(a) for a in path.split())
            str(_ip_network(prefix))
            origins[asns[-1]] = origins.get(asns[-1], 0) + 1
        return time.perf_counter() - start
    finally:
        gc.enable()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _series_counts(series) -> dict:
    return {
        "files": len(series.snapshots),
        "gaps": len(series.gaps),
        "rows_kept": sum(len(s.entries) for s in series.snapshots),
        "rows_skipped": sum(s.skipped for s in series.snapshots),
        "rss_mb": _rss_mb(),
    }


# (module, attribute, counts taken from the return value) per command.
ANALYZE_LAYERS = (
    ("asndb", "load", None),
    ("rtingest", "load_series", _series_counts),
    ("rtingest", "parse_snapshot", lambda snap: {"rows_kept": len(snap.entries), "rows_skipped": snap.skipped}),
    ("metrics", "build_series", None),
    ("metrics", "origin_presence", None),
    ("reachability", "diff_reachability", None),
    ("outage", "detect_dips", lambda events: {"events": len(events)}),
    ("pipeline", "run_analysis", None),
    ("pipeline", "write_outputs", lambda written: {"files": len(written)}),
)
BUILD_LAYERS = (
    ("asndb", "build_from_files", lambda res: {"records": len(res[0]), "rows_skipped": len(res[1])}),
    ("asndb", "save", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.names: list[str] = []

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        try:
            fn = getattr(module, attr)
        except AttributeError:
            raise SystemExit(f"trace: {module.__name__}.{attr} is missing; "
                             "update the layer map in perfbench/child.py") from None
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": stack[-1] if stack else -1, "counts": {}}
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span["counts"] = observe(result)
            return result

        setattr(module, attr, traced)
        self.names.append(name)

    def check_called(self) -> None:
        called = {s["name"] for s in self.spans}
        missing = [n for n in self.names if n not in called]
        if missing:
            raise SystemExit(f"trace: {', '.join(missing)} never called; the CLI path bypasses "
                             "the wrapped attribute, update the layer map in perfbench/child.py")


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps(probe_s()))
        return 0
    src, request = sys.argv[1], json.loads(sys.argv[2])
    probe_before = probe_s()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import ixpreach
    from ixpreach import cli, pipeline

    argv = request["argv"]
    is_analyze = argv[0] == "analyze"
    tracer = None
    prefix_parses = [0]
    if request["trace"]:
        tracer = Tracer()
        for mod_name, attr, observe in (ANALYZE_LAYERS if is_analyze else BUILD_LAYERS):
            tracer.wrap(getattr(ixpreach, mod_name), attr, f"{mod_name}.{attr}", observe)
        if is_analyze:
            real_ip_network = ipaddress.ip_network

            def counted_ip_network(*args, **kwargs):
                prefix_parses[0] += 1
                return real_ip_network(*args, **kwargs)

            ipaddress.ip_network = counted_ip_network

    captured = []
    if is_analyze:
        # The gate needs the AnalysisResult; keep the one `analyze` builds.
        run_analysis = getattr(pipeline, "run_analysis", None)
        if run_analysis is None:
            raise SystemExit("gate: ixpreach.pipeline.run_analysis is missing")

        def capture(*args, **kwargs):
            result = run_analysis(*args, **kwargs)
            captured.append(result)
            return result

        pipeline.run_analysis = capture

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    end = time.perf_counter()
    report = {
        "exit_code": code,
        "stdout": out.getvalue(),
        "elapsed_s": end - t0,
        "peak_rss_mb": _rss_mb(),
        "probe_s": [probe_before],
    }
    if tracer is not None:
        tracer.check_called()
        report["trace"] = {"spans": tracer.spans, "prefix_parses": prefix_parses[0]}
    if is_analyze and request.get("gt"):
        from ixpreach import synth
        if len(captured) != 1:
            report["problems"] = [f"analyze produced {len(captured)} results, expected 1"]
        else:
            problems = synth.verify(synth.GroundTruth.load(request["gt"]), captured[0])
            report["problems"] = problems[:20] + [f"... {len(problems) - 20} more"] * (len(problems) > 20)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
