"""End-to-end benchmark of the plan-once / execute-many engine.

One workload; the last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 benchmarks/e2e/run.py --workload serve-small --seed 1 --seconds 20 --trace 0

Every workload, into a report file (``--trace 1`` adds the per-layer run)::

    python3 benchmarks/e2e/run.py --seed 1 --out R.json [--trace 1]

Compare reports of two commits, per workload and metric::

    python3 benchmarks/e2e/run.py compare A1.json A2.json -- B1.json B2.json

Each measurement runs in a fresh interpreter (``runner.py``).  With
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are reported:
``setup_s`` is the median set-up time of seven fresh processes, the rest
come from one untraced run.  With ``--trace 1`` the same seed runs twice,
untraced and traced, half the seconds each, and the per-layer metrics are
reported.  See ``README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostspeed import host_slowdown, probe_host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: A whole invocation must end within this many seconds.
TIME_LIMIT_S = 170.0

#: Set-up is sampled in this many fresh processes and the median reported.
SETUP_SAMPLES = 7


class RunFailed(Exception):
    """A child process failed or overran; no result can be reported."""


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    mode: str,
    workdir: Path,
    deadline: float,
    flags: List[str],
    spans: Optional[Path] = None,
) -> Tuple[float, float, dict]:
    """Run ``runner.py`` once; return its set-up time, scaled to the
    reference host speed and in wall-clock seconds, and its result object.

    Set-up is timed from process start to the child's ``ready`` line, so it
    includes interpreter start-up and imports.  It is scaled by the host's
    slowdown read just before the start (here, while nothing else of the
    benchmark runs) and at the end of set-up (by the child, on the ready
    line).  The child gets its own session and is killed with its whole
    process group if it overruns.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Hash randomization follows the seed, so a seed fixes a run entirely.
    env["PYTHONHASHSEED"] = str(seed % (1 << 32))
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    command = [
        sys.executable, str(HERE / "runner.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode, "--workdir", str(workdir), *flags,
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    before = statistics.median(probe_host() for _ in range(5))
    started = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    overrun = threading.Event()

    def kill() -> None:
        overrun.set()
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    ready = None
    last = ""
    try:
        for line in child.stdout:
            if ready is None and line.startswith("ready "):
                ready = time.perf_counter() - started
                slowdown = host_slowdown(before, float(line.split()[1]))
            elif line.strip():
                last = line
        child.wait()
    finally:
        timer.cancel()
        child.stdout.close()
    if overrun.is_set():
        raise RunFailed(f"{workload} ({mode}) overran the time limit")
    if child.returncode != 0 or ready is None:
        raise RunFailed(f"{workload} ({mode}) exited with code {child.returncode}")
    return ready / slowdown, ready, json.loads(last)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    flags: List[str],
    spans: Optional[Path] = None,
) -> dict:
    """All the measurements of one workload; returns its report entry."""
    deadline = time.monotonic() + TIME_LIMIT_S
    entry: Dict[str, object] = {}
    if not trace:
        setups = [
            run_child(workload, seed, 0, "setup", workdir, deadline, flags)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        setups.append(run_child(workload, seed, seconds, "run", workdir, deadline, flags))
        result = setups[-1][2]
        entry["setup_samples_s"] = [scaled for scaled, _, _ in setups]
        entry["setup_wall_clock_s"] = [wall for _, wall, _ in setups]
        entry["metrics"] = {
            "setup_s": statistics.median(entry["setup_samples_s"]),
            **{key: result[key] for key in (
                "throughput_rps", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"
            )},
        }
        results = [result]
    else:
        *_, plain = run_child(workload, seed, seconds / 2, "run", workdir, deadline, flags)
        *_, traced = run_child(
            workload, seed, seconds / 2, "trace", workdir, deadline, flags, spans
        )
        layers = dict(traced.pop("layers"))
        if workload == "service-mixed":
            # An open loop offers the same load either way: compare latency.
            overhead = traced["latency_p50_ms"] / plain["latency_p50_ms"]
        else:
            overhead = plain["throughput_rps"] / traced["throughput_rps"]
        layers["trace.overhead"] = overhead
        entry["metrics"] = layers
        results = [plain, traced]
    entry["attempted"] = sum(r["attempted"] for r in results)
    entry["failed"] = sum(r["failed"] for r in results)
    entry["wrong"] = sum(r["wrong"] for r in results)
    entry["checked"] = sum(r["checked"] for r in results)
    entry["details"] = results
    return entry


def result_line(entry: dict, definitions: List[dict]) -> dict:
    """The result object: every metric ``BENCHMARK.json`` defines for this
    mode, with its unit."""
    metrics = {}
    for definition in definitions:
        value = entry["metrics"][definition["name"]]
        metrics[definition["name"]] = {"value": value, "unit": definition["unit"]}
    return {
        "correct": entry["wrong"] == 0 and entry["checked"] > 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


def host_info() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "machine": platform.machine(),
    }


def print_entry(name: str, entry: dict, definitions: List[dict]) -> None:
    print(
        f"{name}: attempted {entry['attempted']}, failed {entry['failed']}, "
        f"checked {entry['checked']}",
        file=sys.stderr,
    )
    for definition in definitions:
        value = entry["metrics"][definition["name"]]
        print(f"  {definition['name']:<40} {value:>14.6g} {definition['unit']}", file=sys.stderr)


def benchmark(args: argparse.Namespace) -> int:
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: the repro sources (src/repro) are missing", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = bool(args.trace)
    definitions = spec["per_layer"] if trace else spec["end_to_end"]
    flags = (["--smoke"] if args.smoke else []) + (["--plant-wrong"] if args.plant_wrong else [])
    scratch = ROOT / ".bench_e2e" / f"run-{os.getpid()}"
    report = {"seed": args.seed, "seconds": seconds, "trace": trace, "host": host_info(),
              "workloads": {}}
    try:
        for name in [args.workload] if args.workload else names:
            spans = None
            if trace and args.out:
                spans = Path(args.out).with_suffix(f".{name}.spans.jsonl").resolve()
            entry = measure(name, args.seed, seconds, trace, scratch, flags, spans)
            report["workloads"][name] = entry
            print_entry(name, entry, definitions)
    except RunFailed as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    entries = list(report["workloads"].values())
    if args.workload:
        print(json.dumps(result_line(entries[0], definitions)))
    wrong = sum(entry["wrong"] for entry in entries)
    if wrong:
        print(f"run.py: {wrong} wrong answer(s)", file=sys.stderr)
        return 1
    return 0


# -- compare -------------------------------------------------------------------


def load_reports(paths: List[str]) -> List[dict]:
    """The untraced reports in files holding one report or
    ``{"runs": [report, ...]}``."""
    reports = []
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        reports.extend(data["runs"] if "runs" in data else [data])
    return [report for report in reports if not report["trace"]]


def spread(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(before: List[float], after: List[float], better: str, bound: float) -> str:
    """*within* the bound, *worse*, *better*, or *unresolved* when a side's
    spread, (q3 - q1) / median, is wider than the bound.  A side whose every
    run beats every run of the other is better even when spreads are wide."""
    sign = 1.0 if better == "lower" else -1.0
    beats_all = all(sign * b < sign * a for a in before for b in after)
    (q1a, ma, q3a), (q1b, mb, q3b) = spread(before), spread(after)
    change = sign * (mb - ma) / ma
    if beats_all:
        return "better" if change < -bound else "within"
    if (q3a - q1a) / ma > bound or (q3b - q1b) / mb > bound:
        return "unresolved"
    return "worse" if change > bound else "within"


def compare(before_paths: List[str], after_paths: List[str]) -> int:
    spec = load_spec()
    before, after = load_reports(before_paths), load_reports(after_paths)
    worst = 0
    header = (
        f"{'workload':<14} {'metric':<16} {'A q1/median/q3':>30} "
        f"{'B q1/median/q3':>30}  {'bound':>5}  verdict"
    )
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        for definition in spec["end_to_end"]:
            name = definition["name"]
            a = [r["workloads"][workload]["metrics"][name] for r in before
                 if workload in r["workloads"]]
            b = [r["workloads"][workload]["metrics"][name] for r in after
                 if workload in r["workloads"]]
            if not a or not b:
                continue
            result = verdict(a, b, definition["better"], definition["bound"])
            worst = max(worst, result in ("worse", "unresolved"))
            print(
                f"{workload:<14} {name:<16} "
                f"{'/'.join(f'{v:.4g}' for v in spread(a)):>30} "
                f"{'/'.join(f'{v:.4g}' for v in spread(b)):>30}  "
                f"{definition['bound']:>5}  {result}"
            )
        failed = [
            r["workloads"][workload]["failed"] for r in after if workload in r["workloads"]
        ]
        if any(failed):
            print(f"{workload:<14} {'failed':<16} {'':>30} {sum(failed):>30}  {'0':>5}  worse")
            worst = 1
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        rest = argv[1:]
        if "--" not in rest:
            print("usage: run.py compare A.json... -- B.json...", file=sys.stderr)
            return 2
        split = rest.index("--")
        return compare(rest[:split], rest[split + 1 :])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: every workload)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report (JSON) here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (smoke check)")
    parser.add_argument(
        "--plant-wrong", action="store_true",
        help="corrupt one checked answer; the run must then fail (smoke check)",
    )
    return benchmark(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
