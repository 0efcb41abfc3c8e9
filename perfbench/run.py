"""coarseiv benchmark: run one seeded workload through the CLI and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory, and the command exits 2 without a result when that source tree is
missing.  Workloads are `resample`, `audit`, `point` and `derive` (see
README.md); `--workload all` runs each in its own process and prints every
metric.

The workload's command list is a pass.  Passes repeat, in this one process and
thread, until `--seconds` have elapsed; every output is checked.  With
`--trace 0` the last line is the JSON result with the end-to-end metrics,
whose times are scaled to a reference CPU speed by speed.py.
With `--trace 1` the run makes one untraced pass, then traced passes (at least
two) until `--seconds` have elapsed, and reports the per-layer metrics from
them.  It fails the run if a traced output differs from the untraced one, if
two traced passes give different counts, or if a span the workload exists to
exercise never fired.  The first traced pass's spans are written to
`perfbench/out/trace-<workload>-seed<seed>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()  # set-up time counts from here, after interpreter start
SCRIPT = Path(__file__).resolve()
BENCH_DIR = SCRIPT.parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("resample", "audit", "point", "derive")
SETUP_PROBES = 5  # fresh processes timed for setup_s
MIN_TRACED_PASSES = 2
END_TO_END_UNITS = {
    "wall_s": "s",
    "units_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up --------------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Import the package and build the workload's inputs; return (workdir, commands)."""
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    return workdir, workloads.WORKLOADS[workload](seed, str(workdir))


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Scaled and unscaled set-up times of SETUP_PROBES fresh processes."""
    argv = [sys.executable, str(SCRIPT), "--setup-only", "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
        times = json.loads(proc.stdout)
        scaled.append(times["scaled"])
        raw.append(times["raw"])
    return scaled, raw


def setup_only(workload: str, seed: int) -> None:
    """Import the package and build the inputs, then print how long that took."""
    import speed

    with speed.SpeedSampler() as sampler:
        workdir, _ = setup(workload, seed)
        end = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    raw = end - STARTED
    print(json.dumps({"scaled": sampler.scaled(STARTED, end), "raw": raw}))


# -- passes --------------------------------------------------------------------------


def run_pass(commands) -> tuple[float, list[tuple[float, float]], list[tuple]]:
    """Run every command once; return (wall, (start, end) per command, (exit code, stdout))."""
    from coarseiv import cli

    windows, outputs = [], []
    start = time.perf_counter()
    for cmd in commands:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(cmd.argv))  # looked up per call, so tracing applies
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        windows.append((t0, time.perf_counter()))
        outputs.append((code, buf.getvalue()))
    return time.perf_counter() - start, windows, outputs


def judge(cmd, output) -> int | None:
    """Units of work the command completed, or None when it failed."""
    from workloads import CheckFailed

    code, text = output
    try:
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        return cmd.check(json.loads(text))
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        print(f"FAILED {' '.join(cmd.argv)}: {exc!r}", file=sys.stderr)
        return None


class Verdicts:
    """Checks each pass's outputs; a repeat of the first pass's output keeps its verdict."""

    def __init__(self, commands):
        self.commands = commands
        self.first: list[tuple] | None = None
        self.first_units: list[int | None] = []
        self.attempted = 0
        self.failed = 0

    def check(self, outputs) -> int:
        """Record one pass; return the units of work it completed."""
        if self.first is None:
            self.first = outputs
            self.first_units = [judge(c, o) for c, o in zip(self.commands, outputs)]
            units = self.first_units
        else:
            units = [
                u if o == ref else judge(c, o)
                for c, o, ref, u in zip(self.commands, outputs, self.first, self.first_units)
            ]
        self.attempted += len(units)
        self.failed += sum(u is None for u in units)
        return sum(u for u in units if u is not None)


def before_deadline(deadline: float, walls: list[float]) -> bool:
    """Whether another pass would end, typically, no later than half a pass past the deadline."""
    return time.perf_counter() + statistics.median(walls) / 2 < deadline


# -- untraced run --------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> dict:
    import speed

    setup_times, raw_setup = time_setup(workload, seed)
    workdir, commands = setup(workload, seed)
    try:
        verdicts = Verdicts(commands)
        walls, passes = [], []  # passes: (command windows, units completed)
        deadline = time.perf_counter() + seconds
        with speed.SpeedSampler() as sampler:
            while not walls or before_deadline(deadline, walls):
                wall, windows, outputs = run_pass(commands)
                walls.append(wall)
                passes.append((windows, verdicts.check(outputs)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ms, raw_ms, scaled_walls, rates = [], [], [], []
    for windows, units in passes:
        scaled = [sampler.scaled(start, end) for start, end in windows]
        raw_ms.extend((end - start) * 1000 for start, end in windows)
        ms.extend(x * 1000 for x in scaled)
        scaled_walls.append(sum(scaled))
        rates.append(units / sum(scaled))
    samples = {  # metric -> (scaled samples, raw samples)
        "wall_s": (scaled_walls, walls),
        "units_per_s": (rates, None),
        "call_p50_ms": (ms, raw_ms),
        "call_p90_ms": (ms, raw_ms),
        "setup_s": (setup_times, raw_setup),
    }
    values = {name: statistics.median(v) for name, (v, _) in samples.items()}
    raw = {name: statistics.median(r) for name, (_, r) in samples.items() if r}
    values["call_p90_ms"] = p90(ms)
    raw["call_p90_ms"] = p90(raw_ms)
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name, unit in END_TO_END_UNITS.items():
        note = ""
        if name in samples:
            v = samples[name][0]
            note = f"  n={len(v)}"
            if len(v) > 1 and name != "call_p90_ms":  # quartiles go with medians
                q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
                note += f" q1={q1:.6g} q3={q3:.6g}"
        if name in raw:
            note += f" unscaled={raw[name]:.6g}"
        print(f"{workload:8s} {name:13s} {values[name]:14.6f} {unit}{note}")
    print(
        f"{workload:8s} fail_frac     {verdicts.failed / verdicts.attempted:14.6f} "
        f"ratio  ({verdicts.failed} of {verdicts.attempted} commands)"
    )
    return result(verdicts.attempted, verdicts.failed, True, values, END_TO_END_UNITS)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- traced run ----------------------------------------------------------------------


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    import spans
    import workloads

    workdir, commands = setup(workload, seed)
    ok = True
    tracer = spans.Tracer()
    try:
        start = time.perf_counter()
        verdicts = Verdicts(commands)
        plain_wall, _, plain_outputs = run_pass(commands)
        verdicts.check(plain_outputs)
        passes = []  # (wall, counts, times)
        first_spans = None
        tracer.install()
        try:
            while len(passes) < MIN_TRACED_PASSES or before_deadline(
                start + seconds, [p[0] for p in passes]
            ):
                wall, _, outputs = run_pass(commands)
                recorded = tracer.take()
                counts, times = spans.layer_metrics(recorded)
                passes.append((wall, counts, times))
                first_spans = first_spans or recorded
                differing = sum(o != p for o, p in zip(outputs, plain_outputs))
                verdicts.attempted += len(outputs)
                verdicts.failed += differing
                if differing:
                    print(f"FAILED {differing} traced outputs differ from untraced", file=sys.stderr)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = passes[0][1]
    for _, other, _ in passes[1:]:
        if other != counts:
            ok = False
            changed = sorted(k for k in counts if counts[k] != other[k])
            print(f"FAILED counts differ between traced passes: {changed}", file=sys.stderr)
    fired = {s[spans.NAME] for s in first_spans}
    missing = [name for name in workloads.EXPECTED_SPANS[workload] if name not in fired]
    if missing:
        ok = False
        print(f"FAILED expected spans never fired: {missing}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(
        json.dumps({"workload": workload, "seed": seed, "spans": spans.span_document(first_spans)})
    )

    values = dict(counts)
    for name in spans.TIME_METRICS:
        values[name] = statistics.median(p[2][name] for p in passes)
    values["trace.overhead_s"] = statistics.median(p[0] for p in passes) - plain_wall
    units = {name: "count" for name in spans.COUNT_METRICS}
    units.update({name: "ratio" for name in spans.RATIO_METRICS})
    units.update({name: "s" for name in spans.TIME_METRICS})
    units["trace.overhead_s"] = "s"
    for name, unit in units.items():
        print(f"{workload:8s} {name:28s} {values[name]:14.6f} {unit}")
    print(f"{workload:8s} traced passes {len(passes)}; spans of the first in {trace_path}")
    return result(verdicts.attempted, verdicts.failed, ok, values, units)


def result(attempted: int, failed: int, ok: bool, values: dict, units: dict) -> dict:
    return {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


# -- all workloads ---------------------------------------------------------------------


def run_all(args) -> int:
    """Run each workload in its own process and print its metrics; 1 if any failed."""
    status = 0
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:8s} exited {proc.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        print(f"{workload:8s} correct={res['correct']} failed={res['failed']} of {res['attempted']}")
        status = status or int(not res["correct"])
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coarseiv" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}/coarseiv", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.trace:
        res = measure_traced(args.workload, args.seed, args.seconds)
    else:
        res = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
