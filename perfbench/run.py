#!/usr/bin/env python3
"""foldylax benchmark: one workload run end to end through the real CLI.

    python3 perfbench/run.py --workload solve_dense --seed 1 --seconds 25 --trace 0

One client runs ``python3 -m foldylax.cli <subcommand>`` in a closed loop,
each run starting when the previous one ends, with ``FOLDYLAX_THREADS=2``,
until ``--seconds`` have passed. Every run's printed values and CSVs are
checked. Set-up generates the input clouds with ``foldylax generate`` from
``--seed``, five times, and reports the median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds a traced
in-process run and prints the per-layer metrics (see README.md). The last
line of standard output is one JSON object; the full record, with the
environment, goes to ``.perfbench/`` beside the spans file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import THREADS, child_env, pin_own_threads, run_child
from spans import Tracer, layer_metrics, read_spans
from workloads import CLOUDS, check, cli_args, output_files, parse_stdout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
SETUP_REPS = 5
IMPORT_REPS = 5
DEADLINE_S = 170.0  # a child still running then is killed, so a hung run ends the benchmark
IMPORT_ONLY = "import foldylax.foldy, foldylax.oracle, foldylax.analysis, foldylax.io"


class Bench:
    """One invocation: a workload, a seed and its work directory."""

    def __init__(self, workload: str, seed: int):
        self.name, self.seed = workload, seed
        self.work = OUT / f"{workload}-seed{seed}"
        self.env = child_env(ROOT, self.work)
        self.started = time.perf_counter()
        self.n_children = 0

    def child(self, args: list[str]):
        self.n_children += 1
        left = DEADLINE_S - (time.perf_counter() - self.started)
        return run_child(args, self.env, self.work / f"child{self.n_children}",
                         timeout=max(left, 1.0))

    def cli(self, args: list[str]):
        return self.child(["-m", "foldylax.cli", *args])

    def setup(self) -> tuple[list[float], dict]:
        """Generate the input clouds SETUP_REPS times: (wall times, M per cloud)."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        clouds = CLOUDS[self.name]
        times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            for stem, flags in clouds.items():
                c = self.cli(["generate", *flags, "--seed", str(self.seed),
                              "--out", str(self.work / f"{stem}.json")])
                if c.returncode != 0:
                    raise SystemExit(f"set-up failed: foldylax generate exited "
                                     f"{c.returncode}: {c.stderr.strip()}")
            times.append(time.perf_counter() - start)
        sizes = {stem: len(json.loads((self.work / f"{stem}.json").read_text())["centers"])
                 for stem in clouds}
        return times, sizes

    def clear_outputs(self):
        for path in output_files(self.name, self.work):
            path.unlink(missing_ok=True)

    def measured_run(self, expect: dict) -> dict:
        self.clear_outputs()
        c = self.cli(cli_args(self.name, self.work, self.seed))
        if c.returncode != 0:
            problems = [f"exit {c.returncode}: {c.stderr.strip()[-300:]}"]
        else:
            try:
                problems = check(self.name, parse_stdout(self.name, c.stdout),
                                 self.work, expect)
            except (KeyError, ValueError) as exc:
                problems = [f"unreadable output: {exc}"]
        return {"wall_s": c.wall_s, "maxrss_mb": c.maxrss_mb,
                "returncode": c.returncode, "problems": problems}

    def reference_sup_error(self) -> tuple[float, str]:
        """The stored sup_error for this seed, else one untimed CLI run's value.

        Values computed here are cached in OUT; they only check that runs
        agree with each other, and the record says which kind was used.
        """
        table = json.loads(REFERENCES.read_text())["sup_error"]
        if str(self.seed) in table:
            return table[str(self.seed)], "table"
        cache = OUT / "references-cache.json"
        cached = json.loads(cache.read_text()) if cache.exists() else {}
        if str(self.seed) not in cached:
            cached[str(self.seed)] = self.sup_error_once()
            cache.write_text(json.dumps(cached, indent=1) + "\n")
        return cached[str(self.seed)], "computed"

    def sup_error_once(self) -> float:
        """sup_error printed by one untimed, unchecked compare_bie CLI run."""
        c = self.cli(cli_args(self.name, self.work, self.seed))
        if c.returncode != 0:
            raise SystemExit(f"reference run failed: exit {c.returncode}: "
                             f"{c.stderr.strip()[-300:]}")
        return parse_stdout(self.name, c.stdout)["sup_error"]


def traced_run(bench: Bench, expect: dict, run_s: float, spans_path: Path):
    """Per-layer metrics from spans written to ``spans_path``; also the check."""
    sys.path.insert(0, str(ROOT / "src"))
    import traced  # imports foldylax from the checkout's src

    tracer = Tracer()
    for i in range(IMPORT_REPS):
        tracer.run = f"import-{i}"
        with tracer.span("cli.import"):
            c = bench.child(["-c", IMPORT_ONLY])
        if c.returncode != 0:
            raise SystemExit(f"import-only child exited {c.returncode}")
    tracer.run = "traced"
    argv = cli_args(bench.name, bench.work, bench.seed)
    bench.clear_outputs()
    values, counts, written, kept = traced.timed_pass(bench.name, argv, tracer)
    problems = check(bench.name, values, bench.work, expect)
    counts["io.bytes_written"] = sum(os.path.getsize(p) for p in written)
    tracer.write(spans_path)
    peaks = traced.alloc_pass(kept)
    metrics = layer_metrics(read_spans(spans_path), counts, peaks, run_s)
    return metrics, problems


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own OpenBLAS
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": _openblas(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "FOLDYLAX_THREADS": THREADS, "seed": seed}


def _openblas() -> list[dict]:
    """Version string and thread count in force of each OpenBLAS loaded here."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    symbols = [(f"{p}get_num_threads{s}", f"{p}get_config{s}")
               for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")]
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads, config in symbols:
            if hasattr(lib, threads) and hasattr(lib, config):
                get_threads, get_config = getattr(lib, threads), getattr(lib, config)
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                found.append({"library": os.path.basename(path),
                              "config": get_config().decode(), "threads": get_threads()})
                break
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CLOUDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "foldylax" / "cli.py").is_file():
        print(f"error: no foldylax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_own_threads()
    bench = Bench(args.workload, args.seed)
    setup_times, sizes = bench.setup()
    expect = {"M": sizes}
    ref_kind = None
    if args.workload == "compare_bie":
        expect["sup_error"], ref_kind = bench.reference_sup_error()

    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        runs.append(bench.measured_run(expect))
    loop_s = time.perf_counter() - start
    walls = [r["wall_s"] for r in runs]
    run_s = statistics.median(walls)
    end_to_end = {"run_s": (run_s, "s"),
                  "peak_rss_mb": (statistics.median(r["maxrss_mb"] for r in runs), "MB"),
                  "setup_s": (statistics.median(setup_times), "s")}
    attempted = len(runs)
    failed = sum(1 for r in runs if r["problems"])
    problems = [p for r in runs for p in r["problems"]]

    stem = f"{args.workload}-seed{args.seed}"
    per_layer = {}
    if args.trace:
        per_layer, traced_problems = traced_run(bench, expect, run_s,
                                                OUT / f"{stem}-spans.jsonl")
        attempted += 1
        failed += bool(traced_problems)
        problems += [f"traced: {p}" for p in traced_problems]
    metrics = per_layer if args.trace else end_to_end

    def as_json(d):
        return {k: {"value": v, "unit": u} for k, (v, u) in d.items()}

    env = environment(args.seed)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "clients": 1, "loop": "closed",
              "attempted": attempted, "failed": failed, "reference": ref_kind,
              "setup_s": setup_times, "runs": runs,
              "end_to_end": as_json(end_to_end), "per_layer": as_json(per_layer)}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed}: one client, closed loop, "
          f"{len(runs)} CLI runs in {loop_s:.1f} s")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "openblas")
          + "".join(f" {b['library']}:threads={b['threads']}" for b in env["openblas"]))
    print(f"run_s median over n={len(walls)} runs; min {min(walls):.4f} s, "
          f"max {max(walls):.4f} s")
    for key, (value, unit) in (end_to_end | per_layer).items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.3f}")
    for p in problems:
        print(f"FAILED CHECK: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
