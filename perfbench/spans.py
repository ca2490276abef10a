"""Span records for the traced benchmark pass, and the self-time arithmetic.

A span is one call into a layer: a name, its start and end in
``time.perf_counter`` seconds, the id of the span that caused it, and the id
of the run it belongs to. Spans stay in memory while the run executes and
are written as JSON lines when it ends; per-layer times are computed from
that file, never inside the spans.

Some public functions call other public functions (``foldy.solve`` runs
``invertibility_report``). The benchmark cannot see inside them, so it times
the wrapper, then calls each part again on the same inputs in a span whose
parent is the wrapper. Such a replayed child lies outside its parent's
interval. A span's self time is therefore its duration minus the summed
durations of its children; for children nested inside the parent, as
sequential code makes them, that equals the part of the interval they cover.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans in memory; ``run`` tags every span opened after it is set."""

    def __init__(self, run: str = "run"):
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the body; yields the span id so replays can name it as parent.

        The parent defaults to the innermost open span.
        """
        sid = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        rec = {"id": sid, "name": name, "parent": parent, "run": self.run,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    out = dict(own)
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= own[s["id"]]
    return out


def self_time_by_name(spans, run: str) -> dict[str, float]:
    """Summed self time per span name over the spans of one run."""
    st = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["run"] == run:
            totals[s["name"]] += st[s["id"]]
    return dict(totals)


def top_level_time(spans, run: str) -> float:
    """Summed duration of a run's parentless spans: the traced wall time."""
    return sum(s["end"] - s["start"] for s in spans
               if s["run"] == run and s["parent"] is None)


TRACED_RUN = "traced"
# spans whose summed self time is reported as ``<name>_s``
TIMED = ("io.load_cloud", "io.write_csv", "geometry.generate_grid_cloud",
         "geometry.ScattererCloud", "foldy.assemble", "foldy.invertibility_report",
         "foldy.solve", "foldy.farfield", "spherical.sphere_quadrature",
         "spherical.harmonic_matrix", "oracle.sphere_operator_spectra",
         "oracle.assemble_bie", "oracle.solve_bie", "oracle.bie_farfield",
         "analysis.oracle_farfield", "analysis.convergence_study",
         "analysis.farfield_error", "analysis.fit_rate")
# calls whose largest tracemalloc peak is reported as ``<name>.alloc_mb``
ALLOCATING = ("geometry.ScattererCloud", "foldy.assemble", "foldy.invertibility_report",
              "foldy.solve", "foldy.farfield", "oracle.assemble_bie")
COUNTED = {"io.bytes_written": "B", "foldy.solve.gflops_computed": "GFLOP",
           "oracle.coupling_blocks": "count"}


def layer_metrics(spans, counts: dict, peaks: dict, run_s: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from a spans file's records.

    ``cli.import`` spans come from runs named ``import-<i>`` and report their
    median; every other span belongs to the run named ``traced``. The traced
    time is the import time plus the traced run's top-level spans, which is
    also the sum of all their self times; ``run_s`` is the untraced CLI
    median it is compared with.
    """
    own = self_time_by_name(spans, TRACED_RUN)
    st = self_times(spans)
    imports = [st[s["id"]] for s in spans if s["run"].startswith("import-")]
    cli_import = statistics.median(imports) if imports else 0.0
    out = {"cli.import_s": (cli_import, "s")}
    out.update({f"{n}_s": (own.get(n, 0.0), "s") for n in TIMED})
    out.update({f"{n}.alloc_mb": (peaks.get(n, 0.0), "MB") for n in ALLOCATING})
    out.update({n: (float(counts.get(n, 0)), unit) for n, unit in COUNTED.items()})
    assembling = own.get("oracle.assemble_bie", 0.0)
    blocks = counts.get("oracle.coupling_blocks", 0)
    out["oracle.blocks_per_s"] = (blocks / assembling if assembling > 0 else 0.0, "1/s")
    traced = cli_import + top_level_time(spans, TRACED_RUN)
    out["trace.coverage"] = (traced / run_s, "ratio")
    out["trace.overhead_s"] = (traced - run_s, "s")
    return out
