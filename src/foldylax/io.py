"""Serialization: cloud documents and CSV artifacts.

All floats are emitted with 17 significant digits (%.17g), enough to
round-trip IEEE doubles exactly, and every writer is deterministic for a
given payload. Files are written atomically (temp file + os.replace) so a
crashed run never leaves a truncated artifact behind.

Cloud document schema (JSON):

    {"version": str, "centers": [[x,y,z],...], "radii": [...],
     "impedance_re": [...], "impedance_im": [...],
     "regime": null | {"a","s","t","beta","M_max","d_min","d_max",
                       "lambda0_re","lambda0_im"},
     "areas": null | [...]}
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from ._version import __version__
from .geometry import RegimeParams, ScattererCloud


def fmt(x) -> str:
    """17-significant-digit decimal form of a float (exact double round-trip)."""
    return format(float(x), ".17g")


def _emit(obj) -> str:
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_emit(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_document(obj: dict) -> str:
    """Serialize a nested dict/list document with %.17g floats."""
    return _emit(obj) + "\n"


def write_text_atomic(path: str, text: str):
    """Write text to path via a same-directory temp file and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cloud_document(cloud: ScattererCloud) -> dict:
    rg = None
    if cloud.regime is not None:
        r = cloud.regime
        rg = {"a": r.a, "s": r.s, "t": r.t, "beta": r.beta,
              "M_max": r.M_max, "d_min": r.d_min, "d_max": r.d_max,
              "lambda0_re": r.lambda0.real, "lambda0_im": r.lambda0.imag}
    return {
        "version": __version__,
        "centers": [list(row) for row in cloud.centers],
        "radii": list(cloud.radii),
        "impedance_re": list(cloud.impedances.real),
        "impedance_im": list(cloud.impedances.imag),
        "regime": rg,
        "areas": None if cloud.is_spherical else list(cloud.areas),
    }


def save_cloud(path: str, cloud: ScattererCloud):
    write_text_atomic(path, dumps_document(cloud_document(cloud)))


def load_cloud(path: str) -> ScattererCloud:
    with open(path) as fh:
        doc = json.load(fh)
    return cloud_from_document(doc)


def _require_keys(doc, keys: str, what: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    missing = set(keys.split()) - set(doc)
    if missing:
        raise ValueError(f"{what} missing keys: {sorted(missing)}")


def cloud_from_document(doc: dict) -> ScattererCloud:
    _require_keys(doc, "version centers radii impedance_re impedance_im regime", "cloud document")
    regime, r = None, doc["regime"]
    if r is not None:
        _require_keys(r, "a s t beta M_max d_min d_max lambda0_re lambda0_im",
                      "cloud document regime")
        regime = RegimeParams(a=r["a"], s=r["s"], t=r["t"], beta=r["beta"],
                              M_max=r["M_max"], d_min=r["d_min"], d_max=r["d_max"],
                              lambda0=complex(r["lambda0_re"], r["lambda0_im"]))
    impedances = np.array(doc["impedance_re"], dtype=float) + 1j * np.array(
        doc["impedance_im"], dtype=float)
    return ScattererCloud(centers=np.array(doc["centers"], dtype=float),
                          radii=np.array(doc["radii"], dtype=float),
                          impedances=impedances, regime=regime,
                          areas=None if doc.get("areas") is None
                          else np.array(doc["areas"], dtype=float))


def _csv_text(comments, header: str, rows) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(",".join(cells) for cells in rows)
    return "\n".join(lines) + "\n"


def write_charges_csv(path: str, charges: np.ndarray, comments=()):
    """Columns m,re_Q,im_Q with 1-based scatterer index."""
    rows = ([str(m + 1), fmt(q.real), fmt(q.imag)] for m, q in enumerate(charges))
    write_text_atomic(path, _csv_text(comments, "m,re_Q,im_Q", rows))


def write_farfield_csv(path: str, directions: np.ndarray, values: np.ndarray, comments=()):
    """Columns xhat_x,xhat_y,xhat_z,re_U,im_U."""
    rows = ([fmt(d[0]), fmt(d[1]), fmt(d[2]), fmt(v.real), fmt(v.imag)]
            for d, v in zip(directions, values))
    write_text_atomic(path, _csv_text(comments, "xhat_x,xhat_y,xhat_z,re_U,im_U", rows))


def write_density_csv(path: str, densities, comments=()):
    """Columns sphere,l,m,re,im for per-sphere harmonic coefficients.

    densities: sequence of per-sphere coefficient vectors ordered
    (l, m) = (0,0), (1,-1), (1,0), (1,1), ...
    """
    def rows():
        for si, coeffs in enumerate(densities):
            i = 0
            L = int(round(np.sqrt(len(coeffs)))) - 1
            for l in range(L + 1):
                for m in range(-l, l + 1):
                    c = coeffs[i]
                    yield [str(si + 1), str(l), str(m), fmt(c.real), fmt(c.imag)]
                    i += 1
    write_text_atomic(path, _csv_text(comments, "sphere,l,m,re,im", rows()))


def write_study_csv(path: str, records, ratefit=None, comments=()):
    """Per-a study rows plus a trailing slope,intercept,r2,predicted summary.

    records: iterable of dicts with keys a, M, d, error, residual_fl,
    residual_bie (residuals may be nan when a route was not run).
    """
    text = _csv_text(comments, "a,M,d,error,residual_fl,residual_bie",
                     ([fmt(r["a"]), str(r["M"]), fmt(r["d"]), fmt(r["error"]),
                       fmt(r["residual_fl"]), fmt(r["residual_bie"])] for r in records))
    if ratefit is not None:
        text += "slope,intercept,r2,predicted\n"
        text += ",".join([fmt(ratefit.slope), fmt(ratefit.intercept),
                          fmt(ratefit.r_squared), fmt(ratefit.predicted_slope)]) + "\n"
    write_text_atomic(path, text)


def read_csv(path: str):
    """Read back a CSV written by this module: (comment lines, data lines)."""
    comments, lines = [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            (comments if line.startswith("#") else lines).append(line)
    return comments, lines
