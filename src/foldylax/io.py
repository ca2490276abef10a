"""Serialization: cloud documents and CSV artifacts.

Cloud documents are written and read by the json module, its floats in
Python's shortest round-trip form; CSV floats are emitted with 17
significant digits (%.17g). Both round-trip IEEE doubles exactly, and every
writer is deterministic for a given payload. Files are written atomically
(temp file + os.replace) so a crashed run never leaves a truncated artifact
behind.

Cloud document schema (JSON):

    {"version": str, "centers": [[x,y,z],...], "radii": [...],
     "impedance_re": [...], "impedance_im": [...],
     "regime": null | {"a","s","t","beta","M_max","d_min","d_max",
                       "lambda0_re","lambda0_im"},
     "areas": null | [...]}

The keys are exactly the schema's ("areas" may be left out). version must be
a JSON string, every regime value a JSON number (not a string or a bool),
centers a list of [x, y, z] lists of numbers, and radii, impedance_re,
impedance_im and a non-null areas flat lists of numbers; anything else, an
unknown key too, is a ValueError that names the key. load_cloud reads every
number as a float, so one too large for a double reads as +-inf however it
is spelled (1e400 or a 401-digit integer), and ScattererCloud and
RegimeParams refuse it as non-finite, as they do a NaN or Infinity literal.
load_cloud also refuses, as a ValueError that names the file and keeps the
decoder's detail, a document that is not UTF-8 JSON or that nests too deeply
for json to parse. save_cloud refuses a non-finite float, which JSON cannot
hold.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from ._version import __version__
from .geometry import RegimeParams, ScattererCloud
from .spherical import _degrees_orders


def fmt(x) -> str:
    """17-significant-digit decimal form of a float (exact double round-trip)."""
    return format(float(x), ".17g")


def write_text_atomic(path: str, text: str):
    """Write text to path via a same-directory temp file and atomic rename.

    The temp file is created with mode 0666 less the umask, as open() would
    create path itself. An OSError names path (and its directory where the
    temp file cannot be made there), never the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno,
                          f"cannot write {path}: {exc.strerror}: {directory}") from None
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from None
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
        "centers": cloud.centers.tolist(),
        "radii": cloud.radii.tolist(),
        "impedance_re": cloud.impedances.real.tolist(),
        "impedance_im": cloud.impedances.imag.tolist(),
        "regime": rg,
        "areas": None if cloud.is_spherical else cloud.areas.tolist(),
    }


def save_cloud(path: str, cloud: ScattererCloud):
    """Write cloud_document(cloud) as JSON; a non-finite number, which JSON
    cannot hold, is a ValueError before the file is opened."""
    write_text_atomic(path, json.dumps(cloud_document(cloud), allow_nan=False) + "\n")


def load_cloud(path: str) -> ScattererCloud:
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_int=float)
        except RecursionError:
            raise ValueError(f"cloud document {path} nests too deeply to read") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"cloud document {path} is not JSON: {exc}") from None
    return _cloud_from_document(doc)


def _require_keys(doc, keys: str, what: str, optional: str = ""):
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    missing = set(keys.split()) - set(doc)
    if missing:
        raise ValueError(f"{what} missing keys: {sorted(missing)}")
    unknown = set(doc) - set(keys.split()) - set(optional.split())
    if unknown:
        raise ValueError(f"{what} has unknown keys: {sorted(unknown)}")


_REGIME_NUMBERS = "a s t beta M_max d_min d_max lambda0_re lambda0_im"


def _all_numbers(values) -> bool:
    """Every item is a JSON number, which load_cloud decodes as a float. Checks
    each distinct type once, so a long list costs one pass in C."""
    return set(map(type, values)) <= {float}


def _number_array(doc: dict, key: str, width: int | None = None) -> np.ndarray:
    """doc[key] as floats: a list of JSON numbers or, with width, a list of
    lists of width JSON numbers. Anything else is a ValueError naming key."""
    values = doc[key]
    what = "JSON numbers" if width is None else f"lists of {width} JSON numbers"
    if not isinstance(values, list):
        raise ValueError(f"cloud document {key!r} must be a list of {what}, "
                         f"not {type(values).__name__}")
    if width is None:
        ok = _all_numbers(values)
    else:
        ok = (set(map(type, values)) <= {list} and set(map(len, values)) <= {width}
              and _all_numbers(itertools.chain.from_iterable(values)))
    if not ok:
        i = next(i for i, v in enumerate(values) if not (
            _all_numbers([v]) if width is None
            else type(v) is list and len(v) == width and _all_numbers(v)))
        raise ValueError(f"cloud document {key!r} must be a list of {what}; "
                         f"item {i} is {json.dumps(values[i])}")
    return np.array(values, dtype=float)


def _cloud_from_document(doc) -> ScattererCloud:
    """The cloud of a document as load_cloud decodes it, every number a float."""
    _require_keys(doc, "version centers radii impedance_re impedance_im regime",
                  "cloud document", optional="areas")
    if type(doc["version"]) is not str:
        raise ValueError(f"cloud document 'version' must be a JSON string, "
                         f"not {json.dumps(doc['version'])}")
    regime, r = None, doc["regime"]
    if r is not None:
        _require_keys(r, _REGIME_NUMBERS, "cloud document regime")
        for key in _REGIME_NUMBERS.split():
            if not _all_numbers([r[key]]):
                raise ValueError(f"cloud document regime {key!r} must be a JSON number, "
                                 f"not {json.dumps(r[key])}")
        regime = RegimeParams(a=r["a"], s=r["s"], t=r["t"], beta=r["beta"],
                              M_max=r["M_max"], d_min=r["d_min"], d_max=r["d_max"],
                              lambda0=complex(r["lambda0_re"], r["lambda0_im"]))
    re, im = _number_array(doc, "impedance_re"), _number_array(doc, "impedance_im")
    if len(re) != len(im):
        raise ValueError("cloud document 'impedance_re' and 'impedance_im' must have "
                         "equal lengths")
    impedances = np.empty(len(re), dtype=complex)  # re + 1j * im makes inf * 0j a NaN
    impedances.real, impedances.imag = re, im
    return ScattererCloud(centers=_number_array(doc, "centers", width=3),
                          radii=_number_array(doc, "radii"),
                          impedances=impedances, regime=regime,
                          areas=None if doc.get("areas") is None
                          else _number_array(doc, "areas"))


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


def write_density_csv(path: str, coefficients: np.ndarray, comments=()):
    """Columns sphere,l,m,re,im of the (M, (L+1)^2) harmonic coefficients of a
    BIE solution: a row per sphere, its columns ordered
    (l, m) = (0,0), (1,-1), (1,0), (1,1), ...
    """
    ls, ms = _degrees_orders(math.isqrt(coefficients.shape[1]) - 1)
    lm = [(str(l), str(m)) for l, m in zip(ls.tolist(), ms.tolist())]
    rows = ([str(s + 1), l, m, fmt(c.real), fmt(c.imag)]
            for s, row in enumerate(coefficients) for (l, m), c in zip(lm, row))
    write_text_atomic(path, _csv_text(comments, "sphere,l,m,re,im", rows))


def write_study_csv(path: str, records, ratefit, comments=()):
    """Per-a study rows plus a trailing slope,intercept,r2,predicted summary.

    records: iterable of dicts with keys a, M, d, error, residual_fl,
    residual_bie (residuals may be nan when a route was not run).
    """
    text = _csv_text(comments, "a,M,d,error,residual_fl,residual_bie",
                     ([fmt(r["a"]), str(r["M"]), fmt(r["d"]), fmt(r["error"]),
                       fmt(r["residual_fl"]), fmt(r["residual_bie"])] for r in records))
    text += "slope,intercept,r2,predicted\n"
    text += ",".join([fmt(ratefit.slope), fmt(ratefit.intercept),
                      fmt(ratefit.r_squared), fmt(ratefit.predicted_slope)]) + "\n"
    write_text_atomic(path, text)

