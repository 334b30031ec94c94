"""File formats: binary PGM (P5), raw float32 + JSON sidecar, pair manifests.

* Intensity images: 8- or 16-bit PGM (quantized), or lossless raw
  little-endian float32 with a ``{"width","height","spacing"}`` sidecar.
* Label maps: PGM with the integer codes stored verbatim.
* Fields and control grids: raw float32 with a ``kind`` tag in the sidecar.

A ``foo.raw`` payload always pairs with a ``foo.json`` sidecar.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .bspline import ControlGrid, DisplacementField
from .errors import DomainError
from .image import Image2D, LabelMap, check_spacing

__all__ = [
    "write_pgm", "read_pgm", "write_label_pgm", "read_label_pgm",
    "write_raw_image", "read_raw_image", "write_field", "read_field",
    "write_grid", "read_grid", "write_manifest", "read_manifest", "read_json",
]


# ---------------------------------------------------------------------------
# PGM (P5)


def _write_p5(path, array_uint: np.ndarray, maxval: int):
    h, w = array_uint.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    if maxval < 256:
        payload = array_uint.astype(np.uint8).tobytes()
    else:
        payload = array_uint.astype(">u2").tobytes()  # 16-bit PGM is big-endian
    Path(path).write_bytes(header + payload)


def _read_p5(path):
    blob = Path(path).read_bytes()
    # header: magic, width, height, maxval separated by whitespace/comments
    pos = 0
    fields = []
    while len(fields) < 4:
        m = re.match(rb"(\s*(#[^\n]*\n)?)*([^\s#]+)", blob[pos:])
        if not m:
            raise DomainError(f"{path}: truncated PGM header")
        fields.append(m.group(3))
        pos += m.end()
    if fields[0] != b"P5":
        raise DomainError(f"{path}: not a binary PGM (P5) file")
    try:
        w, h, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise DomainError(f"{path}: PGM header size and maxval must be integers") from None
    if min(w, h) < 1 or not 0 < maxval < 65536:
        raise DomainError(f"{path}: PGM header holds {w}x{h}, maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    expected, actual = w * h * dtype.itemsize, max(len(blob) - pos, 0)
    if actual < expected:
        raise DomainError(f"{path}: truncated PGM: header promises {expected} "
                          f"payload bytes, file holds {actual}")
    data = np.frombuffer(blob, dtype=dtype, count=w * h, offset=pos)
    return data.reshape(h, w).astype(np.int64), maxval


def write_pgm(path, img: Image2D, maxval: int = 255):
    """Quantize a [0,1] intensity image to an 8- or 16-bit PGM."""
    if maxval not in (255, 65535):
        raise DomainError("maxval must be 255 or 65535")
    q = np.rint(np.clip(img.data, 0.0, 1.0) * maxval).astype(np.int64)
    _write_p5(path, q, maxval)


def read_pgm(path) -> Image2D:
    data, maxval = _read_p5(path)
    return Image2D(data.astype(np.float64) / maxval)


def write_label_pgm(path, lab: LabelMap):
    maxval = 255 if lab.num_classes <= 256 else 65535
    _write_p5(path, lab.labels.astype(np.int64), maxval)


def read_label_pgm(path) -> LabelMap:
    """Label codes verbatim; ``num_classes`` is the largest code plus one."""
    data, _ = _read_p5(path)
    return LabelMap(data, num_classes=int(data.max()) + 1)


# ---------------------------------------------------------------------------
# JSON (sidecars, manifests, config files) and raw float32 payloads


def read_json(path, expected: type):
    """The JSON value in ``path``, which must be an ``expected`` (``dict`` or ``list``)."""
    try:
        value = json.loads(Path(path).read_text())
    except ValueError as exc:  # also undecodable bytes
        raise DomainError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(value, expected):
        raise DomainError(f"{path}: expected a JSON {expected.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _sidecar_path(raw_path) -> Path:
    return Path(raw_path).with_suffix(".json")


def _write_raw(raw_path, array: np.ndarray, sidecar: dict):
    Path(raw_path).write_bytes(array.astype("<f4").tobytes())
    _sidecar_path(raw_path).write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def _read_raw(raw_path, kind, shape_keys, channels=()):
    """The float32 payload as float64, shaped by the sidecar's ``shape_keys``
    (plus ``channels``); the sidecar's ``kind`` and the byte count must match."""
    sidecar = read_json(_sidecar_path(raw_path), dict)
    if sidecar.get("kind") != kind:
        raise DomainError(f"{raw_path}: sidecar kind is {sidecar.get('kind')!r}, not {kind!r}")
    shape = tuple(sidecar.get(k) for k in shape_keys)
    if not all(type(d) is int and d >= 0 for d in shape):
        raise DomainError(f"{_sidecar_path(raw_path)}: {shape_keys} must be "
                          f"non-negative integers, got {shape}")
    shape += channels
    payload = Path(raw_path).read_bytes()
    expected = 4 * int(np.prod(shape))
    if len(payload) != expected:
        raise DomainError(f"{raw_path}: sidecar promises {expected} bytes, "
                          f"payload holds {len(payload)}")
    return np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(shape), sidecar


def _sidecar_spacing(raw_path, sidecar, key, default=None):
    """The sidecar's ``key``, a positive finite number; ``default`` if the key is
    absent, and a ``DomainError`` if it is absent with no default."""
    if key not in sidecar and default is not None:
        return default
    return check_spacing(sidecar.get(key), f"{_sidecar_path(raw_path)}: {key}")


def write_raw_image(raw_path, img: Image2D):
    _write_raw(raw_path, img.data,
               {"width": img.width, "height": img.height, "spacing": img.spacing})


def read_raw_image(raw_path) -> Image2D:
    data, sc = _read_raw(raw_path, None, ("height", "width"))
    return Image2D(data, spacing=_sidecar_spacing(raw_path, sc, "spacing", 1.0))


def write_field(raw_path, fld: DisplacementField):
    _write_raw(raw_path, fld.u,
               {"kind": "field", "width": fld.width, "height": fld.height,
                "spacing_px": fld.spacing})


def read_field(raw_path) -> DisplacementField:
    data, sc = _read_raw(raw_path, "field", ("height", "width"), (2,))
    return DisplacementField(data, spacing=_sidecar_spacing(raw_path, sc, "spacing_px", 1.0))


def write_grid(raw_path, grid: ControlGrid):
    _write_raw(raw_path, grid.coeffs,
               {"kind": "grid", "cols": grid.cols, "rows": grid.rows,
                "spacing_px": grid.spacing_px})


def read_grid(raw_path) -> ControlGrid:
    data, sc = _read_raw(raw_path, "grid", ("rows", "cols"), (2,))
    return ControlGrid(_sidecar_spacing(raw_path, sc, "spacing_px"), data)


# ---------------------------------------------------------------------------
# manifests


def write_manifest(path, entries: list):
    """Entries are dicts with fixed/moving image and label paths (+ optional gt field)."""
    Path(path).write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> list:
    entries = read_json(path, list)
    base = Path(path).parent
    for i, e in enumerate(entries):
        if not (isinstance(e, dict) and isinstance(e.get("id"), str)):
            raise DomainError(f"{path}: entry {i} must be an object with a string id")
        for key, val in list(e.items()):
            if key.endswith(("image", "labels", "field")) and val is not None:
                p = Path(val)
                if not p.is_absolute():
                    p = base / p
                if not p.exists():
                    raise DomainError(f"manifest entry references missing file {p}")
                e[key] = str(p)
    return entries
