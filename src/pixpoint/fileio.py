"""On-disk formats for images and correspondences.

All writers emit bytes directly (LF line endings, '.' decimal separator)
so files are identical across platforms. Text float fields use 17
significant digits (exact float64 round trip). Re-reading a file and
writing it again always reproduces the same bytes.

Formats:
    PPM         binary "P6", maxval 255, row-major RGB (floats quantized
                by round-half-up on write, read back as k/255)
    CORRTXT v1  line 1: "CORRTXT v1 <n> <camera_id>"
                then n lines "point_index u v depth" (%.17g floats)
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .geometry import CorrespondenceSet, Image


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


# ── images (binary PPM) ──────────────────────────────────────────────────

def write_image(path, img: Image) -> None:
    q = np.floor(img.pixels * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(q.tobytes())


def read_image(path) -> Image:
    with open(path, "rb") as f:
        data = f.read()
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6":
        raise ParseError("not a P6 PPM", offset=0)
    dims = parts[1].split()
    if len(dims) != 2:
        raise ParseError("bad PPM size line", offset=3)
    try:
        w, h = int(dims[0]), int(dims[1])
    except ValueError:
        raise ParseError("bad PPM size line", offset=3) from None
    if parts[2] != b"255":
        raise ParseError("PPM maxval must be 255", offset=3 + len(parts[1]) + 1)
    payload = parts[3]
    need = w * h * 3
    header_len = len(data) - len(payload)
    if len(payload) < need:
        raise ParseError(
            f"PPM payload truncated: need {need} bytes, got {len(payload)}",
            offset=header_len + len(payload),
        )
    raw = np.frombuffer(payload[:need], dtype=np.uint8).reshape(h, w, 3)
    return Image(raw.astype(np.float64) / 255.0)


# ── correspondences ──────────────────────────────────────────────────────

def write_correspondences(path, cs: CorrespondenceSet) -> None:
    lines = [f"CORRTXT v1 {len(cs)} {cs.camera_id}"]
    for i in range(len(cs)):
        lines.append(
            f"{int(cs.point_index[i])} {_fmt17(cs.u[i])} {_fmt17(cs.v[i])} {_fmt17(cs.depth[i])}"
        )
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))


def read_correspondences(path) -> CorrespondenceSet:
    with open(path, "rb") as f:
        data = f.read()
    lines = data.split(b"\n")
    header = lines[0].split()
    if len(header) != 4 or header[0] != b"CORRTXT" or header[1] != b"v1":
        raise ParseError("bad CORRTXT header", offset=0)
    try:
        n = int(header[2])
        cam = int(header[3])
    except ValueError:
        raise ParseError("bad CORRTXT header counts", offset=0) from None
    offset = len(lines[0]) + 1
    idx = np.empty(n, dtype=np.int64)
    u = np.empty(n)
    v = np.empty(n)
    d = np.empty(n)
    for i in range(n):
        if i + 1 >= len(lines):
            raise ParseError("truncated CORRTXT file", offset=len(data))
        fields = lines[i + 1].split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields on line {i}", offset=offset)
        try:
            idx[i] = int(fields[0])
            u[i], v[i], d[i] = (float(x) for x in fields[1:])
        except ValueError:
            raise ParseError(f"unparseable number on line {i}", offset=offset) from None
        offset += len(lines[i + 1]) + 1
    return CorrespondenceSet(idx, u, v, d, cam)
