"""Binary checkpoint format "XMDL1".

Layout (all integers little-endian):
    magic b"XMDL1"
    per tensor, until end of file:
        u32 name length, name bytes (utf-8),
        u32 rank, u32 dims[rank],
        float64 payload (little-endian, C order)

Round trips are bit-exact; tensor order is preserved.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from ..errors import ParseError
from .params import EncoderParams2D, EncoderParams3D, HeadParams

MAGIC = b"XMDL1"


def save_checkpoint(path, tensors: dict) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        for name, arr in tensors.items():
            # note: ascontiguousarray would promote 0-d tensors to 1-d
            arr = np.asarray(arr, dtype="<f8")
            name_b = name.encode("utf-8")
            f.write(struct.pack("<I", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(MAGIC):
        raise ParseError("bad checkpoint magic", offset=0)
    pos = len(MAGIC)
    out = {}
    while pos < len(data):
        if pos + 4 > len(data):
            raise ParseError("truncated tensor record", offset=pos)
        (name_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if pos + name_len > len(data):
            raise ParseError("truncated tensor name", offset=pos)
        name = data[pos : pos + name_len].decode("utf-8")
        pos += name_len
        if pos + 4 > len(data):
            raise ParseError("truncated tensor rank", offset=pos)
        (rank,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if pos + 4 * rank > len(data):
            raise ParseError("truncated tensor dims", offset=pos)
        dims = struct.unpack_from(f"<{rank}I", data, pos)
        pos += 4 * rank
        count = 1
        for d in dims:
            count *= d
        if pos + 8 * count > len(data):
            raise ParseError("truncated tensor payload", offset=pos)
        out[name] = np.frombuffer(data, dtype="<f8", count=count, offset=pos).reshape(dims).copy()
        pos += 8 * count
    return out


def checkpoint_checksum(tensors: dict) -> str:
    """sha256 over names and exact tensor bytes (order independent)."""
    h = hashlib.sha256()
    for name in sorted(tensors):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())
    return h.hexdigest()


# ── model-level helpers ──────────────────────────────────────────────────

def _prefixed(prefix, tensors):
    return {f"{prefix}.{k}": v for k, v in tensors.items()}


def _strip(prefix, tensors):
    plen = len(prefix) + 1
    return {k[plen:]: v for k, v in tensors.items() if k.startswith(prefix + ".")}


def save_model_2d(path, encoder: EncoderParams2D, head: HeadParams) -> None:
    save_checkpoint(path, {**_prefixed("enc2d", encoder.tensors()), **_prefixed("head", head.tensors())})


def save_model_3d(path, encoder: EncoderParams3D, head: HeadParams) -> None:
    tensors = {
        **_prefixed("enc3d", encoder.tensors()),
        "enc3d.k": np.array(float(encoder.k)),
        **_prefixed("head", head.tensors()),
    }
    save_checkpoint(path, tensors)


def load_model_2d(path):
    tensors = load_checkpoint(path)
    enc = _strip("enc2d", tensors)
    head = _strip("head", tensors)
    if not enc or not head:
        raise ParseError(f"{path} is not a 2D model checkpoint")
    return EncoderParams2D.from_tensors(enc), HeadParams.from_tensors(head)


def load_model_3d(path):
    tensors = load_checkpoint(path)
    enc = _strip("enc3d", tensors)
    head = _strip("head", tensors)
    if not enc or not head:
        raise ParseError(f"{path} is not a 3D model checkpoint")
    k = int(enc.pop("k").item()) if "k" in enc else 8
    return EncoderParams3D.from_tensors(enc, k=k), HeadParams.from_tensors(head)
