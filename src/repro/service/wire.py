"""The plan service's one wire and storage format: binary-v2.

Every binary payload the service moves — a
:class:`~repro.core.pipeline.PlanRequest`, a
:class:`~repro.core.vectorize.VectorGroup`, a list of
:class:`~repro.core.pipeline.PlanResult`\\ s, a plan-cache key — and
every value the sqlite plan store keeps travels as one *envelope*::

    repro-plan-wire:v2\\n          <- magic line, checked first
    <8-byte big-endian header length>
    json({"format": "repro-plan-service", "version": 2,
          "payload": <tagged tree>,
          "frames":  [[dtype, shape, offset, nbytes], ...]})
    <frame 0 raw bytes><frame 1 raw bytes>...

Every NumPy array rides *out of band*: the JSON header carries its
dtype/shape and a byte range, the body carries the contiguous bytes,
and decoding is ``np.frombuffer`` straight over the received buffer —
no base64, no copy (the decoded arrays are read-only views of the
message body; encoding joins the frames' memoryviews into the body
with a single copy).  Everything else is a tagged JSON tree handled by
an explicit codec for the service's own types, so decoding never
executes anything from the payload and nothing here ever unpickles.

The magic line makes accidental cross-talk (posting an HTML error
page, a pickle, or an unknown wire version at an endpoint) fail with a
clean :class:`WireError` before any byte of the body is decoded.  A
custom strategy whose params or detail carry types the codec does not
know cannot be encoded: :func:`pack_v2` raises :class:`WireError`
naming the type.

*Relaying.*  :class:`Relayed` and :class:`Joined` encode as ``["sub", k,
j]`` (element ``j`` of the list payload of the envelope carried verbatim
as byte frame ``k``) and ``["cat", sub, ...]`` (those lists joined), so
the cluster coordinator forwards its workers' replies undecoded.  Only
``unpack_v2(data, relayed=True)``, for a client's replies, accepts them.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

#: dotted format name embedded in every envelope
WIRE_FORMAT = "repro-plan-service"
#: envelope version; both ends must match
WIRE_VERSION = 2
#: magic first line of every envelope
WIRE_MAGIC = b"repro-plan-wire:v2\n"
#: content type the HTTP endpoints speak for binary envelopes
CONTENT_TYPE = "application/x-repro-plan"
#: HTTP header a distributed-trace context travels in.  Defined in
#: :mod:`repro.obs.context` (stdlib-only, so core layers may import it
#: without pulling in numpy); re-exported here because this module is
#: where the service's header names live.
from repro.obs.context import TRACE_HEADER  # noqa: E402,F401

#: the name of the one format, as access logs and spans report it
PROFILE_BINARY = "binary-v2"


class WireError(ValueError):
    """The bytes on the wire are not a valid envelope (or wrong version)."""


class Relayed(NamedTuple):
    """Element ``position`` of the list payload of a peer's envelope."""

    envelope: bytes
    position: int


class Joined(NamedTuple):
    """The concatenation of the lists its :class:`Relayed` parts hold."""

    parts: List[Relayed]


# ---------------------------------------------------------------------------
# typed tagged-tree codec with out-of-band array frames
#
# A node is either a JSON scalar (None/bool/int/float/str, encoded
# natively) or a JSON array whose first element is a type tag.  Plain
# Python containers therefore always encode as tagged arrays, so there
# is no ambiguity between a payload list and a codec node.


_COMM_MODELS: Dict[str, type] = {}


def _comm_model_registry() -> Dict[str, type]:
    if not _COMM_MODELS:
        from repro.platform.comm_models import (
            BoundedMultiport,
            OnePort,
            ParallelLinks,
        )

        _COMM_MODELS.update(
            ParallelLinks=ParallelLinks,
            OnePort=OnePort,
            BoundedMultiport=BoundedMultiport,
        )
    return _COMM_MODELS


#: codec dispatch tables, bound on first pack/unpack by :func:`_load_codec`
#: so importing this module never drags the whole library in — yet the
#: per-node hot path is a flat ``type -> encoder`` / ``tag -> decoder``
#: lookup, not an isinstance chain with per-call imports
_CODEC_READY = False
_ENCODERS: Dict[type, Any] = {}
_DECODERS: Dict[str, Any] = {}


def _load_codec() -> None:
    global _CODEC_READY, _StrategyResult, _PlanRequest, _PlanResult
    global _VectorGroup, _Partition, _Rectangle, _CommunicationModel
    global _Processor, _StarPlatform
    if _CODEC_READY:
        return
    from repro.blocks.metrics import StrategyResult
    from repro.core.pipeline import PlanRequest, PlanResult
    from repro.core.vectorize import VectorGroup
    from repro.partition.rectangle import Partition, Rectangle
    from repro.platform.comm_models import CommunicationModel
    from repro.platform.processor import Processor
    from repro.platform.star import StarPlatform

    _StrategyResult = StrategyResult
    _PlanRequest = PlanRequest
    _PlanResult = PlanResult
    _VectorGroup = VectorGroup
    _Partition = Partition
    _Rectangle = Rectangle
    _CommunicationModel = CommunicationModel
    _Processor = Processor
    _StarPlatform = StarPlatform

    _ENCODERS.update(
        {
            bool: _enc_identity,
            str: _enc_identity,
            int: _enc_identity,
            float: _enc_identity,
            np.int32: _enc_int,
            np.int64: _enc_int,
            np.intp: _enc_int,
            np.float32: _enc_float,
            np.float64: _enc_float,
            np.bool_: _enc_bool,
            np.ndarray: _enc_ndarray,
            bytes: _enc_bytes,
            list: _enc_list,
            tuple: _enc_tuple,
            dict: _enc_dict,
            frozenset: _enc_frozenset,
            set: _enc_set,
            PlanResult: _enc_result,
            PlanRequest: _enc_request,
            VectorGroup: _enc_group,
            StrategyResult: _enc_strategy_result,
            StarPlatform: _enc_platform,
            Processor: _enc_processor,
            Partition: _enc_partition,
            Rectangle: _enc_rectangle,
            Relayed: _enc_relayed,
            Joined: _enc_joined,
        }
    )
    for cls in _comm_model_registry().values():
        _ENCODERS[cls] = _enc_comm_model
    _DECODERS.update(
        {
            "nd": _dec_nd,
            "by": _dec_by,
            "l": _dec_list,
            "t": _dec_tuple,
            "d": _dec_dict,
            "fs": _dec_frozenset,
            "set": _dec_set,
            "res": _dec_result,
            "req": _dec_request,
            "vg": _dec_group,
            "sr": _dec_strategy_result,
            "plat": _dec_platform,
            "proc": _dec_processor,
            "cm": _dec_comm_model,
            "part": _dec_partition,
            "rect": _dec_rectangle,
            "sub": _dec_sub,
            "cat": _dec_cat,
        }
    )
    _CODEC_READY = True


def _encode(obj: Any, frames: List[np.ndarray]) -> Any:
    """Encode ``obj`` into a JSON-able tagged node, collecting frames."""
    if obj is None:
        return None
    encoder = _ENCODERS.get(obj.__class__)
    if encoder is not None:
        return encoder(obj, frames)
    return _encode_other(obj, frames)


def _encode_other(obj: Any, frames: List[np.ndarray]) -> Any:
    """Slow path for subclasses and the long tail of NumPy scalar types."""
    if isinstance(obj, str):
        return str(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _enc_ndarray(obj, frames)
    if isinstance(obj, bytes):
        return _enc_bytes(obj, frames)
    if isinstance(obj, list):
        return _enc_list(obj, frames)
    if isinstance(obj, tuple):
        return _enc_tuple(obj, frames)
    if isinstance(obj, dict):
        return _enc_dict(obj, frames)
    if isinstance(obj, frozenset):
        return _enc_frozenset(obj, frames)
    if isinstance(obj, set):
        return _enc_set(obj, frames)
    if isinstance(obj, _CommunicationModel):
        kind = type(obj).__name__
        if kind not in _comm_model_registry():
            raise WireError(
                f"the binary-v2 wire format cannot encode custom "
                f"communication model {kind!r}"
            )
        return _enc_comm_model(obj, frames)
    for cls in (
        _PlanResult,
        _PlanRequest,
        _VectorGroup,
        _StrategyResult,
        _StarPlatform,
        _Processor,
        _Partition,
        _Rectangle,
    ):
        if isinstance(obj, cls):
            return _ENCODERS[cls](obj, frames)
    raise WireError(
        f"the binary-v2 wire format cannot encode {type(obj).__name__} "
        "payloads; keep custom params/detail to codec-supported types"
    )


def _enc_identity(obj, frames):
    return obj


def _enc_int(obj, frames):
    return int(obj)


def _enc_float(obj, frames):
    return float(obj)


def _enc_bool(obj, frames):
    return bool(obj)


def _enc_ndarray(obj, frames):
    if obj.dtype.hasobject:
        raise WireError(
            "the binary-v2 wire format cannot encode object arrays"
        )
    frames.append(obj)
    return ["nd", len(frames) - 1]


def _enc_bytes(obj, frames):
    return ["by", base64.b64encode(obj).decode("ascii")]


def _enc_list(obj, frames):
    return ["l", *[_encode(v, frames) for v in obj]]


def _enc_tuple(obj, frames):
    return ["t", *[_encode(v, frames) for v in obj]]


def _enc_dict(obj, frames):
    return [
        "d",
        *[[_encode(k, frames), _encode(v, frames)] for k, v in obj.items()],
    ]


def _enc_frozenset(obj, frames):
    return ["fs", *[_encode(v, frames) for v in obj]]


def _enc_set(obj, frames):
    return ["set", *[_encode(v, frames) for v in obj]]


def _enc_result(obj, frames):
    return [
        "res",
        _encode(obj.request, frames),
        _encode(obj.plan, frames),
        float(obj.elapsed_s),
        bool(obj.cached),
    ]


def _enc_request(obj, frames):
    return [
        "req",
        _encode(obj.platform, frames),
        float(obj.N),
        obj.strategy,
        _encode(dict(obj.params), frames),
    ]


def _enc_group(obj, frames):
    return ["vg", obj.strategy, *[_encode(r, frames) for r in obj.requests]]


def _enc_strategy_result(obj, frames):
    return [
        "sr",
        obj.strategy,
        float(obj.N),
        _encode(obj.speeds, frames),
        float(obj.comm_volume),
        _encode(obj.finish_times, frames),
        float(obj.imbalance),
        _encode(obj.detail, frames),
    ]


def _enc_platform(obj, frames):
    procs = obj.processors
    return [
        "plat",
        _enc_ndarray(np.array([proc.speed for proc in procs]), frames),
        _enc_ndarray(np.array([proc.bandwidth for proc in procs]), frames),
        [proc.name for proc in procs],
        _encode(obj.comm_model, frames),
    ]


def _enc_processor(obj, frames):
    return ["proc", float(obj.speed), float(obj.bandwidth), obj.name]


def _enc_comm_model(obj, frames):
    fields = {
        f.name: _encode(getattr(obj, f.name), frames)
        for f in dataclasses.fields(obj)
        if f.name != "name"
    }
    return ["cm", type(obj).__name__, fields]


def _enc_partition(obj, frames):
    x, y, w, h, owner = obj.coords()
    return [
        "part",
        _enc_ndarray(x, frames),
        _enc_ndarray(y, frames),
        _enc_ndarray(w, frames),
        _enc_ndarray(h, frames),
        _enc_ndarray(owner, frames),
        float(obj.side),
    ]


def _enc_rectangle(obj, frames):
    return [
        "rect",
        float(obj.x),
        float(obj.y),
        float(obj.w),
        float(obj.h),
        int(obj.owner),
    ]


def _enc_relayed(obj, frames):
    # frame each envelope once: its whole uint8 view has it as base
    for k, frame in enumerate(frames):
        if frame.base is obj.envelope and frame.dtype == np.uint8:
            if frame.size == len(obj.envelope):
                break
    else:
        k = len(frames)
        frames.append(np.frombuffer(obj.envelope, dtype=np.uint8))
    return ["sub", k, int(obj.position)]


def _enc_joined(obj, frames):
    return ["cat", *[_enc_relayed(part, frames) for part in obj.parts]]


def _decode(node: Any, frames: Sequence[np.ndarray]) -> Any:
    """Rebuild the object a tagged node describes."""
    if type(node) is not list:
        if node is None or type(node) in (bool, int, float, str):
            return node
        raise WireError(
            f"invalid binary-v2 node of type {type(node).__name__}"
        )
    if not node:
        raise WireError("empty binary-v2 node")
    decoder = _DECODERS.get(node[0])
    if decoder is None:
        raise WireError(f"unknown binary-v2 node tag {node[0]!r}")
    return decoder(node, frames)


def _dec_nd(node, frames):
    return frames[node[1]]


def _dec_by(node, frames):
    return base64.b64decode(node[1])


def _dec_list(node, frames):
    return [_decode(v, frames) for v in node[1:]]


def _dec_tuple(node, frames):
    return tuple(_decode(v, frames) for v in node[1:])


def _dec_dict(node, frames):
    return {
        _decode(k, frames): _decode(v, frames) for k, v in node[1:]
    }


def _dec_frozenset(node, frames):
    return frozenset(_decode(v, frames) for v in node[1:])


def _dec_set(node, frames):
    return {_decode(v, frames) for v in node[1:]}


def _dec_result(node, frames):
    _, request, plan, elapsed_s, cached = node
    request = _decode(request, frames)
    plan = _decode(plan, frames)
    # stores serve decoded results to every later client: a hollow
    # one would break their plans, so it is malformed input here
    if not isinstance(request, _PlanRequest) or not isinstance(
        plan, _StrategyResult
    ):
        raise WireError(
            "a plan result must hold a PlanRequest and a StrategyResult"
        )
    return _PlanResult(
        request=request,
        plan=plan,
        elapsed_s=float(elapsed_s),
        cached=bool(cached),
    )


def _dec_request(node, frames):
    _, platform, N, strategy, params = node
    return _PlanRequest(
        platform=_decode(platform, frames),
        N=float(N),
        strategy=str(strategy),
        params=_decode(params, frames),
    )


def _dec_group(node, frames):
    return _VectorGroup(
        strategy=str(node[1]),
        requests=tuple(_decode(r, frames) for r in node[2:]),
    )


def _dec_strategy_result(node, frames):
    _, strategy, N, speeds, comm_volume, finish, imbalance, detail = node
    return _StrategyResult(
        strategy=str(strategy),
        N=float(N),
        speeds=_decode(speeds, frames),
        comm_volume=float(comm_volume),
        finish_times=_decode(finish, frames),
        imbalance=float(imbalance),
        detail=_decode(detail, frames),
    )


def _dec_platform(node, frames):
    _, speeds, bandwidths, names, comm_model = node
    s = np.asarray(_decode(speeds, frames), dtype=float)
    b = np.asarray(_decode(bandwidths, frames), dtype=float)
    if s.ndim != 1 or s.shape != b.shape or len(names) != s.size:
        raise WireError("platform arrays disagree on worker count")
    # vectorised equivalent of Processor.__post_init__'s per-field
    # checks — one pass over the arrays instead of 2p scalar calls
    if not (
        np.isfinite(s).all()
        and np.isfinite(b).all()
        and (s > 0.0).all()
        and (b > 0.0).all()
    ):
        raise WireError("platform speeds/bandwidths must be positive finite")
    new = _Processor.__new__
    procs = []
    for speed, bandwidth, name in zip(s.tolist(), b.tolist(), names):
        proc = new(_Processor)
        d = proc.__dict__
        d["speed"] = speed
        d["bandwidth"] = bandwidth
        d["name"] = str(name)
        procs.append(proc)
    return _StarPlatform(
        tuple(procs), comm_model=_decode(comm_model, frames)
    )


def _dec_processor(node, frames):
    _, speed, bandwidth, name = node
    return _Processor(
        speed=float(speed), bandwidth=float(bandwidth), name=str(name)
    )


def _dec_comm_model(node, frames):
    _, kind, fields = node
    cls = _comm_model_registry().get(kind)
    if cls is None:
        raise WireError(f"unknown communication model {kind!r} on the wire")
    return cls(**{str(k): _decode(v, frames) for k, v in fields.items()})


def _dec_partition(node, frames):
    _, x, y, w, h, owner, side = node
    return _Partition.from_arrays(
        _decode(x, frames),
        _decode(y, frames),
        _decode(w, frames),
        _decode(h, frames),
        _decode(owner, frames),
        side=float(side),
    )


def _dec_rectangle(node, frames):
    _, x, y, w, h, owner = node
    return _Rectangle(
        x=float(x), y=float(y), w=float(w), h=float(h), owner=int(owner)
    )


class _RelayFrame(np.ndarray):
    """A byte frame, its envelope's ``payload`` and the elements ``used``."""


def _dec_sub(node, frames):
    # A reply decodes in proportion to its size: frames never overlap,
    # each relayed envelope decodes once, plain, into a view of its
    # frame ("nd" still reads the bytes), each element is taken once
    # and a cat joins subs only.  Plain decodes pass a tuple of frames.
    if type(frames) is not list:
        raise WireError(f"unknown binary-v2 node tag {node[0]!r}")
    _, k, j = node
    if type(k) is not int or not 0 <= k < len(frames):
        raise WireError(f"sub node names no frame {k!r}")
    frame = frames[k]
    if type(frame) is not _RelayFrame:
        if frame.dtype != np.uint8 or frame.ndim != 1:
            raise WireError("a relayed envelope must be a byte frame")
        try:
            payload = unpack_v2(frame.tobytes())
        except WireError as exc:
            raise WireError(f"relayed envelope in frame {k}: {exc}") from None
        if type(payload) is not list:
            raise WireError("a relayed envelope must hold a list")
        frame = frames[k] = frame.view(_RelayFrame)
        frame.payload, frame.used = payload, set()
    if type(j) is not int or not 0 <= j < len(frame.payload):
        raise WireError(f"sub node names no element {j!r} of frame {k}")
    if j in frame.used:
        raise WireError(f"element {j} of frame {k} is referenced twice")
    frame.used.add(j)
    return frame.payload[j]


def _dec_cat(node, frames):
    if type(frames) is not list:
        raise WireError(f"unknown binary-v2 node tag {node[0]!r}")
    joined = []
    for part in node[1:]:
        if type(part) is not list or part[:1] != ["sub"]:
            raise WireError("a cat node joins sub references only")
        value = _dec_sub(part, frames)
        if type(value) is not list:
            raise WireError("a cat node joins lists only")
        joined.extend(value)
    return joined


def pack_v2(payload: Any) -> bytes:
    """Pack ``payload`` as a binary-v2 envelope (typed, pickle-free).

    Array frames are appended as raw contiguous bytes after the JSON
    header; their memoryviews are joined into the body without an
    intermediate per-array copy.
    """
    _load_codec()
    frames: List[np.ndarray] = []
    node = _encode(payload, frames)
    meta: List[List[Any]] = []
    blobs: List[memoryview] = []
    offset = 0
    for arr in frames:
        arr = np.ascontiguousarray(arr)
        meta.append([arr.dtype.str, list(arr.shape), offset, arr.nbytes])
        blobs.append(memoryview(arr).cast("B"))
        offset += arr.nbytes
    header = json.dumps(
        {
            "format": WIRE_FORMAT,
            "version": WIRE_VERSION,
            "payload": node,
            "frames": meta,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return b"".join(
        [WIRE_MAGIC, len(header).to_bytes(8, "big"), header, *blobs]
    )


def read_header(data: bytes) -> Tuple[dict, int]:
    """An envelope's checked JSON header and where its frames start."""
    if not data.startswith(WIRE_MAGIC):
        raise WireError(
            "not a repro plan-service envelope (missing "
            f"{WIRE_MAGIC!r} header)"
        )
    prefix = len(WIRE_MAGIC)
    if len(data) < prefix + 8:
        raise WireError("truncated binary-v2 envelope (no header length)")
    header_len = int.from_bytes(data[prefix:prefix + 8], "big")
    body_start = prefix + 8 + header_len
    if header_len <= 0 or body_start > len(data):
        raise WireError("truncated binary-v2 envelope (header cut short)")
    try:
        header = json.loads(data[prefix + 8:body_start].decode("utf-8"))
    except Exception as exc:
        raise WireError(
            f"undecodable binary-v2 envelope header ({exc})"
        ) from None
    if not isinstance(header, dict) or header.get("format") != WIRE_FORMAT:
        raise WireError("not a repro plan-service envelope (bad format field)")
    version = header.get("version")
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: peer speaks {version!r}, "
            f"this end speaks {WIRE_VERSION} — upgrade the older side"
        )
    if "payload" not in header:
        raise WireError("not a repro plan-service envelope (no payload)")
    return header, body_start


def unpack_v2(data: bytes, *, relayed: bool = False) -> Any:
    """Validate a binary-v2 envelope and return its payload.

    Decoding never unpickles: the header is JSON, the frames are
    rebuilt with ``np.frombuffer`` as read-only views sharing the
    received buffer (zero-copy), and the tagged tree maps onto the
    service's own types through the explicit codec.  Truncated or
    garbled envelopes raise :class:`WireError`; pass ``relayed`` for a reply.
    """
    header, body_start = read_header(data)
    _load_codec()
    try:
        frames = []
        end = body_start
        for dtype, shape, offset, nbytes in header.get("frames", []):
            dt = np.dtype(dtype)
            if dt.hasobject:
                raise WireError("object dtypes are not allowed on the wire")
            count = 1
            for dim in shape:
                count *= int(dim)
            if count * dt.itemsize != nbytes:
                raise WireError(
                    f"frame geometry mismatch: {shape} of {dtype} is not "
                    f"{nbytes} bytes"
                )
            start = body_start + int(offset)
            if start < end:
                raise WireError("binary-v2 frames overlap or are out of order")
            end = start + nbytes
            if end > len(data):
                raise WireError("truncated binary-v2 envelope (frame cut short)")
            frames.append(
                np.frombuffer(data, dtype=dt, count=count, offset=start)
                .reshape([int(dim) for dim in shape])
            )
        return _decode(header["payload"], frames if relayed else tuple(frames))
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"malformed binary-v2 envelope ({exc})") from None


# ---------------------------------------------------------------------------
# profile-named forwards, kept for callers that still name a profile


def pack_as(payload: Any, profile: str) -> bytes:
    """Pack ``payload`` as binary-v2, the only profile there is."""
    if profile != PROFILE_BINARY:
        raise WireError(
            f"unknown wire profile {profile!r}; this build speaks only "
            f"{PROFILE_BINARY}"
        )
    return pack_v2(payload)


def unpack_any(data: bytes) -> Any:
    """Unpack a binary-v2 envelope (same as :func:`unpack_v2`)."""
    return unpack_v2(data)
