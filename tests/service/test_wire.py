"""Tests for the service's one wire format, binary-v2."""

import inspect
import json
import pickle

import numpy as np
import pytest

from repro.service import wire


class TestEnvelope:
    """The envelope, through the profile-named forwards callers still use."""

    def test_roundtrip(self):
        payload = {"anything": [1, 2.5, "three"], "nested": (None, True)}
        data = wire.pack_as(payload, wire.PROFILE_BINARY)
        assert wire.unpack_any(data) == payload

    def test_magic_prefix_present(self):
        data = wire.pack_as(1, wire.PROFILE_BINARY)
        assert data.startswith(wire.WIRE_MAGIC)

    def test_rejects_arbitrary_bytes_without_unpickling(self):
        # a pickle bomb must fail on the magic check alone —
        # Bomb.__reduce__ would raise if it ever ran
        class Bomb:
            def __reduce__(self):
                return (pytest.fail, ("unpickled a non-envelope body!",))

        with pytest.raises(wire.WireError, match="missing"):
            wire.unpack_any(pickle.dumps(Bomb()))

    def test_rejects_truncated_envelope(self):
        data = wire.pack_as(["payload"], wire.PROFILE_BINARY)
        with pytest.raises(wire.WireError, match="truncated"):
            wire.unpack_any(data[: len(wire.WIRE_MAGIC) + 4])

    def test_rejects_wrong_format_field(self):
        body = _envelope(
            {"format": "something-else", "version": 2, "payload": 1}
        )
        with pytest.raises(wire.WireError, match="bad format"):
            wire.unpack_any(body)

    def test_rejects_version_mismatch_both_directions(self):
        for version in (wire.WIRE_VERSION - 1, wire.WIRE_VERSION + 1):
            body = _envelope(
                {"format": wire.WIRE_FORMAT, "version": version, "payload": 1}
            )
            with pytest.raises(wire.WireError, match="version mismatch"):
                wire.unpack_any(body)

    def test_rejects_missing_payload(self):
        body = _envelope({"format": wire.WIRE_FORMAT, "version": 2})
        with pytest.raises(wire.WireError, match="no payload"):
            wire.unpack_any(body)

    def test_none_payload_is_legal(self):
        # /cache/get misses return an envelope whose payload is None
        data = wire.pack_as(None, wire.PROFILE_BINARY)
        assert wire.unpack_any(data) is None


def _envelope(header_dict):
    """A hand-built envelope whose JSON header is ``header_dict``."""
    header = json.dumps(header_dict).encode()
    return wire.WIRE_MAGIC + len(header).to_bytes(8, "big") + header


def _sample_platform():
    from repro.platform.star import StarPlatform

    return StarPlatform.from_speeds([1.0, 2.0, 4.0, 8.0])


class TestBinaryEnvelope:
    """binary-v2: typed, pickle-free, zero-copy array frames."""

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            True,
            -3,
            2.5,
            float("inf"),
            "text",
            b"\x00raw\xff",
            [1, [2, "x"], None],
            (1, (2.5, "y"), b"z"),
            {"a": 1, 2: "b", ("t",): [3.0]},
            frozenset({1, "two"}),
            {"mixed", 3},
        ],
        # fixed ids: repr of a set depends on PYTHONHASHSEED
        ids=[
            "None",
            "True",
            "-3",
            "2.5",
            "inf",
            "'text'",
            "b'\\x00raw\\xff'",
            "[1, [2, 'x'], None]",
            "(1, (2.5, 'y'), b'z')",
            "{'a': 1, 2: 'b', ('t',): [3.0]}",
            "frozenset({1, 'two'})",
            "{3, 'mixed'}",
        ],
    )
    def test_scalar_and_container_roundtrip(self, payload):
        assert wire.unpack_v2(wire.pack_v2(payload)) == payload

    def test_nan_roundtrip(self):
        import math

        out = wire.unpack_v2(wire.pack_v2({"v": float("nan")}))
        assert math.isnan(out["v"])

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(6, dtype=np.float64),
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.array([], dtype=np.float32),
            np.array([[True, False], [False, True]]),
            np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        ],
        ids=["f64", "i32-2d", "empty", "bool", "fortran"],
    )
    def test_ndarray_roundtrip(self, arr):
        out = wire.unpack_v2(wire.pack_v2(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        np.testing.assert_array_equal(out, arr)

    def test_decoded_arrays_are_zero_copy_views(self):
        data = wire.pack_v2(np.arange(100.0))
        out = wire.unpack_v2(data)
        # frombuffer over the received body: a read-only view, no copy
        assert out.base is not None
        assert not out.flags.writeable

    def test_cache_key_roundtrip_preserves_hash(self):
        key = (
            ("fingerprint", b"\x01\x02", 4),
            1000.0,
            "het",
            ("origin", "repro.blocks.strategies"),
            (("alpha", 2.0), ("flag", True), ("n", None)),
        )
        out = wire.unpack_v2(wire.pack_v2(key))
        assert out == key
        assert hash(out) == hash(key)

    def test_plan_result_roundtrip(self):
        from repro.core.pipeline import PlanRequest, plan_request

        request = PlanRequest(
            platform=_sample_platform(), N=1000.0, strategy="het"
        )
        result = plan_request(request)
        out = wire.unpack_v2(wire.pack_v2(result))
        assert out.request == request
        assert out.plan.strategy == result.plan.strategy
        assert out.plan.comm_volume == result.plan.comm_volume
        np.testing.assert_array_equal(
            out.plan.finish_times, result.plan.finish_times
        )
        assert out.plan.detail["partition"] == result.plan.detail["partition"]

    def test_vector_group_roundtrip(self):
        from repro.core.pipeline import PlanRequest
        from repro.core.vectorize import VectorGroup

        platform = _sample_platform()
        group = VectorGroup(
            strategy="hom",
            requests=tuple(
                PlanRequest(platform=platform, N=float(n), strategy="hom")
                for n in (100, 200)
            ),
        )
        out = wire.unpack_v2(wire.pack_v2(group))
        assert out == group

    def test_platform_fingerprint_survives(self):
        from repro.platform.comm_models import BoundedMultiport
        from repro.platform.star import StarPlatform

        platform = StarPlatform.from_speeds(
            [3.0, 1.0], comm_model=BoundedMultiport(master_bandwidth=7.5)
        )
        out = wire.unpack_v2(wire.pack_v2(platform))
        assert out == platform
        assert out.fingerprint() == platform.fingerprint()
        assert out.comm_model.master_bandwidth == 7.5

    def test_v2_not_larger_than_pickle_for_plans(self):
        from repro.core.pipeline import PlanRequest, plan_request

        results = [
            plan_request(
                PlanRequest(
                    platform=_sample_platform(), N=float(n), strategy=s
                )
            )
            for n in (500, 1000)
            for s in ("hom", "het")
        ]
        assert len(wire.pack_v2(results)) < len(pickle.dumps(results))


class TestBinaryRejection:
    """Truncated / garbled / hostile v2 bytes fail with WireError only."""

    def test_rejects_pickle_bomb_without_unpickling(self):
        class Bomb:
            def __reduce__(self):
                return (pytest.fail, ("unpickled a binary-v2 body!",))

        with pytest.raises(wire.WireError, match="missing"):
            wire.unpack_v2(pickle.dumps(Bomb()))

    def test_truncation_at_every_prefix_is_clean(self):
        data = wire.pack_v2(
            {"arrays": [np.arange(10.0), np.arange(5)], "n": 3}
        )
        for cut in range(0, len(data) - 1, 7):
            with pytest.raises(wire.WireError):
                wire.unpack_v2(data[:cut])

    def test_byte_flips_never_escape_wireerror(self):
        payload = {"xs": np.arange(8.0), "tag": ["t", 1, "two"]}
        data = bytearray(wire.pack_v2(payload))
        rng = np.random.default_rng(2013)
        for _ in range(200):
            pos = int(rng.integers(len(wire.WIRE_MAGIC), len(data)))
            flipped = bytearray(data)
            flipped[pos] ^= int(rng.integers(1, 256))
            try:
                wire.unpack_v2(bytes(flipped))
            except wire.WireError:
                pass  # rejected cleanly — the only acceptable failure

    def test_rejects_garbled_header_json(self):
        header = b'{"format": nonsense'
        body = wire.WIRE_MAGIC + len(header).to_bytes(8, "big") + header
        with pytest.raises(wire.WireError, match="undecodable"):
            wire.unpack_v2(body)

    def test_rejects_wrong_format_field(self):
        with pytest.raises(wire.WireError, match="bad format"):
            wire.unpack_v2(
                _envelope(
                    {"format": "nope", "version": 2, "payload": 1}
                )
            )

    def test_rejects_version_mismatch(self):
        for version in (1, 3):
            with pytest.raises(wire.WireError, match="version mismatch"):
                wire.unpack_v2(
                    _envelope(
                        {
                            "format": wire.WIRE_FORMAT,
                            "version": version,
                            "payload": 1,
                        }
                    )
                )

    def test_rejects_frame_geometry_lies(self):
        # header claims 100 floats but supplies none
        bad = _envelope(
            {
                "format": wire.WIRE_FORMAT,
                "version": 2,
                "payload": ["nd", 0],
                "frames": [["<f8", [100], 0, 800]],
            }
        )
        with pytest.raises(wire.WireError, match="cut short"):
            wire.unpack_v2(bad)
        # ... and a shape/nbytes contradiction
        bad = _envelope(
            {
                "format": wire.WIRE_FORMAT,
                "version": 2,
                "payload": ["nd", 0],
                "frames": [["<f8", [3], 0, 16]],
            }
        )
        with pytest.raises(wire.WireError, match="geometry"):
            wire.unpack_v2(bad)

    def test_rejects_object_dtype_frames(self):
        bad = _envelope(
            {
                "format": wire.WIRE_FORMAT,
                "version": 2,
                "payload": ["nd", 0],
                "frames": [["|O", [1], 0, 8]],
            }
        )
        with pytest.raises(wire.WireError, match="object dtypes"):
            wire.unpack_v2(bad)

    def test_rejects_unknown_tag(self):
        with pytest.raises(wire.WireError, match="unknown binary-v2 node"):
            wire.unpack_v2(
                _envelope(
                    {
                        "format": wire.WIRE_FORMAT,
                        "version": 2,
                        "payload": ["exec", "rm -rf /"],
                    }
                )
            )

    def test_encode_refuses_object_arrays(self):
        with pytest.raises(wire.WireError, match="object arrays"):
            wire.pack_v2(np.array([object()], dtype=object))

    def test_encode_refuses_unknown_types_naming_the_escape_hatch(self):
        class Opaque:
            pass

        with pytest.raises(
            wire.WireError, match="Opaque payloads; keep custom params"
        ):
            wire.pack_v2(Opaque())


class TestProfileNegotiationHelpers:
    """``pack_as`` / ``unpack_any`` name a profile; binary-v2 is the one."""

    @pytest.mark.parametrize("profile", [wire.PROFILE_BINARY])
    def test_pack_as_roundtrips_through_unpack_any(self, profile):
        payload = {"xs": (1, 2.5), "s": "ok"}
        data = wire.pack_as(payload, profile)
        assert data == wire.pack_v2(payload)
        assert wire.unpack_any(data) == payload

    def test_pack_as_rejects_unknown_profile(self):
        for profile in ("msgpack-v9", "pickle-v1"):
            with pytest.raises(wire.WireError, match="unknown wire profile"):
                wire.pack_as(1, profile)

    def test_unpack_any_refuses_disallowed_profile_before_unpickling(self):
        class Bomb:
            def __reduce__(self):
                return (pytest.fail, ("unpack_any unpickled a body!",))

        # a pickle-v1 envelope: its own magic line, then the pickle
        data = b"repro-plan-wire:v1\n" + pickle.dumps(Bomb())
        with pytest.raises(wire.WireError, match="missing"):
            wire.unpack_any(data)


def _fixed_result(n=1000.0):
    """A PlanResult built from fixed numbers, not by planning."""
    from repro.blocks.metrics import StrategyResult
    from repro.core.pipeline import PlanRequest, PlanResult
    from repro.partition.rectangle import Partition

    partition = Partition.from_arrays(
        np.array([0.0, 0.5]),
        np.array([0.0, 0.0]),
        np.array([0.5, 0.5]),
        np.array([1.0, 1.0]),
        np.array([0, 1], dtype=np.int64),
    )
    plan = StrategyResult(
        strategy="het",
        N=n,
        speeds=np.array([1.0, 2.0, 4.0, 8.0]),
        comm_volume=2.5 * n,
        finish_times=np.array([1.0, 1.25, 1.5, 1.125]),
        imbalance=0.5,
        detail={"partition": partition, "k": 3},
    )
    request = PlanRequest(platform=_sample_platform(), N=n, strategy="het")
    return PlanResult(request=request, plan=plan, elapsed_s=0.0)


def _coordinator_shaped():
    """Two workers' replies relayed as a coordinator answers a batch of
    a scalar request, a group sharded over both workers, and a scalar;
    returns the answer and the plain list it must decode to."""
    r = [_fixed_result(1000.0 + i) for i in range(5)]
    first = wire.pack_v2([r[0], [r[1], r[2]]])
    second = wire.pack_v2([[r[3]], r[4]])
    answer = [
        wire.Relayed(first, 0),
        wire.Joined([wire.Relayed(first, 1), wire.Relayed(second, 0)]),
        wire.Relayed(second, 1),
    ]
    return (first, second), wire.pack_v2(answer), [r[0], r[1:4], r[4]]


def _relay_envelope(payload, sub_bodies):
    """A hand-built envelope carrying ``sub_bodies`` as byte frames."""
    frames, offset = [], 0
    for body in sub_bodies:
        frames.append(["|u1", [len(body)], offset, len(body)])
        offset += len(body)
    header = {
        "format": wire.WIRE_FORMAT,
        "version": 2,
        "payload": payload,
        "frames": frames,
    }
    return _envelope(header) + b"".join(sub_bodies)


def _reply(data):
    """Decode ``data`` as a client decodes a reply."""
    return wire.unpack_v2(data, relayed=True)


class TestRelay:
    """``sub``/``cat`` nodes: worker replies relayed undecoded."""

    def test_relayed_reply_decodes_to_the_plain_list(self):
        (first, second), data, plain = _coordinator_shaped()
        out = _reply(data)
        assert [type(x).__name__ for x in out] == [
            "PlanResult", "list", "PlanResult"
        ]
        # re-encoding compares every field and array byte for byte
        assert wire.pack_v2(out) == wire.pack_v2(plain)
        # each reply is framed once, verbatim
        assert data.count(first) == 1 and data.count(second) == 1
        header, _ = wire.read_header(data)
        assert header["payload"] == [
            "l",
            ["sub", 0, 0],
            ["cat", ["sub", 0, 1], ["sub", 1, 0]],
            ["sub", 1, 1],
        ]
        assert [f[0] for f in header["frames"]] == ["|u1", "|u1"]

    def test_each_relayed_envelope_decodes_once(self, monkeypatch):
        body = wire.pack_v2([_fixed_result(float(n)) for n in range(1, 9)])
        data = wire.pack_v2([wire.Relayed(body, j) for j in range(8)])
        calls = []
        unpack = wire.unpack_v2

        def counting(data, *, relayed=False):
            calls.append(relayed)
            return unpack(data, relayed=relayed)

        monkeypatch.setattr(wire, "unpack_v2", counting)
        out = wire.unpack_v2(data, relayed=True)
        assert [r.request.N for r in out] == [float(n) for n in range(1, 9)]
        assert calls == [True, False]

    def test_plain_envelopes_are_unchanged(self):
        # stored sqlite rows and `repro cache export` files are these
        # bytes: a change to them turns every stored row into a miss
        import hashlib

        data = wire.pack_v2(_fixed_result())
        assert b'"sub"' not in data and b'"cat"' not in data
        assert hashlib.sha256(data).hexdigest() == (
            "96e2d37f932347157614b083cd365b2e03922cedef89423c3aa48dec8d492a77"
        )

    def test_only_a_reply_decode_accepts_relay_nodes(self):
        # request bodies, stored rows and imported files decode plain
        _, data, _ = _coordinator_shaped()
        with pytest.raises(wire.WireError, match="unknown .* tag 'sub'"):
            wire.unpack_v2(data)
        with pytest.raises(wire.WireError, match="unknown .* tag 'sub'"):
            wire.unpack_any(data)
        joined = _relay_envelope(["cat", ["sub", 0, 0]], [wire.pack_v2([[1]])])
        with pytest.raises(wire.WireError, match="unknown .* tag 'cat'"):
            wire.unpack_v2(joined)
        assert _reply(joined) == [1]

    def test_truncation_at_every_prefix_is_clean(self):
        _, data, _ = _coordinator_shaped()
        for cut in range(len(data)):
            with pytest.raises(wire.WireError):
                _reply(data[:cut])

    # a flipped dtype string may name a deprecated NumPy alias
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_bit_flip_at_every_position_never_escapes_wireerror(self):
        _, data, _ = _coordinator_shaped()
        for pos in range(len(data)):
            flipped = bytearray(data)
            flipped[pos] ^= 1 << (pos % 8)
            try:
                _reply(bytes(flipped))
            except wire.WireError:
                pass  # rejected cleanly — the only acceptable failure

    def test_nested_sub_is_refused(self):
        inner = wire.pack_v2([1, 2])
        relaying = _relay_envelope(["l", ["sub", 0, 0]], [inner])
        data = _relay_envelope(["sub", 0, 0], [relaying])
        with pytest.raises(
            wire.WireError, match="frame 0: unknown .* tag 'sub'"
        ):
            _reply(data)

    def test_cat_inside_a_relayed_envelope_is_refused(self):
        joining = _envelope(
            {
                "format": wire.WIRE_FORMAT,
                "version": 2,
                "payload": ["l", ["cat", ["l", 1]]],
            }
        )
        data = _relay_envelope(["sub", 0, 0], [joining])
        with pytest.raises(
            wire.WireError, match="frame 0: unknown .* tag 'cat'"
        ):
            _reply(data)

    @pytest.mark.parametrize(
        "payload",
        [
            ["l", ["sub", 0, 0], ["sub", 0, 0]],
            ["cat", ["sub", 0, 0], ["sub", 0, 0]],
            ["l", ["sub", 0, 0], ["cat", ["sub", 0, 0]]],
        ],
    )
    def test_an_element_referenced_twice_is_refused(self, payload):
        data = _relay_envelope(payload, [wire.pack_v2([[1, 2]])])
        with pytest.raises(wire.WireError, match="referenced twice"):
            _reply(data)

    def test_repeated_references_cannot_amplify(self):
        # ~200 kB that would decode to ~4e8 list slots if one element
        # could be referenced, and copied by cat, thousands of times
        body = wire.pack_v2([[0] * 50_000])
        data = _relay_envelope(["cat", *[["sub", 0, 0]] * 8_000], [body])
        with pytest.raises(wire.WireError, match="referenced twice"):
            _reply(data)

    def test_overlapping_frames_are_refused(self):
        # one relayed envelope named by two frames would decode twice
        body = wire.pack_v2([[1]])
        header = {
            "format": wire.WIRE_FORMAT,
            "version": 2,
            "payload": ["l", ["sub", 0, 0], ["sub", 1, 0]],
            "frames": [["|u1", [len(body)], 0, len(body)]] * 2,
        }
        with pytest.raises(wire.WireError, match="overlap"):
            _reply(_envelope(header) + body)

    @pytest.mark.parametrize("part", [["l", 1], ["cat", ["sub", 0, 0]], 3])
    def test_cat_joins_sub_references_only(self, part):
        data = _relay_envelope(["cat", part], [wire.pack_v2([[1]])])
        with pytest.raises(wire.WireError, match="sub references only"):
            _reply(data)

    @pytest.mark.parametrize("j", [2, -1, 1.0, True, "0"])
    def test_out_of_range_element_is_refused(self, j):
        data = _relay_envelope(["sub", 0, j], [wire.pack_v2([1, 2])])
        with pytest.raises(wire.WireError, match="no element"):
            _reply(data)

    @pytest.mark.parametrize("k", [1, -1, None])
    def test_missing_frame_is_refused(self, k):
        data = _relay_envelope(["sub", k, 0], [wire.pack_v2([1, 2])])
        with pytest.raises(wire.WireError, match="no frame"):
            _reply(data)

    def test_non_list_payload_is_refused(self):
        data = _relay_envelope(["sub", 0, 0], [wire.pack_v2((1, 2))])
        with pytest.raises(wire.WireError, match="must hold a list"):
            _reply(data)

    def test_non_byte_frame_is_refused(self):
        body = wire.pack_v2([1.5])
        header = {
            "format": wire.WIRE_FORMAT,
            "version": 2,
            "payload": ["sub", 0, 0],
            "frames": [["<f8", [len(body) // 8], 0, len(body) // 8 * 8]],
        }
        data = _envelope(header) + body[: len(body) // 8 * 8]
        with pytest.raises(wire.WireError, match="byte frame"):
            _reply(data)

    def test_cat_of_non_lists_is_refused(self):
        body = wire.pack_v2([[1], 2])
        data = _relay_envelope(["cat", ["sub", 0, 0], ["sub", 0, 1]], [body])
        with pytest.raises(wire.WireError, match="joins lists only"):
            _reply(data)

    def test_garbled_relayed_envelope_names_its_frame(self):
        body = wire.pack_v2([1])
        data = _relay_envelope(["sub", 0, 0], [body[:-3] + b"!!!"])
        with pytest.raises(wire.WireError, match="relayed envelope in frame 0"):
            _reply(data)

    def test_pickle_in_a_relayed_frame_is_never_unpickled(self, tmp_path):
        marker = tmp_path / "unpickled"

        class Marker:
            def __reduce__(self):
                return (open, (str(marker), "w"))

        body = b"repro-plan-wire:v1\n" + pickle.dumps(Marker())
        data = _relay_envelope(["sub", 0, 0], [body])
        with pytest.raises(wire.WireError, match="missing"):
            _reply(data)
        assert not marker.exists()


def _default_params(factory):
    """The keyword defaults ``factory`` declares, as request params."""
    return {
        name: param.default
        for name, param in inspect.signature(factory).parameters.items()
        if param.default is not inspect.Parameter.empty
    }


class TestRegisteredStrategies:
    """Every registered strategy's plans survive the one format exactly."""

    @pytest.mark.parametrize("p", [8, 32])
    @pytest.mark.parametrize("strategy", ["het", "hom", "hom/k"])
    def test_result_roundtrips_bit_identically(self, strategy, p):
        from repro.core.pipeline import PlanRequest, plan_request
        from repro.platform.star import StarPlatform

        speeds = np.random.default_rng(p).uniform(1.0, 10.0, size=p)
        request = PlanRequest(
            platform=StarPlatform.from_speeds(speeds.tolist()),
            N=1000.0,
            strategy=strategy,
        )
        result = plan_request(request)
        data = wire.pack_v2(result)
        out = wire.unpack_v2(data)
        assert wire.pack_v2(out) == data
        assert out.request == request
        assert out.plan.comm_volume == result.plan.comm_volume
        assert out.plan.imbalance == result.plan.imbalance
        finish = out.plan.finish_times
        assert finish.dtype == result.plan.finish_times.dtype
        assert finish.tobytes() == result.plan.finish_times.tobytes()
        assert sorted(out.plan.detail) == sorted(result.plan.detail)

    @pytest.mark.parametrize("strategy", ["het", "hom", "hom/k"])
    def test_default_params_keep_the_cache_key(self, strategy):
        from repro import registry
        from repro.core.cache import plan_cache_key
        from repro.core.pipeline import PlanRequest

        factory = registry.get("strategy", strategy)
        request = PlanRequest(
            platform=_sample_platform(),
            N=1000.0,
            strategy=strategy,
            params=_default_params(factory),
        )
        out = wire.unpack_v2(wire.pack_v2(request))
        assert out == request
        assert plan_cache_key(out, factory) == plan_cache_key(request, factory)
