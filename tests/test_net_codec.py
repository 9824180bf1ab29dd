"""Round-trip and rejection tests for the live-runtime wire codec."""

import itertools
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bcp import BCPConfig
from repro.core.probe import Probe
from repro.core.qos import QoSRequirement, QoSVector
from repro.core.resources import ResourceVector
from repro.net import codec
from repro.net.codec import (
    MAX_FRAME,
    WIRE_VERSION,
    CodecError,
    FrameReader,
    decode_frame,
    encode_frame,
)
from repro.services.component import QualitySpec
from repro.workload.scenarios import simulation_testbed

from worlds import fuzz_settings


@pytest.fixture(scope="module")
def scenario():
    return simulation_testbed(
        n_ip=80, n_peers=12, n_functions=6, bcp_config=BCPConfig(budget=24), seed=5
    )


@pytest.fixture(scope="module")
def request_obj(scenario):
    return scenario.requests.next_request()


@pytest.fixture(scope="module")
def service_graph(scenario):
    # a real composed graph, so assignment metadata comes from the registry
    for _ in range(10):
        req = scenario.requests.next_request()
        result = scenario.net.bcp.compose(req, confirm=False)
        if result.success:
            return result.best
    pytest.fail("no composition succeeded while building the fixture")


# what a credit-carrying frame gathers: (holder, n, peer rows, link rows,
# probes sent) — an admission's reservations, a fan-out's count
_BUNDLES = (
    (3, 1, ((3, "cpu", 0.5), (3, "memory", 64)), ((2, 3, 1.25),), 0),
    (5, 4, (), ((3, 5, 0.75),), 0),
    (5, 5, (), (), 7),
)


def roundtrip(obj, version=WIRE_VERSION):
    return decode_frame(encode_frame(obj, version))


# the id is the label these tests have carried since the binary encoding
# was version 2; test ids are compared across commits, so it stays
@pytest.fixture(params=[WIRE_VERSION], ids=["v2"])
def version(request):
    return request.param


def _frame(payload: bytes, version: int = WIRE_VERSION) -> bytes:
    return struct.pack(">2sBI", b"SN", version, len(payload)) + payload


def _credit_return(reports: bytes = b"\x00", discovery: bytes = b"\x00") -> bytes:
    """A ``CreditReturn(1, 2, "lost", reports, discovery)`` payload in its
    typed layout, written by hand so each part can be damaged."""
    head = bytes([codec._T_OBJ, codec._BIN_IDS[codec.CreditReturn]]) + struct.pack(">qq", 1, 2)
    return head + bytes([codec._T_STR8, 4]) + b"lost" + reports + discovery


_BUNDLE = struct.Struct(">iqBBI")  # holder, n, peer rows, link rows, probes sent
# the resource type is "cpu", a reference into the static string table
_PEER_ROW = struct.pack(">idBH", 3, 0.5, codec._T_STRREF, codec._STATIC_MAP["cpu"])
_LINK_ROW = struct.pack(">iid", 2, 3, 1.25)

# values at the edges of the typed layouts' widths
_EDGES = [0, 1, -1, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1]
_ints = st.sampled_from(_EDGES) | st.integers(-(2**70), 2**70)
_runs = st.sampled_from([0, 1, 2, 3, 255, 256])
_names = st.text(min_size=1, max_size=8) | st.just("\u00e9" * 200)
_floats = st.floats(min_value=0, allow_nan=False)
_amounts = _floats | st.integers(0, 2**53)  # an integer-valued amount comes back equal
_credits = st.sampled_from(_EDGES)


def _i32(*values: int) -> bool:
    return all(-(2**31) <= v < 2**31 for v in values)


def _i64(*values: int) -> bool:
    return all(-(2**63) <= v < 2**63 for v in values)


@pytest.fixture(scope="module")
def messages(scenario, request_obj, service_graph):
    """One instance (or more) of every registered message type."""
    probe = Probe.initial(request_obj, budget=8)
    fn = service_graph.pattern.functions[0]
    meta = service_graph.assignment[fn]
    return [
        codec.ComposeBegin(1, request_obj, 16, True),
        codec.ProbeTransfer(
            1, probe, fn, meta, request_obj.function_graph,
            (("F001", "F002"),), 4, 0.05, 1 << 60,
        ),
        codec.ProbeTransfer(
            1, probe, fn, meta, request_obj.function_graph,
            (("F001", "F002"),), 4, 0.05, 1 << 60, _BUNDLES, 0.125,
        ),
        codec.FinalProbe(1, probe, 1 << 61),
        codec.FinalProbe(1, probe, 1 << 61, _BUNDLES, 0.125),
        codec.CreditReturn(1, 3, "pruned"),
        codec.CreditReturn(1, 3, "lost", _BUNDLES, 0.125),
        codec.SessionConfirm(1, ((1, "comp", 7), (1, "link", -1, 7))),
        codec.SessionRelease(1, ((1, "comp", 7),)),
        codec.SessionRelease(1, (), soft_only=True),
        codec.ComposeResult(
            1, True, service_graph, QoSVector({"delay": 0.2}), 1.5,
            None, 42, 7, 0.9, {"discovery": 0.1}, ((1, "comp", 7),),
        ),
        codec.Busy(1, "sessions", 9),
        codec.MaintenancePing(1, 3),
        codec.RegisterBatch(tuple(scenario.population[:3]), 1.5),
        codec.LookupRequest("F001", 4),
        codec.ReplicaInvalidate("F001"),
        codec.PathProbe(2, 7, 0.25),
        codec.ProbeAck(7, 0.25),
    ]


@pytest.fixture(scope="module")
def busy_probe(request_obj, service_graph):
    """A probe whose frame uses every table: metadata blobs that recur
    (back-references), function names, and a branch that refers back to
    them."""
    metas = list(service_graph.assignment.values())
    functions = request_obj.function_graph.functions
    return Probe(
        7, request_obj, request_obj.function_graph, frozenset(),
        {fn: metas[i % len(metas)] for i, fn in enumerate(functions)}, tuple(functions),
        3, QoSVector({"delay": 0.25, "loss": 0.01}), 8, 1.5, 0.125, len(functions),
    )


# bundles whose resource types are not in the static string table: the
# first row carries the name, the later ones refer back to it
_CUSTOM_BUNDLES = (
    (3, 1, ((3, "gpu", 0.5), (4, "gpu", 2)), ((2, 3, 1.25), (3, 4, 0.5)), 0),
    (4, 2, ((4, "disk", 8.0), (4, "gpu", 1.0)), (), 3),
) + tuple((i, i, (), (), i) for i in range(40))


@pytest.fixture(scope="module")
def frames(messages, busy_probe, service_graph):
    """Each message as the frame an RPC request carries it in, the credit
    frames once more with every table in use, and the two shapes of reply:
    the bare ack and one with a body of its own.  Between them they take
    every registered message through its generated decoder.  The requests'
    low-water marks take turns at gaps 0, 1 and one the wire saturates."""
    meta = next(iter(busy_probe.assignment.values()))
    busy = [
        codec.ProbeTransfer(
            1, busy_probe, busy_probe.branch[0], meta, busy_probe.graph, (), 4, 0.05, 1 << 60,
            _CUSTOM_BUNDLES, 0.125,
        ),
        codec.FinalProbe(1, busy_probe, 1 << 61, _CUSTOM_BUNDLES, 0.125),
        codec.CreditReturn(1, 3, "gpu", _CUSTOM_BUNDLES),
    ]
    gaps = itertools.cycle([0, 1, codec._LW_GAP_MAX + 7])
    out = [
        encode_frame(
            {"kind": "req", "id": 9, "src": 0, "inc": "5f0c2a9e", "lw": 9 - next(gaps), "body": msg}
        )
        for msg in messages + busy
    ] + [
        encode_frame({"kind": "res", "id": 9, "src": 1, "inc": "5f0c2a9e", "body": {"ok": True}}),
        encode_frame({"kind": "res", "id": 9, "src": 1, "body": {"confirmed": [[1, "comp", 7]]}}),
    ]
    registered = {cls for cls in codec._BIN_IDS if cls.__module__ == codec.__name__}
    decoded = {type(decode_frame(f)["body"]) for f in out}
    assert registered <= decoded
    return out


def _unchecked(cls, **values):
    """A message made past its constructor: what a buggy sender hands the encoder."""
    msg = object.__new__(cls)
    msg.__dict__.update(values)
    return msg


def _assert_refused(request_obj, service_graph, version, **damage):
    """Each credit-carrying message refuses ``damage`` (values for its
    ``reports`` / ``discovery``) with a CodecError: in its constructor,
    and in the encoder when the message was made past the constructor —
    the typed layout has no bytes for such a value."""
    probe = Probe.initial(request_obj, budget=8)
    fn = service_graph.pattern.functions[0]
    heads = {
        codec.FinalProbe: {"request_id": 1, "probe": probe, "credit": 2},
        codec.CreditReturn: {"request_id": 1, "credit": 2, "reason": "lost"},
        codec.ProbeTransfer: {
            "request_id": 1, "parent": probe, "function": fn,
            "component": service_graph.assignment[fn],
            "graph": request_obj.function_graph, "applied": (), "budget": 4,
            "lookup_rtt": 0.05, "credit": 2,
        },
    }
    for cls, head in heads.items():
        values = {**head, "reports": [], "discovery": None, **damage}
        with pytest.raises(CodecError, match="malformed reservation report"):
            cls(**values)
        # never struct.error or TypeError: the encoder is strict
        with pytest.raises(CodecError, match="does not fit its wire layout"):
            encode_frame(_unchecked(cls, **values), version)


class TestRoundTrips:
    """decode(encode(x)) == x for every registered type."""

    def test_primitives_and_containers(self, version):
        doc = {"a": [1, 2.5, "x", None, True], "b": {"nested": [[]]}}
        assert roundtrip(doc, version) == doc

    def test_qos_vector(self, version):
        v = QoSVector({"delay": 0.25, "loss": 0.01})
        assert roundtrip(v, version) == v

    def test_qos_requirement(self, version):
        r = QoSRequirement({"delay": 1.5, "loss": 0.05})
        assert roundtrip(r, version) == r

    def test_resource_vector(self, version):
        r = ResourceVector({"cpu": 4.0, "memory": 128.0})
        assert roundtrip(r, version) == r

    def test_quality_spec(self, version):
        q = QualitySpec(frozenset({"mp3", "wav"}))
        assert roundtrip(q, version) == q

    def test_service_metadata(self, scenario, version):
        fn = scenario.net.registry.functions()[0]
        meta = scenario.net.registry.lookup(fn, origin_peer=0).components[0]
        assert roundtrip(meta, version) == meta

    def test_component_spec(self, scenario, version):
        spec = scenario.population[0]
        assert roundtrip(spec, version) == spec

    def test_function_graph(self, request_obj, version):
        g = request_obj.function_graph
        out = roundtrip(g, version)
        assert out == g
        # trusted ctor: the lazy adjacency maps must still materialize
        assert out.sources() == g.sources() and out.sinks() == g.sinks()

    def test_composite_request(self, request_obj, version):
        assert roundtrip(request_obj, version) == request_obj

    def test_service_graph(self, service_graph, version):
        assert roundtrip(service_graph, version) == service_graph
        assert roundtrip(service_graph, version).signature() == service_graph.signature()

    def test_root_probe(self, request_obj, version):
        p = Probe.initial(request_obj, budget=16)
        assert roundtrip(p, version) == p

    def test_mid_path_probe(self, scenario, request_obj, service_graph, version):
        root = Probe.initial(request_obj, budget=16)
        fn = service_graph.pattern.functions[0]
        meta = service_graph.assignment[fn]
        child = root.spawn(
            function=fn,
            component=meta,
            graph=root.graph,
            applied_swaps=root.applied_swaps,
            qos=QoSVector({"delay": 0.1, "loss": 0.001}),
            budget=4,
            elapsed=0.123,
        )
        assert roundtrip(child, version) == child
        assert roundtrip(child, version).dedup_key() == child.dedup_key()

    def test_every_message_type(self, messages, version):
        registered = {cls for cls in codec._BIN_IDS if cls.__module__ == codec.__name__}
        assert {type(m) for m in messages} == registered
        for msg in messages:
            assert roundtrip(msg, version) == msg, type(msg).__name__

    def test_final_probe_with_and_without_report(self, request_obj, version):
        probe = Probe.initial(request_obj, budget=8)
        bare = codec.FinalProbe(1, probe, 1 << 61)
        out = roundtrip(bare, version)
        assert out == bare
        assert out.reports == () and out.discovery is None
        full = codec.FinalProbe(
            1, probe, 1 << 61,
            reports=[
                [3, 1, [[3, "cpu", 0.5], (3, "memory", 64)], [(2, 3, 1.25)], 0],
                (5, 2, [], (), 4),
            ],
            discovery=0.125,
        )
        # bundles and rows normalize to tuples on construction and on
        # decode alike
        assert full.reports == (
            (3, 1, ((3, "cpu", 0.5), (3, "memory", 64)), ((2, 3, 1.25),), 0),
            (5, 2, (), (), 4),
        )
        out = roundtrip(full, version)
        assert out == full and out.discovery == 0.125
        bundle = out.reports[0]
        assert isinstance(out.reports, tuple) and isinstance(bundle, tuple)
        assert isinstance(bundle[2], tuple) and isinstance(bundle[2][0], tuple)
        assert out != bare


    @fuzz_settings(150)
    @given(data=st.data())
    def test_round_trip_at_the_layout_edges(self, data, request_obj, service_graph):
        """The typed layouts at their limits: what fits comes back equal,
        what does not (an id or a credit past i64, a peer past i32, a
        256-entry run) is refused by the encoder with a CodecError."""
        draw = data.draw
        meta = next(iter(service_graph.assignment.values()))
        graph = request_obj.function_graph
        name = draw(_names, label="name")

        def run(label):
            return [f"{name}{i}" for i in range(draw(_runs, label=label))]

        branch, assigned, swaps, applied, metrics = map(
            run, ["branch", "assigned", "swaps", "applied", "metrics"]
        )
        probe_id, request_id, n = (draw(_ints, label=lb) for lb in ["probe_id", "request_id", "n"])
        peer, holder, hops, sent = (draw(_ints, label=lb) for lb in ["peer", "holder", "hops", "sent"])
        budget = abs(draw(_ints, label="budget"))
        x, amount = draw(_floats, label="x"), draw(_amounts, label="amount")
        credit = draw(_credits, label="credit")
        discovery = draw(st.none() | _amounts, label="discovery")
        n_bundles, peer_rows, link_rows = (
            draw(_runs, label=lb) for lb in ["bundles", "peer_rows", "link_rows"]
        )
        # one bundle holds the long runs of rows, the others one row each
        long = (holder, n, ((holder, name, amount),) * peer_rows, ((holder, holder, amount),) * link_rows, sent)
        bundles = ((long,) + ((holder, n, ((holder, name, amount),), (), 0),) * 255)[:n_bundles]

        probe = Probe(
            probe_id, request_obj, graph, frozenset(frozenset((s, s + "'")) for s in swaps),
            {fn: meta for fn in assigned}, tuple(branch), peer, QoSVector({m: x for m in metrics}),
            budget, x, x, hops,
        )
        probe_fits = (
            _i64(probe_id) and _i32(peer, budget, hops)
            and max(map(len, [branch, assigned, swaps, metrics])) <= 255
        )
        cargo_fits = _i64(request_id, credit) and (
            n_bundles == 0
            or (
                max(n_bundles, peer_rows, link_rows) <= 255
                and _i64(n) and _i32(holder) and 0 <= sent < 2**32
            )
        )
        pairs = tuple((a, a) for a in applied)
        for msg, fits in [
            (probe, probe_fits),
            (
                codec.ProbeTransfer(
                    request_id, probe, name, meta, graph, pairs, budget, x, credit, bundles, discovery
                ),
                probe_fits and cargo_fits and len(pairs) <= 255,
            ),
            (codec.FinalProbe(request_id, probe, credit, bundles, discovery), probe_fits and cargo_fits),
            (codec.CreditReturn(request_id, credit, name, bundles, discovery), cargo_fits),
        ]:
            if fits:
                assert roundtrip(msg) == msg, type(msg).__name__
            else:
                with pytest.raises(CodecError):
                    encode_frame(msg)


class TestCompiledRoundTrips:
    """The credit frames — the wave's bulk — through their generated
    encoders and decoders, in the envelope they travel in: what is written
    decodes to an equal envelope, and that re-encodes to the same bytes."""

    @staticmethod
    def _same_bytes(msg, inc="5f0c2a9e", gap=0) -> None:
        env = {"kind": "req", "id": 11, "src": 2, "inc": inc, "lw": 11 - gap, "body": msg}
        frame = encode_frame(env)
        out = decode_frame(frame)
        # a gap past the u16 arrives as the widest one: a lower mark
        assert out == {**env, "lw": 11 - min(gap, codec._LW_GAP_MAX)}, type(msg).__name__
        assert encode_frame(out) == frame, type(msg).__name__

    def test_round_trip_of_credit_frames_that_use_every_table(self, frames):
        for frame in frames:
            env = decode_frame(frame)
            assert encode_frame(env) == frame

    @fuzz_settings(100)
    @given(data=st.data())
    def test_round_trip_of_credit_frames_with_references_inside_one_frame(
        self, data, request_obj, service_graph
    ):
        """Assignments up to the whole function graph, with metadata that
        recurs (blob back-references); 0-255 report bundles whose resource
        types are outside the static table (a literal, then references to
        it); the incarnation itself used again as a string; and low-water
        gaps of 0, 1, the widest u16 and past it."""
        draw = data.draw
        metas = list(service_graph.assignment.values())
        graph = request_obj.function_graph
        functions = list(graph.functions)
        assigned = functions[: draw(st.integers(0, len(functions)), label="assigned")]
        pick = st.sampled_from(metas)
        assignment = {fn: draw(pick, label="meta") for fn in assigned}
        custom = draw(
            st.text(min_size=1, max_size=8).filter(lambda s: s not in codec._STATIC_MAP),
            label="custom",
        )
        inc = draw(st.sampled_from(["5f0c2a9e", custom]), label="inc")
        widest = codec._LW_GAP_MAX
        gap = draw(st.sampled_from([0, 1, widest, widest + 1]) | st.integers(0, 2**20), label="gap")
        rtypes = st.sampled_from([custom, "cpu", "memory", custom + "'"])
        ints = st.integers(-(2**31), 2**31 - 1)
        amounts = st.floats(min_value=0, allow_nan=False) | st.integers(0, 2**53)
        row = st.tuples(ints, rtypes, amounts)
        link = st.tuples(ints, ints, amounts)
        bundle = st.tuples(
            ints, st.integers(-(2**63), 2**63 - 1), st.lists(row, max_size=3).map(tuple),
            st.lists(link, max_size=3).map(tuple), st.integers(0, 2**32 - 1),
        )
        n_bundles = draw(st.sampled_from([0, 1, 2, 255]) | st.integers(0, 255), label="bundles")
        # most bundles are the one drawn, repeated: 255 fresh ones would be slow
        head = draw(st.lists(bundle, min_size=min(n_bundles, 1), max_size=min(n_bundles, 4)), label="head")
        reports = tuple(head + [head[-1]] * (n_bundles - len(head))) if n_bundles else ()
        discovery = draw(st.none() | amounts, label="discovery")
        probe = Probe(
            draw(st.integers(0, 2**63 - 1), label="probe_id"), request_obj, graph,
            frozenset(), assignment, tuple(assigned), draw(ints, label="peer"),
            QoSVector({"delay": 0.5, custom: 1.0}), 8, 2.0, 0.5, len(assigned),
        )
        component = draw(pick, label="component")
        self._same_bytes(
            codec.ProbeTransfer(
                5, probe, custom, component, graph, ((custom, custom),), 4, 0.25, 1 << 60,
                reports, discovery,
            ),
            inc,
            gap,
        )
        self._same_bytes(codec.FinalProbe(5, probe, 1 << 61, reports, discovery), inc, gap)
        self._same_bytes(codec.CreditReturn(5, 1 << 40, custom, reports, discovery), inc, gap)

    def test_request_envelope_carries_its_low_water_mark_in_two_bytes(self):
        """A request is two bytes longer than a reply of the same body; a
        mark above the id does not fit the gap and is refused, and a
        request dict without a mark is no envelope but a plain dict."""
        body = codec.MaintenancePing(7, 1)
        req = {"kind": "req", "id": 9, "src": 0, "inc": "5f0c2a9e", "lw": 3, "body": body}
        res = {"kind": "res", "id": 9, "src": 0, "inc": "5f0c2a9e", "body": body}
        assert len(encode_frame(req)) == len(encode_frame(res)) + 2
        assert decode_frame(encode_frame(req))["lw"] == 3
        with pytest.raises(CodecError):
            encode_frame({**req, "lw": 10})
        bare = {k: v for k, v in req.items() if k != "lw"}
        assert encode_frame(bare)[7] == codec._T_DICT8
        assert decode_frame(encode_frame(bare)) == bare


class TestBinaryFormat:
    """Back-references and damage rejection in the term format."""

    def test_backrefs_shrink_repeated_objects(self, request_obj):
        once = len(encode_frame([request_obj]))
        twice = len(encode_frame([request_obj, request_obj]))
        assert twice - once < 8  # second occurrence is a table reference

    def test_backrefs_preserve_identity(self, request_obj):
        out = decode_frame(encode_frame([request_obj, request_obj]))
        assert out[0] == request_obj and out[0] is out[1]

    def test_truncated_binary_payload(self):
        frame = encode_frame({"key": [1, 2, 3]})
        payload = frame[7:-1]  # drop the last payload byte, fix the header
        with pytest.raises(CodecError, match="truncated binary payload"):
            decode_frame(_frame(payload))

    def test_trailing_bytes_inside_payload(self):
        payload = encode_frame({"x": 1})[7:] + b"\x00"
        with pytest.raises(CodecError, match="trailing bytes inside"):
            decode_frame(_frame(payload))

    def test_unknown_value_tag(self):
        with pytest.raises(CodecError, match="unknown binary value tag"):
            decode_frame(_frame(b"\xff"))

    def test_unknown_type_id(self):
        with pytest.raises(CodecError, match="unknown binary type id"):
            decode_frame(_frame(b"\x0f\xfe"))

    def test_retired_big_integer_tag_is_unknown(self):
        # 0x06 carried integers past i64 until wire version 6
        big = (2**80).to_bytes(11, "big", signed=True)
        with pytest.raises(CodecError, match="unknown binary value tag 0x06"):
            decode_frame(_frame(b"\x06" + struct.pack(">I", len(big)) + big))

    def test_integer_past_i64_refused_at_encode(self):
        # a term integer is at most an i64: the edges round-trip, and one
        # past either edge is refused
        for edge in (2**63 - 1, -(2**63)):
            assert roundtrip({"n": edge}) == {"n": edge}
        for past in (2**63, -(2**63) - 1, 2**80):
            with pytest.raises(CodecError, match="does not fit i64"):
                encode_frame({"n": past})

    def test_dangling_string_backref(self):
        # low indices are the protocol-static table; 0xFFFF is unassigned
        with pytest.raises(CodecError, match="dangling string back-reference"):
            decode_frame(_frame(b"\x0a\xff\xff"))

    def test_dangling_object_backref(self):
        with pytest.raises(CodecError, match="dangling object back-reference"):
            decode_frame(_frame(b"\x10\x00\x00"))

    def test_non_string_key_refused_at_encode(self):
        with pytest.raises(CodecError, match="non-string"):
            encode_frame({1: "x"})

    def test_unencodable_type_refused(self):
        with pytest.raises(CodecError, match="not wire-encodable"):
            encode_frame({"x": object()})


class TestRejection:
    def test_unknown_version(self):
        frame = bytearray(encode_frame({"x": 1}))
        frame[2] = WIRE_VERSION + 1
        with pytest.raises(CodecError, match="version"):
            decode_frame(bytes(frame))

    def test_version_1_is_refused(self):
        # the retired encodings (1: JSON, 2: tagged terms throughout, 3:
        # report bundles without the probe count, 4: type ids counting a
        # per-spec registration frame, 5: Fraction credit, 6: type ids
        # counting the replica push frame, 7: requests without the
        # low-water mark): a stale peer is turned away at the header, and
        # nothing here will write such a frame either
        terms = encode_frame({"x": 1})[7:]
        for retired, payload in [
            (1, b'{"x":1}'), (2, terms), (3, terms), (4, terms), (5, terms), (6, terms),
            (7, terms),
        ]:
            with pytest.raises(CodecError, match=f"unsupported wire version {retired}"):
                decode_frame(_frame(payload, version=retired))
            with pytest.raises(CodecError, match=f"cannot encode wire version {retired}"):
                encode_frame({"x": 1}, retired)

    def test_bad_magic(self):
        frame = b"XX" + encode_frame({"x": 1})[2:]
        with pytest.raises(CodecError, match="magic"):
            decode_frame(frame)

    def test_truncated_header(self):
        with pytest.raises(CodecError, match="truncated frame header"):
            decode_frame(b"SN\x01")

    def test_truncated_payload(self):
        frame = encode_frame({"x": 1})
        with pytest.raises(CodecError, match="truncated frame payload"):
            decode_frame(frame[:-2])

    def test_trailing_bytes(self):
        with pytest.raises(CodecError, match="trailing"):
            decode_frame(encode_frame({"x": 1}) + b"!")

    def test_oversize_declared_length(self):
        header = struct.pack(">2sBI", b"SN", WIRE_VERSION, MAX_FRAME + 1)
        with pytest.raises(CodecError, match="exceeds"):
            decode_frame(header)

    def test_oversize_payload_refused_at_encode(self):
        with pytest.raises(CodecError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_bad_payload_for_known_tag(self):
        # a typed layout meeting a value of the wrong shape: QualitySpec's
        # reads a list of formats and gets the integer 5.  Whatever the
        # layout raises leaves the decoder as a CodecError
        payload = bytes([codec._T_OBJ, codec._BIN_IDS[QualitySpec], codec._T_INT8, 5])
        with pytest.raises(CodecError, match="malformed frame payload"):
            decode_frame(_frame(payload))
        reader = FrameReader()
        good = encode_frame({"n": 1})
        with pytest.raises(CodecError, match="malformed frame payload"):
            reader.feed(good + _frame(payload))

    @pytest.mark.parametrize(
        "damage",
        [
            {"reports": b"\x02" + _BUNDLE.pack(3, 1, 0, 0, 0)},
            {"reports": b"\x01" + _BUNDLE.pack(3, 1, 2, 0, 0) + _PEER_ROW},
            {"reports": b"\x01" + _BUNDLE.pack(3, 1, 0, 2, 0) + _LINK_ROW},
            {"reports": b"\x01" + _BUNDLE.pack(3, 1, 1, 0, 0) + _PEER_ROW[:12] + bytes([codec._T_INT8, 9])},
            {"reports": b"\x01" + _BUNDLE.pack(3, 1, 0, 0, 7)[:-2]},
            {"discovery": b"\x02" + struct.pack(">d", 0.125)},
            {"discovery": b"\x01"},
        ],
        ids=[
            "bundle-count-past-the-end", "peer-rows-past-the-end", "link-rows-past-the-end",
            "resource-type-not-a-string", "count-past-the-end", "presence-byte",
            "discovery-past-the-end",
        ],
    )
    def test_damaged_typed_bytes(self, damage):
        # what damage the typed layouts *can* express on the wire: the hand
        # writer is right about the layout, and each damaged part is refused
        whole = _credit_return(
            reports=b"\x01" + _BUNDLE.pack(3, 1, 1, 1, 7) + _PEER_ROW + _LINK_ROW,
            discovery=b"\x01" + struct.pack(">d", 0.125),
        )
        assert decode_frame(_frame(whole)) == codec.CreditReturn(
            1, 2, "lost", ((3, 1, ((3, "cpu", 0.5),), ((2, 3, 1.25),), 7),), 0.125
        )
        with pytest.raises(CodecError):
            decode_frame(_frame(_credit_return(**damage)))

    def test_object_of_another_class_is_refused(self, request_obj):
        # an object field names its class in the layout; the bytes may hold
        # any registered object there, and only that class is let through
        good = encode_frame(codec.ComposeBegin(1, request_obj, 16, True))[7:]
        head = good[: 2 + struct.calcsize(">qi?")]
        assert decode_frame(_frame(good)).request == request_obj
        stray = encode_frame(QoSVector({"delay": 0.2}))[7:]
        with pytest.raises(CodecError, match="where the layout reads a CompositeRequest"):
            decode_frame(_frame(head + stray))

    @pytest.mark.parametrize(
        "field, rows",
        [
            ("peers", 7),  # not a sequence of rows
            ("peers", [7]),  # a row that is not a sequence
            ("peers", [[3, "cpu"]]),  # short row
            ("peers", [[3, "cpu", 0.5, 1]]),  # long row
            ("peers", [["3", "cpu", 0.5]]),  # peer id is not an int
            ("peers", [[3, 9, 0.5]]),  # resource type is not a string
            ("peers", [[3, "cpu", "much"]]),  # amount is not a number
            ("links", [[2, 3]]),
            ("links", [[2, "3", 1.0]]),
            ("links", [[2, 3, None]]),
            ("links", {"u": 2}),
        ],
    )
    def test_malformed_report_rows(self, request_obj, service_graph, version, field, rows):
        # the rows cross the wire as struct rows that cannot say any of
        # this (what damaged bytes can say is test_damaged_typed_bytes);
        # the constructor and the encoder must refuse it as a CodecError
        good = {"peers": [[3, "cpu", 0.5]], "links": [[2, 3, 1.0]]}
        rows_of = {**good, field: rows}
        reports = [[4, 1, good["peers"], good["links"], 0], [3, 1, rows_of["peers"], rows_of["links"], 2]]
        _assert_refused(request_obj, service_graph, version, reports=reports)

    @pytest.mark.parametrize(
        "damage",
        [
            {"reports": 7},  # not a sequence of bundles
            {"reports": [7]},  # a bundle that is not a sequence
            # (ids are reprs and are kept: these date from four-part bundles)
            {"reports": [[3, 1, []]]},  # short bundle
            {"reports": [[3, 1, [], [], []]]},  # the count is not an int
            {"reports": [["3", 1, [], []]]},  # short bundle: no count
            {"reports": [[3, None, [], []]]},
            {"reports": [[3, 1, None, []]]},
            {"reports": [[3, 1, [], [], 2, 2]]},  # long bundle
            {"reports": [["3", 1, [], [], 2]]},  # holder is not an int
            {"reports": [[3, None, [], [], 2]]},  # n is not an int
            {"reports": [[3, 1, None, [], 2]]},  # rows missing altogether
            {"reports": [[3, 1, [], [], 2.0]]},  # the count is not an int
            {"reports": [[3, 1, [], [], None]]},  # the count is missing
            {"discovery": "soon"},
            {"discovery": [0.1]},
        ],
        ids=repr,
    )
    def test_malformed_report_bundles(self, request_obj, service_graph, version, damage):
        _assert_refused(request_obj, service_graph, version, **damage)


class TestFrameReader:
    def test_single_byte_feeds(self):
        frames = encode_frame({"n": 1}) + encode_frame({"n": 2})
        reader = FrameReader()
        out = []
        for i in range(len(frames)):
            out.extend(reader.feed(frames[i : i + 1]))
        assert out == [{"n": 1}, {"n": 2}]
        assert reader.pending_bytes == 0

    def test_mixed_versions_on_one_stream(self):
        # there is one version: a frame that claims another poisons the
        # stream where it starts, and the reader stays poisoned
        for retired in (1, 2, 3, 4, 5, 6, 7):
            reader = FrameReader()
            assert reader.feed(encode_frame({"n": 0})) == [{"n": 0}]
            stale = _frame(encode_frame({"n": 1})[7:], version=retired)
            with pytest.raises(CodecError, match=f"unsupported wire version {retired}"):
                reader.feed(stale + encode_frame({"n": 2}))
            with pytest.raises(CodecError, match=f"unsupported wire version {retired}"):
                reader.feed(encode_frame({"n": 3}))

    def test_burst_of_many_frames(self):
        # the offset-cursor path: one big burst must come back intact
        burst = b"".join(
            encode_frame({"n": i, "pad": "x" * 64})
            for i in range(2000)
        )
        reader = FrameReader()
        out = reader.feed(burst)
        assert [m["n"] for m in out] == list(range(2000))
        assert reader.pending_bytes == 0

    def test_messages_split_across_chunks(self):
        frames = b"".join(encode_frame({"n": i}) for i in range(5))
        reader = FrameReader()
        mid = len(frames) // 2 + 3
        out = reader.feed(frames[:mid]) + reader.feed(frames[mid:])
        assert [m["n"] for m in out] == list(range(5))

    def test_header_error_poisons_stream(self):
        reader = FrameReader()
        with pytest.raises(CodecError):
            reader.feed(b"XXXXXXXXXX")

    def test_partial_header_waits(self):
        reader = FrameReader()
        assert reader.feed(b"SN") == []
        assert reader.pending_bytes == 2


class TestFuzz:
    """The decoder is total: any bytes give a value or a CodecError."""

    @staticmethod
    def _decodes_or_refuses(frame: bytes) -> None:
        try:
            decode_frame(frame)
        except CodecError:
            pass

    @fuzz_settings(300)
    @given(payload=st.binary(max_size=96))
    def test_arbitrary_bytes_behind_a_valid_header(self, payload):
        self._decodes_or_refuses(_frame(payload))

    @fuzz_settings(400)
    @given(data=st.data())
    def test_damaged_frames_of_every_message_type(self, data, frames):
        frame = bytearray(data.draw(st.sampled_from(frames), label="frame"))
        damage = data.draw(st.sampled_from(["flip", "truncate", "splice"]), label="damage")
        body = st.integers(7, len(frame) - 1)  # past the header
        if damage == "flip":
            for at in data.draw(st.lists(body, min_size=1, max_size=4), label="at"):
                frame[at] = data.draw(st.integers(0, 255), label="byte")
        elif damage == "truncate":
            del frame[data.draw(body, label="cut") :]
        else:
            donor = data.draw(st.sampled_from(frames), label="donor")
            start = data.draw(st.integers(7, len(donor) - 1), label="start")
            at = data.draw(body, label="at")
            frame[at:] = donor[start:]
        # the header's length follows the damage, so the payload decoder sees it
        frame[3:7] = (len(frame) - 7).to_bytes(4, "big")
        self._decodes_or_refuses(bytes(frame))

    @fuzz_settings(60)
    @given(data=st.data())
    def test_any_chunking_of_a_burst_decodes_like_frame_by_frame(self, data, frames):
        burst = b"".join(frames)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(burst)), max_size=12), label="cuts"))
        reader = FrameReader()
        out = []
        for start, end in zip([0, *cuts], [*cuts, len(burst)]):
            out.extend(reader.feed(burst[start:end]))
        assert out == [decode_frame(f) for f in frames]
        assert reader.pending_bytes == 0
