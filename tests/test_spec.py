"""Tests for the request specification layer (JSON/XML → CompositeRequest)."""

import json
from xml.etree import ElementTree

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.qos import additive_to_loss
from repro.spec import (
    SpecError,
    compile_spec,
    load_spec,
    parse_json,
    parse_xml,
    spec_from_request,
)

from worlds import fuzz_settings


def base_spec():
    return {
        "name": "mobile-news-stream",
        "functions": ["downscale", "stock_ticker", "requantify"],
        "qos": {"delay_ms": 800, "loss_rate": 0.05},
        "bandwidth_mbps": 1.2,
        "source": 0,
        "dest": 42,
        "duration_s": 1800,
        "failure_req": 0.05,
    }


# what a JSON document can hold, NaN and the infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
SPEC_KEYS = sorted(base_spec()) + ["edges", "commutations", "priority", "conditional"]
QOS_KEYS = ["delay_ms", "loss_rate", "jitter_ms"]


class TestCompileSpec:
    def test_minimal_linear_chain(self):
        spec = compile_spec(base_spec())
        assert spec.name == "mobile-news-stream"
        assert spec.function_graph.is_linear()
        assert spec.function_graph.topological_order() == [
            "downscale", "stock_ticker", "requantify",
        ]

    def test_units_converted(self):
        spec = compile_spec(base_spec())
        assert spec.qos.bounds["delay"] == pytest.approx(0.8)
        assert additive_to_loss(spec.qos.bounds["loss"]) == pytest.approx(0.05)

    def test_compile_to_request(self):
        request = compile_spec(base_spec()).compile()
        assert request.source_peer == 0 and request.dest_peer == 42
        assert request.bandwidth == pytest.approx(1.2)
        assert request.duration == pytest.approx(1800)

    def test_explicit_edges_make_dag(self):
        spec = dict(base_spec())
        spec["functions"] = ["a", "b", "c", "d"]
        spec["edges"] = [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]
        compiled = compile_spec(spec)
        assert not compiled.function_graph.is_linear()
        assert len(compiled.function_graph.branches()) == 2

    def test_commutations_carried(self):
        spec = dict(base_spec())
        spec["commutations"] = [["stock_ticker", "requantify"]]
        compiled = compile_spec(spec)
        assert len(compiled.function_graph.commutations) == 1

    def test_defaults_applied(self):
        spec = {"functions": ["f"], "source": 0, "dest": 1}
        compiled = compile_spec(spec)
        assert compiled.bandwidth_mbps == 0.5
        assert compiled.duration_s == 600.0

    def test_unknown_key_rejected(self):
        spec = dict(base_spec())
        spec["bandwith_mbps"] = 1.0  # typo
        with pytest.raises(SpecError, match="unknown spec keys"):
            compile_spec(spec)

    def test_unknown_qos_key_rejected(self):
        spec = dict(base_spec())
        spec["qos"] = {"jitter_ms": 5}
        with pytest.raises(SpecError, match="unknown qos keys"):
            compile_spec(spec)

    def test_conditional_key_rejected(self):
        """The conditional-branch model is gone: its key is unknown."""
        spec = dict(base_spec())
        spec["conditional"] = {"downscale": {"stock_ticker": 1.0}}
        with pytest.raises(SpecError, match="unknown spec keys"):
            compile_spec(spec)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("qos", {"delay_ms": "abc"}),
            ("qos", {"delay_ms": None}),
            ("qos", {"loss_rate": 10**400}),
            ("bandwidth_mbps", [1]),
            ("priority", {}),
            ("commutations", 5),
            ("edges", [["a", "b"], 7]),
        ],
    )
    def test_malformed_values_raise_spec_error(self, key, value):
        spec = dict(base_spec())
        spec[key] = value
        with pytest.raises(SpecError):
            compile_spec(spec)

    def test_same_endpoints_rejected(self):
        spec = dict(base_spec())
        spec["dest"] = spec["source"]
        with pytest.raises(SpecError):
            compile_spec(spec)

    def test_bad_graph_rejected(self):
        spec = dict(base_spec())
        spec["edges"] = [["downscale", "ghost"]]
        with pytest.raises(SpecError, match="invalid function graph"):
            compile_spec(spec)

    def test_bad_values_rejected(self):
        for key, value in (
            ("bandwidth_mbps", -1.0),
            ("duration_s", 0.0),
            ("failure_req", 2.0),
        ):
            spec = dict(base_spec())
            spec[key] = value
            with pytest.raises(SpecError):
                compile_spec(spec)

    def test_round_trip_through_serialiser(self):
        request = compile_spec(base_spec()).compile()
        spec2 = spec_from_request(request, name="rt")
        request2 = compile_spec(spec2).compile()
        assert request2.function_graph.edges == request.function_graph.edges
        assert request2.qos.bounds == pytest.approx(request.qos.bounds)
        assert request2.bandwidth == pytest.approx(request.bandwidth)


class TestJsonParser:
    def test_parse_json(self):
        spec = parse_json(json.dumps(base_spec()))
        assert spec.source == 0

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            parse_json("{not json")

    @fuzz_settings(300)
    @given(
        top=st.dictionaries(st.sampled_from(SPEC_KEYS), JSON_VALUES, max_size=4),
        qos=st.dictionaries(st.sampled_from(QOS_KEYS), JSON_VALUES, max_size=2),
    )
    def test_any_mapping_parses_or_raises_spec_error(self, top, qos):
        spec = dict(base_spec(), qos=qos)
        spec.update(top)
        try:
            parse_json(json.dumps(spec))
        except SpecError:
            pass


XML_DOC = """
<composite-request name="mobile-news-stream">
  <function name="downscale"/>
  <function name="stock_ticker"/>
  <function name="requantify"/>
  <edge from="downscale" to="stock_ticker"/>
  <edge from="stock_ticker" to="requantify"/>
  <commutation a="stock_ticker" b="requantify"/>
  <qos delay-ms="800" loss-rate="0.05"/>
  <stream bandwidth-mbps="1.2" source="0" dest="42" duration-s="1800"/>
</composite-request>
"""


XML_ATTRS = [
    ("qos", "delay-ms"),
    ("qos", "loss-rate"),
    ("stream", "source"),
    ("stream", "dest"),
    ("stream", "bandwidth-mbps"),
    ("stream", "duration-s"),
    ("stream", "failure-req"),
    ("stream", "priority"),
]


class TestXmlParser:
    def test_parse_xml(self):
        spec = parse_xml(XML_DOC)
        assert spec.name == "mobile-news-stream"
        assert spec.qos.bounds["delay"] == pytest.approx(0.8)
        assert len(spec.function_graph.commutations) == 1
        assert spec.bandwidth_mbps == pytest.approx(1.2)

    def test_wrong_root_rejected(self):
        with pytest.raises(SpecError, match="composite-request"):
            parse_xml("<request/>")

    def test_missing_stream_rejected(self):
        with pytest.raises(SpecError, match="stream"):
            parse_xml("<composite-request><function name='f'/></composite-request>")

    def test_invalid_xml_rejected(self):
        with pytest.raises(SpecError, match="invalid XML"):
            parse_xml("<unclosed")

    def test_unknown_element_rejected(self):
        """A child the front-end does not know (the conditional-branch
        model's ``<conditional>``, for one) is refused, not skipped."""
        doc = XML_DOC.replace(
            "</composite-request>",
            '<conditional fork="downscale"><branch to="stock_ticker" probability="1"/>'
            "</conditional></composite-request>",
        )
        with pytest.raises(SpecError, match="unknown spec elements"):
            parse_xml(doc)

    @pytest.mark.parametrize(
        "element, attr, value",
        [("qos", "delay-ms", "abc"), ("stream", "bandwidth-mbps", "x")],
    )
    def test_malformed_attribute_raises_spec_error(self, element, attr, value):
        root = ElementTree.fromstring(XML_DOC)
        root.find(element).set(attr, value)
        with pytest.raises(SpecError, match=attr.replace("-", "_")):
            parse_xml(ElementTree.tostring(root, encoding="unicode"))

    @fuzz_settings(300)
    @given(attrs=st.dictionaries(st.sampled_from(XML_ATTRS), st.text(max_size=8), max_size=4))
    def test_any_attribute_strings_parse_or_raise_spec_error(self, attrs):
        root = ElementTree.fromstring(XML_DOC)
        for (element, attr), value in attrs.items():
            root.find(element).set(attr, value)
        try:
            parse_xml(ElementTree.tostring(root, encoding="unicode"))
        except SpecError:
            pass

class TestLoadSpec:
    def test_load_json_file(self, tmp_path):
        p = tmp_path / "req.json"
        p.write_text(json.dumps(base_spec()))
        assert load_spec(p).dest == 42

    def test_load_xml_file(self, tmp_path):
        p = tmp_path / "req.xml"
        p.write_text(XML_DOC)
        assert load_spec(p).dest == 42

    def test_unknown_extension_rejected(self, tmp_path):
        p = tmp_path / "req.yaml"
        p.write_text("functions: [f]")
        with pytest.raises(SpecError, match="unsupported"):
            load_spec(p)


class TestEndToEnd:
    def test_spec_to_composition(self, populated_net):
        net, _ = populated_net
        fns = net.registry.functions()[:2]
        spec = {
            "functions": fns,
            "qos": {"delay_ms": 3000, "loss_rate": 0.2},
            "source": 0,
            "dest": 5,
        }
        request = compile_spec(spec).compile()
        result = net.compose(request, budget=16)
        assert result is not None  # composes without error (success depends on world)
