"""JSON and XML front-ends for request specifications.

QoSTalk (the specification environment the paper points users at) was
XML-based; modern users expect JSON.  Both formats map 1:1 onto the
dictionary schema of :mod:`repro.spec.schema`:

JSON — the schema dictionary verbatim.

XML —

.. code-block:: xml

    <composite-request name="mobile-news-stream">
      <function name="downscale"/>
      <function name="stock_ticker"/>
      <function name="requantify"/>
      <edge from="downscale" to="stock_ticker"/>
      <edge from="stock_ticker" to="requantify"/>
      <commutation a="stock_ticker" b="requantify"/>
      <qos delay-ms="800" loss-rate="0.05"/>
      <stream bandwidth-mbps="1.2" source="0" dest="42"
              duration-s="1800" failure-req="0.05"/>
    </composite-request>

Any other child element is refused, as an unknown JSON key is.  Number
attributes pass to :func:`~repro.spec.schema.compile_spec` as written,
which converts them.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Union
from xml.etree import ElementTree

from .schema import RequestSpec, SpecError, compile_spec

__all__ = ["parse_json", "parse_xml", "load_spec"]

_XML_ELEMENTS = {"function", "edge", "commutation", "qos", "stream"}


def parse_json(text: str) -> RequestSpec:
    """Parse a JSON request specification."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    return compile_spec(data)


def parse_xml(text: str) -> RequestSpec:
    """Parse an XML (QoSTalk-style) request specification."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise SpecError(f"invalid XML: {exc}") from exc
    if root.tag != "composite-request":
        raise SpecError(f"root element must be <composite-request>, got <{root.tag}>")
    unknown = sorted({el.tag for el in root} - _XML_ELEMENTS)
    if unknown:
        raise SpecError(f"unknown spec elements: {unknown}")
    spec: Dict[str, Any] = {"name": root.get("name", "request")}
    functions = [el.get("name") for el in root.findall("function")]
    if any(f is None for f in functions):
        raise SpecError("<function> elements need a 'name' attribute")
    spec["functions"] = functions
    edges = []
    for el in root.findall("edge"):
        a, b = el.get("from"), el.get("to")
        if a is None or b is None:
            raise SpecError("<edge> elements need 'from' and 'to' attributes")
        edges.append([a, b])
    if edges:
        spec["edges"] = edges
    commutations = []
    for el in root.findall("commutation"):
        a, b = el.get("a"), el.get("b")
        if a is None or b is None:
            raise SpecError("<commutation> elements need 'a' and 'b' attributes")
        commutations.append([a, b])
    if commutations:
        spec["commutations"] = commutations
    qos_el = root.find("qos")
    if qos_el is not None:
        qos: Dict[str, str] = {}
        for attr, key in (("delay-ms", "delay_ms"), ("loss-rate", "loss_rate")):
            if qos_el.get(attr) is not None:
                qos[key] = qos_el.get(attr)
        spec["qos"] = qos
    stream_el = root.find("stream")
    if stream_el is None:
        raise SpecError("a <stream> element with source/dest is required")
    try:
        spec["source"] = int(stream_el.get("source"))
        spec["dest"] = int(stream_el.get("dest"))
    except (TypeError, ValueError) as exc:
        raise SpecError("<stream> needs integer 'source' and 'dest'") from exc
    for attr, key in (
        ("bandwidth-mbps", "bandwidth_mbps"),
        ("duration-s", "duration_s"),
        ("failure-req", "failure_req"),
        ("priority", "priority"),
    ):
        if stream_el.get(attr) is not None:
            spec[key] = stream_el.get(attr)
    return compile_spec(spec)


def load_spec(path: Union[str, pathlib.Path]) -> RequestSpec:
    """Load a specification file; format chosen by extension (.json/.xml)."""
    p = pathlib.Path(path)
    text = p.read_text()
    if p.suffix.lower() == ".json":
        return parse_json(text)
    if p.suffix.lower() == ".xml":
        return parse_xml(text)
    raise SpecError(f"unsupported spec format {p.suffix!r} (use .json or .xml)")
