"""The six multimedia service functions of the paper's prototype (§6.2).

    (1) embedding weather forecast ticker   (2) embedding stock ticker
    (3) up-scaling video frames             (4) down-scaling video frames
    (5) extracting sub-image                (6) re-quantification of frames

Each factory returns a transform usable by
:class:`~repro.services.component.ServiceComponent` plus sensible
``Qin/Qout/Qp/R`` defaults, so a populated overlay exercises the same
data path the Java prototype did: every deployed component performs an
observable change on the frames that flow through it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..core.qos import QoSVector
from ..core.resources import ResourceVector
from ..sim.rng import as_generator
from .adu import ADU, VideoFrame
from .component import ComponentSpec, ProcessingError, QualitySpec, ServiceComponent

__all__ = [
    "MEDIA_FUNCTIONS",
    "make_transform",
    "make_media_component",
    "deploy_media_component",
]

MEDIA_FUNCTIONS: Tuple[str, ...] = (
    "weather_ticker",
    "stock_ticker",
    "upscale",
    "downscale",
    "subimage",
    "requantify",
)


def _expect_frame(adu: ADU) -> VideoFrame:
    if not isinstance(adu, VideoFrame):
        raise ProcessingError(f"media component needs VideoFrame, got {type(adu).__name__}")
    return adu


def _weather_ticker(adus: Sequence[ADU]) -> List[ADU]:
    return [_expect_frame(a).with_overlay("weather") for a in adus]


def _stock_ticker(adus: Sequence[ADU]) -> List[ADU]:
    return [_expect_frame(a).with_overlay("stock") for a in adus]


def _upscale(adus: Sequence[ADU]) -> List[ADU]:
    out = []
    for a in adus:
        f = _expect_frame(a)
        out.append(f.resized(f.width * 2, f.height * 2))
    return out


def _downscale(adus: Sequence[ADU]) -> List[ADU]:
    out = []
    for a in adus:
        f = _expect_frame(a)
        out.append(f.resized(max(1, f.width // 2), max(1, f.height // 2)))
    return out


def _subimage(adus: Sequence[ADU]) -> List[ADU]:
    out = []
    for a in adus:
        f = _expect_frame(a)
        w, h = max(1, f.width // 2), max(1, f.height // 2)
        out.append(f.cropped(f.width // 4, f.height // 4, w, h))
    return out


def _requantify(adus: Sequence[ADU]) -> List[ADU]:
    out = []
    for a in adus:
        f = _expect_frame(a)
        out.append(f.requantised(max(1, f.quant_bits // 2)))
    return out


_TRANSFORMS: Dict[str, Callable[[Sequence[ADU]], List[ADU]]] = {
    "weather_ticker": _weather_ticker,
    "stock_ticker": _stock_ticker,
    "upscale": _upscale,
    "downscale": _downscale,
    "subimage": _subimage,
    "requantify": _requantify,
}

# output rate relative to input rate: scaling/quantisation change bitrate
_BANDWIDTH_FACTOR: Dict[str, float] = {
    "weather_ticker": 1.05,
    "stock_ticker": 1.05,
    "upscale": 4.0,
    "downscale": 0.25,
    "subimage": 0.25,
    "requantify": 0.5,
}

# nominal resource appetite (CPU share %, memory MB) per function
_RESOURCE_PROFILE: Dict[str, Tuple[float, float]] = {
    "weather_ticker": (4.0, 24.0),
    "stock_ticker": (4.0, 24.0),
    "upscale": (18.0, 96.0),
    "downscale": (10.0, 48.0),
    "subimage": (6.0, 32.0),
    "requantify": (12.0, 64.0),
}


def make_transform(function: str) -> Callable[[Sequence[ADU]], List[ADU]]:
    """The transform implementing one of the six media functions."""
    try:
        return _TRANSFORMS[function]
    except KeyError:
        raise KeyError(
            f"unknown media function {function!r}; choose from {MEDIA_FUNCTIONS}"
        ) from None


def make_media_component(
    function: str,
    peer: int,
    rng=None,
    delay_range: Tuple[float, float] = (0.005, 0.040),
    loss_range: Tuple[float, float] = (0.0, 0.002),
) -> ComponentSpec:
    """A :class:`ComponentSpec` for a media function with randomised Qp.

    Duplicated components "provide the same functionality but can have
    different QoS properties (e.g., service time) and available
    resources" (§2.4) — the per-instance randomisation is the spread BCP
    exploits when choosing among duplicates.
    """
    if function not in _TRANSFORMS:
        raise KeyError(f"unknown media function {function!r}")
    rng = as_generator(rng)
    cpu, mem = _RESOURCE_PROFILE[function]
    jitter = 0.5 + rng.random()  # [0.5, 1.5) instance-level heterogeneity
    qp = QoSVector(
        {
            "delay": float(rng.uniform(*delay_range)),
            "loss": float(rng.uniform(*loss_range)),
        }
    )
    return ComponentSpec.create(
        function=function,
        peer=peer,
        qp=qp,
        resources=ResourceVector({"cpu": cpu * jitter, "memory": mem * jitter}),
        input_quality=QualitySpec.of("yuv"),
        output_quality=QualitySpec.of("yuv"),
        bandwidth_factor=_BANDWIDTH_FACTOR[function],
    )


def deploy_media_component(spec: ComponentSpec, max_queue: int = 256) -> ServiceComponent:
    """Instantiate the runtime component for a media spec."""
    return ServiceComponent(spec, make_transform(spec.function), max_queue=max_queue)
