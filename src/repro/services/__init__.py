"""Service component model, ADUs, and the multimedia service library."""

from .adu import ADU, VideoFrame
from .component import (
    ComponentSpec,
    ProcessingError,
    QualitySpec,
    ServiceComponent,
)
from .media import (
    MEDIA_FUNCTIONS,
    deploy_media_component,
    make_media_component,
    make_transform,
)

__all__ = [
    "ADU",
    "ComponentSpec",
    "MEDIA_FUNCTIONS",
    "ProcessingError",
    "QualitySpec",
    "ServiceComponent",
    "VideoFrame",
    "deploy_media_component",
    "make_media_component",
    "make_transform",
]
