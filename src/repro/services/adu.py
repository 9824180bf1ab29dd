"""Application data units (ADUs) — the payloads service components process.

The paper's component model (§2.2, Fig. 3): components buffer input ADUs
in queues, process one ADU from each input queue, and emit output ADUs.
Our ADUs model a video frame (or frame-group) with enough structure for
the six multimedia components of §6.2 to perform *observable* transforms
— resolution, quantisation depth, embedded overlays — so data-plane tests
can assert real behaviour instead of counting opaque tokens.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Tuple

__all__ = ["ADU", "VideoFrame"]

_sequence = itertools.count(1)


@dataclass(frozen=True)
class ADU:
    """A generic application data unit flowing through a service graph."""

    seq: int
    stream_id: int
    timestamp: float
    size_bytes: int
    kind: str = "data"

    @classmethod
    def fresh(cls, stream_id: int, timestamp: float, size_bytes: int, kind: str = "data") -> "ADU":
        return cls(next(_sequence), stream_id, timestamp, size_bytes, kind)


@dataclass(frozen=True)
class VideoFrame(ADU):
    """A video frame ADU with the attributes the media components touch.

    ``overlays`` records embedded tickers (weather/stock); ``crop`` a
    sub-image region; ``quant_bits`` the re-quantisation depth.  Size is
    kept consistent with dimensions × depth so scaling visibly changes
    the byte count.
    """

    width: int = 640
    height: int = 480
    quant_bits: int = 8
    overlays: Tuple[str, ...] = ()
    crop: Optional[Tuple[int, int, int, int]] = None  # (x, y, w, h)
    fmt: str = "yuv"

    @classmethod
    def source(
        cls,
        stream_id: int,
        timestamp: float,
        width: int = 640,
        height: int = 480,
        quant_bits: int = 8,
        fmt: str = "yuv",
    ) -> "VideoFrame":
        size = cls.nominal_size(width, height, quant_bits)
        return cls(
            seq=next(_sequence),
            stream_id=stream_id,
            timestamp=timestamp,
            size_bytes=size,
            kind="video",
            width=width,
            height=height,
            quant_bits=quant_bits,
            fmt=fmt,
        )

    @staticmethod
    def nominal_size(width: int, height: int, quant_bits: int) -> int:
        """Byte size of a frame at given dimensions and quantisation.

        12 effective bits/pixel for 4:2:0 chroma at 8-bit depth, scaled
        linearly with depth; a crude but monotone model — what matters is
        that transforms move the size in the right direction.
        """
        bits_per_pixel = 12 * quant_bits / 8
        return max(1, int(width * height * bits_per_pixel / 8))

    def resized(self, width: int, height: int) -> "VideoFrame":
        if width <= 0 or height <= 0:
            raise ValueError(f"invalid dimensions {width}x{height}")
        return replace(
            self,
            width=width,
            height=height,
            size_bytes=self.nominal_size(width, height, self.quant_bits),
        )

    def requantised(self, quant_bits: int) -> "VideoFrame":
        if not 1 <= quant_bits <= 16:
            raise ValueError(f"quant_bits out of range: {quant_bits}")
        return replace(
            self,
            quant_bits=quant_bits,
            size_bytes=self.nominal_size(self.width, self.height, quant_bits),
        )

    def with_overlay(self, name: str) -> "VideoFrame":
        return replace(self, overlays=self.overlays + (name,))

    def cropped(self, x: int, y: int, w: int, h: int) -> "VideoFrame":
        if x < 0 or y < 0 or w <= 0 or h <= 0 or x + w > self.width or y + h > self.height:
            raise ValueError(f"crop ({x},{y},{w},{h}) outside {self.width}x{self.height}")
        return replace(
            self,
            crop=(x, y, w, h),
            width=w,
            height=h,
            size_bytes=self.nominal_size(w, h, self.quant_bits),
        )
