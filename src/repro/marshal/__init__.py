"""Marshal layer: communication buffers and wire encodings."""

from repro.marshal.buffer import MarshalBuffer
from repro.marshal.codec import Decoder, Encoder, WireTag
from repro.marshal.errors import (
    BufferUnderflowError,
    DoorVectorError,
    MarshalError,
    ReplyStatusError,
    WireTypeError,
)

__all__ = [
    "MarshalBuffer",
    "Decoder",
    "Encoder",
    "WireTag",
    "MarshalError",
    "WireTypeError",
    "BufferUnderflowError",
    "DoorVectorError",
    "ReplyStatusError",
]
