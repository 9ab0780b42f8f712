"""Message framing for the farm protocol: JSON lines + binary frames.

Every message is one JSON object on one line.  Values that are raw
bytes (``.npy`` arrays, ``.npz`` coverage snapshots — anything
wrapped in :class:`Blob`) travel as binary frames: the JSON
line carries ``{"__frame__": i}`` placeholders plus a
``"_frames": [len, ...]`` header, and the raw bytes follow the newline
back to back, in order.  Only the JSON *header* is bounded by
:data:`MAX_LINE`; frames are bounded individually by
:data:`MAX_FRAME`, and read in :data:`READ_CHUNK` pieces, so a header
that declares a huge frame costs memory only for the bytes that
actually arrive.  A message without bytes is one plain JSON line.

:func:`dump_message`/:func:`read_message` are the only encode/decode
points; a malformed message raises :class:`~repro.errors.FarmError`.
:func:`as_bytes` gives payload consumers the raw bytes of a resolved
frame and refuses anything else.
"""

from __future__ import annotations

import json

from repro.errors import FarmError

__all__ = ["Blob", "as_bytes", "dump_message", "read_message",
           "MAX_LINE", "MAX_FRAME", "FRAMES_KEY"]

#: JSON header line cap.  The header holds only records and frame
#: placeholders, so 16 MiB bounds even huge batches.
MAX_LINE = 16 << 20

#: Per-frame byte cap — a sanity bound against a corrupt or hostile
#: length prefix, far above any real payload.
MAX_FRAME = 1 << 30

#: Largest single read of a frame.  A buffered reader allocates what
#: it is asked for before the bytes arrive, so asking for a declared
#: length in one read would let a one-line header cost ``MAX_FRAME``.
READ_CHUNK = 1 << 20

FRAMES_KEY = "_frames"
_FRAME_REF = "__frame__"


class Blob(bytes):
    """Bytes that travel as a binary frame."""

    __slots__ = ()


def as_bytes(value):
    """Raw bytes of a wire payload value (a resolved binary frame)."""
    if isinstance(value, bytes):
        return bytes(value)
    raise FarmError(f"bad wire payload: expected a binary frame, got "
                    f"{type(value).__name__}")


def _encode(value, frames):
    if isinstance(value, (bytes, bytearray, memoryview)):
        frames.append(bytes(value))
        return {_FRAME_REF: len(frames) - 1}
    if isinstance(value, dict):
        return {key: _encode(item, frames) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item, frames) for item in value]
    return value


def _resolve(value, frames):
    if isinstance(value, dict):
        if set(value) == {_FRAME_REF}:
            index = value[_FRAME_REF]
            if type(index) is not int or not 0 <= index < len(frames):
                raise FarmError(f"bad wire frame reference {index!r}: "
                                f"the message carries {len(frames)} "
                                "frame(s)")
            return Blob(frames[index])
        return {key: _resolve(item, frames) for key, item in value.items()}
    if isinstance(value, list):
        return [_resolve(item, frames) for item in value]
    return value


def dump_message(message):
    """Serialize one message dict to wire bytes (line + frames)."""
    frames = []
    header = _encode(dict(message), frames)
    if frames:
        header[FRAMES_KEY] = [len(frame) for frame in frames]
    line = (json.dumps(header) + "\n").encode("utf-8")
    if frames:
        return b"".join([line] + frames)
    return line


def _read_frame(rfile, length):
    """Read exactly ``length`` frame bytes, :data:`READ_CHUNK` at a time."""
    parts = []
    remaining = length
    while remaining:
        part = rfile.read(min(remaining, READ_CHUNK))
        if not part:
            raise FarmError(f"truncated wire frame: wanted {length} bytes, "
                            f"got {length - remaining}")
        parts.append(part)
        remaining -= len(part)
    return b"".join(parts)


def read_message(rfile, max_line=MAX_LINE):
    """Read one message from a binary stream; ``(message, bytes_read)``.

    Returns ``(None, 0)`` on a clean EOF at a message boundary (the
    peer closed the channel).  A truncated message — EOF mid-frame —
    raises :class:`FarmError`: the peer died mid-answer, which is a
    failed request, not a closed idle channel.  So does any malformed
    header: one over ``max_line`` bytes, bad UTF-8 or JSON, JSON that
    Python cannot load (an integer past its digit limit, nesting past
    its recursion limit), or a frame table or frame reference that does
    not describe the frames that follow.
    """
    line = rfile.readline(max_line + 1)
    if not line:
        return None, 0
    if len(line) > max_line:
        raise FarmError(f"wire header exceeds the {max_line}-byte cap")
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and integers past
        # Python's digit limit; RecursionError, nesting too deep.
        raise FarmError(f"bad wire header: {error}") from None
    total = len(line)
    if not isinstance(message, dict):
        raise FarmError(f"bad wire message: expected an object, got "
                        f"{type(message).__name__}")
    lengths = message.pop(FRAMES_KEY, [])
    if not isinstance(lengths, list) or not all(
            type(length) is int and 0 <= length <= MAX_FRAME
            for length in lengths):
        raise FarmError(f"bad wire frame table: {FRAMES_KEY!r} must list "
                        f"frame lengths in [0, {MAX_FRAME}]")
    if lengths:
        frames = [_read_frame(rfile, length) for length in lengths]
        total += sum(lengths)
        # Resolve below the top level: the message itself stays a dict.
        try:
            message = {key: _resolve(item, frames)
                       for key, item in message.items()}
        except RecursionError:
            raise FarmError("bad wire header: nested too deeply to "
                            "resolve its frames") from None
    return message, total
