"""Minimal Netpbm PGM codec (binary P5 and ASCII P2), 8-bit only.

The header and the P2 raster share one grammar of _WS and '#' comments to
end of line; one pattern built from both, _LEXEME, tokenizes the header.
"""

import re
from collections.abc import Iterator
from typing import BinaryIO

import numpy as np

from .engine import MAX_PIXELS, Histogram
from .metrics import GrayImage

_WS = b" \t\n\r\x0b\x0c"  # space, then bytes 9..13
_COMMENT = re.compile(rb"#[^\r\n]*")
_LEXEME = re.compile(_COMMENT.pattern + rb"|[^" + re.escape(_WS) + rb"#]+")
_HIST_SLICE = 1 << 16
# Rasters of at least this many pixels are counted two bytes at a time.  The
# pair path counts half as many elements but zeroes and folds a 256 KiB
# int32 table, its one temporary; on a 2-vCPU x86-64 host it is 0-9%
# slower at 2**16 pixels and 12-18% faster at 2**17 and 2**18, on uniform
# noise and on a smooth test image.
_PAIR_MIN = 1 << 18
# The most pairs one int32 table counts: a bin, and a row or column of the
# table, holds at most every pair, so any raster under 2**32 pixels takes an
# int32 table, and a larger one an int64 table.
_PAIR_CHUNK = (1 << 31) - 1


class PgmError(ValueError):
    """Base for PGM codec failures."""


class MalformedHeader(PgmError):
    """Magic number or header fields are unusable."""


class TruncatedPayload(PgmError):
    """Fewer samples than width * height."""


class UnsupportedMaxval(PgmError):
    """Sample depth beyond 8 bits."""


class MalformedPayload(PgmError):
    """Samples are non-numeric or exceed maxval."""


def _header_tokens(data: bytes) -> Iterator[re.Match]:
    # Header token matches in order; whitespace and '#' comments are skipped.
    for m in _LEXEME.finditer(data):
        if data[m.start()] != 0x23:  # '#'
            yield m
    raise MalformedHeader("unexpected end of input")


def _decode_p2(payload: bytes, count: int) -> np.ndarray:
    """The first `count` samples of a P2 raster, each ASCII decimal digits.

    Tokens are split at _WS bytes and at '#' comments (to end of line), as
    header tokens are; bytes after the last needed sample are ignored.  The
    first non-digit token raises MalformedPayload even when samples run
    short; TruncatedPayload means every token present was numeric.  Bytes
    are classed by uint8 arithmetic, with no lookup table.  A sample is read
    at its token's last byte, the only index kept, and a token spelling more
    than 999 is refused by one vectorized rule, with no loop over tokens.
    """
    if b"#" in payload:
        payload = _COMMENT.sub(b" ", payload)
    buf = np.frombuffer(payload, dtype=np.uint8)
    d = buf - 48  # a digit's value; 10 or more for any other byte, as it wraps
    digit = d < 10
    in_token = np.zeros(len(buf) + 2, dtype=bool)
    tok = in_token[1:-1]
    np.greater_equal(buf - 9, 5, out=tok)  # not whitespace: not 9..13 and not 32
    tok &= buf != 32
    last = np.flatnonzero(tok > in_token[2:])[:count]  # a token's last byte
    n = int(last[-1]) + 1 if len(last) else 0
    bad = np.flatnonzero(tok[:n] > digit[:n])  # in a token, not a digit
    if len(bad):
        start = bad[0] + 1 - in_token[bad[0] + 1 :: -1].argmin()  # its token's first byte
        quoted = payload[start : start + 32].split()[0]  # at most 32 bytes
        raise MalformedPayload(f"non-numeric sample {quoted!r}")
    if len(last) < count:
        raise TruncatedPayload(f"expected {count} samples, found {len(last)}")

    # A nonzero digit with three digits after it makes a sample past 999, as
    # every byte up to n is in an all-digit token: one rule for long tokens.
    u = d * digit  # a non-digit counts 0
    del d, buf, tok, in_token  # only u, digit and last are read from here
    k = max(n - 3, 0)
    if ((u[:k] != 0) & digit[1 : k + 1] & digit[2 : k + 2] & digit[3 : k + 3]).any():
        raise MalformedPayload("sample outside [0, maxval]")
    # val[i]: the number the up-to-three digits ending at byte i spell.  The
    # tens need no mask; the hundreds count only when the tens byte is a
    # digit, as past a one-digit token they belong to the token before.
    # Temporaries stay uint8 where the values fit: tens times 10 is at most 90.
    val = np.zeros(len(u), dtype=np.int16)
    np.multiply(u[:-2], digit[1:-1], out=val[2:])
    val *= 100
    val[1:] += u[:-1] * 10
    val += u
    return val[last]


def read_pgm(data: bytes) -> GrayImage:
    """Decode P5 (binary) or P2 (ASCII) PGM bytes into a GrayImage.

    '#' comments may appear anywhere in the header.  For P5 the raster
    must start exactly one whitespace byte after the maxval token, so
    raster bytes that happen to look like whitespace survive.  Header
    fields and P2 samples must be ASCII decimal digits (no sign, no '_').
    A maxval below 255 is accepted as-is; samples are never rescaled.

    A P5 image's pixels are a read-only view into the input bytes, with no
    copy of the raster.  Any other buffer (a bytearray, a memoryview) is
    first copied to bytes, so an image never aliases a caller's mutable
    buffer.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    tokens = _header_tokens(data)
    magic = next(tokens)[0]
    if magic not in (b"P2", b"P5"):
        raise MalformedHeader(f"unsupported magic {magic[:32]!r}")
    fields = []
    for name in ("width", "height", "maxval"):
        m = next(tokens)
        tok, digits = m[0], m[0].lstrip(b"0")
        if not tok.isdigit():  # int() would also take a sign or '_'
            raise MalformedHeader(f"non-numeric {name} token {tok[:32]!r}")
        # No image has a side of more digits than MAX_PIXELS; int() would be
        # slow on such a field, or refuse one of over 4300 digits.
        if len(digits) > len(str(MAX_PIXELS)):
            error = UnsupportedMaxval if name == "maxval" else MalformedHeader
            raise error(f"{name} of {len(digits)} digits is too large")
        fields.append(int(digits or b"0"))
    pos = m.end()
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise MalformedHeader("width and height must be positive")
    if maxval > 255:
        raise UnsupportedMaxval(f"maxval {maxval} exceeds 255")
    if maxval <= 0:
        raise MalformedHeader("maxval must be positive")

    expected = width * height
    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WS:
            raise MalformedHeader("missing whitespace after maxval")
        found = len(data) - pos - 1
        if found < expected:
            raise TruncatedPayload(f"expected {expected} bytes, found {found}")
        px = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos + 1)
        px = px.reshape(height, width)
    else:
        px = _decode_p2(data[pos:], expected).reshape(height, width)

    # Neither decode can yield a negative sample, so only the top is checked,
    # and not at all when the dtype holds nothing above maxval (P5 at 255).
    # Past the check P2's int16 samples fit uint8, and GrayImage scans none.
    if maxval < np.iinfo(px.dtype).max and int(px.max()) > maxval:
        raise MalformedPayload("sample outside [0, maxval]")
    return GrayImage(pixels=px.astype(np.uint8, copy=False))


def write_pgm(img: GrayImage, fh: BinaryIO, fmt: str = "P5") -> bytes | memoryview:
    """Write img as 8-bit PGM into the open binary file fh.

    The header is written first, then the payload, which is returned as a
    flat bytes-like object whose len() is its byte count.  A P5 payload is
    the raster's own buffer, with no copy of a C-contiguous image.  The
    bytes round-trip through read_pgm bit-exactly.
    """
    if fmt not in ("P5", "P2"):
        raise ValueError(f"format must be 'P5' or 'P2', got {fmt!r}")
    header = f"{fmt}\n{img.width} {img.height}\n255\n".encode("ascii")
    if fmt == "P5":
        # A 1-D view: a 2-D memoryview's len() would be its row count.
        payload = np.ascontiguousarray(img.pixels).reshape(-1).data
    else:
        # keep lines under the customary 70-character limit
        flat = [str(v) for v in img.pixels.ravel().tolist()]
        lines = [" ".join(flat[i : i + 17]) for i in range(0, len(flat), 17)]
        payload = "\n".join(lines).encode("ascii") + b"\n"
    fh.write(header)
    fh.write(payload)
    return payload


def histogram_of(img: GrayImage) -> Histogram:
    """256-bin gray-level occurrence counts; total equals width * height."""
    # bincount widens its input to int64 and counts each element with a
    # dependent increment; slicing bounds the widened temporary.  A large
    # raster is counted as uint16 pairs, half as many elements, by np.add.at,
    # which does not widen them, into one 65536-bin table, then folded: a
    # pair's two bytes are its row and column, in either byte order, so
    # summing both axes counts every byte once.  The table is int32 up to
    # _PAIR_CHUNK pairs and int64 past them.  The increment and both sums
    # take its dtype: another increment takes np.add.at off its fast path,
    # and an int64 sum of an int32 table casts every bin, at twice the time.
    flat = img.pixels.ravel()
    counts = np.zeros(256, dtype=np.int64)
    if flat.size < _PAIR_MIN:
        for i in range(0, flat.size, _HIST_SLICE):
            counts += np.bincount(flat[i : i + _HIST_SLICE], minlength=256)
    else:
        even = flat.size & ~1
        pairs = flat[:even].view(np.uint16)
        dtype = np.int32 if pairs.size <= _PAIR_CHUNK else np.int64
        table = np.zeros((256, 256), dtype=dtype)
        np.add.at(table.reshape(-1), pairs, dtype(1))
        counts += table.sum(0, dtype=dtype)
        counts += table.sum(1, dtype=dtype)
        if even < flat.size:
            counts[flat[-1]] += 1
    return Histogram(counts.tolist())
