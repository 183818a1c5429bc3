import io
import random
import re
import timeit
import tracemalloc

import numpy as np
import pytest

import histoseg.pgm
from histoseg.metrics import GrayImage
from histoseg.pgm import (
    _HIST_SLICE,
    _PAIR_MIN,
    MalformedHeader,
    MalformedPayload,
    PgmError,
    TruncatedPayload,
    UnsupportedMaxval,
    histogram_of,
    read_pgm,
    write_pgm,
)

from helpers import pgm_bytes, standard_image

P5_MINIMAL = b"P5\n2 2\n255\n" + bytes([0, 128, 128, 255])
P2_MINIMAL = b"P2\n2 2\n255\n0 128\n128 255\n"
WS = b" \t\n\r\x0b\x0c"
MUTATION_BYTES = b"0123456789 +-_#\n"


def reference_samples(payload: bytes, count: int) -> list[int]:
    """Token-by-token P2 sample reading, the loop that read_pgm vectorizes."""
    tokens = re.sub(rb"#[^\r\n]*", b" ", payload).split()
    for tok in tokens[:count]:
        if not tok.isdigit():
            raise MalformedPayload(tok)
    if len(tokens) < count:
        raise TruncatedPayload(len(tokens))
    return [int(tok) for tok in tokens[:count]]


HEADER_TOKEN_ERRORS = ("unexpected end of input", "unsupported magic", "non-numeric width",
                       "non-numeric height", "non-numeric maxval")


def reference_header(data: bytes) -> tuple[str | None, list[bytes]]:
    """The first four header tokens by an independent split, and the error
    prefix that walking them in order gives, or None when all four are usable."""
    tokens = re.sub(rb"#[^\r\n]*", b" ", data).split()[:4]
    for i, name in enumerate(("magic", "width", "height", "maxval")):
        if i == len(tokens):
            return "unexpected end of input", tokens
        if i == 0 and tokens[0] not in (b"P2", b"P5"):
            return "unsupported magic", tokens
        if i and not tokens[i].isdigit():
            return f"non-numeric {name}", tokens
    return None, tokens


def mutate(rng: random.Random, data: bytes) -> bytes:
    """Apply 1-4 byte flips, deletions or inserts drawn from MUTATION_BYTES."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(out) + 1)
        op = rng.randrange(3)
        if op == 0 and i < len(out):
            out[i] = rng.choice(MUTATION_BYTES)
        elif op == 1 and i < len(out):
            del out[i]
        else:
            out.insert(i, rng.choice(MUTATION_BYTES))
    return bytes(out)


def random_image(rng: random.Random) -> GrayImage:
    h, w = rng.randint(1, 7), rng.randint(1, 7)
    return GrayImage(pixels=np.array([[rng.randrange(256) for _ in range(w)] for _ in range(h)]))


def loose_join(rng: random.Random, tokens: list[bytes]) -> bytes:
    """Tokens separated by mixed whitespace runs and '#' comments."""
    out = b""
    for tok in tokens:
        pick = rng.randrange(4)
        if pick == 0:
            sep = bytes(rng.choice(WS) for _ in range(rng.randint(1, 4)))
        elif pick == 1:  # a comment line between tokens
            sep = b" # note 1 2" + rng.choice([b"\n", b"\r"])
        elif pick == 2:  # '#' directly after a digit ends the token
            sep = b"#x 9\n"
        else:
            sep = bytes([rng.choice(WS)])
        out += tok + sep
    return out


def loose_samples(rng: random.Random, img: GrayImage) -> list[bytes]:
    """Sample tokens of img, some with leading zeros."""
    return [b"0" * rng.choice([0, 0, 0, 1, 3]) + str(v).encode() for v in img.pixels.ravel().tolist()]


def loose_p2(rng: random.Random, img: GrayImage) -> bytes:
    """A valid P2 encoding of img in the loose layout loose_join gives."""
    header = [b"P2", str(img.width).encode(), str(img.height).encode(), b"255"]
    return loose_join(rng, header + loose_samples(rng, img))


class TestReadPgm:
    def test_p5_minimal(self):
        img = read_pgm(P5_MINIMAL)
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.tolist() == [[0, 128], [128, 255]]

    def test_p2_matches_p5(self):
        a = read_pgm(P5_MINIMAL)
        b = read_pgm(P2_MINIMAL)
        assert np.array_equal(a.pixels, b.pixels)

    def test_header_comments(self):
        data = b"P5 # magic\n# a comment line\n2 # width\n2\n# another\n255\n" + bytes(
            [1, 2, 3, 4]
        )
        assert read_pgm(data).pixels.tolist() == [[1, 2], [3, 4]]

    def test_raster_bytes_that_look_like_whitespace(self):
        data = b"P5\n2 2\n255\n" + bytes([32, 10, 13, 9])
        assert read_pgm(data).pixels.tolist() == [[32, 10], [13, 9]]

    def test_p5_pixels_are_a_read_only_view_of_the_input_bytes(self):
        data = P5_MINIMAL + b"trailing bytes are ignored"
        px = read_pgm(data).pixels
        assert np.shares_memory(px, np.frombuffer(data, dtype=np.uint8))
        assert not px.flags.writeable
        with pytest.raises(ValueError):
            px[0, 0] = 1

    def test_p5_from_a_bytearray_does_not_alias_it(self):
        buf = bytearray(P5_MINIMAL)
        img = read_pgm(buf)
        buf[-4:] = bytes([7, 7, 7, 7])
        assert img.pixels.tolist() == [[0, 128], [128, 255]]

    def test_truncated_p5(self):
        with pytest.raises(TruncatedPayload):
            read_pgm(b"P5\n2 2\n255\n" + bytes([0, 1, 2]))

    def test_truncated_p2(self):
        with pytest.raises(TruncatedPayload):
            read_pgm(b"P2\n2 2\n255\n0 1 2\n")

    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            read_pgm(b"P6\n1 1\n255\n\x00")

    def test_empty_input(self):
        with pytest.raises(MalformedHeader):
            read_pgm(b"")

    def test_non_numeric_header(self):
        with pytest.raises(MalformedHeader):
            read_pgm(b"P5\ntwo 2\n255\n\x00\x00")

    def test_zero_dimensions(self):
        with pytest.raises(MalformedHeader):
            read_pgm(b"P5\n0 2\n255\n")

    def test_maxval_too_large(self):
        with pytest.raises(UnsupportedMaxval):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_maxval_zero(self):
        with pytest.raises(MalformedHeader):
            read_pgm(b"P5\n1 1\n0\n\x00")

    def test_small_maxval_kept_without_rescaling(self):
        img = read_pgm(b"P2\n2 1\n100\n10 100\n")
        assert img.pixels.tolist() == [[10, 100]]

    def test_sample_above_maxval(self):
        with pytest.raises(MalformedPayload):
            read_pgm(b"P2\n2 1\n100\n10 101\n")
        with pytest.raises(MalformedPayload):
            read_pgm(b"P5\n2 1\n100\n" + bytes([10, 101]))

    def test_p5_sample_above_small_maxval(self):
        # A P5 sample can exceed maxval only when maxval is below 255.
        for maxval in (1, 100, 254):
            header = b"P5\n2 1\n%d\n" % maxval
            with pytest.raises(MalformedPayload):
                read_pgm(header + bytes([0, maxval + 1]))
            assert read_pgm(header + bytes([0, maxval])).pixels.tolist() == [[0, maxval]]

    def test_negative_or_garbage_sample(self):
        with pytest.raises(MalformedPayload):
            read_pgm(b"P2\n2 1\n255\n-3 7\n")
        with pytest.raises(MalformedPayload):
            read_pgm(b"P2\n2 1\n255\nxyz 7\n")

    def test_signed_or_underscored_header_tokens(self):
        with pytest.raises(MalformedHeader, match="width"):
            read_pgm(b"P2 1_0 1 +255 1 2 3 4 5 6 7 8 9 10\n")
        with pytest.raises(MalformedHeader, match="width"):
            read_pgm(b"P5 +2 2 255\n" + bytes(4))

    def test_non_ascii_digit_header_token(self):
        with pytest.raises(MalformedHeader, match="maxval"):
            read_pgm("P5 2 2 \uff12\uff15\uff15\n".encode() + bytes(4))

    @pytest.mark.parametrize("tok", [b"+5", b"1_0", b"-0"])
    def test_sample_tokens_must_be_digits(self, tok):
        with pytest.raises(MalformedPayload, match=re.escape(repr(tok))):
            read_pgm(b"P2\n2 1\n255\n7 " + tok + b"\n")

    def test_leading_zeros_and_long_samples(self):
        assert read_pgm(b"P2 3 1 255 000255 0000 007\n").pixels.tolist() == [[255, 0, 7]]
        assert read_pgm(b"P2 2 1 255 7 00000255").pixels.tolist() == [[7, 255]]
        for data in (b"P2 2 1 255 0 0001000\n", b"P2 2 1 255 1000 7\n",
                     b"P2 2 1 255 0 0001000", b"P2 1 1 255 " + b"9" * 5000 + b"\n"):
            with pytest.raises(MalformedPayload, match=re.escape("outside [0, maxval]")):
                read_pgm(data)

    def test_bytes_after_last_sample_ignored(self):
        assert read_pgm(b"P2 2 1 9 1#c\n2 x +3 -4").pixels.tolist() == [[1, 2]]

    def test_digit_then_other_byte_names_the_whole_token(self):
        with pytest.raises(MalformedPayload, match=re.escape(repr(b"8x"))):
            read_pgm(b"P2 2 1 255 7 8x 9")

    def test_last_sample_may_end_the_payload(self):
        assert read_pgm(b"P2 3 1 255 1 22 255").pixels.tolist() == [[1, 22, 255]]
        assert read_pgm(b"P2 2 1 255\n7\n8").pixels.tolist() == [[7, 8]]

    def test_short_token_takes_no_digit_of_the_token_before(self):
        assert read_pgm(b"P2 4 1 255 255 5 12 7").pixels.tolist() == [[255, 5, 12, 7]]

    @pytest.mark.parametrize("tok", [b"256", b"999", b"0999"])
    def test_p2_sample_past_255_is_not_wrapped(self, tok):
        with pytest.raises(MalformedPayload, match=re.escape("outside [0, maxval]")):
            read_pgm(b"P2 2 1 255 7 " + tok)

    def test_p2_of_a_standard_image_matches_its_p5(self):
        img = standard_image(128)
        want = read_pgm(pgm_bytes(img, "P5")).pixels
        data = pgm_bytes(img, "P2")
        samples = data.split(b"255\n", 1)[1].split()
        # As written, then every sample a long token whose leading digits are
        # all zero: 4 digits apart by spaces, and 7 apart by each _WS byte in turn.
        for width, seps in [(0, b""), (4, b" "), (7, WS)]:
            if width:
                data = b"P2 128 128 255\n" + b"".join(
                    t.rjust(width, b"0") + seps[i % len(seps) :][:1] for i, t in enumerate(samples))
            got = read_pgm(data).pixels
            assert got.dtype == want.dtype and np.array_equal(got, want), width

    def test_zero_padded_fields_past_int_digit_limit(self):
        # int() refuses a string of over 4300 digits, leading zeros included.
        assert read_pgm(b"P2 " + b"0" * 5000 + b"1 1 255 7").pixels.tolist() == [[7]]
        assert read_pgm(b"P2 1 1 " + b"0" * 4397 + b"255 7").pixels.tolist() == [[7]]

    @pytest.mark.parametrize("field", [1, 2, 3])
    @pytest.mark.parametrize("digits", [20, 100_000])
    def test_long_numeric_field_is_too_large(self, field, digits):
        tokens = [b"P5", b"1", b"1", b"255"]
        tokens[field] = b"00" + b"1" * digits
        name = ("width", "height", "maxval")[field - 1]
        error = UnsupportedMaxval if name == "maxval" else MalformedHeader
        with pytest.raises(error, match=f"^{name} .*too large") as e:
            read_pgm(b" ".join(tokens) + b"\n\x00")
        assert len(str(e.value)) < 64

    def test_nineteen_digit_width_is_not_too_large(self):
        with pytest.raises(TruncatedPayload):
            read_pgm(b"P5 " + b"9" * 19 + b" 1 255\n\x00")

    @pytest.mark.parametrize("header", [b"P" * 1000, b"P5 " + b"x" * 1000, b"P2 1 1 " + b"2" * 999 + b"x"],
                             ids=["magic", "width", "maxval"])
    def test_error_quotes_at_most_32_bytes_of_a_token(self, header):
        with pytest.raises(MalformedHeader) as e:
            read_pgm(header + b"\n\x00")
        assert len(str(e.value)) < 80

    def test_one_whitespace_set_in_header_and_p2_raster(self):
        for x in range(256):
            sep = bytes([x])
            try:
                header_px = read_pgm(b"P2" + sep + b"1 1 255\n7").pixels.tolist()
            except PgmError:
                header_px = None
            try:
                raster_px = read_pgm(b"P2 2 1 255\n1" + sep + b"2").pixels.tolist()
            except PgmError:
                raster_px = None
            assert header_px == ([[7]] if x in WS else None), x
            assert raster_px == ([[1, 2]] if x in WS else None), x

    def test_error_quotes_at_most_32_bytes_of_a_sample(self):
        with pytest.raises(MalformedPayload) as e:
            read_pgm(b"P2 2 1 255 7 " + b"x" * 100_000 + b"\n")
        assert str(e.value) == f"non-numeric sample {b'x' * 32!r}"

    def test_p2_peak_memory(self):
        # The decode keeps one index per sample, its token's last byte,
        # and frees its byte classes once the digit values are taken.
        data = pgm_bytes(standard_image(512), "P2")
        tracemalloc.start()
        try:
            read_pgm(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9 * len(data)

    def test_non_numeric_sample_precedes_truncation(self):
        # Same shortfall as test_truncated_p2, but a token is not a number.
        with pytest.raises(MalformedPayload, match="b'x'"):
            read_pgm(b"P2\n2 2\n255\nx 1\n")


class TestReadPgmProperties:
    """Seeded property tests of the reader's input boundary."""

    def test_mutated_files_raise_only_pgm_errors(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            img = random_image(rng)
            encode = rng.choice([lambda: pgm_bytes(img, "P5"), lambda: pgm_bytes(img, "P2"),
                                 lambda: loose_p2(rng, img)])
            data = mutate(rng, encode())
            want, tokens = reference_header(data)
            try:
                got = read_pgm(data)
            except PgmError as e:
                message = str(e)
                assert "\n" not in message and len(message) <= 200, message
                if want is None:
                    assert not message.startswith(HEADER_TOKEN_ERRORS), (data, message)
                else:
                    assert isinstance(e, MalformedHeader) and message.startswith(want), (data, message)
                continue
            assert want is None, (data, want)
            assert (got.width, got.height) == (int(tokens[1]), int(tokens[2])), data

    def test_mutated_p2_payload_matches_token_loop(self):
        rng = random.Random(20261019)
        header = b"P2\n5 4\n200\n"
        for _ in range(2000):
            img = GrayImage(pixels=np.array([[rng.randrange(256) for _ in range(5)] for _ in range(4)]))
            payload = mutate(rng, loose_join(rng, loose_samples(rng, img)))
            try:
                want = reference_samples(payload, 20)
            except PgmError as e:
                # a bad token must be named exactly as the token loop reads it
                match = None
                if isinstance(e, MalformedPayload):
                    match = "^" + re.escape(f"non-numeric sample {e.args[0][:32]!r}") + "$"
                with pytest.raises(type(e), match=match):
                    read_pgm(header + payload)
                continue
            if max(want) > 200:
                with pytest.raises(MalformedPayload):
                    read_pgm(header + payload)
            else:
                assert read_pgm(header + payload).pixels.ravel().tolist() == want

    def test_loose_p2_encodings_match_p5(self):
        rng = random.Random(20261020)
        for _ in range(500):
            img = random_image(rng)
            data = loose_p2(rng, img)
            want = read_pgm(pgm_bytes(img, "P5")).pixels
            got = read_pgm(data).pixels
            assert got.dtype == want.dtype and np.array_equal(got, want), data


class TestWritePgm:
    def test_round_trip_random_images(self):
        rng = np.random.default_rng(101)
        for fmt in ("P5", "P2"):
            for _ in range(10):
                shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
                img = GrayImage(pixels=rng.integers(0, 256, size=shape))
                back = read_pgm(pgm_bytes(img, fmt))
                assert np.array_equal(back.pixels, img.pixels)

    def test_p5_non_contiguous_round_trip(self):
        px = np.random.default_rng(107).integers(0, 256, size=(5, 9)).astype(np.uint8)
        for view in (px.T, px[:, ::-1], px[::2, 1::3]):
            img = GrayImage(pixels=view)
            assert not img.pixels.flags.c_contiguous
            data = pgm_bytes(img)
            header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
            assert data.startswith(header)
            assert len(data) == len(header) + img.width * img.height
            assert np.array_equal(read_pgm(data).pixels, view)

    def test_minimal_single_pixel(self):
        img = GrayImage(pixels=np.zeros((1, 1), dtype=np.uint8))
        data = pgm_bytes(img)
        assert data.startswith(b"P5\n1 1\n255\n")
        assert np.array_equal(read_pgm(data).pixels, img.pixels)

    def test_two_level_image_has_two_sample_values(self):
        rng = np.random.default_rng(103)
        px = np.where(rng.random((6, 6)) < 0.5, 10, 200)
        data = pgm_bytes(GrayImage(pixels=px))
        back = read_pgm(data)
        assert len(np.unique(back.pixels)) <= 2

    def test_rejects_unknown_format(self):
        img = GrayImage(pixels=np.zeros((1, 1), dtype=np.uint8))
        fh = io.BytesIO()
        with pytest.raises(ValueError):
            write_pgm(img, fh, "P4")
        assert fh.getvalue() == b""

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_p5_writes_header_then_the_raster_buffer(self, contiguous):
        px = np.random.default_rng(109).integers(0, 256, size=(48, 64), dtype=np.uint8)
        img = GrayImage(pixels=px if contiguous else px.T)

        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(data)
                return len(data)

        fh = Recorder()
        payload = write_pgm(img, fh)
        header, raster = fh.writes
        assert header == f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
        assert raster is payload
        # len() is the byte count, as traced runs add it to pgm.bytes_written.
        assert len(payload) == img.pixels.size == 48 * 64
        assert bytes(payload) == img.pixels.tobytes()
        # No copy of a C-contiguous raster is made.
        assert np.shares_memory(payload, img.pixels) == contiguous

    def test_p2_returns_its_payload(self):
        img = standard_image(64)
        fh = io.BytesIO()
        payload = write_pgm(img, fh, "P2")
        header = b"P2\n64 64\n255\n"
        assert fh.getvalue() == header + payload


class TestHistogramOf:
    def test_counts(self):
        img = read_pgm(P5_MINIMAL)
        h = histogram_of(img)
        assert h.counts[0] == 1 and h.counts[128] == 2 and h.counts[255] == 1
        assert h.N == 4
        assert h.G == 256

    def test_constant_image(self):
        img = GrayImage(pixels=np.full((3, 3), 42, dtype=np.uint8))
        h = histogram_of(img)
        assert h.counts[42] == 9
        assert sum(1 for c in h.counts if c) == 1

    def test_total_matches_pixel_count(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
            img = GrayImage(pixels=rng.integers(0, 256, size=shape))
            assert histogram_of(img).N == img.width * img.height

    def test_counts_span_several_slices(self):
        rng = np.random.default_rng(109)
        # four bincount slices, the last partial, below the pair path's switch
        img = GrayImage(pixels=rng.integers(0, 256, size=(331, 701), dtype=np.uint8))
        assert 3 * _HIST_SLICE < img.pixels.size < _PAIR_MIN
        want = np.bincount(img.pixels.ravel().astype(np.int64), minlength=256)
        assert histogram_of(img).counts == tuple(want.tolist())


def assert_bincount_parity(img):
    want = np.bincount(img.pixels.ravel(), minlength=256)
    assert histogram_of(img).counts == tuple(want.tolist())


class TestHistogramOfPairPath:
    """Rasters of _PAIR_MIN pixels or more are counted two bytes at a time."""

    @pytest.mark.parametrize("shape", [(1449, 1449), (1025, 2047)], ids=str)
    def test_odd_pixel_total(self, shape):
        assert shape[0] * shape[1] >= _PAIR_MIN and shape[0] * shape[1] % 2 == 1
        rng = np.random.default_rng(211)
        assert_bincount_parity(GrayImage(pixels=rng.integers(0, 256, size=shape, dtype=np.uint8)))

    def test_p5_raster_at_odd_offset(self):
        rng = np.random.default_rng(223)
        px = rng.integers(0, 256, size=(1449, 1449), dtype=np.uint8)
        header = b"P5 1449 1449 255\n"
        assert len(header) % 2 == 1
        img = read_pgm(header + px.tobytes())
        assert np.array_equal(img.pixels, px)
        assert_bincount_parity(img)

    def test_transposed_view(self):
        rng = np.random.default_rng(227)
        px = rng.integers(0, 256, size=(1025, 2047), dtype=np.uint8)
        img = GrayImage(pixels=px.T)
        assert not img.pixels.flags.c_contiguous
        assert_bincount_parity(img)

    def test_constant_raster(self):
        img = GrayImage(pixels=np.full((1449, 1449), 200, dtype=np.uint8))
        assert histogram_of(img).counts[200] == 1449 * 1449
        assert_bincount_parity(img)

    def test_all_256_grays(self):
        px = (np.arange(1449 * 1449) % 256).astype(np.uint8).reshape(1449, 1449)
        img = GrayImage(pixels=px)
        assert all(histogram_of(img).counts)
        assert_bincount_parity(img)

    @pytest.mark.parametrize("pixels", [_PAIR_MIN - 1, _PAIR_MIN, _PAIR_MIN + 1])
    def test_each_side_of_the_switch(self, pixels):
        rng = np.random.default_rng(pixels)
        assert_bincount_parity(
            GrayImage(pixels=rng.integers(0, 256, size=(1, pixels), dtype=np.uint8))
        )

    @pytest.mark.parametrize("kind", ["uniform", "two-level"])
    def test_peak_memory_at_2048(self, kind):
        # The pairs are counted into the 256 KiB int32 table without a widened copy.
        rng = np.random.default_rng(229)
        if kind == "uniform":
            px = rng.integers(0, 256, size=(2048, 2048), dtype=np.uint8)
        else:
            px = np.where(rng.random((2048, 2048)) < 0.3, 12, 240).astype(np.uint8)
        tracemalloc.start()
        try:
            h = histogram_of(GrayImage(pixels=px))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 19
        assert h.counts == tuple(np.bincount(px.ravel(), minlength=256).tolist())

    @pytest.mark.parametrize("chunk", [1000, 1 << 16])
    def test_counts_past_the_int32_chunk_bound(self, monkeypatch, chunk):
        # The one occupied bin takes more pairs than a chunk holds, so its
        # count is exact only if each chunk is folded into the int64 counts.
        monkeypatch.setattr(histoseg.pgm, "_PAIR_CHUNK", chunk)
        img = GrayImage(pixels=np.full((1449, 1449), 77, dtype=np.uint8))
        assert (img.pixels.size // 2) > chunk and (img.pixels.size // 2) % chunk
        h = histogram_of(img)
        assert h.counts[77] == 1449 * 1449 and h.N == 1449 * 1449

    def test_pair_count_stays_on_the_add_at_fast_path(self):
        # np.add.at leaves its fast path when the increment's dtype differs
        # from the table's, and then runs over 30 times slower; the pair path
        # must stay within twice the time of one bincount of the raster.
        rng = np.random.default_rng(233)
        img = GrayImage(pixels=rng.integers(0, 256, size=(1024, 1024), dtype=np.uint8))
        flat = img.pixels.ravel()
        pair_s = min(timeit.repeat(lambda: histogram_of(img), number=1, repeat=5))
        bincount_s = min(timeit.repeat(lambda: np.bincount(flat, minlength=256), number=1, repeat=5))
        assert pair_s <= 2 * bincount_s, (pair_s, bincount_s)
