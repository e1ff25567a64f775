import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hyp
from hypothesis.extra import numpy as hnp

from oracles import foreground_coords, ndbin_oracle, pbm_oracle
from helpers import python_kernels
from slicethin import _native, formats
from slicethin.cli import main
from slicethin.formats import (
    FormatError,
    ParseError,
    export_voxels_csv,
    read_ndbin,
    read_padded,
    read_pattern,
    read_pbm,
    write_ndbin,
    write_pattern,
    write_pbm,
)
from slicethin.pattern import DimensionError, _padded


class TestPbm:
    def test_read_2x2(self):
        arr = read_pbm(b"P1\n2 2\n1 1\n1 1\n")
        assert arr.shape == (2, 2) and arr.all()

    def test_write_1x1_background(self):
        assert write_pbm(np.zeros((1, 1), bool)) == b"P1\n1 1\n0\n"

    def test_width_height_order(self):
        # 3 wide, 2 tall -> pattern shape (2, 3).
        arr = read_pbm(b"P1\n3 2\n1 0 0\n0 0 1\n")
        assert arr.shape == (2, 3)
        assert arr[0, 0] and arr[1, 2]

    def test_unsupported_magic(self):
        with pytest.raises(ParseError):
            read_pbm(b"P5\n2 2\n....")

    def test_truncated(self):
        with pytest.raises(ParseError) as exc:
            read_pbm(b"P1\n2 2\n1 1\n1\n")
        assert exc.value.offset == len(b"P1\n2 2\n1 1\n1\n")

    def test_extra_bits(self):
        with pytest.raises(ParseError) as exc:
            read_pbm(b"P1\n2 2\n1 1 1 1 1\n")
        assert exc.value.offset == 15  # the fifth bit
        # A comment ends the token it touches: four bits, none extra.
        arr = read_pbm(b"P1 2 2 10#c\n11")
        assert arr.tolist() == [[True, False], [True, True]]

    def test_bad_bit_char(self):
        with pytest.raises(ParseError) as exc:
            read_pbm(b"P1\n2 2\n1 1\n1 x\n")
        assert exc.value.offset == 13

    def test_bad_dimension(self):
        # Sizes are ASCII decimal digits: int() alone would take 1_0 and +5.
        for raw in (b"P1\n0 2\n", b"P1 1_0 1 0000000000", b"P1 +5 1 00000"):
            with pytest.raises(ParseError) as exc:
                read_pbm(raw)
            assert exc.value.offset == 3

    def test_comments_and_packed_bits(self):
        arr = read_pbm(b"P1\n# a comment\n2 2 # trailing\n1011\n")
        assert arr[0, 0] and not arr[0, 1] and arr[1, 0] and arr[1, 1]

    def test_roundtrip_canonical(self):
        raw = b"P1 # packed\n3 2\n101 010"
        arr = read_pbm(raw)
        canonical = write_pbm(arr)
        assert np.array_equal(read_pbm(canonical), arr)
        assert canonical == b"P1\n3 2\n1 0 1\n0 1 0\n"

    def test_write_rejects_3d(self):
        with pytest.raises(ValueError):
            write_pbm(np.zeros((2, 2, 2), bool))

    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12)))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, arr):
        assert np.array_equal(read_pbm(write_pbm(arr)), arr)


class TestNdbin:
    def test_read_1x3(self):
        arr = read_ndbin(b"NDBIN\n2\n1 3\n1 0 1\n")
        assert arr.shape == (1, 3)
        assert list(arr[0].astype(int)) == [1, 0, 1]

    def test_write_2x2x2(self):
        data = write_ndbin(np.ones((2, 2, 2), bool))
        assert data == b"NDBIN\n3\n2 2 2\n1 1\n1 1\n1 1\n1 1\n"

    def test_bits_apart_by_more_than_one_blank(self):
        # Not as the writer spaces them: the fault locator finds no fault.
        for raw in (b"NDBIN\n2\n1 3\n1  0\t\t1\n", b"NDBIN 2 1 3\n\n1 0 1", b"NDBIN 2 1 3 1 #c\n0 1"):
            assert read_ndbin(raw).tolist() == [[True, False, True]], raw

    def test_count_mismatch_short(self):
        raw = b"NDBIN\n2\n2 2\n1 0 1\n"
        with pytest.raises(ParseError) as exc:
            read_ndbin(raw)
        assert exc.value.offset == len(raw)
        # A comment ends the token it touches: two bits, none missing.
        assert read_ndbin(b"NDBIN 2 1 2 1#c\n0").tolist() == [[True, False]]

    def test_count_mismatch_long(self):
        with pytest.raises(ParseError) as exc:
            read_ndbin(b"NDBIN\n2\n2 2\n1 0 1 0 1\n")
        assert exc.value.offset == 20  # the fifth bit

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            read_ndbin(b"NDBIM\n2\n2 2\n1 0 1 0\n")

    def test_bad_bit_token(self):
        # One bit per token: '10' is rejected at its first byte.
        for raw, offset in ((b"NDBIN\n2\n1 2\n1 2\n", 14), (b"NDBIN 2 1 2 10 1", 12)):
            with pytest.raises(ParseError) as exc:
                read_ndbin(raw)
            assert exc.value.offset == offset

    def test_bad_size_token(self):
        cases = [b"NDBIN\n2\n1 1_0\n" + b"0 " * 10]
        # Digits only, but more than int() converts (where int() has a limit).
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit:
            cases.append(b"NDBIN 2 1 " + b"9" * (limit + 1) + b" 0")
        for raw in cases:
            with pytest.raises(ParseError, match="bad size") as exc:
                read_ndbin(raw)
            assert exc.value.offset == 10

    def test_size_product_does_not_wrap(self, tmp_path):
        # 2^32 * 2^32 wraps to 0 in int64 and would pass the size guard.
        raw = b"NDBIN 2 4294967296 4294967296"
        with pytest.raises(ParseError, match="dimension overflow"):
            read_ndbin(raw)
        path = tmp_path / "huge.ndbin"
        path.write_bytes(raw)
        out = tmp_path / "o.ndbin"
        assert main(["thin", "--algo", "nd", "--input", str(path), "--output", str(out)]) == 2

    def test_dimension_count_cap(self, tmp_path, capsys):
        # k = 8 is read; k = 9 is rejected at the dimension-count token.
        assert read_ndbin(b"NDBIN 8" + b" 1" * 9).shape == (1,) * 8
        with pytest.raises(ParseError, match="dimension count") as exc:
            read_ndbin(b"NDBIN 9" + b" 1" * 10)
        assert exc.value.offset == 6
        # Past numpy's 64-dimension limit: a format error, not an algorithm error.
        path = tmp_path / "k70.ndbin"
        path.write_bytes(b"NDBIN 70" + b" 1" * 71)
        code = main(["thin", "--algo", "nd", "--input", str(path),
                     "--output", str(tmp_path / "o.ndbin")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @given(
        hnp.arrays(
            bool, hnp.array_shapes(min_dims=2, max_dims=4, max_side=6)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, arr):
        assert np.array_equal(read_ndbin(write_ndbin(arr)), arr)


class TestWriters:
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=9, min_side=0, max_side=3)))
    @example(np.zeros((0, 5), bool))
    @example(np.zeros((3, 0), bool))
    @settings(max_examples=100, deadline=None)
    def test_emit_only_readable_files(self, arr):
        # A pattern a reader would reject (a zero-length axis, k > 8, or k != 2
        # for PBM) is refused by the writer; any other reads back equal.
        writers = ((write_pbm, read_pbm, {2}), (write_ndbin, read_ndbin, range(2, 9)))
        for write, read, ranks in writers:
            if arr.size and arr.ndim in ranks:
                assert np.array_equal(read(write(arr)), arr)
            else:
                with pytest.raises((FormatError, DimensionError)):
                    write(arr)


_PIECES = (
    b"0", b"1", b"10", b"01", b" ", b"\n", b"\t", b"\r", b"\v", b"\f", b"\x1c", b"\xa0",
    b"#", b"#c\n", b"#1 0", b"x", b"2", b"9", b"P1", b"NDBIN",
)


def _outcome(read, data):
    """The array read, or the type, offset and message of the error raised."""
    try:
        return read(data)
    except ValueError as exc:
        return type(exc), getattr(exc, "offset", None), str(exc)


def _outcomes(read, data):
    """``_outcome`` on the C codec, where a library loads, and then on the
    bytes path, which runs where none loads."""
    outcomes = [_outcome(read, data)]
    if _native.load() is not None:
        with python_kernels():
            outcomes.append(_outcome(read, data))
    return outcomes


def _assert_same(got, want, message=True):
    """The same array, or an error of the same type and offset, and of the
    same message where ``message`` is set."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got[: 3 if message else 2] == want[: 3 if message else 2]


def _assert_same_as_tokenizer(data):
    """``read_pbm`` and ``read_ndbin`` on both codec paths against the
    tokenizer readers; the two paths also give the same messages."""
    for read, oracle in ((read_pbm, pbm_oracle), (read_ndbin, ndbin_oracle)):
        first, *rest = _outcomes(read, data)
        _assert_same(first, _outcome(oracle, data), message=False)
        for got in rest:
            _assert_same(got, first)


class TestMatchesTokenizer:
    """Both codec paths against the byte-at-a-time tokenizer readers."""

    @given(
        hyp.sampled_from([b"", b"P1 ", b"NDBIN ", b"P1 2 2", b"NDBIN 2 1 3", b"NDBIN 3 1 2 1 "]),
        hyp.lists(hyp.sampled_from(_PIECES) | hyp.binary(max_size=3), max_size=14),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, head, pieces):
        _assert_same_as_tokenizer(head + b"".join(pieces))

    @given(
        hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=3, max_side=5)),
        hyp.booleans(),
        hyp.lists(
            hyp.tuples(hyp.integers(0, 10**4), hyp.integers(0, 3), hyp.sampled_from(_PIECES)),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_files(self, arr, pbm, edits):
        data = write_pbm(arr) if pbm and arr.ndim == 2 else write_ndbin(arr)
        for at, cut, piece in edits:
            at %= len(data) + 1
            data = data[:at] + piece + data[at + cut :]
        _assert_same_as_tokenizer(data)


    def test_every_byte_as_separator(self):
        # The blanks are the bytes of bytes.isspace(); any other byte between
        # two bits makes the file fail, just as in the tokenizer.
        for read, oracle, head in ((read_pbm, pbm_oracle, b"P1 2 1 1"),
                                   (read_ndbin, ndbin_oracle, b"NDBIN 2 1 2 1")):
            separators = set()
            for byte in range(256):
                data = head + bytes([byte]) + b"0"
                want = _outcome(oracle, data)
                first, *rest = _outcomes(read, data)
                _assert_same(first, want, message=False)
                for got in rest:
                    _assert_same(got, first)
                if isinstance(want, np.ndarray):
                    separators.add(byte)
            assert separators == set(b" \t\n\r\v\f"), read

    @pytest.mark.parametrize("seed", range(12))
    def test_large_mutated_files(self, seed):
        # Writer output of 64² and 320², with 0-3 edits: an unedited file takes
        # the fast path, most edited ones the path that locates the fault. A
        # comment line is then put into the payload, which the reader blanks.
        rng = np.random.default_rng(seed)
        side = (64, 320)[seed % 2]
        arr = rng.random((side, side)) < rng.random()
        data = (write_pbm, write_ndbin)[seed // 2 % 2](arr)
        for _ in range(rng.integers(0, 4)):
            at, cut = rng.integers(0, len(data) + 1), rng.integers(0, 4)
            data = data[:at] + _PIECES[rng.integers(len(_PIECES))] + data[at + cut :]
        line = data.find(b"\n", rng.integers(len(data) // 2, len(data))) + 1 or len(data)
        for case in (data, data[:line] + b"# comment 1 0\n" + data[line:]):
            _assert_same_as_tokenizer(case)


class TestCodecPaths:
    """The C codec against the bytes path, on what its word steps meet."""

    @pytest.mark.parametrize("width", [*range(1, 18), 63, 64, 65])
    def test_payload_ends_inside_a_step(self, width):
        # A payload of 2 * width bytes, cut by 0 to 17 bytes: the last step
        # falls short of the end at every offset.
        arr = np.random.default_rng(width).random((2, width)) < 0.5
        for data in (write_pbm(arr), write_ndbin(arr)):
            for cut in range(18):
                _assert_same_as_tokenizer(data[: len(data) - cut])

    @pytest.mark.parametrize("write", [write_pbm, write_ndbin])
    def test_every_byte_in_a_step(self, write):
        # Each byte value at each offset of the first step of a writer's
        # file, whose payload is the 32 bytes of 16 cells.
        data = write(np.array([[1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1]], bool))
        for at in range(len(data) - 32, len(data) - 16):
            for byte in range(256):
                _assert_same_as_tokenizer(data[:at] + bytes([byte]) + data[at + 1 :])

    @pytest.mark.parametrize("total", range(1, 13))
    def test_total_reached_mid_step(self, total):
        # 16 bits in the writers' layout, where fewer are declared: the bits
        # after the last cell are excess, in a step or after one.
        bits = b"1 0 0 1 1 1 0 1 0 0 1 1 0 1 1 0 " * 2
        for head in (b"P1 %d 1\n", b"NDBIN 2 1 %d\n"):
            _assert_same_as_tokenizer(head % total + bits)
            _assert_same_as_tokenizer(head % total + bits[: 2 * total])

    def test_crlf_and_tab_separators(self):
        arr = np.random.default_rng(3).random((5, 37)) < 0.5
        for data in (write_pbm(arr), write_ndbin(arr)):
            for blank in (b"\r\n", b"\t", b"\t\n"):
                _assert_same_as_tokenizer(data.replace(b"\n", blank))
            _assert_same_as_tokenizer(data.replace(b" ", b"\t"))

    def test_bit_just_before_a_step(self):
        # In NDBIN the bit before a step joins its first bit into one token,
        # which no step may accept; in PBM the bits are packed, and valid.
        step = b"0 1 0 1 1 1 0 1 "
        for before in (b"1", b"1 0 1", b"\n1"):
            payload = before + step * 3
            total = payload.count(b"0") + payload.count(b"1")
            for head in (b"P1 %d 1 " % total, b"NDBIN 2 1 %d " % total):
                _assert_same_as_tokenizer(head + payload)

    def test_bytearray_takes_the_bytes_path(self):
        # The decoder takes the file's bytes as a c_char_p, which a
        # bytearray is not; the readers still take one.
        arr = np.random.default_rng(4).random((7, 19)) < 0.5
        for write, read in ((write_pbm, read_pbm), (write_ndbin, read_ndbin)):
            assert np.array_equal(read(bytearray(write(arr))), arr)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_same_bytes_on_both_paths(self, k):
        # Last-axis widths around each 4-cell store, from a C-order array, a
        # Fortran-order one and a Padded, on the C codec and on bytes.
        rng = np.random.default_rng(k)
        for width in [*range(1, 18), 63, 64, 65]:
            arr = rng.random((2,) * (k - 2) + (3, width)) < 0.5
            writers = (write_ndbin, write_pbm) if k == 2 else (write_ndbin,)
            for write in writers:
                want = write(arr)
                for form in (arr, np.asfortranarray(arr), _padded(arr)):
                    assert write(form) == want
                    if _native.load() is not None:
                        with python_kernels():
                            assert write(form) == want


# A 320² disc: its files end in background bits, "... 0 0\n".
_DISC = np.add.outer(np.arange(-160, 160) ** 2, np.arange(-160, 160) ** 2) < 150**2


@pytest.mark.parametrize("write, read", [(write_pbm, read_pbm), (write_ndbin, read_ndbin)])
def test_payload_faults_near_the_end(write, read):
    data, total = write(_DISC), _DISC.size
    n = len(data)  # the last bit is at n - 2, its separator at n - 3
    faults = [
        (data[:-2] + b"x\n", f"invalid bit in b'x' (byte offset {n - 2})"),
        (data + b"1\n", f"more than the {total} bits declared (byte offset {n})"),
        (data[:-2] + b"\n", f"truncated data: got {total - 1} of {total} bits (byte offset {n - 1})"),
    ]
    if read is read_ndbin:  # one bit per token: the last two bits joined are one fault
        faults.append((data[:-3] + data[-2:], f"invalid bit in b'00' (byte offset {n - 4})"))
    for bad, message in faults:
        with pytest.raises(ParseError) as exc:
            read(bad)
        assert str(exc.value) == message


def test_read_gives_a_writable_array():
    for arr in (read_pbm(b"P1 2 1 10"), read_ndbin(b"NDBIN 2 1 2 1 0")):
        assert arr.dtype == bool and arr.flags.writeable and arr.flags.c_contiguous
        arr[0, 0] = False
        assert not arr.any()


class TestVoxelsCsv:
    def test_empty(self):
        assert export_voxels_csv(np.zeros((2, 2), bool)) == b"x0,x1\n"

    def test_single(self):
        arr = np.zeros((3, 4), bool)
        arr[1, 2] = True
        assert export_voxels_csv(arr) == b"x0,x1\n1,2\n"

    def test_lexicographic_order(self):
        arr = np.zeros((2, 2, 2), bool)
        arr[1, 1, 1] = arr[0, 0, 0] = True
        assert export_voxels_csv(arr) == b"x0,x1,x2\n0,0,0\n1,1,1\n"

    def test_multi_digit_coordinates(self):
        arr = np.random.default_rng(4).random((12, 3, 11, 105)) < 0.2
        arr[11, 2, 10, 104] = True
        lines = [",".join(map(str, c)) for c in sorted(foreground_coords(arr))]
        want = "x0,x1,x2,x3\n" + "".join(line + "\n" for line in lines)
        assert export_voxels_csv(arr) == want.encode()


class TestPadded:
    """The CLI's reader and writers, which hold a ``Padded`` and no array."""

    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=4, max_side=6)), hyp.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_arrays(self, tmp_path_factory, arr, pbm):
        path = tmp_path_factory.mktemp("padded") / ("a.pbm" if pbm and arr.ndim == 2 else "a.ndbin")
        write_pattern(path, arr)
        padded = read_padded(path)
        assert padded.shape == _padded(arr).shape and padded.buf == _padded(arr).buf
        assert write_ndbin(padded) == write_ndbin(arr)
        if arr.ndim == 2:
            assert write_pbm(padded) == write_pbm(arr)
        else:
            with pytest.raises(FormatError):
                write_pbm(padded)


class TestPathDispatch:
    def test_pbm_roundtrip(self, tmp_path):
        arr = np.eye(4, dtype=bool)
        path = tmp_path / "a.pbm"
        write_pattern(path, arr)
        assert np.array_equal(read_pattern(path), arr)

    def test_ndbin_roundtrip(self, tmp_path):
        arr = np.zeros((3, 3, 3), bool)
        arr[1, 1, 1] = True
        path = tmp_path / "a.ndbin"
        write_pattern(path, arr)
        assert np.array_equal(read_pattern(path), arr)

    def test_any_name_reads_by_magic(self, tmp_path):
        # The first token picks the reader: the name, and its extension, do not.
        arrays = {"a.pbm": np.eye(3, dtype=bool), "a.ndbin": np.eye(4, dtype=bool)[:, :3, None]}
        for name, arr in arrays.items():
            write_pattern(tmp_path / name, arr)
            data = (tmp_path / name).read_bytes()
            for copy in ("a.dat", "noextension"):
                (tmp_path / copy).write_bytes(data)
                got = read_pattern(tmp_path / copy)
                assert got.shape == arr.shape and np.array_equal(got, arr)

    def test_pbm_name_holding_ndbin(self, tmp_path):
        arr = np.zeros((2, 3, 2), bool)
        arr[1, 2, 0] = True
        path = tmp_path / "a.pbm"
        path.write_bytes(write_ndbin(arr))
        assert np.array_equal(read_pattern(path), arr)

    def test_unknown_magic(self, tmp_path, capsys):
        path = tmp_path / "a.pbm"
        path.write_bytes(b"P2\n2 2\n0 1\n1 0\n")
        with pytest.raises(ParseError) as exc:
            read_pattern(path)
        assert exc.value.offset == 0
        assert str(exc.value) == (
            "unsupported magic b'P2' (expected b'P1' or b'NDBIN') (byte offset 0)"
        )
        assert main(["metrics", "--input", str(path), "--skeleton", str(path)]) == 2
        assert "unsupported magic b'P2'" in capsys.readouterr().err

    def test_write_needs_a_known_extension(self, tmp_path):
        for name in ("x.dat", "x.PBMX", "x"):
            with pytest.raises(FormatError, match="use .pbm or .ndbin"):
                write_pattern(tmp_path / name, np.eye(2, dtype=bool))
            assert not (tmp_path / name).exists()
        # The extension's case does not matter.
        write_pattern(tmp_path / "x.PBM", np.eye(2, dtype=bool))
        assert (tmp_path / "x.PBM").read_bytes() == write_pbm(np.eye(2, dtype=bool))
        write_pattern(tmp_path / "x.NdBin", np.eye(2, dtype=bool))
        assert (tmp_path / "x.NdBin").read_bytes() == write_ndbin(np.eye(2, dtype=bool))


def _disc(n):
    yy, xx = np.mgrid[:n, :n] - (n - 1) / 2
    return yy * yy + xx * xx <= (n / 2 - 1) ** 2


class TestRewrite:
    """``write_pattern`` overwrites a file in place, then cuts it to length."""

    @pytest.mark.parametrize("padded", [False, True], ids=["array", "padded"])
    @pytest.mark.parametrize("name, write", [("a.pbm", write_pbm), ("a.ndbin", write_ndbin)])
    @pytest.mark.parametrize("old, new", [(41, 13), (13, 41)], ids=["shrink", "grow"])
    def test_rewrite_holds_exactly_the_new_bytes(self, tmp_path, name, write, padded, old, new):
        path = tmp_path / name
        write_pattern(path, _disc(old))
        pattern = _padded(_disc(new)) if padded else _disc(new)
        write_pattern(path, pattern)
        assert path.read_bytes() == write(_disc(new))

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    def test_new_file_mode_as_write_bytes(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_pattern(tmp_path / "a.pbm", np.eye(3, dtype=bool))
            (tmp_path / "b.pbm").write_bytes(b"")
        finally:
            os.umask(old)
        modes = [(tmp_path / name).stat().st_mode & 0o777 for name in ("a.pbm", "b.pbm")]
        assert modes == [0o666 & ~0o027] * 2

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_symlink_to_dev_null(self, tmp_path):
        # ftruncate fails on a character device; write_bytes took it.
        (tmp_path / "a.pbm").symlink_to("/dev/null")
        write_pattern(tmp_path / "a.pbm", np.eye(3, dtype=bool))
        assert (tmp_path / "a.pbm").is_symlink()

    @pytest.mark.parametrize(
        "pattern, error",
        [
            (np.zeros((2, 2, 2), bool), FormatError),
            (np.zeros((0, 3), bool), FormatError),
            (np.zeros(3, bool), DimensionError),
        ],
        ids=["3d", "zero-axis", "1d"],
    )
    def test_error_leaves_the_file_alone(self, tmp_path, pattern, error):
        path = tmp_path / "a.pbm"
        write_pattern(path, _disc(13))
        before = path.read_bytes()
        with pytest.raises(error):
            write_pattern(path, pattern)
        assert path.read_bytes() == before and path.stat().st_size == len(before)

    def test_never_opens_with_o_trunc(self, tmp_path, monkeypatch):
        # On ext4, O_TRUNC on a file that holds data flushes it at close.
        calls = []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            calls.append(flags)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(formats.os, "open", spy)
        for name in ("a.pbm", "a.ndbin"):
            for size in (41, 13):
                write_pattern(tmp_path / name, _disc(size))
        assert len(calls) == 4 and not any(flags & os.O_TRUNC for flags in calls)
