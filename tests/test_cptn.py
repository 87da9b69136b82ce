"""Binary tensor format: byte-level layout, roundtrips, malformed inputs."""

import struct

import numpy as np
import pytest

from cpfast.cptn import (
    FormatError,
    read_matrix,
    read_metadata,
    read_tensor,
    write_matrix,
    write_metadata,
    write_tensor,
)
from cpfast.tensor import COMPLEX, DenseTensor


class TestRoundtrip:
    @pytest.mark.parametrize("dims", [(3,), (4, 5), (2, 3, 4), (2, 2, 2, 3)])
    def test_real(self, tmp_path, dims):
        rng = np.random.default_rng(0)
        t = DenseTensor(rng.standard_normal(dims))
        path = tmp_path / "t.cptn"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.dims == dims
        np.testing.assert_array_equal(back.data, t.data)

    def test_complex(self, tmp_path):
        rng = np.random.default_rng(1)
        t = DenseTensor(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        path = tmp_path / "t.cptn"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.scalar_kind == COMPLEX
        np.testing.assert_array_equal(back.data, t.data)

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        t = DenseTensor(rng.standard_normal((4, 4, 4)))
        write_tensor(tmp_path / "a.cptn", t)
        write_tensor(tmp_path / "b.cptn", t)
        assert (tmp_path / "a.cptn").read_bytes() == (tmp_path / "b.cptn").read_bytes()

    def test_matrix_helpers(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 3))
        write_matrix(tmp_path / "m.cptn", m)
        np.testing.assert_array_equal(read_matrix(tmp_path / "m.cptn"), m)
        write_tensor(tmp_path / "t.cptn", DenseTensor(rng.standard_normal((2, 2, 2))))
        with pytest.raises(FormatError):
            read_matrix(tmp_path / "t.cptn")


class TestLayout:
    def test_header_bytes(self, tmp_path):
        t = DenseTensor(np.arange(6, dtype=float).reshape((2, 3), order="F"))
        path = tmp_path / "t.cptn"
        write_tensor(path, t)
        raw = path.read_bytes()
        assert raw[:4] == b"CPTN"
        assert struct.unpack("<I", raw[4:8])[0] == 1
        assert raw[8] == 0  # real
        assert raw[9] == 2  # order
        assert raw[10:16] == b"\x00" * 6  # pad to 8-byte boundary
        assert struct.unpack("<QQ", raw[16:32]) == (2, 3)
        payload = np.frombuffer(raw[32:], dtype="<f8")
        np.testing.assert_array_equal(payload, [0, 1, 2, 3, 4, 5])

    def test_complex_kind_byte_and_interleaving(self, tmp_path):
        t = DenseTensor(np.array([[1.0 + 2.0j, 3.0 - 4.0j]]))
        path = tmp_path / "t.cptn"
        write_tensor(path, t)
        raw = path.read_bytes()
        assert raw[8] == 1
        scalars = np.frombuffer(raw[32:], dtype="<f8")
        np.testing.assert_array_equal(scalars, [1.0, 2.0, 3.0, -4.0])


class TestMalformed:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.cptn"
        path.write_bytes(b"NOPE" + b"\x00" * 28)
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "t.cptn"
        write_tensor(path, DenseTensor(rng.standard_normal((3, 3))))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "t.cptn"
        path.write_bytes(b"CPTN" + struct.pack("<I", 9) + b"\x00" * 24)
        with pytest.raises(FormatError):
            read_tensor(path)

    @pytest.mark.parametrize(
        "dims,message",
        [((2**32, 2**32), "expected 18446744073709551616 scalars, found 0"),
         ((2**63, 2), "exceeds numpy's index range"),
         ((0, 2**63), "exceeds numpy's index range")],
        ids=["wraps-int64", "exceeds-int64", "empty-unindexable"],
    )
    def test_huge_dims_raise_format_error(self, tmp_path, dims, message):
        """A header with no payload whose scalar count is 2^64 is counted
        exactly, not wrapped to 0 in int64; a mode of 2^63 or more, which
        numpy cannot index, is a format error even in an empty tensor."""
        path = tmp_path / "t.cptn"
        path.write_bytes(
            b"CPTN" + struct.pack("<IBB6x", 1, 0, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims)
        )
        with pytest.raises(FormatError, match=message):
            read_tensor(path)


class TestMetadata:
    def test_roundtrip(self, tmp_path):
        entries = {"dims": "4,4,4", "R": 3, "nu": 0.5, "snr_db": "inf"}
        path = tmp_path / "run.meta"
        write_metadata(path, entries)
        back = read_metadata(path)
        assert back == {k: str(v) for k, v in entries.items()}

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.meta"
        path.write_text("# header\n\nkey=value\n")
        assert read_metadata(path) == {"key": "value"}
