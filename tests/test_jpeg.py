"""Baseline JPEG codec (pipelines/jpeg.py) — pure-numpy T.81 subset.

Goldens are pinned against the deterministic ``synth_ppm`` gradient so
the PPM / QOI / JPEG image legs stay mutually checkable; the codec is
lossy, so the pins are on the DECODED fixture (exact md5 of the decode
of a pinned encode), constant-color exactness, and bounded error."""
import hashlib

import numpy as np
import pytest

from yetisearch_ray.pipelines.jpeg import (JpegDecodeStage, jpeg_decode,
                                           jpeg_encode)
from yetisearch_ray.pipelines.multimodal import _parse_ppm, synth_ppm


class TestCodec:
    def test_constant_images_roundtrip_exact(self):
        # constant blocks quantize to DC-only with zero AC error; the
        # only loss is YCbCr float rounding (<= 1 count at the edges)
        for v in (0, 64, 128, 200):
            img = np.full((24, 32, 3), v, np.uint8)
            out = jpeg_decode(jpeg_encode(img))
            assert out.shape == img.shape
            np.testing.assert_array_equal(out, img)

    def test_gradient_bounded_error_and_goldens(self):
        img = _parse_ppm(synth_ppm(7, width=32, height=24))
        enc = jpeg_encode(img)
        # deterministic encode: byte-identical across runs/machines
        assert hashlib.md5(enc).hexdigest() == \
            "941b1028f8e805b9e3f6f0a9e577f8e6"
        out = jpeg_decode(enc)
        # decode-of-fixture golden: pixel-exact pin of the lossy output
        assert hashlib.md5(out.tobytes()).hexdigest() == \
            "793e0ee3a61ba2f5349515e737e12162"
        err = np.abs(out.astype(int) - img.astype(int))
        assert err.max() <= 12 and err.mean() < 4.0

    def test_non_multiple_of_8_dimensions(self):
        img = _parse_ppm(synth_ppm(3, width=37, height=21))
        out = jpeg_decode(jpeg_encode(img))
        assert out.shape == (21, 37, 3)
        assert np.abs(out.astype(int) - img.astype(int)).mean() < 4.0

    def test_byte_stuffing_roundtrip(self):
        # noise drives entropy bytes to 0xFF → stuffing must engage
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (24, 32, 3), dtype=np.uint8)
        enc = jpeg_encode(img)
        assert enc.count(b"\xff\x00") >= 1
        out = jpeg_decode(enc)
        assert out.shape == img.shape  # lossy, but structurally sound

    def test_rejects_non_baseline(self):
        img = np.full((8, 8, 3), 10, np.uint8)
        enc = bytearray(jpeg_encode(img))
        sof = enc.find(b"\xff\xc0")
        enc[sof + 1] = 0xC2  # flip SOF0 -> SOF2 (progressive)
        with pytest.raises(ValueError, match="baseline"):
            jpeg_decode(bytes(enc))
        with pytest.raises(ValueError, match="SOI"):
            jpeg_decode(b"\x00\x00")

    def test_decoder_parses_foreign_segment_order(self):
        # decoder must skip APPn/COM and accept DHT-before-DQT order
        img = _parse_ppm(synth_ppm(1, width=16, height=16))
        enc = jpeg_encode(img)
        # inject a COM segment right after SOI
        com = b"\xff\xfe" + (2 + 5).to_bytes(2, "big") + b"hello"
        patched = enc[:2] + com + enc[2:]
        np.testing.assert_array_equal(jpeg_decode(patched),
                                      jpeg_decode(enc))

    def test_truncated_stream_ending_in_ff_raises_valueerror(self):
        enc = jpeg_encode(_parse_ppm(synth_ppm(2, width=16, height=16)))
        assert enc.endswith(b"\xff\xd9")
        sos = enc.find(b"\xff\xda")
        # cut inside the entropy data, and inside the marker segments
        for cut in (enc[:-1], enc[:sos + 1]):
            assert cut.endswith(b"\xff")
            with pytest.raises(ValueError, match="truncated stream"):
                jpeg_decode(cut)

    def test_fill_bytes_before_markers_are_skipped(self):
        enc = jpeg_encode(_parse_ppm(synth_ppm(4, width=16, height=16)))
        ref = jpeg_decode(enc)
        sos = enc.find(b"\xff\xda")
        for patched in (enc[:sos] + b"\xff\xff" + enc[sos:],
                        enc[:-2] + b"\xff\xff\xff" + enc[-2:]):
            np.testing.assert_array_equal(jpeg_decode(patched), ref)


class TestRayStages:
    def test_jpeg_pipeline_stats(self, ray_session):
        import ray.data as rd

        from yetisearch_ray.pipelines.jpeg import (decode_jpeg_features,
                                                   to_jpeg_payloads)

        ids = rd.range(16).map_batches(
            lambda t: t.rename_columns(["doc_id"]),
            batch_format="pyarrow")
        df = decode_jpeg_features(to_jpeg_payloads(ids)).to_pandas()
        assert len(df) == 16
        assert list(df.columns) == ["doc_id", "width", "height", "mean_r",
                                    "mean_g", "mean_b", "brightness",
                                    "compress_ratio"]
        assert (df["width"] == 32).all() and (df["height"] == 24).all()
        assert (df["compress_ratio"] < 1.0).all()  # it actually compresses
        # stats must match a direct decode of the same synth image
        img = jpeg_decode(jpeg_encode(_parse_ppm(synth_ppm(5))))
        want = img.reshape(-1, 3).mean(axis=0)
        row = df.set_index("doc_id").loc[5]
        assert abs(row["mean_r"] - round(float(want[0]), 6)) < 1e-9
        # ...and sit near the analytic PPM means (lossy bound)
        ppm = _parse_ppm(synth_ppm(5))
        assert abs(row["brightness"]
                   - ppm.reshape(-1, 3).mean()) < 4.0
