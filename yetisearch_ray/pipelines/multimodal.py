"""Multimodal pipelines: binary media payloads + actor-pool decode stages.

Every leg carries a real codec with no external library: WAV audio
(stdlib ``wave``), PPM images (P6 parser + nearest-neighbour resize)
and QOI images (encoder + decoder); baseline JPEG lives in ``jpeg.py``.
Each leg synthesizes deterministic payloads, so decoded features have
exact expected values.  The Ray-side layout is shared: a binary
``payload`` column with typed metadata, actor-pool ``map_batches``
stages with per-actor setup, small batch sizes for large binary rows,
and Arrow-native (never pandas) handling of binary columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


# ------------------------------------------------------------------ WAV audio
# WAV (RIFF PCM) needs no external codec — the stdlib `wave` module
# parses it: synthesize → decode → windowed-RMS features end-to-end.


def synth_wav(freq_hz: float, *, seconds: float = 0.25, rate: int = 8000,
              amplitude: float = 0.5) -> bytes:
    """Deterministic mono 16-bit PCM WAV: one sine tone."""
    import io
    import wave

    t = np.arange(int(seconds * rate), dtype=np.float64) / rate
    x = (np.sin(2 * np.pi * freq_hz * t) * amplitude * 32767.0).astype(np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(x.tobytes())
    return buf.getvalue()


def to_wav_payloads(ds, *, id_col="doc_id", seconds=0.25, rate=8000):
    """Synthesize a deterministic WAV per row (tone frequency derived
    from the id) — the test-scale stand-in for reading real audio blobs;
    schema identical to a production (payload, media_type) layout."""

    def fn(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        payloads = [synth_wav(200.0 + (int(i) % 32) * 25.0,
                              seconds=seconds, rate=rate) for i in ids]
        return pa.table({
            id_col: t[id_col],
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["audio/wav"] * t.num_rows, pa.string()),
            "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=256)


class WavDecodeStage:
    """REAL audio decode (stdlib ``wave``): parses RIFF PCM payloads to
    (sample_rate, n_channels, duration_sec) and windowed RMS energy —
    the feature-extract step an audio curation pipeline runs.  Actor
    pool: construct once, decode per batch; 8/16/32-bit PCM, any
    channel count (downmixed)."""

    _DTYPES = {1: np.uint8, 2: np.int16, 4: np.int32}

    def __init__(self, *, n_windows: int = 8):
        self.n_windows = n_windows

    def _decode_one(self, payload: bytes):
        import io
        import wave

        with wave.open(io.BytesIO(payload)) as w:
            rate = w.getframerate()
            nch = w.getnchannels()
            width = w.getsampwidth()
            nf = w.getnframes()
            raw = w.readframes(nf)
        dt = self._DTYPES.get(width)
        if dt is None:
            raise ValueError(f"unsupported PCM sample width {width}")
        x = np.frombuffer(raw, dtype=dt).astype(np.float64)
        if width == 1:
            x -= 128.0
        scale = {1: 128.0, 2: 32768.0, 4: 2147483648.0}[width]
        x = (x / scale).reshape(-1, nch).mean(axis=1)
        n = x.size
        rms = np.zeros(self.n_windows, dtype=np.float64)
        if n:
            edges = np.linspace(0, n, self.n_windows + 1).astype(np.int64)
            for j in range(self.n_windows):
                seg = x[edges[j]:edges[j + 1]]
                if seg.size:
                    rms[j] = np.sqrt(np.mean(seg * seg))
        return rate, nch, n / rate if rate else 0.0, rms

    def __call__(self, t: pa.Table) -> pa.Table:
        rates, chans, durs, rms_list = [], [], [], []
        for p in t["payload"].to_pylist():
            r, c, d, rms = self._decode_one(p)
            rates.append(r)
            chans.append(c)
            durs.append(d)
            rms_list.append(rms)
        flat = np.concatenate(rms_list) if rms_list else np.empty(0)
        offsets = pa.array(np.arange(0, (len(rms_list) + 1) * self.n_windows,
                                     self.n_windows, dtype=np.int32))
        col = pa.ListArray.from_arrays(offsets, pa.array(flat, pa.float64()))
        out = t.select([c for c in t.column_names if c != "payload"])
        out = out.append_column("sample_rate", pa.array(rates, pa.int32()))
        out = out.append_column("n_channels", pa.array(chans, pa.int32()))
        out = out.append_column("duration_sec", pa.array(durs, pa.float64()))
        return out.append_column("rms_windows", col)


def decode_wav_features(ds, *, n_windows=8, concurrency=(1, 2), batch_size=128):
    """Actor-pool WAV decode: small batches (binary rows), one decoder
    instance per actor."""
    return ds.map_batches(
        WavDecodeStage,
        fn_constructor_kwargs={"n_windows": n_windows},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


# ------------------------------------------------------------------ PPM image
# Binary PPM (P6) needs no external codec — a two-line header + raw RGB
# bytes: synthesize → decode → features / resize, all end-to-end.


def synth_ppm(doc_id: int, *, width: int = 32, height: int = 24) -> bytes:
    """Deterministic P6 PPM: horizontal R gradient, vertical G gradient,
    id-keyed constant B — analytic channel means for golden tests."""
    x = np.linspace(0, 255, width).astype(np.uint8)
    y = np.linspace(0, 255, height).astype(np.uint8)
    r = np.broadcast_to(x, (height, width))
    g = np.broadcast_to(y[:, None], (height, width))
    b = np.full((height, width), (int(doc_id) * 7) % 256, np.uint8)
    pix = np.stack([r, g, b], axis=-1)
    return f"P6\n{width} {height}\n255\n".encode() + pix.tobytes()


def to_ppm_payloads(ds, *, id_col="doc_id", width=32, height=24):
    """Synthesize a deterministic PPM per row — the test-scale stand-in
    for reading real image blobs; production layout (payload, media_type)."""

    def fn(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        payloads = [synth_ppm(int(i), width=width, height=height) for i in ids]
        return pa.table({
            id_col: t[id_col],
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["image/x-portable-pixmap"] * t.num_rows,
                                   pa.string()),
            "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=256)


def _parse_ppm(payload: bytes) -> np.ndarray:
    """P6 parser (comments + arbitrary whitespace per the netpbm spec)
    → (h, w, 3) uint8 array."""
    if not payload.startswith(b"P6"):
        raise ValueError("not a binary PPM (P6) payload")
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(payload) and payload[pos:pos + 1].isspace():
            pos += 1
        if payload[pos:pos + 1] == b"#":  # comment to end of line
            pos = payload.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(payload[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval}")
    pix = np.frombuffer(payload, dtype=np.uint8, count=w * h * 3, offset=pos)
    return pix.reshape(h, w, 3)


class PpmDecodeStage:
    """REAL image decode (pure numpy, netpbm P6): payload → (width,
    height, mean_r, mean_g, mean_b, brightness).  Actor pool: one
    instance per actor, decode per batch."""

    def __call__(self, t: pa.Table) -> pa.Table:
        ws, hs, means = [], [], []
        for p in t["payload"].to_pylist():
            img = _parse_ppm(p)
            hs.append(img.shape[0])
            ws.append(img.shape[1])
            means.append(img.reshape(-1, 3).mean(axis=0))
        m = np.array(means, np.float64) if means else np.empty((0, 3))
        out = t.select([c for c in t.column_names if c != "payload"])
        out = out.append_column("width", pa.array(ws, pa.int32()))
        out = out.append_column("height", pa.array(hs, pa.int32()))
        for j, name in enumerate(("mean_r", "mean_g", "mean_b")):
            out = out.append_column(
                name, pa.array(np.round(m[:, j], 6) if len(means) else [],
                               pa.float64()))
        bright = np.round(m.mean(axis=1), 6) if len(means) else []
        return out.append_column("brightness", pa.array(bright, pa.float64()))


def decode_ppm_features(ds, *, concurrency=(1, 2), batch_size=128):
    """Actor-pool PPM decode: small batches (binary rows)."""
    return ds.map_batches(PpmDecodeStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency,
                          num_cpus=1)


class PpmResizeStage:
    """REAL nearest-neighbor image resize for P6 payloads (numpy index
    grids) — emits a valid resized PPM payload, so stages chain:
    synth → resize → decode."""

    def __init__(self, *, target_w: int = 8, target_h: int = 8):
        self.target_w = target_w
        self.target_h = target_h

    def _resize_one(self, payload: bytes) -> bytes:
        img = _parse_ppm(payload)
        h, w, _ = img.shape
        yi = (np.arange(self.target_h) * h) // self.target_h
        xi = (np.arange(self.target_w) * w) // self.target_w
        small = img[yi[:, None], xi[None, :]]
        return (f"P6\n{self.target_w} {self.target_h}\n255\n".encode()
                + small.tobytes())

    def __call__(self, t: pa.Table) -> pa.Table:
        resized = [self._resize_one(p) for p in t["payload"].to_pylist()]
        out = t.select([c for c in t.column_names if c != "payload"])
        return out.append_column("payload", pa.array(resized, pa.binary()))


def resize_ppm(ds, *, target_w=8, target_h=8, concurrency=(1, 2), batch_size=128):
    """Actor-pool real PPM resize."""
    return ds.map_batches(
        PpmResizeStage,
        fn_constructor_kwargs={"target_w": target_w, "target_h": target_h},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


# ------------------------------------------------------------------ QOI
#
# REAL compressed-image codec, dependency-free: the QOI format
# (qoiformat.org, public spec) — 14-byte header, byte-stream chunks
# (RGB/RGBA literals, 64-slot hash index, 2-bit diffs, luma diffs,
# runs), 8-byte end marker.  A full encoder + decoder in pure
# Python/numpy: synth → encode → decode → features runs end-to-end
# with lossless round-trip goldens.
# The per-image chunk loop is inherently sequential (each chunk
# depends on the running pixel state), so it lives inside an
# actor-pool stage over small batches — the Ray-side layout is
# identical to a libjpeg-backed stage.

_QOI_MAGIC = b"qoif"
_QOI_END = b"\x00" * 7 + b"\x01"


def qoi_encode(img: np.ndarray) -> bytes:
    """Encode an (h, w, 3) uint8 array as a QOI (channels=3) payload."""
    h, w, c = img.shape
    if c != 3:
        raise ValueError("qoi_encode expects (h, w, 3) uint8")
    out = bytearray()
    out += _QOI_MAGIC
    out += int(w).to_bytes(4, "big") + int(h).to_bytes(4, "big")
    out += bytes([3, 0])  # channels, colorspace (sRGB)
    index = [(0, 0, 0, 0)] * 64
    pr, pg, pb, pa_ = 0, 0, 0, 255
    run = 0
    flat = img.reshape(-1, 3)
    for r, g, b in flat.tolist():
        if (r, g, b) == (pr, pg, pb):
            run += 1
            if run == 62:
                out.append(0xC0 | (run - 1))
                run = 0
            continue
        if run:
            out.append(0xC0 | (run - 1))
            run = 0
        idx = (r * 3 + g * 5 + b * 7 + 255 * 11) % 64
        if index[idx] == (r, g, b, 255):
            out.append(idx)
        else:
            index[idx] = (r, g, b, 255)
            dr = (r - pr + 128) % 256 - 128
            dg = (g - pg + 128) % 256 - 128
            db = (b - pb + 128) % 256 - 128
            if -2 <= dr <= 1 and -2 <= dg <= 1 and -2 <= db <= 1:
                out.append(0x40 | ((dr + 2) << 4) | ((dg + 2) << 2)
                           | (db + 2))
            elif (-32 <= dg <= 31 and -8 <= dr - dg <= 7
                  and -8 <= db - dg <= 7):
                out.append(0x80 | (dg + 32))
                out.append(((dr - dg + 8) << 4) | (db - dg + 8))
            else:
                out += bytes((0xFE, r, g, b))
        pr, pg, pb = r, g, b
    if run:
        out.append(0xC0 | (run - 1))
    out += _QOI_END
    return bytes(out)


def qoi_decode(payload: bytes) -> np.ndarray:
    """Decode a QOI payload (channels 3 or 4) → (h, w, 3) uint8 array
    (alpha dropped for the feature stages)."""
    if payload[:4] != _QOI_MAGIC:
        raise ValueError("not a QOI payload")
    w = int.from_bytes(payload[4:8], "big")
    h = int.from_bytes(payload[8:12], "big")
    n = w * h
    px = np.empty((n, 3), np.uint8)
    index = [(0, 0, 0, 0)] * 64
    r, g, b, a = 0, 0, 0, 255
    pos, i = 14, 0
    data = payload
    while i < n:
        byte = data[pos]
        pos += 1
        if byte == 0xFE:                       # QOI_OP_RGB
            r, g, b = data[pos], data[pos + 1], data[pos + 2]
            pos += 3
        elif byte == 0xFF:                     # QOI_OP_RGBA
            r, g, b, a = (data[pos], data[pos + 1], data[pos + 2],
                          data[pos + 3])
            pos += 4
        else:
            tag = byte >> 6
            if tag == 0:                       # QOI_OP_INDEX
                r, g, b, a = index[byte & 0x3F]
            elif tag == 1:                     # QOI_OP_DIFF
                r = (r + ((byte >> 4) & 3) - 2) % 256
                g = (g + ((byte >> 2) & 3) - 2) % 256
                b = (b + (byte & 3) - 2) % 256
            elif tag == 2:                     # QOI_OP_LUMA
                dg = (byte & 0x3F) - 32
                nxt = data[pos]
                pos += 1
                r = (r + dg + ((nxt >> 4) & 0xF) - 8) % 256
                g = (g + dg) % 256
                b = (b + dg + (nxt & 0xF) - 8) % 256
            else:                              # QOI_OP_RUN
                run = (byte & 0x3F) + 1
                px[i:i + run] = (r, g, b)
                i += run
                index[(r * 3 + g * 5 + b * 7 + a * 11) % 64] = (r, g, b, a)
                continue
        index[(r * 3 + g * 5 + b * 7 + a * 11) % 64] = (r, g, b, a)
        px[i] = (r, g, b)
        i += 1
    return px.reshape(h, w, 3)


def to_qoi_payloads(ds, *, id_col="doc_id", width=32, height=24):
    """Synthesize the SAME deterministic image as ``synth_ppm`` but
    QOI-encoded — so the PPM and QOI legs share analytic goldens."""

    def fn(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        payloads = []
        for i in ids:
            ppm = synth_ppm(int(i), width=width, height=height)
            payloads.append(qoi_encode(_parse_ppm(ppm)))
        return pa.table({
            id_col: t[id_col],
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["image/qoi"] * t.num_rows, pa.string()),
            "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=256)


class QoiDecodeStage:
    """Actor-pool QOI decode → per-image channel stats (same feature
    contract as PpmDecodeStage, plus the compression ratio)."""

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, ws, hs, mr, mg, mb, br, ratio = [], [], [], [], [], [], [], []
        for i, p in zip(t["doc_id"].to_pylist(), t["payload"].to_pylist()):
            img = qoi_decode(p)
            h, w, _ = img.shape
            m = img.reshape(-1, 3).mean(axis=0)
            ids.append(int(i))
            ws.append(w)
            hs.append(h)
            mr.append(round(float(m[0]), 6))
            mg.append(round(float(m[1]), 6))
            mb.append(round(float(m[2]), 6))
            br.append(round(float(m.mean()), 6))
            ratio.append(round(len(p) / (h * w * 3), 6))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "width": pa.array(ws, pa.int32()),
            "height": pa.array(hs, pa.int32()),
            "mean_r": pa.array(mr, pa.float64()),
            "mean_g": pa.array(mg, pa.float64()),
            "mean_b": pa.array(mb, pa.float64()),
            "brightness": pa.array(br, pa.float64()),
            "compress_ratio": pa.array(ratio, pa.float64()),
        })


def decode_qoi_features(ds, *, concurrency=(1, 2), batch_size=128):
    """Actor-pool QOI decode: small batches (binary rows)."""
    return ds.map_batches(QoiDecodeStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency,
                          num_cpus=1)
