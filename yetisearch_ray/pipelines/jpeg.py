"""Baseline JPEG (ITU-T T.81, sequential DCT, Huffman) encoder +
decoder in pure numpy — no imaging library in this container, so the
image leg of the multimodal pipeline carries its own codec, exactly as
the QOI leg does (``multimodal.qoi_encode/qoi_decode``).

Everything here is public-spec material: the quantization tables are
Annex K.1/K.2, the Huffman tables Annex K.3 (the "typical" tables
every baseline encoder ships), the marker layout is JFIF.  Scope is
the baseline subset the pipeline needs: 8-bit, 3-component YCbCr,
4:4:4 (no subsampling), one scan, no restart markers — ``jpeg_decode``
rejects anything else loudly rather than mis-decoding it.

Ray-side plumbing mirrors the PPM/QOI legs (multimodal.py): payload
synthesis reuses ``synth_ppm``'s deterministic gradient so all three
image legs share analytic goldens, and decode runs as an actor-pool
``map_batches`` stage with small batches (binary rows).

Reference parity note: the reference engine (yetisearch, PHP/SQLite)
has no image path at all — this module exists for the LLM-brief
multimodal axis, not for reference parity.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

# ------------------------------------------------------------------ tables

# Annex K.1 / K.2 quantization tables (quality 50), row-major 8x8.
QT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], np.int32).reshape(8, 8)

QT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], np.int32).reshape(8, 8)

# Annex K.3 "typical" Huffman tables: (BITS[1..16], HUFFVAL).
DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUMA_VALS = list(range(12))
DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROMA_VALS = list(range(12))
AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
    0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA]
AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
    0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
    0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
    0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
    0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA]

# Zig-zag scan order (T.81 Figure 5): ZIGZAG[k] = raster index of the
# k-th coefficient in scan order.
_zz = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    np.int64)
ZIGZAG = _zz
UNZIGZAG = np.argsort(_zz)


def _dct_mat() -> np.ndarray:
    """Orthonormal 8-point DCT-II matrix: F = D @ f @ D.T."""
    x = np.arange(8)
    u = x[:, None]
    d = np.cos((2 * x[None, :] + 1) * u * np.pi / 16) / 2.0
    d[0, :] /= np.sqrt(2.0)
    return d


_DCT = _dct_mat()


def _huff_codes(bits, vals):
    """T.81 Annex C code assignment: returns {symbol: (code, length)}."""
    codes = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return codes


def _huff_decode_map(bits, vals):
    """Inverse map {(length, code): symbol} for the decoder."""
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[(length, code)] = vals[k]
            code += 1
            k += 1
        code <<= 1
    return out


_ENC_DC = (_huff_codes(DC_LUMA_BITS, DC_LUMA_VALS),
           _huff_codes(DC_CHROMA_BITS, DC_CHROMA_VALS))
_ENC_AC = (_huff_codes(AC_LUMA_BITS, AC_LUMA_VALS),
           _huff_codes(AC_CHROMA_BITS, AC_CHROMA_VALS))


class _BitWriter:
    """MSB-first bit accumulator with 0xFF byte stuffing (F.1.2.3)."""

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            byte = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.put((1 << pad) - 1, pad)  # 1-fill (F.1.2.3)


def _magnitude(v: int):
    """(size, code-bits) for a DC diff / AC coefficient (F.1.2.1)."""
    if v == 0:
        return 0, 0
    a = abs(v)
    size = int(a).bit_length()
    bits = v if v > 0 else v + (1 << size) - 1
    return size, bits


def _rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    r, g, b = (img[..., i].astype(np.float64) for i in range(3))
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y = ycc[..., 0]
    cb = ycc[..., 1] - 128.0
    cr = ycc[..., 2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.round(np.stack([r, g, b], axis=-1)), 0, 255) \
        .astype(np.uint8)


def _blocks(chan: np.ndarray) -> np.ndarray:
    """Pad (edge-replicate) to 8-multiples and split into (n, 8, 8)
    blocks in MCU raster order."""
    h, w = chan.shape
    ph, pw = (-h) % 8, (-w) % 8
    c = np.pad(chan, ((0, ph), (0, pw)), mode="edge")
    hh, ww = c.shape
    return (c.reshape(hh // 8, 8, ww // 8, 8)
            .transpose(0, 2, 1, 3).reshape(-1, 8, 8))


def jpeg_encode(img: np.ndarray) -> bytes:
    """Encode an (h, w, 3) uint8 RGB array as baseline JFIF 4:4:4."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("expected (h, w, 3) uint8")
    h, w = img.shape[:2]
    ycc = _rgb_to_ycbcr(img)

    # per-component quantized coefficient blocks (batched DCT)
    comp_coefs = []
    for ci in range(3):
        blocks = _blocks(ycc[..., ci]) - 128.0
        coefs = np.einsum("ux,nxy,vy->nuv", _DCT, blocks, _DCT)
        q = QT_LUMA if ci == 0 else QT_CHROMA
        comp_coefs.append(
            np.round(coefs / q).astype(np.int32).reshape(-1, 64)[:, ZIGZAG])

    bw = _BitWriter()
    prev_dc = [0, 0, 0]
    n_blocks = comp_coefs[0].shape[0]
    for b in range(n_blocks):  # 4:4:4 MCU = one block per component
        for ci in range(3):
            tsel = 0 if ci == 0 else 1
            dc_codes, ac_codes = _ENC_DC[tsel], _ENC_AC[tsel]
            zz = comp_coefs[ci][b]
            diff = int(zz[0]) - prev_dc[ci]
            prev_dc[ci] = int(zz[0])
            size, bits = _magnitude(diff)
            code, length = dc_codes[size]
            bw.put(code, length)
            if size:
                bw.put(bits, size)
            run = 0
            ac = zz[1:]
            nz = np.flatnonzero(ac)
            last = nz[-1] if nz.size else -1
            for k in range(last + 1):
                v = int(ac[k])
                if v == 0:
                    run += 1
                    continue
                while run > 15:
                    code, length = ac_codes[0xF0]  # ZRL
                    bw.put(code, length)
                    run -= 16
                size, bits = _magnitude(v)
                code, length = ac_codes[(run << 4) | size]
                bw.put(code, length)
                bw.put(bits, size)
                run = 0
            if last < 62:
                code, length = ac_codes[0x00]  # EOB
                bw.put(code, length)
    bw.flush()

    def seg(marker: int, payload: bytes) -> bytes:
        return bytes([0xFF, marker]) + (len(payload) + 2).to_bytes(2, "big") \
            + payload

    out = bytearray(b"\xff\xd8")  # SOI
    out += seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += seg(0xDB, bytes([0x00])
               + bytes(QT_LUMA.reshape(-1)[ZIGZAG].astype(np.uint8)))
    out += seg(0xDB, bytes([0x01])
               + bytes(QT_CHROMA.reshape(-1)[ZIGZAG].astype(np.uint8)))
    out += seg(0xC0, bytes([8]) + h.to_bytes(2, "big") + w.to_bytes(2, "big")
               + bytes([3,
                        1, 0x11, 0,    # Y:  h1v1, qtable 0
                        2, 0x11, 1,    # Cb: h1v1, qtable 1
                        3, 0x11, 1]))  # Cr: h1v1, qtable 1
    for cls, tid, bits, vals in (
            (0, 0, DC_LUMA_BITS, DC_LUMA_VALS),
            (1, 0, AC_LUMA_BITS, AC_LUMA_VALS),
            (0, 1, DC_CHROMA_BITS, DC_CHROMA_VALS),
            (1, 1, AC_CHROMA_BITS, AC_CHROMA_VALS)):
        out += seg(0xC4, bytes([(cls << 4) | tid]) + bytes(bits)
                   + bytes(vals))
    out += seg(0xDA, bytes([3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0]))
    out += bw.out
    out += b"\xff\xd9"  # EOI
    return bytes(out)


class _BitReader:
    """MSB-first reader over a destuffed entropy segment."""

    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, np.uint8))
        self.pos = 0

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        if self.pos + n > self.bits.size:
            raise ValueError("truncated entropy stream")
        v = 0
        for b in self.bits[self.pos:self.pos + n]:
            v = (v << 1) | int(b)
        self.pos += n
        return v

    def read_symbol(self, table: dict) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | self.read(1)
            sym = table.get((length, code))
            if sym is not None:
                return sym
        raise ValueError("invalid Huffman code")


def _extend(bits: int, size: int) -> int:
    """F.2.2.1 EXTEND: sign-recover a magnitude-coded value."""
    if size == 0:
        return 0
    if bits < (1 << (size - 1)):
        return bits - (1 << size) + 1
    return bits


def jpeg_decode(payload: bytes) -> np.ndarray:
    """Decode a baseline 4:4:4 3-component JFIF payload produced by
    :func:`jpeg_encode` (or any encoder emitting that subset) into an
    (h, w, 3) uint8 RGB array.  Rejects progressive / subsampled /
    restart-interval streams explicitly."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG payload (no SOI)")
    pos = 2
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple, dict] = {}
    frame = None
    scan = None
    entropy = None
    while pos < len(payload):
        if payload[pos] != 0xFF:
            raise ValueError("marker expected")
        while pos + 1 < len(payload) and payload[pos + 1] == 0xFF:
            pos += 1  # fill bytes may pad any marker
        if pos + 1 == len(payload):
            raise ValueError("truncated stream")
        marker = payload[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        length = int.from_bytes(payload[pos:pos + 2], "big")
        body = payload[pos + 2:pos + length]
        pos += length
        if marker == 0xDB:  # DQT (possibly several tables per segment)
            i = 0
            while i < len(body):
                pq, tq = body[i] >> 4, body[i] & 0xF
                if pq != 0:
                    raise ValueError("16-bit quant tables unsupported")
                zzq = np.frombuffer(body[i + 1:i + 65], np.uint8)
                qtables[tq] = zzq[UNZIGZAG].reshape(8, 8).astype(np.int32)
                i += 65
        elif marker == 0xC4:  # DHT
            i = 0
            while i < len(body):
                cls, tid = body[i] >> 4, body[i] & 0xF
                bits = list(body[i + 1:i + 17])
                n = sum(bits)
                vals = list(body[i + 17:i + 17 + n])
                htables[(cls, tid)] = _huff_decode_map(bits, vals)
                i += 17 + n
        elif marker == 0xC0:  # SOF0 baseline
            h = int.from_bytes(body[1:3], "big")
            w = int.from_bytes(body[3:5], "big")
            nc = body[5]
            comps = []
            for c in range(nc):
                cid, hv, tq = body[6 + 3 * c:9 + 3 * c]
                if hv != 0x11:
                    raise ValueError("subsampling unsupported (4:4:4 only)")
                comps.append((cid, tq))
            frame = (h, w, comps)
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError("only baseline SOF0 is supported")
        elif marker == 0xDD:
            raise ValueError("restart intervals unsupported")
        elif marker == 0xDA:  # SOS — entropy data follows
            ns = body[0]
            scan = [(body[1 + 2 * c], body[2 + 2 * c] >> 4,
                     body[2 + 2 * c] & 0xF) for c in range(ns)]
            # destuff until EOI
            raw = bytearray()
            p = pos
            while p < len(payload):
                byte = payload[p]
                if byte == 0xFF:
                    if p + 1 == len(payload):
                        raise ValueError("truncated stream")
                    nxt = payload[p + 1]
                    if nxt == 0x00:
                        raw.append(0xFF)
                        p += 2
                        continue
                    if 0xD0 <= nxt <= 0xD7:
                        raise ValueError("restart markers unsupported")
                    break  # EOI or next marker
                raw.append(byte)
                p += 1
            entropy = bytes(raw)
            pos = p
        # APPn / COM / others: skipped via the length field
    if frame is None or scan is None or entropy is None:
        raise ValueError("incomplete JPEG stream")

    h, w, comps = frame
    if len(comps) != 3 or len(scan) != 3:
        raise ValueError("expected 3 components")
    bh, bw_ = (h + 7) // 8, (w + 7) // 8
    n_blocks = bh * bw_
    br = _BitReader(entropy)
    planes = [np.empty((n_blocks, 8, 8), np.float64) for _ in range(3)]
    prev_dc = [0, 0, 0]
    scan_by_cid = {cid: (dc, ac) for cid, dc, ac in scan}
    for b in range(n_blocks):
        for ci, (cid, tq) in enumerate(comps):
            dc_id, ac_id = scan_by_cid[cid]
            dc_tab = htables[(0, dc_id)]
            ac_tab = htables[(1, ac_id)]
            zz = np.zeros(64, np.int32)
            size = br.read_symbol(dc_tab)
            prev_dc[ci] += _extend(br.read(size), size)
            zz[0] = prev_dc[ci]
            k = 1
            while k < 64:
                rs = br.read_symbol(ac_tab)
                if rs == 0x00:  # EOB
                    break
                run, size = rs >> 4, rs & 0xF
                if size == 0:
                    if run != 15:
                        raise ValueError("bad AC symbol")
                    k += 16  # ZRL
                    continue
                k += run
                if k > 63:
                    raise ValueError("AC run overflow")
                zz[k] = _extend(br.read(size), size)
                k += 1
            coefs = (zz[UNZIGZAG].reshape(8, 8)
                     * qtables[tq]).astype(np.float64)
            planes[ci][b] = _DCT.T @ coefs @ _DCT + 128.0

    ycc = np.empty((bh * 8, bw_ * 8, 3), np.float64)
    for ci in range(3):
        ycc[..., ci] = (planes[ci].reshape(bh, bw_, 8, 8)
                        .transpose(0, 2, 1, 3).reshape(bh * 8, bw_ * 8))
    return _ycbcr_to_rgb(np.clip(ycc, 0.0, 255.0))[:h, :w]


# ------------------------------------------------------------ Ray stages

def to_jpeg_payloads(ds, *, id_col="doc_id", width=32, height=24):
    """Synthesize the SAME deterministic image as ``synth_ppm`` but
    JPEG-encoded — the PPM, QOI and JPEG legs share analytic goldens
    (JPEG only approximately: baseline coding is lossy)."""
    from .multimodal import _parse_ppm, synth_ppm

    def fn(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        payloads = [jpeg_encode(_parse_ppm(
            synth_ppm(int(i), width=width, height=height))) for i in ids]
        return pa.table({
            id_col: t[id_col],
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["image/jpeg"] * t.num_rows,
                                   pa.string()),
            "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=256)


class JpegDecodeStage:
    """Actor-pool JPEG decode → per-image channel stats (same feature
    contract as QoiDecodeStage, incl. the compression ratio)."""

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, ws, hs, mr, mg, mb, br_, ratio = [], [], [], [], [], [], [], []
        for i, p in zip(t["doc_id"].to_pylist(),
                        t["payload"].to_pylist()):
            img = jpeg_decode(p)
            h, w, _ = img.shape
            m = img.reshape(-1, 3).mean(axis=0)
            ids.append(int(i))
            ws.append(w)
            hs.append(h)
            mr.append(round(float(m[0]), 6))
            mg.append(round(float(m[1]), 6))
            mb.append(round(float(m[2]), 6))
            br_.append(round(float(m.mean()), 6))
            ratio.append(round(len(p) / (h * w * 3), 6))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "width": pa.array(ws, pa.int32()),
            "height": pa.array(hs, pa.int32()),
            "mean_r": pa.array(mr, pa.float64()),
            "mean_g": pa.array(mg, pa.float64()),
            "mean_b": pa.array(mb, pa.float64()),
            "brightness": pa.array(br_, pa.float64()),
            "compress_ratio": pa.array(ratio, pa.float64()),
        })


def decode_jpeg_features(ds, *, concurrency=(1, 2), batch_size=128):
    """Actor-pool JPEG decode: small batches (binary rows)."""
    return ds.map_batches(JpegDecodeStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency,
                          num_cpus=1)
