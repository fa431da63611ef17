"""Multimodal (binary-payload) decode / feature-extract stage.

Media payloads are opaque ``binary`` columns with typed metadata — the
layout a 100 TB interleaved text+media table would use.  The decode step
itself (image resize, PDF raster, frame sampling) needs libraries this
container does not ship, so ``MediaDecodeStage`` gates the real path
behind an import-try and otherwise runs a clearly-marked deterministic
fake; the Ray-side plumbing — actor-pool ``map_batches`` with small
``batch_size`` (large payloads!), fixed Arrow output schema, per-item
error isolation — is real and tested.

Sizing note: for real image/audio payloads the operative constraint is
``batch_size x payload x concurrency`` inside a worker heap; this stage
defaults to batch_size=16 and documents that, unlike the text stages'
hundreds-per-batch defaults.
"""
from __future__ import annotations

import pyarrow as pa

from ..functions.hashing import hash60

MEDIA_BATCH_SIZE = 16


def _pool_bounds() -> tuple[int, int]:
    """Autoscaling actor-pool bounds that track the cluster: a fixed cap
    of 4 actors starves a wide node/cluster on a media-heavy corpus; one
    actor per 4 cores keeps the pool proportional while idle actors stay
    cheap (the pool scales down to 1)."""
    from .shuffle import session_cpus

    return (1, max(4, session_cpus() // 4))


try:  # pragma: no cover — not installed in this sandbox
    from PIL import Image  # noqa: F401

    _HAVE_PIL = True
except ImportError:
    _HAVE_PIL = False


def fake_dims(media_ref: str) -> tuple[int, int]:
    """Deterministic stand-in dimensions derived from the ref string
    (SQL twin in dataops_oracles.py uses the same hash60 arithmetic)."""
    h = hash60(media_ref)
    return 1 + h % 1024, 1 + (h >> 10) % 1024


class MediaDecodeStage:
    """(media_ref: string, payload: binary) -> decoded feature row.

    Real path (PIL present): decode image payload, report true dims.
    Sandbox path: deterministic fake dims from the ref hash; byte length
    is always real.  Per-item failures never fail the job (error column),
    mirroring the extraction stage's error contract.
    """

    def __init__(self, use_real: bool | None = None):
        self.use_real = _HAVE_PIL if use_real is None else use_real

    def _decode(self, ref: str, payload: bytes) -> tuple[int, int]:
        if self.use_real:  # pragma: no cover
            import io

            from PIL import Image

            with Image.open(io.BytesIO(payload)) as im:
                return im.width, im.height
        return fake_dims(ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("payload").to_pylist()
        n_bytes, widths, heights, captions, errors = [], [], [], [], []
        for ref, payload in zip(refs, payloads):
            payload = payload or b""
            try:
                w, h = self._decode(ref, payload)
                err = ""
            except Exception as exc:  # never fail the job for one item
                w, h, err = 0, 0, f"{type(exc).__name__}: {exc}"[:200]
            n_bytes.append(len(payload))
            widths.append(w)
            heights.append(h)
            captions.append(f"[media {ref} {len(payload)}B {w}x{h}]")
            errors.append(err)
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "n_bytes": pa.array(n_bytes, pa.int64()),
                "width": pa.array(widths, pa.int64()),
                "height": pa.array(heights, pa.int64()),
                "caption": pa.array(captions, pa.string()),
                "error": pa.array(errors, pa.string()),
            }
        )


def decode_media(ds, concurrency=None, batch_size: int = MEDIA_BATCH_SIZE):
    return ds.map_batches(
        MediaDecodeStage,
        concurrency=concurrency or _pool_bounds(),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def _per_item_rows(batch: pa.Table, fields: tuple[str, ...], item,
                   always=None, with_fmt: bool = False) -> pa.Table:
    """Shared per-item decode loop for the binary media stages:
    ``item(fmt, payload) -> {field: int}`` with zero-fill defaults and
    per-item error isolation (a failing payload never fails the job —
    the extraction stage's error contract).  ``always(payload)`` fields
    apply even when the item fails (e.g. n_bytes of the raw payload).
    Output schema: media_id [, fmt], *fields (int64), error."""
    out: dict[str, list] = {"media_id": [], "error": []}
    if with_fmt:
        out["fmt"] = []
    for f in fields:
        out[f] = []
    fmts = (
        batch.column("fmt").to_pylist()
        if "fmt" in batch.column_names
        else [None] * batch.num_rows
    )
    for mid, fmt, payload in zip(
        batch.column("media_id").to_pylist(),
        fmts,
        batch.column("payload").to_pylist(),
    ):
        payload = payload or b""
        vals = dict.fromkeys(fields, 0)
        err = ""
        try:
            vals.update(item(fmt, payload))
        except Exception as exc:  # never fail the job for one item
            err = f"{type(exc).__name__}: {exc}"[:200]
        if always is not None:
            vals.update(always(payload))
        out["media_id"].append(mid)
        if with_fmt:
            out["fmt"].append(fmt)
        for f in fields:
            out[f].append(int(vals[f]))
        out["error"].append(err)
    cols = {"media_id": pa.array(out["media_id"], pa.int64())}
    if with_fmt:
        cols["fmt"] = pa.array(out["fmt"], pa.string())
    for f in fields:
        cols[f] = pa.array(out[f], pa.int64())
    cols["error"] = pa.array(out["error"], pa.string())
    return pa.table(cols)


class BinaryMediaDecodeStage:
    """REAL binary decode over (media_id, fmt, payload) rows: pure-Python
    BMP and WAV parsers (functions/binmedia.py) — header validation,
    geometry extraction, sample aggregation on actual encoded bytes.  An
    actor-pool stage (no adjacent all-to-all to starve here): parser
    dispatch state binds once per actor; small batch_size because the
    operative memory bound is batch x payload x concurrency."""

    FIELDS = ("n_bytes", "width", "height", "n_samples", "sample_rate",
              "sample_sum")

    def __init__(self):
        from ..functions.binmedia import decode_bmp, decode_wav

        self._dispatch = {"bmp": decode_bmp, "wav": decode_wav}

    def _item(self, fmt, payload) -> dict:
        d = self._dispatch[fmt](payload)
        if fmt == "bmp":
            return {"width": d["width"], "height": d["height"],
                    "sample_sum": d["byte_sum"]}
        return {"n_samples": d["n_samples"], "sample_rate": d["sample_rate"],
                "sample_sum": d["abs_sum"]}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _per_item_rows(
            batch, self.FIELDS, self._item,
            always=lambda p: {"n_bytes": len(p)}, with_fmt=True,
        )


def decode_binary_media(ds, concurrency=None,
                        batch_size: int = MEDIA_BATCH_SIZE):
    return ds.map_batches(
        BinaryMediaDecodeStage,
        concurrency=concurrency or _pool_bounds(),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


class PngDecodeStage:
    """REAL PNG decode over (media_id, payload) rows: stdlib-zlib
    baseline decoder (functions/binmedia.decode_png) — chunk walk with
    CRC validation, IDAT inflate, all five scanline unfilters — on
    actual encoded bytes.  Actor-pool stage with the media batch-size
    discipline; per-item failures never fail the job (error column)."""

    FIELDS = ("width", "height", "channels", "bit_depth", "byte_sum",
              "wsum")

    def __init__(self):
        from ..functions.binmedia import decode_png

        self._decode = decode_png

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _per_item_rows(
            batch, self.FIELDS, lambda _fmt, p: self._decode(p)
        )


def decode_png_media(ds, concurrency=None,
                     batch_size: int = MEDIA_BATCH_SIZE):
    return ds.map_batches(
        PngDecodeStage,
        concurrency=concurrency or _pool_bounds(),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


class JpegDecodeStage:
    """REAL baseline JPEG decode over (media_id, payload) rows: marker
    walk, byte-stuffed Huffman entropy decode (DC categories + AC
    run-length/ZRL symbols), dequantize, dezigzag, exact 2-D IDCT
    (functions/binmedia.decode_jpeg).  Actor-pool stage with the media
    batch-size discipline; per-item failures never fail the job."""

    FIELDS = ("width", "height", "n_components", "byte_sum", "wsum")

    def __init__(self):
        from ..functions.binmedia import decode_jpeg

        self._decode = decode_jpeg

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _per_item_rows(
            batch, self.FIELDS, lambda _fmt, p: self._decode(p)
        )


def decode_jpeg_media(ds, concurrency=None,
                      batch_size: int = MEDIA_BATCH_SIZE):
    return ds.map_batches(
        JpegDecodeStage,
        concurrency=concurrency or _pool_bounds(),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


class MediaResizeStage:
    """REAL image transform over (media_id, payload) BMP rows: pure-
    numpy nearest-neighbor downscale (functions/binmedia.resize_bmp_nn)
    followed by a decode of the RESIZED bytes — the reported geometry /
    byte_sum come from re-parsing the transform's actual output, so the
    encoder/decoder round-trip is exercised per item.  Actor-pool stage
    with the media batch-size discipline (batch x payload x concurrency
    is the memory bound); per-item errors never fail the job."""

    FIELDS = ("n_bytes", "width", "height", "byte_sum")

    def __init__(self, fx: int = 2, fy: int = 2):
        from ..functions.binmedia import decode_bmp, resize_bmp_nn

        self._resize = resize_bmp_nn
        self._decode = decode_bmp
        self.fx, self.fy = fx, fy

    def _item(self, _fmt, payload) -> dict:
        resized = self._resize(payload, self.fx, self.fy)
        d = self._decode(resized)
        return {"n_bytes": len(resized), "width": d["width"],
                "height": d["height"], "byte_sum": d["byte_sum"]}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _per_item_rows(batch, self.FIELDS, self._item)


def resize_media(ds, concurrency=None,
                 batch_size: int = MEDIA_BATCH_SIZE):
    return ds.map_batches(
        MediaResizeStage,
        concurrency=concurrency or _pool_bounds(),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


class MediaFramesStage:
    """Frame-sampling over (media_id, payload) WAV rows: the binary
    payload EXPLODES into per-frame feature rows (frame_id, n_samples,
    abs_sum) for every FRAME_STEP-th FRAME_LEN-sample frame — the
    video/audio "sample every k-th frame" shape on the audio codec this
    container can decode.  Actor-pool stage, media batch-size
    discipline; a payload that fails to parse contributes zero rows
    plus an error row is NOT emitted (frame rows have no error column —
    failures surface via the decode operator instead)."""

    def __init__(self):
        from ..functions.binmedia import wav_frame_stats

        self._frames = wav_frame_stats

    def __call__(self, batch: pa.Table) -> pa.Table:
        mids, fids, ns, sums = [], [], [], []
        for mid, payload in zip(
            batch.column("media_id").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            try:
                frames = self._frames(payload or b"")
            except Exception:  # bad payload -> zero rows, job survives
                continue
            for fi, n, s in frames:
                mids.append(mid)
                fids.append(fi)
                ns.append(n)
                sums.append(s)
        return pa.table(
            {
                "media_id": pa.array(mids, pa.int64()),
                "frame_id": pa.array(fids, pa.int64()),
                "n_samples": pa.array(ns, pa.int64()),
                "abs_sum": pa.array(sums, pa.int64()),
            }
        )


def frame_media(ds, concurrency=None,
                batch_size: int = MEDIA_BATCH_SIZE):
    return ds.map_batches(
        MediaFramesStage,
        concurrency=concurrency or _pool_bounds(),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
