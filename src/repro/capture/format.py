"""The capture container format: streams, page codec, manifest.

A *capture* is one guest execution recorded as flat columnar event
streams, persisted so analyses can be re-run without re-executing the VM
(the same split Examem and the BSC tools make between instrumentation
and offline analysis).  The container is a single ZIP file:

* ``manifest.json`` — run identity and stream directory (written last, so
  a truncated capture is detectably corrupt);
* ``pages/<stream>/<nnnnnn>`` — one entry per sealed page, holding
  little-endian ``int64`` rows, delta-encoded along the row axis and
  deflate-compressed by the ZIP layer.  ZIP CRCs give corruption
  detection for free.

Streams (all rows are ``int64`` columns):

``tquad.read`` / ``tquad.write``
    stride 4: ``(icount, incl_bytes, excl_bytes, kernel_id)`` quads — the
    exact buffers of :class:`repro.core.recording.RecordingSink`, spilled
    before aggregation, one per superblock trace segment (per access when a
    trace straddles the grain, or under ``jit=False``).  ``kernel_id``
    indexes the manifest's ``kernels`` table; -1 = dropped access, and
    ``-2 - id`` marks an access made inside a library frame attributed to
    kernel ``id`` (``options.library_rows`` says whether a capture carries
    such markers).
``calls``
    stride 2: ``(icount, routine_id)`` for routine entries and
    ``(icount, -1)`` for returns.  ``routine_id`` indexes the manifest's
    ``routines`` table of ``(name, image)`` pairs.
``quad.raw``
    stride 1: the packed records of
    :class:`repro.quad.shadow.PagedQuadSink` (kernel-interned accesses
    plus negative SP markers), one page per sealed buffer.

Invalidation: the manifest records the program digest and the recording
options; readers must reject replays whose program or options are
incompatible (see :func:`check_program`, and the per-tool validation in
:mod:`repro.capture.replay`).
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

#: Container format version (bumped on incompatible layout changes).
CAPTURE_VERSION = 1

#: How the recording sinks cut rows into pages.  Layouts replay to the same
#: reports but to different page counts, so a capture store recaptures other
#: layouts.  2: per-segment tQUAD rows with QUAD co-attached (no key: older).
RECORDER_LAYOUT = 2

#: Manifest member name inside the ZIP container.
MANIFEST_NAME = "manifest.json"

STREAM_TQUAD_READ = "tquad.read"
STREAM_TQUAD_WRITE = "tquad.write"
STREAM_CALLS = "calls"
STREAM_QUAD = "quad.raw"

#: Row width (int64 columns) per stream.
STREAM_STRIDES = {
    STREAM_TQUAD_READ: 4,
    STREAM_TQUAD_WRITE: 4,
    STREAM_CALLS: 2,
    STREAM_QUAD: 1,
}


class CaptureError(Exception):
    """Base class for capture failures."""


class CaptureFormatError(CaptureError):
    """The file is not a capture, is truncated, or is a wrong version."""


class CaptureMismatchError(CaptureError):
    """The capture exists but cannot serve the requested replay
    (different program, incompatible options, missing stream)."""


def page_name(stream: str, index: int) -> str:
    return f"pages/{stream}/{index:06d}"


# ------------------------------------------------------------- page codec
def encode_page(data: bytes, stride: int) -> bytes:
    """Delta-encode one page of ``int64`` rows along the row axis.

    Deltas make the icount/address columns near-constant, which the ZIP
    deflate layer then compresses 5-20x; the transform is exactly
    invertible under int64 wraparound.
    """
    arr = np.frombuffer(data, dtype="<i8").reshape(-1, stride)
    out = np.empty_like(arr)
    out[:1] = arr[:1]
    np.subtract(arr[1:], arr[:-1], out=out[1:])
    return out.tobytes()


def decode_page(blob: bytes, stride: int) -> np.ndarray:
    """Invert :func:`encode_page`: an ``(n, stride)`` int64 array."""
    if len(blob) % (8 * stride):
        raise CaptureFormatError(
            f"page size {len(blob)} is not a multiple of the row size")
    arr = np.frombuffer(blob, dtype="<i8").reshape(-1, stride)
    return np.cumsum(arr, axis=0, dtype=np.int64)


# ------------------------------------------------------ manifest checks
def _forged(what: str):
    raise CaptureFormatError(f"forged capture manifest: {what}")


def validate_manifest(manifest: dict[str, Any], members: set[str]) -> None:
    """Reject manifest fields the replays would divide by or index with.

    Checked once, when a reader opens the capture:

    * the stream directory — every stream is a known one at its fixed
      stride, its page and row counts are non-negative ints, and every
      page it lists is a member of the container (``members``);
    * the recording options — a positive ``grain`` and a known ``stack``
      policy;
    * the shapes of the name tables — ``kernels`` and ``quad_kernels``
      are lists of names, ``routines`` a list of ``[name, image]`` pairs.

    Ids *into* the tables are range-checked where replay indexes them.
    """
    from ..core.options import StackPolicy

    streams = manifest.get("streams", {})
    if not isinstance(streams, dict):
        _forged("the stream directory is not a mapping")
    for name, info in streams.items():
        stride = STREAM_STRIDES.get(name)
        if stride is None:
            _forged(f"unknown stream {name!r}")
        if not isinstance(info, dict):
            _forged(f"stream {name!r} has no directory entry")
        got = info.get("stride")
        if type(got) is not int or got != stride:
            _forged(f"stream {name!r} stride {got!r} (expected {stride})")
        for key in ("pages", "rows"):
            value = info.get(key)
            if type(value) is not int or value < 0:
                _forged(f"stream {name!r} {key} {value!r}")
        n_pages = info["pages"]
        if n_pages > len(members) or any(
                page_name(name, i) not in members for i in range(n_pages)):
            _forged(f"stream {name!r} lists {n_pages} pages, more than "
                    f"the container holds")
    options = manifest.get("options")
    if not isinstance(options, dict):
        _forged("no recording options")
    grain = options.get("grain")
    if type(grain) is not int or grain < 1:
        _forged(f"grain {grain!r} (must be a positive instruction count)")
    if options.get("stack") not in {p.value for p in StackPolicy}:
        _forged(f"stack policy {options.get('stack')!r}")
    for key in ("kernels", "quad_kernels"):
        table = manifest.get(key, [])
        if not (isinstance(table, list)
                and all(isinstance(n, str) for n in table)):
            _forged(f"{key} is not a list of names")
    routines = manifest.get("routines", [])
    if not (isinstance(routines, list)
            and all(isinstance(r, list) and len(r) == 2
                    and all(isinstance(x, str) for x in r)
                    for r in routines)):
        _forged("routines is not a list of [name, image] pairs")


def check_table_ids(ids: np.ndarray, size: int, what: str) -> None:
    """Reject ids past a ``size``-entry manifest table: one ``max``.

    ``ids`` must already be folded to ``>= -1`` (-1: no entry)."""
    if ids.size:
        top = int(ids.max())
        if top >= size:
            raise CaptureFormatError(
                f"forged {what}: id {top} outside the {size}-entry "
                f"table")


# ----------------------------------------------------------- run identity
def program_digest(program) -> str:
    """A stable content hash of a guest binary (code, data, routine
    table, entry point) — the capture invalidation key."""
    h = hashlib.sha256()
    h.update(program.code_bytes)
    h.update(len(program.data).to_bytes(8, "little"))
    h.update(bytes(program.data))
    for r in program.routines:
        h.update(f"{r.name}\x00{r.image}\x00{r.start}\x00{r.end}\n"
                 .encode())
    h.update(program.entry.to_bytes(8, "little"))
    return h.hexdigest()


def make_manifest(*, program_sha: str, label: str, grain: int, stack: str,
                  exclude_libraries: bool, total_instructions: int,
                  exit_code: int, images: dict[str, str],
                  kernels: list[str], mem_size: int,
                  tools: list[str] | tuple[str, ...] = (),
                  quad_kernels: list[str] | None = None,
                  routines: list[tuple[str, str]] | None = None,
                  prefetches_skipped: int = 0,
                  library_rows: str | None = None) -> dict[str, Any]:
    """Assemble the manifest (stream directory is added by the writer).

    ``library_rows`` describes how library-frame accesses appear in the
    tQUAD streams: ``"marked"`` (kernel ids carry the ``-2 - id`` library
    marker, so replays can serve either library-inclusion view),
    ``"dropped"`` (recorded under ``--exclude-libs``; the rows are gone),
    or ``"merged"`` (pre-marker captures: library rows are indistinguishable
    from their caller's own).  Defaults from ``exclude_libraries`` to what
    the current recording sinks produce.
    """
    if library_rows is None:
        library_rows = "dropped" if exclude_libraries else "marked"
    return {
        "format": CAPTURE_VERSION,
        "kind": "capture",
        "recorder": RECORDER_LAYOUT,
        "program_sha256": program_sha,
        "label": label,
        "tools": sorted(tools),
        "options": {
            "grain": grain,
            "stack": stack,
            "exclude_libraries": exclude_libraries,
            "library_rows": library_rows,
        },
        "total_instructions": total_instructions,
        "exit_code": exit_code,
        "images": dict(images),
        "kernels": list(kernels),
        "quad_kernels": list(quad_kernels or []),
        "routines": [list(r) for r in (routines or [])],
        "mem_size": mem_size,
        "prefetches_skipped": prefetches_skipped,
    }


def library_rows_of(manifest: dict[str, Any]) -> str:
    """How library-frame accesses appear in a capture's tQUAD streams
    (``"marked"`` / ``"dropped"`` / ``"merged"``; pre-marker captures
    default to ``"merged"``)."""
    return manifest.get("options", {}).get("library_rows", "merged")


def require_tool(manifest: dict[str, Any], tool: str) -> None:
    """Reject a replay for a tool whose streams were never captured."""
    tools = manifest.get("tools", [])
    if tool not in tools:
        have = ", ".join(tools) or "none"
        raise CaptureMismatchError(
            f"capture does not include the {tool!r} streams (captured "
            f"tools: {have}); re-record with {tool} enabled")


def check_program(manifest: dict[str, Any], program) -> None:
    """Reject a replay against a different binary than was captured."""
    want = manifest.get("program_sha256")
    got = program_digest(program)
    if want != got:
        raise CaptureMismatchError(
            f"capture was recorded for a different program "
            f"(captured {str(want)[:12]}…, requested {got[:12]}…); "
            f"re-record the capture")


def check_label(manifest: dict[str, Any], expected: str) -> None:
    """Reject a replay whose capture was recorded for a different
    workload identity.

    The program digest covers only the binary; guest presets that differ
    solely in workspace *data* (equal sizes, different seeds) compile to
    the same ``program_sha256``, so a label mismatch is the only signal
    that a capture belongs to a different preset.  Unlabelled captures
    (and empty expectations) are accepted for compatibility.
    """
    recorded = manifest.get("label", "")
    if expected and recorded and recorded != expected:
        raise CaptureMismatchError(
            f"capture was recorded for workload {recorded!r}, not "
            f"{expected!r} (same binary, different input data); "
            f"re-record the capture for {expected!r}")
