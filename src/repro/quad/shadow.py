"""Paged, kernel-ID-interned shadow memory — QUAD's vectorized hot path.

QUAD as the paper describes it resolves every access one byte at a time
against a last-writer map and four address sets per kernel; that walk
survives as the test oracle ``tests/reference/quad.py``.  The shadow
behind :class:`~repro.quad.tracker.QuadTool` instead uses the structure
production memory instrumenters (Examem, the Valgrind working-set tool)
use:

* :class:`ShadowPages` — a page table mapping ``addr >> PAGE_SHIFT`` to
  ``int32`` arrays of interned writer ids (0 = never written).  Writes are
  vectorized slice/fancy assignments, reads gather whole pages worth of
  producers in one NumPy indexing operation.
* :class:`PlaneBitmap` — UnMA (unique memory address) tracking as per-page
  byte flags, marked by bulk fancy assignment and popcounted only at
  report time, replacing the per-kernel Python sets.  All (kernel, view)
  bitmaps share one plane-keyed store so marking needs no per-kernel
  loop; :class:`PageBitmap` is the single-set variant the shard merge
  unions exported pages into.
* :class:`PagedQuadSink` — a buffered recording path mirroring
  :mod:`repro.core.recording`: the engine appends one packed ``int64`` per
  access into an ``array('q')`` buffer which is drained in bulk — binding
  accumulation, OUT-byte attribution and UnMA marking all happen
  per-buffer, not per-access.

Record format (the emission hot path writes exactly one ``append``)::

    (rec_id + 1) << 43 | size << 38 | is_write << 37 | ea

The effective address sits in the low bits so the generated emission code
ORs it into a hoisted per-(kernel, size, kind) constant with no shift.

A kernel-id field of 0 (``rec_id == -1``) marks a dropped access.  The
stack pointer is not part of the record: whenever SP changes, the emitter
appends a negative *marker* ``-1 - sp`` and the drain forward-fills it —
SP changes orders of magnitude less often than memory is accessed.

Exactness
---------

The drain is byte-identical to the per-byte walk.  Every access
counter (reads, writes, their non-stack shares, IN bytes incl/excl)
comes from one integer ``bincount`` over each record's (kernel, width,
kind, bytes-below-SP) payload.  Aligned 8-byte accesses (the
overwhelming majority) then flow through a word-granular pipeline:

* one in-place sort of a unique ``word << bits | seq`` key orders the
  events by word and, within a word, by program order, and one gather
  fetches their payloads;
* runs of identical (word, payload) events collapse to one event with a
  count — a repeated read or write changes nothing but the tallies;
* one running-maximum scan over writes and word-leading events finds
  each read's producer: the last write before it, or the persistent
  shadow, looked up once per distinct word;
* one count-weighted ``bincount`` over (producer, consumer,
  bytes-below-SP) yields the OUT columns and the bindings.

Words ever touched by a sub-word or misaligned access in the same buffer
are routed, together with every colliding word access, through an exact
in-order per-byte walk; the two partitions touch disjoint words, so their
relative order cannot matter.  Stack classification is per *byte* for the
byte-denominated columns (``a < sp`` each byte) and per access (``ea <
sp``) for the access counters, fixing the historical whole-access
classification of straddling accesses in both shadow implementations.

Records are validated in the same pass: a kernel id outside the interned
table or a width the drain cannot split into words raises
``CaptureFormatError``, and a captured stream must carry ISA widths
(1, 2, 4 or 8 bytes) only.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..core.callstack import CallStack
from ..core.npsort import stable_argsort
from ..obs import TELEMETRY as _TELEMETRY
from ..vm.layout import DEFAULT_MEM_SIZE

#: log2 of the shadow page size in bytes.
PAGE_SHIFT = 16
PAGE = 1 << PAGE_SHIFT
#: 8-byte words per page.
WORDS = PAGE >> 3

#: Bit layout of one packed record.
KID_SHIFT = 43
TAIL_SHIFT = 37
ADDR_MASK = (1 << TAIL_SHIFT) - 1

#: Soft buffer capacity in records.  The word path sorts one
#: ``word << bits | seq`` key, where ``bits`` is the width of a record's
#: index in its drain: the cap keeps a drain under 2^17 records, so
#: ``seq`` fits 17 bits and the key 51.  The 512 slack covers the records
#: one superblock can append past the entry-time check.
DEFAULT_RAW_CAP = (1 << 17) - 512

_FULL_WORD = np.int64(0x0101010101010101)

#: Size and low address bits of a record that is one aligned 8-byte word.
_WORD_MASK = (31 << (TAIL_SHIFT + 1)) | 7
_WORD_BITS = 8 << (TAIL_SHIFT + 1)
#: Access widths no drain can split into words (0, or wider than one).
_BAD_WIDTH = np.ones(32, bool)
_BAD_WIDTH[1:9] = False
#: Widths a captured record may not carry: the ISA moves 1, 2, 4 or 8
#: bytes (live sinks accept any width up to 8).
_ODD_WIDTH = np.ones(32, bool)
_ODD_WIDTH[[1, 2, 4, 8]] = False
#: Byte weights of the size (5-bit) and n_below (4-bit) histogram axes.
_BYTES = np.arange(32, dtype=np.int64)


def _forged(what: str):
    from ..capture.format import CaptureFormatError
    raise CaptureFormatError(f"forged QUAD record: {what}")


def _concat_aranges(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total) - np.repeat(ends - counts, counts)


class ShadowPages:
    """Byte-granular last-writer map as paged ``int32`` arrays.

    Values are ``interned_id + 1``; 0 means the byte was never written.
    Pages live as rows of one 2-D backing array so gathers and scatters
    that span pages stay fully vectorized; row 0 is a permanent zero page
    that unallocated page-table entries resolve to on reads.
    """

    __slots__ = ("lut", "_data", "n_pages")

    def __init__(self, mem_size: int = DEFAULT_MEM_SIZE):
        npids = max(1, -(-mem_size // PAGE))
        self.lut = np.full(npids, -1, np.int64)
        self._data = np.zeros((1, PAGE), np.int32)
        self.n_pages = 0

    # ------------------------------------------------------------ plumbing
    def reset(self) -> None:
        """Drop every mapping, in place (the object identity is captured by
        the sink's drain path)."""
        self.lut.fill(-1)
        self._data = np.zeros((1, PAGE), np.int32)
        self.n_pages = 0

    def _need(self, max_pid: int) -> None:
        if max_pid >= self.lut.size:
            lut = np.full(max_pid + 1, -1, np.int64)
            lut[:self.lut.size] = self.lut
            self.lut = lut

    def _alloc(self, pid: int) -> int:
        slot = self.n_pages + 1
        if slot >= self._data.shape[0]:
            cap = max(4, self._data.shape[0] * 2)
            data = np.zeros((cap, PAGE), np.int32)
            data[:self._data.shape[0]] = self._data
            self._data = data
        self.lut[pid] = slot
        self.n_pages += 1
        return slot

    def _slots_rw(self, pids: np.ndarray) -> np.ndarray:
        self._need(int(pids.max()))
        s = self.lut[pids]
        if (s < 0).any():
            for pid in np.unique(pids[s < 0]):
                self._alloc(int(pid))
            s = self.lut[pids]
        return s

    def _slots_ro(self, pids: np.ndarray) -> np.ndarray:
        self._need(int(pids.max()))
        s = self.lut[pids]
        return np.where(s < 0, 0, s)

    # ------------------------------------------------------ bulk accessors
    def gather_words(self, words: np.ndarray) -> np.ndarray:
        """(n, 8) matrix of writer ids for each aligned 8-byte word."""
        s = self._slots_ro(words >> (PAGE_SHIFT - 3))
        base = (words & (WORDS - 1)) << 3
        return self._data[s[:, None], base[:, None] + np.arange(8)]

    def gather_bytes(self, addrs: np.ndarray) -> np.ndarray:
        s = self._slots_ro(addrs >> PAGE_SHIFT)
        return self._data[s, addrs & (PAGE - 1)]

    def set_words(self, words: np.ndarray, writer1: np.ndarray) -> None:
        """Store ``writer1[i]`` (already +1 encoded) over all 8 bytes of
        each word — the whole-word slice assign of the fast path."""
        s = self._slots_rw(words >> (PAGE_SHIFT - 3))
        v3 = self._data.reshape(self._data.shape[0], WORDS, 8)
        v3[s, words & (WORDS - 1)] = writer1[:, None]

    def set_bytes(self, addrs: np.ndarray, writer1: np.ndarray) -> None:
        """Scatter-store per-byte writers (addresses must be distinct)."""
        s = self._slots_rw(addrs >> PAGE_SHIFT)
        self._data[s, addrs & (PAGE - 1)] = writer1

    # -------------------------------------------------- scalar (slow path)
    def set_range(self, addr: int, size: int, writer1: int) -> None:
        end = addr + size
        while addr < end:
            pid = addr >> PAGE_SHIFT
            self._need(pid)
            slot = self.lut[pid]
            if slot < 0:
                slot = self._alloc(pid)
            off = addr & (PAGE - 1)
            n = min(end - addr, PAGE - off)
            self._data[slot, off:off + n] = writer1
            addr += n

    def get_range(self, addr: int, size: int) -> np.ndarray:
        out = np.empty(size, np.int32)
        done = 0
        while done < size:
            pid = (addr + done) >> PAGE_SHIFT
            self._need(pid)
            slot = max(int(self.lut[pid]), 0)
            off = (addr + done) & (PAGE - 1)
            n = min(size - done, PAGE - off)
            out[done:done + n] = self._data[slot, off:off + n]
            done += n
        return out

    # ------------------------------------------------- snapshot / compose
    def snapshot(self) -> "ShadowPages":
        """An independent deep copy of the current mapping."""
        c = ShadowPages.__new__(ShadowPages)
        c.lut = self.lut.copy()
        c._data = self._data[:self.n_pages + 1].copy()
        c.n_pages = self.n_pages
        return c

    def overlay_page(self, pid: int, page: np.ndarray) -> None:
        """Layer one page on top of this mapping: bytes written in ``page``
        (non-zero) win, unwritten bytes keep their current producer."""
        self._need(pid)
        slot = self.lut[pid]
        if slot < 0:
            slot = self._alloc(pid)
        dst = self._data[slot]
        np.copyto(dst, page, where=page != 0)

    def compose(self, other: "ShadowPages",
                remap: np.ndarray | None = None) -> None:
        """Layer ``other`` on top of this mapping (``other`` wins where it
        wrote).  ``remap``, when given, translates ``other``'s +1-encoded
        writer ids into this mapping's id space (``remap[0]`` must be 0)."""
        for pid in np.nonzero(other.lut >= 0)[0]:
            page = other._data[other.lut[pid]]
            if remap is not None:
                page = remap[page]
            self.overlay_page(int(pid), page)

    def items(self):
        """Yield ``(addr, writer1)`` for every written byte (tests only)."""
        for pid in np.nonzero(self.lut >= 0)[0]:
            page = self._data[self.lut[pid]]
            for off in np.nonzero(page)[0]:
                yield int(pid) * PAGE + int(off), int(page[off])

    @property
    def resident_bytes(self) -> int:
        return self._data.nbytes + self.lut.nbytes


class PageBitmap:
    """A paged set of byte addresses: one ``uint8`` flag per byte.

    Flags are unpacked (one byte each) so marking stays a pure fancy
    assignment — idempotent, hence duplicate-safe — and a full aligned
    word marks via a single ``int64`` store of ``0x0101…01``.  The
    cardinality is one ``sum()`` at report time.
    """

    __slots__ = ("lut", "_data", "n_pages")

    def __init__(self, mem_size: int = DEFAULT_MEM_SIZE):
        npids = max(1, -(-mem_size // PAGE))
        self.lut = np.full(npids, -1, np.int64)
        self._data = np.zeros((0, PAGE), np.uint8)
        self.n_pages = 0

    def _need(self, max_pid: int) -> None:
        if max_pid >= self.lut.size:
            lut = np.full(max_pid + 1, -1, np.int64)
            lut[:self.lut.size] = self.lut
            self.lut = lut

    def _alloc(self, pid: int) -> int:
        slot = self.n_pages
        if slot >= self._data.shape[0]:
            cap = max(4, self._data.shape[0] * 2)
            data = np.zeros((cap, PAGE), np.uint8)
            data[:self._data.shape[0]] = self._data
            self._data = data
        self.lut[pid] = slot
        self.n_pages += 1
        return slot

    def _slots(self, pids: np.ndarray) -> np.ndarray:
        self._need(int(pids.max()))
        s = self.lut[pids]
        if (s < 0).any():
            for pid in np.unique(pids[s < 0]):
                self._alloc(int(pid))
            s = self.lut[pids]
        return s

    def mark_words(self, words: np.ndarray) -> None:
        """Mark all 8 bytes of each aligned word."""
        s = self._slots(words >> (PAGE_SHIFT - 3))
        v64 = self._data.view(np.int64)
        v64[s, words & (WORDS - 1)] = _FULL_WORD

    def mark_bytes(self, addrs: np.ndarray) -> None:
        s = self._slots(addrs >> PAGE_SHIFT)
        self._data[s, addrs & (PAGE - 1)] = 1

    def mark_byte(self, addr: int) -> None:
        pid = addr >> PAGE_SHIFT
        self._need(pid)
        slot = self.lut[pid]
        if slot < 0:
            slot = self._alloc(pid)
        self._data[slot, addr & (PAGE - 1)] = 1

    def or_page(self, pid: int, page: np.ndarray) -> None:
        """Union one exported page in (shard merging)."""
        self._need(pid)
        slot = self.lut[pid]
        if slot < 0:
            slot = self._alloc(pid)
        np.bitwise_or(self._data[slot], page, out=self._data[slot])

    def count(self) -> int:
        """The set's cardinality (popcount over all pages)."""
        return int(self._data[:self.n_pages].sum(dtype=np.int64))

    def export(self) -> tuple[np.ndarray, np.ndarray]:
        """(pids, pages) in pid order — the shard wire form."""
        pids = np.nonzero(self.lut >= 0)[0]
        return pids, self._data[self.lut[pids]]

    @property
    def resident_bytes(self) -> int:
        return self._data.nbytes + self.lut.nbytes


class PlaneBitmap:
    """Every UnMA bitmap of one sink in a single paged ``uint8`` store.

    A *plane* is one (kernel, view) bitmap, keyed ``kid * 4 + view``.
    Pages of all planes share one 2-D backing array, so the drain marks
    bytes across every kernel and view in a single fancy scatter — no
    per-kernel Python loop, no second sort by kernel id.  Marking is
    idempotent (flag stores), hence duplicate-safe.
    """

    __slots__ = ("_npids", "lut", "_data", "_slot_virt", "n_pages")

    def __init__(self, mem_size: int = DEFAULT_MEM_SIZE):
        self._npids = max(1, -(-mem_size // PAGE))
        self.lut = np.full(4 * self._npids, -1, np.int64)
        self._data = np.zeros((0, PAGE), np.uint8)
        self._slot_virt: list[int] = []   # slot -> plane * npids + pid
        self.n_pages = 0

    def _slots(self, planes: np.ndarray, pids: np.ndarray) -> np.ndarray:
        virt = planes * self._npids + pids
        vmax = int(virt.max())
        if vmax >= self.lut.size:
            lut = np.full(vmax + 1, -1, np.int64)
            lut[:self.lut.size] = self.lut
            self.lut = lut
        s = self.lut[virt]
        if (s < 0).any():
            for v in np.unique(virt[s < 0]).tolist():
                slot = self.n_pages
                if slot >= self._data.shape[0]:
                    cap = max(8, self._data.shape[0] * 2)
                    data = np.zeros((cap, PAGE), np.uint8)
                    data[:self._data.shape[0]] = self._data
                    self._data = data
                self.lut[v] = slot
                self._slot_virt.append(int(v))
                self.n_pages += 1
            s = self.lut[virt]
        return s

    def mark_words(self, planes: np.ndarray, words: np.ndarray) -> None:
        """Mark all 8 bytes of each aligned word in each event's plane."""
        if not words.size:
            return
        s = self._slots(planes, words >> (PAGE_SHIFT - 3))
        v64 = self._data.view(np.int64)
        v64[s, words & (WORDS - 1)] = _FULL_WORD

    def mark_bytes(self, planes: np.ndarray, addrs: np.ndarray) -> None:
        if not addrs.size:
            return
        s = self._slots(planes, addrs >> PAGE_SHIFT)
        self._data[s, addrs & (PAGE - 1)] = 1

    def _plane_slots(self, plane: int) -> list[tuple[int, int]]:
        """(pid, slot) pairs of one plane, in pid order."""
        lo, hi = plane * self._npids, (plane + 1) * self._npids
        return sorted((v - lo, slot)
                      for slot, v in enumerate(self._slot_virt)
                      if lo <= v < hi)

    def count(self, plane: int) -> int:
        """Cardinality of one plane (popcount over its pages)."""
        rows = [slot for _, slot in self._plane_slots(plane)]
        if not rows:
            return 0
        return int(self._data[rows].sum(dtype=np.int64))

    def export(self, plane: int) -> tuple[np.ndarray, np.ndarray]:
        """(pids, pages) of one plane in pid order — the shard wire form."""
        pairs = self._plane_slots(plane)
        pids = np.array([p for p, _ in pairs], np.int64)
        return pids, self._data[[s for _, s in pairs]]

    @property
    def resident_bytes(self) -> int:
        return self._data.nbytes + self.lut.nbytes


# counter row indices of PagedQuadSink._counts
_IN_INCL, _IN_EXCL, _OUT_INCL, _OUT_EXCL = 0, 1, 2, 3
_READS, _WRITES, _READS_NS, _WRITES_NS = 4, 5, 6, 7

# UnMA views
_V_IN_INCL, _V_IN_EXCL, _V_OUT_INCL, _V_OUT_EXCL = 0, 1, 2, 3


class PagedQuadSink:
    """Packed-record buffer + bulk drain over the paged shadow state.

    Implements the raw record-sink contract of
    :mod:`repro.vm.superblock`: ``raw`` is true, ``buf`` receives packed
    records (``read_buf``/``write_buf`` alias it so the generic cap check
    applies), ``last_sp`` carries the SP-marker protocol state, ``tag``
    exposes ``rec_id``, and ``flush`` drains.
    """

    raw = True
    track_incl = True
    track_excl = True
    kid_shift = KID_SHIFT
    tail_shift = TAIL_SHIFT
    addr_mask = ADDR_MASK

    def __init__(self, callstack: CallStack, *,
                 mem_size: int = DEFAULT_MEM_SIZE,
                 track_bindings: bool = True,
                 cap: int = DEFAULT_RAW_CAP):
        self.tag = callstack
        self.cap = cap
        self.mem_size = mem_size
        self.track_bindings = track_bindings
        self.buf = array("q")
        self.read_buf = self.write_buf = self.buf
        self.last_sp = -1
        self._sp0 = 0
        #: resolve unknown producers never (serial: the per-byte walk
        #: drops them too) or into the deferred tables (shard replay).
        self.defer_unknown = False
        self.flush_read = self.flush_write = self.flush
        self._fresh_state()

    def _fresh_state(self) -> None:
        self.shadow = ShadowPages(self.mem_size)
        self._counts = np.zeros((8, 8), np.int64)
        #: drained accesses per width in bytes
        self._widths = np.zeros(32, np.int64)
        self._nk = 0
        #: all per-kernel [in_incl, in_excl, out_incl, out_excl] UnMA
        #: bitmaps in one plane-keyed store (plane = kid * 4 + view).
        self._unma = PlaneBitmap(self.mem_size)
        #: (producer_kid, consumer_kid) -> [bytes incl, bytes excl]
        self.kid_bindings: dict[tuple[int, int], list[int]] = {}
        #: (word, consumer_kid) -> histogram of per-event ``n_below`` (the
        #: count of bytes under SP), length 9.  Every byte of the word gets
        #: one IN count per event; byte ``b``'s excl count is the number of
        #: events with ``n_below > b``.
        self._def_words: dict[tuple[int, int], list[int]] = {}
        #: (addr, consumer_kid) -> [incl, excl], one entry per byte
        self._def_bytes: dict[tuple[int, int], list[int]] = {}

    def reset(self) -> None:
        """Return to the pristine state, in place — the buffer and tag are
        captured by identity in compiled instrumentation."""
        del self.buf[:]
        self.last_sp = -1
        self._sp0 = 0
        self._fresh_state()

    # ---------------------------------------------------------- plumbing
    def _ensure_kernels(self) -> None:
        nk = len(self.tag.interned_names)
        if self._counts.shape[1] < nk:
            cap = max(nk, self._counts.shape[1] * 2)
            counts = np.zeros((8, cap), np.int64)
            counts[:, :self._counts.shape[1]] = self._counts
            self._counts = counts
        self._nk = nk

    def stats(self) -> dict[str, int]:
        """Shadow footprint: pages, resident bytes, interned kernels."""
        return {
            "page_size": PAGE,
            "shadow_pages": self.shadow.n_pages,
            "unma_pages": self._unma.n_pages,
            "resident_bytes": (self.shadow.resident_bytes
                               + self._unma.resident_bytes
                               + self._counts.nbytes),
            "interned_kernels": len(self.tag.interned_names),
        }

    # ------------------------------------------------------------- drain
    def flush(self) -> None:
        n = len(self.buf)
        if not n:
            return
        _TELEMETRY.count("quad/records_drained", n)
        with _TELEMETRY.span("drain", cat="quad", records=n):
            vals = np.frombuffer(self.buf, dtype=np.int64).copy()
            del self.buf[:]
            self._drain(vals)

    def drain_stream(self, chunks, batch_rows: int | None = None) -> None:
        """Drain raw packed-record arrays in bounded batches.

        The chunk-friendly face of :meth:`_drain` for capture replays:
        ``chunks`` yields 1-D packed-record arrays of any length, which
        are re-cut to ``batch_rows`` (clamped to the sink's cap) with tail
        carry between chunks, so callers never concatenate the full
        stream.  The whole stream is one ``drain`` span and one
        ``quad/records_drained`` count.  Records must carry an access
        width the ISA has (1, 2, 4 or 8 bytes); anything else is a forged
        capture and raises ``CaptureFormatError``.
        """
        cap = (self.cap if batch_rows is None
               else max(min(int(batch_rows), self.cap), 1))
        total = 0
        with _TELEMETRY.span("drain", cat="quad") as span:
            tail = None
            for vals in chunks:
                total += vals.size
                if tail is not None:
                    vals = np.concatenate([tail, vals])
                    tail = None
                lo = 0
                while vals.size - lo >= cap:
                    self._drain(vals[lo:lo + cap])
                    lo += cap
                if vals.size - lo:
                    tail = vals[lo:]
            if tail is not None:
                self._drain(tail)
            if _TELEMETRY.enabled:
                span.args["records"] = total
        _TELEMETRY.count("quad/records_drained", total)
        if self._widths[_ODD_WIDTH].any():
            _forged("access width outside {1, 2, 4, 8}")

    def _drain(self, vals: np.ndarray) -> None:
        neg = vals < 0
        if neg.any():
            at = np.flatnonzero(neg)
            sps = np.empty(at.size + 1, np.int64)
            sps[0] = self._sp0
            np.subtract(-1, vals[at], out=sps[1:])
            self._sp0 = int(sps[-1])
            # each marker sets SP for the records up to the next marker:
            # forward-fill by repeating every SP over its record run
            r = vals[~neg]
            sp = np.repeat(sps, np.diff(at, prepend=-1, append=vals.size) - 1)
        else:
            r = vals
            sp = self._sp0
        if not r.size:
            return
        self._ensure_kernels()
        nk = self._nk
        tail = r >> TAIL_SHIFT            # kid1 << 6 | size << 1 | is_write
        top = int(tail.max()) >> 6
        if top > nk:
            _forged(f"kernel id {top - 1} outside the {nk} interned kernels")
        a = r & ADDR_MASK
        word_ok = (r & _WORD_MASK) == _WORD_BITS      # aligned 8-byte
        words_only = bool(word_ok.all())
        if words_only:
            nb = np.clip(sp - a, 0, 8)
        else:
            size = (tail >> 1) & 31
            # widths over 8 are rejected below; until then keep n_below
            # inside its 4 bits
            nb = np.clip(sp - a, 0, np.minimum(size, 8))
        # nb: bytes of each access below SP — the excl share, and > 0
        # exactly when the access itself counts as non-stack
        ev = tail << 4
        ev |= nb
        # every access counter from one integer histogram over
        # (kid1, size, is_write, n_below); kid1 == 0 rows are dropped
        # accesses
        hist = np.bincount(ev, minlength=(nk + 1) << 10).reshape(
            nk + 1, 32, 2, 16)
        by_size = hist[1:].sum(axis=3)          # (kid, size, kind)
        by_below = hist[1:].sum(axis=1)         # (kid, kind, n_below)
        widths = by_size.sum(axis=(0, 2))
        if widths[_BAD_WIDTH].any():
            _forged("access width outside 1..8 bytes")
        self._widths += widths
        counts = self._counts
        counts[[_READS, _WRITES], :nk] += by_below.sum(axis=2).T
        counts[[_READS_NS, _WRITES_NS], :nk] += (
            by_below[:, :, 1:].sum(axis=2).T)
        counts[_IN_INCL, :nk] += by_size[:, :, 0] @ _BYTES
        counts[_IN_EXCL, :nk] += by_below[:, 0] @ _BYTES[:16]

        if hist[0].any():
            # a kernel-id field of 0 marks a dropped access: counted nowhere
            live = r >= 1 << KID_SHIFT
            if not live.any():
                return
            a, ev, tail, word_ok = a[live], ev[live], tail[live], word_ok[live]
            if np.ndim(sp):
                sp = sp[live]
            if not words_only:
                size = size[live]
                words_only = bool(word_ok.all())
        if words_only:
            self._drain_words(a, ev)
            return
        # words ever touched sub-word/misaligned this buffer, plus every
        # full-word access colliding with them, take the exact byte walk;
        # the partitions touch disjoint words, so ordering across them
        # cannot be observed.
        part = ~word_ok
        pa, ps = a[part], size[part]
        slow_words = np.unique(np.concatenate([pa >> 3, (pa + ps - 1) >> 3]))
        word = a >> 3
        # membership via binary search in the sorted unique slow set —
        # np.isin would re-sort the (much larger) word array instead
        at = np.searchsorted(slow_words, word)
        at[at == slow_words.size] = 0
        collide = word_ok & (slow_words[at] == word)
        word_ok &= ~collide
        self._drain_words(a[word_ok], ev[word_ok])
        part |= collide
        ts = tail[part]
        self._drain_slow(a[part], size[part], (ts >> 6) - 1,
                         (ts & 1).astype(bool),
                         np.broadcast_to(sp, a.shape)[part])

    # ------------------------------------------------- fast (word) path
    def _drain_words(self, a: np.ndarray, ev: np.ndarray) -> None:
        """Aligned 8-byte accesses: one event per word, in bulk.

        ``ev`` holds each access's ``kid1 << 10 | size << 5 | is_write << 4
        | n_below`` payload.  One in-place sort of ``word << bits | seq``
        orders the events by word and, within a word, by program order;
        runs of identical (word, payload) events then collapse to one
        event with a count."""
        n = a.size
        if not n:
            return
        bits = max((n - 1).bit_length(), 3)
        key = (a << (bits - 3)) | np.arange(n)        # word << bits | seq
        key.sort()
        w = key >> bits
        p = ev[key & ((1 << bits) - 1)]
        gs = np.empty(n, bool)          # group start: first event of a word
        gs[0] = True
        np.not_equal(w[1:], w[:-1], out=gs[1:])
        run = gs.copy()
        run[1:] |= p[1:] != p[:-1]
        starts = np.flatnonzero(run)
        cnt = np.diff(starts, append=n)
        w, p, gs = w[starts], p[starts], gs[starts]
        m = starts.size
        iw = (p & 16) != 0
        k1 = p >> 10
        nb = p & 15

        # producer of each read: the last write or group-leading event at
        # or before it.  A write produces its own kernel; a group-leading
        # read resolves the word against the persistent shadow — once per
        # word — and every read up to the word's first write shares it
        last = np.maximum.accumulate(np.where(iw | gs, np.arange(m), 0))
        src = k1.copy()
        lead = np.flatnonzero(gs & ~iw)
        mixed = None
        if lead.size:
            mat = self.shadow.gather_words(w[lead])
            unif = (mat == mat[:, :1]).all(axis=1)
            src[lead] = np.where(unif, mat[:, 0], 0)
            if not unif.all():
                mixed = np.zeros(m, bool)
                mixed[lead[~unif]] = True
                mixed = mixed[last] & ~iw
        prod = src[last]
        rcnt = np.where(iw, 0, cnt)
        if mixed is not None:
            rcnt[mixed] = 0
            self._persistent_mixed(np.repeat(w[mixed], cnt[mixed]),
                                   np.repeat(k1[mixed], cnt[mixed]),
                                   np.repeat(nb[mixed], cnt[mixed]))
        self._accumulate_out(prod, k1, nb, 8, rcnt)
        if self.defer_unknown:
            unk = (prod == 0) & (rcnt > 0)
            if unk.any():
                c = cnt[unk]
                self._defer_words(np.repeat(w[unk], c),
                                  np.repeat(k1[unk] - 1, c),
                                  np.repeat(nb[unk], c))

        self._mark_words(w, p)

        # final shadow state: the last write of each word group
        ends = last[np.append(np.flatnonzero(gs[1:]), m - 1)]
        ends = ends[iw[ends]]
        if ends.size:
            self.shadow.set_words(w[ends], k1[ends])

    def _accumulate_out(self, p1: np.ndarray, c1: np.ndarray,
                        nb: np.ndarray, width: int,
                        weights: np.ndarray | None = None) -> None:
        """Credit producers with consumed bytes and record bindings.

        Each event consumes ``width`` bytes, ``nb`` of them below SP;
        producer ``p1`` and consumer ``c1`` are +1-encoded and events with
        ``p1 == 0`` (unknown producer) fall in a discarded row.  The
        (producer, consumer, n_below) key space is dense and tiny, so one
        ``bincount`` over flattened keys yields every column."""
        nk1 = self._nk + 1
        h = np.bincount((p1 * nk1 + c1) * 9 + nb, weights,
                        minlength=nk1 * nk1 * 9)
        h = h.reshape(nk1, nk1, 9)[1:, 1:].astype(np.int64)
        n = h.sum(axis=2)
        be = h @ _BYTES[:9]
        counts = self._counts
        counts[_OUT_INCL, :nk1 - 1] += n.sum(axis=1) * width
        counts[_OUT_EXCL, :nk1 - 1] += be.sum(axis=1)
        if not self.track_bindings:
            return
        bindings = self.kid_bindings
        for pk, ck in zip(*np.nonzero(n)):
            key = (int(pk), int(ck))
            bi, bx = int(n[pk, ck]) * width, int(be[pk, ck])
            b = bindings.get(key)
            if b is None:
                bindings[key] = [bi, bx]
            else:
                b[0] += bi
                b[1] += bx

    def _persistent_mixed(self, words: np.ndarray, cons1: np.ndarray,
                          nb: np.ndarray) -> None:
        """Reads whose word has more than one persistent producer: expand
        to bytes (rare — only products of sub-word writes survive as mixed
        words)."""
        n = words.size
        flat = self.shadow.gather_words(words).astype(np.int64).ravel()
        byteix = np.tile(np.arange(8), n)
        below = (byteix < np.repeat(nb, 8)).astype(np.int64)
        cflat = np.repeat(cons1, 8)
        self._accumulate_out(flat, cflat, below, 1)
        if self.defer_unknown:
            unk = flat == 0
            if unk.any():
                addrs = np.repeat(words << 3, 8)[unk] + byteix[unk]
                self._defer_bytes(addrs, cflat[unk] - 1, below[unk])

    def _defer_words(self, words: np.ndarray, cons: np.ndarray,
                     nb: np.ndarray) -> None:
        nk = self._nk
        key = (words * nk + cons) * 9 + nb
        u, cnt = np.unique(key, return_counts=True)
        table = self._def_words
        for kk, n in zip(u.tolist(), cnt.tolist()):
            wc, nbv = divmod(kk, 9)
            wkey = divmod(wc, nk)
            h = table.get(wkey)
            if h is None:
                h = table[wkey] = [0] * 9
            h[nbv] += n

    def _defer_bytes(self, addrs: np.ndarray, cons: np.ndarray,
                     below: np.ndarray) -> None:
        table = self._def_bytes
        for ad, cn, be in zip(addrs.tolist(), cons.tolist(),
                              below.tolist()):
            d = table.get((ad, cn))
            if d is None:
                d = table[(ad, cn)] = [0, 0]
            d[0] += 1
            if be:
                d[1] += 1

    def _mark_words(self, w: np.ndarray, p: np.ndarray) -> None:
        """UnMA marking for full-word events (``p``: their payloads).  The
        incl views take whole words; the excl views take whole words when
        all 8 bytes sit under SP and fall back to byte marks for
        SP-straddling words.

        All kernels and views mark through one plane-keyed scatter each —
        the plane id ``kid * 4 + view`` moves the per-kernel dispatch into
        the index arithmetic."""
        if w.size > 2:
            # runs are already collapsed, but a word's events often
            # alternate (read, write, read, ...): marking is idempotent,
            # so drop events equal to the one two places back as well
            keep = np.ones(w.size, bool)
            keep[2:] = (w[2:] != w[:-2]) | (p[2:] != p[:-2])
            w, p = w[keep], p[keep]
        k1 = p >> 10
        nb = p & 15
        planes = ((k1 - 1) << 2) + np.where(p & 16, _V_OUT_INCL, _V_IN_INCL)
        self._unma.mark_words(planes, w)
        ex = nb == 8
        if ex.any():
            self._unma.mark_words(planes[ex] + 1, w[ex])
        straddle = (nb > 0) & ~ex
        if straddle.any():
            nn = nb[straddle]
            addrs = np.repeat(w[straddle] << 3, nn) + _concat_aranges(nn)
            self._unma.mark_bytes(np.repeat(planes[straddle] + 1, nn),
                                  addrs)

    # ---------------------------------------------------- slow (byte) path
    def _drain_slow(self, a: np.ndarray, size: np.ndarray, kid: np.ndarray,
                    isw: np.ndarray, sp: np.ndarray) -> None:
        """Exact per-byte pipeline for sub-word/misaligned accesses and the
        word accesses colliding with them.

        A sorted group-scan like :meth:`_drain_words`, but with one event
        per *byte* instead of per word — byte-granular persistent
        lookups need no uniformity test, so this handles mixed-producer
        words exactly."""
        n = a.size
        if not n:
            return
        ad = np.repeat(a, size) + _concat_aranges(size)
        kd = np.repeat(kid, size)
        iw = np.repeat(isw, size)
        bl = ad < np.repeat(sp, size)
        order = stable_argsort(ad)              # ties: bytes in seq order
        ad, kd, iw, bl = ad[order], kd[order], iw[order], bl[order]
        ne = ad.size
        pos = np.arange(ne)
        gs = np.empty(ne, bool)
        gs[0] = True
        gs[1:] = ad[1:] != ad[:-1]
        gfirst = np.maximum.accumulate(np.where(gs, pos, 0))
        lastw = np.maximum.accumulate(np.where(iw, pos, -1))
        rd = ~iw

        prod = np.zeros(ne, np.int64)
        inbuf = rd & (lastw >= gfirst)
        prod[inbuf] = kd[lastw[inbuf]] + 1
        pers = rd & ~inbuf
        if pers.any():
            prod[pers] = self.shadow.gather_bytes(ad[pers])

        if rd.any():
            self._accumulate_out(prod[rd], kd[rd] + 1,
                                 bl[rd].astype(np.int64), 1)
        if self.defer_unknown:
            unk = rd & (prod == 0)
            if unk.any():
                self._defer_bytes(ad[unk], kd[unk], bl[unk])

        planes = (kd << 2) + np.where(iw, _V_OUT_INCL, _V_IN_INCL)
        self._unma.mark_bytes(planes, ad)
        if bl.any():
            self._unma.mark_bytes(planes[bl] + 1, ad[bl])

        ends = np.nonzero(np.append(gs[1:], True))[0]
        fw = lastw[ends]
        ok = fw >= gfirst[ends]
        if ok.any():
            self.shadow.set_bytes(ad[ends][ok], (kd[fw[ok]] + 1)
                                  .astype(np.int32))

    # ---------------------------------------------------- materialization
    def unma_count(self, kid: int, view: int) -> int:
        return self._unma.count(kid * 4 + view)

    def deferred_columns(self) -> dict[int, tuple[array, array, array]]:
        """Per consumer kid: flat (addrs, incl, excl) columns of the
        deferred unknown-producer reads (shard wire form)."""
        out: dict[int, tuple[array, array, array]] = {}

        def row(cid: int) -> tuple[array, array, array]:
            d = out.get(cid)
            if d is None:
                d = out[cid] = (array("q"), array("q"), array("q"))
            return d

        for (word, cid), hist in self._def_words.items():
            d = row(cid)
            n_incl = sum(hist)
            # byte b's excl count = events with more than b bytes below SP
            tail = 0
            excl = [0] * 8
            for nbv in range(8, 0, -1):
                tail += hist[nbv]
                excl[nbv - 1] = tail
            base = word << 3
            for b in range(8):
                d[0].append(base + b)
                d[1].append(n_incl)
                d[2].append(excl[b])
        for (addr, cid), (vi, ve) in self._def_bytes.items():
            d = row(cid)
            d[0].append(addr)
            d[1].append(vi)
            d[2].append(ve)
        return out


class CapturingPagedQuadSink(PagedQuadSink):
    """A record-only :class:`PagedQuadSink`: each sealed packed-record
    buffer (including the negative SP markers) is spilled to a capture
    sink and cleared, never drained — the QUAD half of the capture-once /
    analyze-many path.  Replaying the pages through a fresh sink's
    ``_drain`` (chunked to the same cap) builds the shadow bit-for-bit.
    """

    #: stream name, kept in sync with repro.capture.format
    STREAM = "quad.raw"

    def __init__(self, callstack: CallStack, capture, *,
                 mem_size: int = DEFAULT_MEM_SIZE,
                 track_bindings: bool = True,
                 cap: int = DEFAULT_RAW_CAP):
        self.capture = capture
        super().__init__(callstack, mem_size=mem_size,
                         track_bindings=track_bindings, cap=cap)

    def flush(self) -> None:
        if self.buf:
            self.capture.add(self.STREAM, self.buf.tobytes())
            del self.buf[:]


def make_raw_recorder(sink: PagedQuadSink, *, write: bool):
    """Per-instruction-tier analysis routine appending packed records.

    Carries ``record_sink``/``record_kind`` so the Pin engine's block
    planner inlines the equivalent append into generated superblocks; the
    closure itself serves unfused, predicated-fallback and budget-tail
    execution, maintaining the same SP-marker protocol.
    """
    buf = sink.buf
    cap = sink.cap
    flush = sink.flush
    tag = sink.tag
    wbit = 1 if write else 0

    def record(ea: int, size: int, sp: int, _a=buf.append, _buf=buf,
               _tag=tag, _s=sink) -> None:
        if _s.last_sp != sp:
            _s.last_sp = sp
            _a(-1 - sp)
        _a(((_tag.rec_id + 1) << KID_SHIFT)
           | (((size << 1) | wbit) << TAIL_SHIFT) | (ea & ADDR_MASK))
        if len(_buf) > cap:
            flush()

    record.record_sink = sink
    record.record_kind = "write" if write else "read"
    return record
