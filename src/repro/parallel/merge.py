"""Merging per-shard analysis payloads into whole-run reports.

Each merge is a fold over the shard results *in shard order* and produces
a report object equal (field for field, and byte-identical once rendered
or serialised) to what the serial tool builds:

* **tQUAD** — ``BandwidthLedger.accumulate`` is commutative addition per
  ``(kernel, slice)``; slice indices are computed from absolute icounts, so
  a slice split across a shard boundary merges back exactly.
* **QUAD** — consumer-side counters sum and UnMA bitmap pages union,
  all in the paged shadow's interned form.  Producer attribution of
  cross-shard reads was deferred by the workers; here each shard's
  deferred reads are resolved against the *composed shadow* of all
  earlier shards (which is exactly the serial tool's shadow at the
  shard's start for every address the shard did not overwrite), then the
  shard's own shadow is layered on top.
* **gprof** — self/cumulative/call/edge counts sum; shard-boundary self
  time was settled by ``flush_shard`` such that the two halves of each
  lazily-attributed span add up to the serial charge.  Dicts are merged in
  shard order, which reproduces the serial first-touch insertion order —
  so even tie-breaking in the (stable) report sort matches.
"""

from __future__ import annotations

import numpy as np

from ..core.ledger import BandwidthLedger
from ..core.report import TQuadReport
from ..gprofsim.report import FlatProfile, FlatRow
from ..quad.report import QuadReport
from ..quad.tracker import KernelIO
from .worker import (GprofPayload, GprofSpec, QuadPagedPayload, QuadSpec,
                     ShardResult, TQuadPayload, TQuadSpec)


def merge_tquad(results: list[ShardResult], spec: TQuadSpec,
                images: dict[str, str],
                total_instructions: int) -> tuple[TQuadReport, int]:
    """Fold shard ledgers into one report; returns (report, prefetches)."""
    ledger = BandwidthLedger(spec.options.slice_interval)
    prefetches = 0
    for res in results:
        payload: TQuadPayload = res.payloads[spec.key]
        prefetches += payload.prefetches_skipped
        for name, slices in payload.history.items():
            for s, c in slices.items():
                ledger.accumulate(name, s, c[0], c[1], c[2], c[3])
    ledger.flushed = True
    report = TQuadReport(ledger=ledger, options=spec.options,
                         total_instructions=total_instructions,
                         images=dict(images), complete=True)
    return report, prefetches


def merge_quad(results: list[ShardResult], spec: QuadSpec,
               images: dict[str, str],
               total_instructions: int) -> QuadReport:
    """Fold paged shard payloads without leaving the interned/paged form.

    Each shard's deferred reads resolve against the composed shadow of
    all *earlier* shards, then the shard's own shadow is layered on top
    (remapped from shard-local to merge-global writer ids).
    """
    from ..quad.shadow import (_IN_EXCL, _IN_INCL, _OUT_EXCL, _OUT_INCL,
                               _READS, _READS_NS, _V_IN_INCL, _WRITES,
                               _WRITES_NS, PageBitmap, ShadowPages)

    gid: dict[str, int] = {}           # name -> composed-shadow writer id
    gnames: list[str] = []
    gcounts: dict[str, np.ndarray] = {}
    gunma: dict[tuple[str, int], PageBitmap] = {}
    bindings: dict[tuple[str, str], list[int]] = {}
    composed = ShadowPages()
    for res in results:
        payload: QuadPagedPayload = res.payloads[spec.key]
        names = payload.names
        # 1. resolve cross-shard reads against the pre-shard shadow; a
        # miss means the address was never written (dropped, as serially)
        for cid, (addrs, incls, excls) in payload.deferred.items():
            ad = np.frombuffer(addrs, np.int64)
            w1 = composed.gather_bytes(ad).astype(np.int64)
            known = w1 > 0
            if not known.any():
                continue
            p = w1[known] - 1
            vi = np.frombuffer(incls, np.int64)[known]
            ve = np.frombuffer(excls, np.int64)[known]
            bi = np.bincount(p, weights=vi).astype(np.int64)
            be = np.bincount(p, weights=ve).astype(np.int64)
            consumer = names[cid]
            # every deferred byte has incl >= 1: bi's support covers be's
            for g in np.nonzero(bi)[0].tolist():
                pname = gnames[g]
                c = gcounts[pname]
                c[_OUT_INCL] += int(bi[g])
                c[_OUT_EXCL] += int(be[g])
                if spec.track_bindings:
                    key = (pname, consumer)
                    b = bindings.get(key)
                    if b is None:
                        bindings[key] = [int(bi[g]), int(be[g])]
                    else:
                        b[0] += int(bi[g])
                        b[1] += int(be[g])
        # 2. sum counters (kernel exists iff it had accesses, as serially)
        for kid, name in enumerate(names):
            c = payload.counts[:, kid]
            if c[_READS] == 0 and c[_WRITES] == 0:
                continue
            g = gcounts.get(name)
            if g is None:
                g = gcounts[name] = np.zeros(8, np.int64)
            g += c
        # 3. union UnMA bitmaps
        for (kid, view), (pids, pages) in payload.unma.items():
            key = (names[kid], view)
            bm = gunma.get(key)
            if bm is None:
                bm = gunma[key] = PageBitmap()
            for pid, page in zip(pids.tolist(), pages):
                bm.or_page(int(pid), page)
        # 4. sum within-shard bindings
        for (pk, ck), v in payload.bindings.items():
            key = (names[pk], names[ck])
            b = bindings.get(key)
            if b is None:
                bindings[key] = list(v)
            else:
                b[0] += v[0]
                b[1] += v[1]
        # 5. layer the shard shadow on top, remapped to global writer ids
        remap = np.zeros(len(names) + 1, np.int32)
        for i, name in enumerate(names):
            g = gid.get(name)
            if g is None:
                g = gid[name] = len(gnames)
                gnames.append(name)
            remap[i + 1] = g + 1
        for pid, page in zip(payload.shadow_pids.tolist(),
                             payload.shadow_pages):
            composed.overlay_page(int(pid), remap[page])

    kernels: dict[str, KernelIO] = {}
    for name, c in gcounts.items():
        def card(view: int) -> int:
            bm = gunma.get((name, view))
            return bm.count() if bm is not None else 0

        kernels[name] = KernelIO(
            in_bytes_incl=int(c[_IN_INCL]), in_bytes_excl=int(c[_IN_EXCL]),
            out_bytes_incl=int(c[_OUT_INCL]),
            out_bytes_excl=int(c[_OUT_EXCL]),
            in_unma_incl=card(_V_IN_INCL),
            in_unma_excl=card(_V_IN_INCL + 1),
            out_unma_incl=card(_V_IN_INCL + 2),
            out_unma_excl=card(_V_IN_INCL + 3),
            reads=int(c[_READS]), writes=int(c[_WRITES]),
            reads_nonstack=int(c[_READS_NS]),
            writes_nonstack=int(c[_WRITES_NS]))
    return QuadReport(kernels=kernels, bindings=bindings,
                      images=dict(images),
                      total_instructions=total_instructions)


def merge_gprof(results: list[ShardResult], spec: GprofSpec,
                images: dict[str, str],
                total_instructions: int) -> FlatProfile:
    self_instructions: dict[str, int] = {}
    cumulative: dict[str, int] = {}
    calls: dict[str, int] = {}
    edges: dict[tuple[str, str], int] = {}
    for res in results:
        payload: GprofPayload = res.payloads[spec.key]
        for name, v in payload.self_instructions.items():
            self_instructions[name] = self_instructions.get(name, 0) + v
        for name, v in payload.cumulative_instructions.items():
            cumulative[name] = cumulative.get(name, 0) + v
        for name, v in payload.calls.items():
            calls[name] = calls.get(name, 0) + v
        for key, v in payload.edges.items():
            edges[key] = edges.get(key, 0) + v
    # Mirror GprofTool.report: same filtering, defaults, and stable sort.
    rows = []
    for name, self_instr in self_instructions.items():
        if spec.main_image_only and images.get(name, "main") != "main":
            continue
        rows.append(FlatRow(
            name=name,
            self_instructions=self_instr,
            cumulative_instructions=cumulative.get(name, self_instr),
            calls=calls.get(name, 0)))
    rows.sort(key=lambda r: r.self_instructions, reverse=True)
    return FlatProfile(rows=rows, total_instructions=total_instructions,
                       edges=edges)
