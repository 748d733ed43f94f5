"""A content-addressed capture store: each fleet guest executes once.

Captures are filed under ``<sha16>-<label>.capture`` — the program
digest plus the workload label, because presets that differ only in
workspace data share a binary (see
:func:`repro.capture.format.check_label`).  ``run``/``verify``/``update``
invocations against the same store therefore re-decode pages instead of
re-executing guests, and a stale file (digest no longer matching its
name, e.g. after a guest source edit, or another recorder layout) is
silently re-captured.

With ``page_cache`` on (the default) the store also maintains each
capture's decoded-page sidecar (:mod:`repro.capture.pagecache`): the
first analysis pass decodes pages once and every later replay mmaps the
raw int64 arrays instead of re-inflating them.  A corrupt or stale
sidecar is evicted and rebuilt exactly like a corrupt capture — the
``sidecars_*`` counters record which path each entry took.
"""

from __future__ import annotations

from pathlib import Path

from ..capture import CaptureError, CaptureReader, capture_run
from ..capture.format import RECORDER_LAYOUT
from ..core import TQuadOptions
from ..obs import TELEMETRY
from .entries import CorpusEntry

#: Default store location (created on demand, safe to delete any time).
DEFAULT_STORE = Path(".tquad-corpus")


class CaptureStore:
    """Content-addressed capture files under one root directory."""

    def __init__(self, root: str | Path = DEFAULT_STORE, *,
                 page_cache: bool = True) -> None:
        self.root = Path(root)
        self.page_cache = page_cache
        self.hits = 0      #: captures reused from disk
        self.misses = 0    #: guests actually executed
        self.sidecars_built = 0    #: page sidecars written fresh
        self.sidecars_reused = 0   #: valid sidecars mmapped warm
        self.sidecars_rebuilt = 0  #: corrupt/stale sidecars evicted
        #: Optional hook receiving the live ``PinEngine`` of a guest
        #: execution (the fleet workers wire their heartbeat through it).
        self.on_engine = None

    def path_for(self, sha: str, label: str) -> Path:
        return self.root / f"{sha[:16]}-{label}.capture"

    def _reusable(self, path: Path, sha: str, label: str) -> bool:
        if not path.exists():
            return False
        try:
            with CaptureReader(path, page_cache=False) as reader:
                man = reader.manifest
                return (man.get("program_sha256") == sha
                        and man.get("label", "") == label
                        and man.get("recorder") == RECORDER_LAYOUT)
        except CaptureError:
            return False   # truncated/corrupt: recapture over it

    def _ensure_sidecar(self, path: Path) -> None:
        """Build/validate the decoded-page sidecar and tally its state."""
        with CaptureReader(path, page_cache=True) as reader:
            state = reader.page_cache_state
        if state == "built":
            self.sidecars_built += 1
        elif state == "warm":
            self.sidecars_reused += 1
        elif state == "rebuilt":
            self.sidecars_rebuilt += 1

    def capture(self, entry: CorpusEntry, program, sha: str) -> Path:
        """The capture file for ``entry``, executing the guest only when
        no valid capture for this exact binary + label exists yet."""
        path = self.path_for(sha, entry.label)
        if self._reusable(path, sha, entry.label):
            self.hits += 1
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            with TELEMETRY.span(f"capture:{entry.name}", cat="corpus"):
                capture_run(
                    program, str(path), fs=entry.make_workspace(),
                    options=TQuadOptions(slice_interval=entry.interval),
                    tools=("tquad", "gprof", "quad"), label=entry.label,
                    on_engine=self.on_engine)
            self.misses += 1
        if self.page_cache:
            self._ensure_sidecar(path)
        return path
