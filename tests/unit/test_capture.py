"""Unit tests for the capture subsystem (:mod:`repro.capture`).

The contract under test is *byte-identity*: every report replayed from a
capture must serialise to exactly the bytes the direct (re-executing)
tool produces — same tables, same JSON — across slice intervals, stack
policies, and the parallel merge.
"""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.capture import (CaptureCollector, CaptureFormatError,
                           CaptureMismatchError, CaptureReader,
                           CaptureWriter, STREAM_CALLS, STREAM_QUAD,
                           STREAM_TQUAD_READ, STREAM_TQUAD_WRITE,
                           capture_run, check_program, make_manifest,
                           merge_capture_segments, program_digest,
                           replay_gprof, replay_many, replay_quad,
                           replay_tquad)
from repro.capture.format import RECORDER_LAYOUT, decode_page, encode_page
from repro.cli import main
from repro.core import TQuadOptions, profile_passes, run_tquad
from repro.core.options import StackPolicy
from repro.gprofsim import run_gprof
from repro.minic import build_program
from repro.pin import PinEngine
from repro.quad import QuadTool, RecordOnlyError, run_quad
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json
from tests.reference.multipass import reexecute_passes

APP = """
int a[48]; int b[48];
int produce() { int i; for (i = 0; i < 48; i = i + 1) { a[i] = i * 3; }
                return 0; }
int transform() { int i; for (i = 0; i < 48; i = i + 1)
                  { b[i] = a[i] + a[47 - i]; } return 0; }
int consume() { int i; int s = 0; for (i = 0; i < 48; i = i + 1)
                { s = s + b[i]; } return s; }
int main() { produce(); transform(); return consume() & 15; }
"""


def _capture(source=APP, *, grain=50, tools=("tquad", "gprof", "quad"),
             **opt):
    program = build_program(source)
    buf = io.BytesIO()
    capture_run(program, buf, tools=tools,
                options=TQuadOptions(slice_interval=grain, **opt))
    buf.seek(0)
    return program, CaptureReader(buf)


class TestPageCodec:
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_roundtrip(self, stride):
        rng = np.random.default_rng(stride)
        arr = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                           size=(37, stride), dtype=np.int64)
        out = decode_page(encode_page(arr.tobytes(), stride), stride)
        assert np.array_equal(out, arr)

    def test_monotone_columns_compress_to_small_deltas(self):
        arr = np.arange(4000, dtype=np.int64).reshape(-1, 4)
        encoded = np.frombuffer(encode_page(arr.tobytes(), 4),
                                dtype=np.int64)
        assert encoded[4:].max() == 4  # constant per-row delta

    def test_torn_page_rejected(self):
        with pytest.raises(CaptureFormatError):
            decode_page(b"\x00" * 12, 2)


class TestWriterReader:
    def _manifest(self, **kw):
        base = dict(program_sha="ab" * 32, label="t", grain=10,
                    stack="both", exclude_libraries=False,
                    total_instructions=100, exit_code=0, images={},
                    kernels=[], mem_size=1 << 16)
        base.update(kw)
        return make_manifest(**base)

    def test_roundtrip(self):
        buf = io.BytesIO()
        w = CaptureWriter(buf)
        page = np.arange(40, dtype=np.int64).tobytes()
        w.add(STREAM_TQUAD_READ, page)
        w.add(STREAM_TQUAD_READ, page)
        w.finalize(self._manifest(tools=("tquad",)))
        buf.seek(0)
        with CaptureReader(buf) as r:
            assert r.streams[STREAM_TQUAD_READ]["pages"] == 2
            assert r.streams[STREAM_TQUAD_READ]["rows"] == 20
            col = r.column(STREAM_TQUAD_READ)
            assert col.shape == (20, 4)
            assert np.array_equal(col[:10].ravel(),
                                  np.arange(40, dtype=np.int64))

    def test_empty_pages_skipped(self):
        w = CaptureWriter(io.BytesIO())
        w.add(STREAM_CALLS, b"")
        assert w.stream_directory() == {}
        w.close()

    def test_unfinalized_capture_rejected(self):
        buf = io.BytesIO()
        w = CaptureWriter(buf)
        w.add(STREAM_CALLS, np.arange(4, dtype=np.int64).tobytes())
        w.close()  # no finalize -> no manifest
        buf.seek(0)
        with pytest.raises(CaptureFormatError, match="manifest"):
            CaptureReader(buf)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CaptureFormatError):
            CaptureReader(str(tmp_path / "nope.capture"))

    def test_not_a_zip_rejected(self, tmp_path):
        p = tmp_path / "junk.capture"
        p.write_bytes(b"this is not a capture at all")
        with pytest.raises(CaptureFormatError, match="not a capture"):
            CaptureReader(str(p))

    def test_wrong_kind_rejected(self):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("manifest.json", json.dumps({"kind": "tarball",
                                                     "format": 1}))
        buf.seek(0)
        with pytest.raises(CaptureFormatError):
            CaptureReader(buf)

    def test_wrong_version_rejected(self):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("manifest.json",
                        json.dumps({"kind": "capture", "format": 99,
                                    "streams": {}}))
        buf.seek(0)
        with pytest.raises(CaptureFormatError, match="version"):
            CaptureReader(buf)

    def test_corrupt_manifest_rejected(self):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("manifest.json", "{not json")
        buf.seek(0)
        with pytest.raises(CaptureFormatError):
            CaptureReader(buf)

    def test_missing_stream_named_in_error(self):
        buf = io.BytesIO()
        w = CaptureWriter(buf)
        w.add(STREAM_CALLS, np.arange(4, dtype=np.int64).tobytes())
        w.finalize(self._manifest(tools=("gprof",)))
        buf.seek(0)
        with CaptureReader(buf) as r:
            with pytest.raises(CaptureMismatchError, match="calls"):
                r.require_stream(STREAM_QUAD)

    def test_collector_reset_preserves_extracted_pages(self):
        c = CaptureCollector()
        c.add(STREAM_CALLS, b"\x01" * 16)
        pages = c.pages
        c.reset()
        assert pages[STREAM_CALLS] and c.pages == {}


class TestReplayEquality:
    def test_tquad_at_grain_and_multiples(self):
        program, reader = self._cached()
        with reader:
            for interval in (50, 100, 250, 500):
                direct = run_tquad(program, options=TQuadOptions(
                    slice_interval=interval))
                replay = replay_tquad(reader, TQuadOptions(
                    slice_interval=interval))
                assert tquad_to_json(replay) == tquad_to_json(direct)

    def test_derived_stack_policies(self):
        program, reader = self._cached()
        with reader:
            for policy in (StackPolicy.INCLUDE, StackPolicy.EXCLUDE):
                opts = TQuadOptions(slice_interval=100, stack=policy)
                direct = run_tquad(program, options=opts)
                replay = replay_tquad(reader, opts)
                assert tquad_to_json(replay) == tquad_to_json(direct)

    def test_gprof(self):
        program, reader = self._cached()
        with reader:
            direct = run_gprof(program)
            replay = replay_gprof(reader)
            assert flat_to_json(replay) == flat_to_json(direct)
            assert replay.format_call_graph() == direct.format_call_graph()

    def test_quad(self):
        program, reader = self._cached()
        with reader:
            direct = run_quad(program)
            replay = replay_quad(reader)
            assert quad_to_json(replay) == quad_to_json(direct)
            assert replay.format_table() == direct.format_table()
            assert replay.shadow_stats is not None

    def test_exclude_libraries_variant(self):
        program, reader = _capture(grain=100, exclude_libraries=True)
        with reader:
            opts = TQuadOptions(slice_interval=200, exclude_libraries=True)
            direct = run_tquad(program, options=opts)
            assert tquad_to_json(replay_tquad(reader, opts)) \
                == tquad_to_json(direct)
            with pytest.raises(CaptureMismatchError, match="librar"):
                replay_tquad(reader, TQuadOptions(slice_interval=200))

    _cache = None

    @classmethod
    def _cached(cls):
        # one VM execution feeds every equality test in the class
        program = build_program(APP)
        if cls._cache is None:
            buf = io.BytesIO()
            capture_run(program, buf,
                        options=TQuadOptions(slice_interval=50))
            cls._cache = buf.getvalue()
        return program, CaptureReader(io.BytesIO(cls._cache))


class TestReplayValidation:
    def test_wrong_program_rejected(self):
        _, reader = _capture(grain=100, tools=("tquad",))
        other = build_program("int main() { return 0; }")
        with reader:
            with pytest.raises(CaptureMismatchError, match="different"):
                check_program(reader.manifest, other)

    def test_non_multiple_interval_rejected(self):
        _, reader = _capture(grain=100, tools=("tquad",))
        with reader:
            with pytest.raises(CaptureMismatchError, match="multiple"):
                replay_tquad(reader, TQuadOptions(slice_interval=150))

    def test_missing_tool_stream_rejected(self):
        _, reader = _capture(grain=100, tools=("gprof",))
        with reader:
            with pytest.raises(CaptureMismatchError, match="tquad"):
                replay_tquad(reader, TQuadOptions(slice_interval=100))
            with pytest.raises(CaptureMismatchError, match="quad"):
                replay_quad(reader)

    def test_single_policy_capture_replays_itself_only(self):
        program, reader = _capture(grain=100, stack=StackPolicy.EXCLUDE,
                                   tools=("tquad",))
        with reader:
            opts = TQuadOptions(slice_interval=100,
                                stack=StackPolicy.EXCLUDE)
            direct = run_tquad(program, options=opts)
            assert tquad_to_json(replay_tquad(reader, opts)) \
                == tquad_to_json(direct)
            with pytest.raises(CaptureMismatchError, match="stack"):
                replay_tquad(reader, TQuadOptions(slice_interval=100))

    def test_program_digest_is_content_sensitive(self):
        p1 = build_program(APP)
        p2 = build_program(APP.replace("i * 3", "i * 4"))
        assert program_digest(p1) == program_digest(build_program(APP))
        assert program_digest(p1) != program_digest(p2)


def _quad_record(kid: int, size: int, write: bool, ea: int) -> int:
    """One packed ``quad.raw`` record (see :mod:`repro.quad.shadow`)."""
    return ((kid + 1) << 43) | (size << 38) | (int(write) << 37) | ea


class TestForgedQuadRecords:
    """Kernel ids and widths in ``quad.raw`` come from disk: a record the
    interned-kernel table or the ISA cannot have is a format error, never
    a silently different report or a numpy crash."""

    KERNELS = ["a", "b"]
    #: SP marker, then ``a`` writes a word that ``b`` reads back.
    GOOD = [-1 - 4096, _quad_record(0, 8, True, 64),
            _quad_record(1, 8, False, 64)]

    def _write(self, dest, records, program_sha="ab" * 32):
        w = CaptureWriter(dest)
        w.add(STREAM_QUAD, np.array(self.GOOD + records, np.int64)
              .tobytes())
        w.finalize(make_manifest(
            program_sha=program_sha, label="", grain=10, stack="both",
            exclude_libraries=False, total_instructions=100, exit_code=0,
            images={}, kernels=[], mem_size=1 << 16, tools=("quad",),
            quad_kernels=self.KERNELS))

    def _reader(self, records):
        buf = io.BytesIO()
        self._write(buf, records)
        buf.seek(0)
        return CaptureReader(buf)

    def test_well_formed_stream_replays(self):
        with self._reader([]) as reader:
            report = replay_quad(reader)
        a, b = report.kernels["a"], report.kernels["b"]
        assert (a.writes, a.out_bytes_incl) == (1, 8)
        assert (b.reads, b.in_bytes_incl) == (1, 8)
        assert report.bindings == {("a", "b"): [8, 8]}

    @pytest.mark.parametrize("record", [
        _quad_record(2, 8, True, 72),       # one past the intern table
        _quad_record(5, 8, False, 64),      # far past it
        _quad_record(0, 0, False, 64),      # zero-width access
        _quad_record(1, 31, False, 64),     # wider than any ISA access
        _quad_record(1, 3, False, 64),      # not an ISA width
    ], ids=["kid2", "kid5", "width0", "width31", "width3"])
    def test_forged_record_is_a_format_error(self, record):
        with self._reader([record]) as reader:
            with pytest.raises(CaptureFormatError, match="forged"):
                replay_quad(reader)
        with self._reader([record]) as reader:
            with pytest.raises(CaptureFormatError, match="forged"):
                replay_many(reader, tools=("quad",))

    def test_cli_exits_2(self, tmp_path, capsys):
        src = tmp_path / "app.mc"
        src.write_text(APP)
        path = tmp_path / "forged.capture"
        self._write(str(path), [_quad_record(2, 8, True, 72)],
                    program_sha=program_digest(build_program(APP)))
        rc = main(["profile", str(src), "--tool", "quad",
                   "--from-capture", str(path)])
        assert rc == 2
        assert "forged QUAD record" in capsys.readouterr().err


def _set(path, value):
    """A forgery setting the manifest field at ``path`` (a callable
    ``value`` maps the genuine one)."""
    def forge(manifest, pages):
        *head, last = path
        node = manifest
        for key in head:
            node = node[key]
        node[last] = value(node[last]) if callable(value) else value
    return forge


def _set_cell(stream, col, value):
    """A forgery overwriting column ``col`` of the first row of ``stream``
    that names a table entry."""
    def forge(manifest, pages):
        page = pages[(stream, 0)]
        row = int(np.flatnonzero(page[:, col] >= 0)[0])
        page[row, col] = value
    return forge


class TestForgedManifests:
    """Manifest fields and table ids come from disk: a forged one ends in
    ``CaptureFormatError`` (CLI exit 2), with or without the decoded-page
    sidecar — never a numpy/Python crash or a silently made-up report."""

    CASES = {
        "stride0": ("tquad", _set(("streams", STREAM_TQUAD_READ, "stride"),
                                  0)),
        "stride_str": ("tquad", _set(("streams", STREAM_TQUAD_READ,
                                      "stride"), "4")),
        "calls_stride1": ("gprof", _set(("streams", STREAM_CALLS,
                                         "stride"), 1)),
        "pages_past_zip": ("tquad", _set(("streams", STREAM_TQUAD_READ,
                                          "pages"), lambda n: n + 3)),
        "grain0": ("tquad", _set(("options", "grain"), 0)),
        "grain_negative": ("tquad", _set(("options", "grain"), -5)),
        "stack_bogus": ("tquad", _set(("options", "stack"), "bogus")),
        "kernels_empty": ("tquad", _set(("kernels",), [])),
        "kernel_id_999": ("tquad", _set_cell(STREAM_TQUAD_READ, 3, 999)),
        "routines_short": ("gprof", _set(("routines",), [["a"]])),
        "routine_id_999": ("gprof", _set_cell(STREAM_CALLS, 1, 999)),
    }

    @pytest.fixture(scope="class")
    def genuine(self, tmp_path_factory):
        """A genuine capture of ``APP``: (manifest, decoded pages)."""
        path = tmp_path_factory.mktemp("genuine") / "app.capture"
        capture_run(build_program(APP), str(path),
                    options=TQuadOptions(slice_interval=50))
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
            pages = {}
            for stream, info in manifest["streams"].items():
                for i in range(info["pages"]):
                    pages[(stream, i)] = decode_page(
                        zf.read(f"pages/{stream}/{i:06d}"), info["stride"])
        return manifest, pages

    @staticmethod
    def _write(path, manifest, pages):
        with zipfile.ZipFile(path, "w") as zf:
            for (stream, i), page in pages.items():
                zf.writestr(f"pages/{stream}/{i:06d}",
                            encode_page(page.tobytes(), page.shape[1]))
            zf.writestr("manifest.json", json.dumps(manifest))

    def _forged(self, genuine, tmp_path, case):
        manifest = json.loads(json.dumps(genuine[0]))
        pages = {k: v.copy() for k, v in genuine[1].items()}
        tool, forge = self.CASES[case] if case else ("tquad", None)
        if forge is not None:
            forge(manifest, pages)
        path = tmp_path / "forged.capture"
        self._write(path, manifest, pages)
        return tool, path

    @pytest.mark.parametrize("sidecar", [True, False],
                             ids=["sidecar", "no_sidecar"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_replay_raises_format_error(self, genuine, tmp_path, case,
                                        sidecar):
        tool, path = self._forged(genuine, tmp_path, case)
        with pytest.raises(CaptureFormatError, match="forged"):
            with CaptureReader(str(path), page_cache=sidecar) as reader:
                replay_many(reader, tools=(tool,))

    @pytest.mark.parametrize("sidecar", [True, False],
                             ids=["sidecar", "no_sidecar"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cli_exits_2(self, genuine, tmp_path, capsys, case, sidecar):
        tool, path = self._forged(genuine, tmp_path, case)
        src = tmp_path / "app.mc"
        src.write_text(APP)
        rc = main(["profile", str(src), "--tool", tool,
                   "--from-capture", str(path)]
                  + ([] if sidecar else ["--no-page-cache"]))
        assert rc == 2
        assert "forged" in capsys.readouterr().err

    @pytest.mark.parametrize("tool", ["tquad", "gprof", "quad"])
    def test_rewritten_genuine_capture_replays(self, genuine, tmp_path,
                                               tool):
        """The forging harness itself leaves a genuine capture intact."""
        _, path = self._forged(genuine, tmp_path, None)
        program = build_program(APP)
        with CaptureReader(str(path)) as reader:
            bundle = replay_many(reader, tools=(tool,),
                                 options=TQuadOptions(slice_interval=50))
        direct = {"tquad": lambda: tquad_to_json(run_tquad(
                      program, options=TQuadOptions(slice_interval=50))),
                  "gprof": lambda: flat_to_json(run_gprof(program)),
                  "quad": lambda: quad_to_json(run_quad(program))}[tool]
        to_json = {"tquad": tquad_to_json, "gprof": flat_to_json,
                   "quad": quad_to_json}[tool]
        assert to_json(getattr(bundle, tool)) == direct()


class TestToolGuards:
    def test_capturing_quad_tool_records_only(self):
        engine = PinEngine(build_program(APP))
        collector = CaptureCollector()
        tool = QuadTool(capture=collector).attach(engine)
        engine.run()
        assert collector.pages[STREAM_QUAD]
        assert tool.sink.shadow.n_pages == 0    # never drained live
        with pytest.raises(RecordOnlyError, match="replay"):
            tool.report()

    def test_manifest_carries_recorder_layout(self):
        _, reader = _capture(tools=("tquad",))
        with reader:
            assert reader.manifest["recorder"] == RECORDER_LAYOUT

    def test_capture_run_rejects_unknown_tools(self):
        program = build_program("int main() { return 0; }")
        with pytest.raises(ValueError, match="unknown"):
            capture_run(program, io.BytesIO(), tools=("tquad", "bogus"))
        with pytest.raises(ValueError):
            capture_run(program, io.BytesIO(), tools=())

    def test_parallel_capture_writer_requires_capture_spec(self):
        from repro.parallel import TQuadSpec, parallel_profile

        program = build_program("int main() { return 0; }")
        with pytest.raises(ValueError, match="capture"):
            parallel_profile(program, TQuadSpec(options=TQuadOptions()),
                             capture_writer=CaptureWriter(io.BytesIO()))


class TestParallelCapture:
    def test_sharded_capture_replays_byte_identically(self):
        from repro.parallel import TQuadSpec, parallel_profile

        program = build_program(APP)
        options = TQuadOptions(slice_interval=50)
        buf = io.BytesIO()
        writer = CaptureWriter(buf)
        run = parallel_profile(program,
                               TQuadSpec(options=options, capture=True),
                               jobs=3, executor="inline",
                               capture_writer=writer)
        writer.finalize(make_manifest(
            program_sha=program_digest(program), label="", grain=50,
            stack="both", exclude_libraries=False,
            total_instructions=run.total_instructions,
            exit_code=run.exit_code, images=run.images,
            kernels=run.capture_kernels, mem_size=run.mem_size,
            tools=("tquad",),
            prefetches_skipped=run.prefetches_skipped))
        buf.seek(0)
        with CaptureReader(buf) as reader:
            for interval in (50, 150, 500):
                direct = run_tquad(program, options=TQuadOptions(
                    slice_interval=interval))
                replay = replay_tquad(reader, TQuadOptions(
                    slice_interval=interval))
                assert tquad_to_json(replay) == tquad_to_json(direct)

    def test_merge_rejects_payload_without_segments(self):
        from repro.parallel.worker import TQuadPayload

        class FakeResult:
            index = 0
            payloads = {"tquad": TQuadPayload(history={},
                                              prefetches_skipped=0)}

        with pytest.raises(ValueError, match="capture"):
            merge_capture_segments([FakeResult()],
                                   CaptureWriter(io.BytesIO()))


class TestMultipass:
    def _build(self):
        return build_program(APP), None

    def test_capture_path_matches_reexecution(self):
        intervals = [50, 200, 1000]
        fast = profile_passes(self._build, intervals)
        slow = reexecute_passes(self._build, intervals)
        for interval in intervals:
            assert tquad_to_json(fast.reports[interval]) \
                == tquad_to_json(slow.reports[interval])
        assert fast.format_table() == slow.format_table()

    def test_non_divisible_intervals_use_gcd_grain(self):
        fast = profile_passes(self._build, [150, 100])
        slow = reexecute_passes(self._build, [150, 100])
        assert fast.format_table() == slow.format_table()
