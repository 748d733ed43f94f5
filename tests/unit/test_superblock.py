"""Differential tests for the superblock JIT and buffered analysis paths.

The fused (superblock) tier, the per-instruction tier, the buffered
recording analysis and the paper's per-event analysis (the oracle in
``tests/reference/tquad.py``) must all be observationally identical:
same architectural state, same instruction counts, same compile counts,
same profiler reports.  These tests pin that
equivalence on the MiniC kernel corpus and the WFS application, plus the
exact-budget semantics of ``Machine.run``.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kernels import (build_conv2d, build_fir, build_histogram,
                                build_matmul, build_mergesort, build_pipeline)
from repro.apps.wfs import TINY, build_wfs_program
from repro.apps.wfs.source import make_workspace
from repro.asmkit import assemble
from repro.capture import CaptureReader, capture_run, replay_quad
from repro.core import StackPolicy, TQuadOptions, TQuadTool, run_tquad
from repro.gprofsim import run_gprof
from repro.minic import build_program
from repro.pin import PinEngine
from repro.quad import QuadTool
from repro.serialize import quad_to_json, tquad_to_json
from repro.vm import InstructionBudgetExceeded, Machine
from repro.vm.errors import ArithmeticFault, MemoryFault
from repro.vm.superblock import MAX_BLOCK, build_block
from tests.reference.tquad import PerEventTQuadTool, run_per_event_tquad


def _tquad(program, *, buffered, **kwargs):
    """tQUAD report from the recording tool, or (``buffered=False``) from
    the per-event oracle."""
    run = run_tquad if buffered else run_per_event_tquad
    return run(program, **kwargs)


def _run(program, *, jit, fs=None, **kw):
    m = Machine(program, fs=fs, jit=jit)
    code = m.run(**kw)
    return m, code


def _state(m: Machine):
    return (m.icount, m.exit_code, list(m.x), list(m.f),
            bytes(m.mem), bytes(m.stdout))


KERNELS = {
    "matmul": lambda: build_matmul(size=8),
    "fir": lambda: build_fir(length=128, n_taps=4),
    "mergesort": lambda: build_mergesort(length=64),
    "pipeline": lambda: build_pipeline(length=64),
    "conv2d": lambda: build_conv2d(width=12, height=8),
    "histogram": lambda: build_histogram(length=256),
}


class TestBareDifferential:
    """Fused vs per-instruction execution of the bare VM."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_state_identical(self, name):
        program = KERNELS[name]()
        fused, code_f = _run(program, jit=True)
        unfused, code_u = _run(program, jit=False)
        assert code_f == code_u
        assert _state(fused) == _state(unfused)
        # compile_count counts distinct static instructions on both tiers
        assert fused.compile_count == unfused.compile_count

    def test_wfs_tiny_state_identical(self):
        program = build_wfs_program(TINY)
        fused, code_f = _run(program, jit=True, fs=make_workspace(TINY))
        unfused, code_u = _run(program, jit=False, fs=make_workspace(TINY))
        assert code_f == code_u
        assert _state(fused) == _state(unfused)
        assert fused.fs.exists("wfs_out.wav")
        assert fused.fs.get("wfs_out.wav") == unfused.fs.get("wfs_out.wav")

    def test_faults_identical(self):
        src = ".text\nli t0, 64\nld t1, 0(t0)\nhalt\n"
        results = []
        for jit in (True, False):
            m = Machine(assemble(src), jit=jit)
            with pytest.raises(Exception) as ei:
                m.run()
            results.append((type(ei.value), ei.value.pc, m.icount))
        assert results[0] == results[1]


class TestBudgetExactness:
    SPIN = ".text\nspin: j spin\n"
    COUNT = """.text
    li t0, 0
    li t1, 5
    loop: addi t0, t0, 1
    blt t0, t1, loop
    halt
    """  # retires exactly 12 instructions

    @pytest.mark.parametrize("jit", [True, False])
    def test_zero_budget_raises_immediately(self, jit):
        m = Machine(assemble(self.SPIN), jit=jit)
        with pytest.raises(InstructionBudgetExceeded):
            m.run(max_instructions=0)
        assert m.icount == 0

    @pytest.mark.parametrize("jit", [True, False])
    def test_negative_budget_is_value_error(self, jit):
        m = Machine(assemble(self.SPIN), jit=jit)
        with pytest.raises(ValueError):
            m.run(max_instructions=-1)

    @pytest.mark.parametrize("jit", [True, False])
    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 11])
    def test_bound_enforced_exactly(self, jit, budget):
        m = Machine(assemble(self.COUNT), jit=jit)
        with pytest.raises(InstructionBudgetExceeded):
            m.run(max_instructions=budget)
        assert m.icount == budget

    @pytest.mark.parametrize("jit", [True, False])
    def test_halting_exactly_at_budget_completes(self, jit):
        ref = Machine(assemble(self.COUNT), jit=jit)
        ref.run()
        m = Machine(assemble(self.COUNT), jit=jit)
        assert m.run(max_instructions=ref.icount) == 0
        assert m.icount == ref.icount

    @pytest.mark.parametrize("budget", [100, 1000, 9999])
    def test_partial_state_identical_across_tiers(self, budget):
        program = build_fir(length=64, n_taps=4)
        states = []
        for jit in (True, False):
            m = Machine(program, jit=jit)
            with pytest.raises(InstructionBudgetExceeded):
                m.run(max_instructions=budget)
            states.append(_state(m))
        assert states[0] == states[1]


class TestProfilerDifferential:
    """All four (analysis, tier) combinations must agree bit-for-bit."""

    @pytest.mark.parametrize("policy", list(StackPolicy))
    def test_tquad_fir_reports_identical(self, policy):
        program = build_fir(length=256, n_taps=8)
        options = TQuadOptions(slice_interval=5000, stack=policy)
        tables = set()
        for buffered in (True, False):
            for jit in (True, False):
                report = _tquad(program, options=options,
                                buffered=buffered, jit=jit)
                tables.add(report.format_table())
        assert len(tables) == 1

    @pytest.mark.parametrize("buffered", [True, False])
    def test_tquad_wfs_tiny_reports_identical(self, buffered):
        program = build_wfs_program(TINY)
        options = TQuadOptions(slice_interval=20000)
        tables = set()
        for jit in (True, False):
            report = _tquad(program, options=options, buffered=buffered,
                            jit=jit, fs=make_workspace(TINY))
            tables.add(report.format_table())
        assert len(tables) == 1

    def test_tquad_buffered_equals_legacy_on_wfs(self):
        program = build_wfs_program(TINY)
        options = TQuadOptions(slice_interval=20000)
        tables = {
            buffered: _tquad(program, options=options, buffered=buffered,
                             fs=make_workspace(TINY)).format_table()
            for buffered in (True, False)
        }
        assert tables[True] == tables[False]

    def test_gprof_reports_identical(self):
        program = build_fir(length=256, n_taps=8)
        tables = set()
        for jit in (True, False):
            engine = PinEngine(program, jit=jit)
            from repro.gprofsim import GprofTool
            tool = GprofTool().attach(engine)
            engine.run()
            tables.add(tool.report().format_table())
        assert len(tables) == 1

    def test_quad_reports_identical(self):
        program = build_fir(length=256, n_taps=8)
        tables = set()
        for jit in (True, False):
            engine = PinEngine(program, jit=jit)
            tool = QuadTool().attach(engine)
            engine.run()
            tables.add(tool.report().format_table())
        assert len(tables) == 1

    def test_prefetch_skips_identical(self):
        src = """
        int ga[32];
        int main() {
            int i;
            for (i = 0; i < 32; i = i + 1) {
                __prefetch(&ga[i]);
                ga[i] = i;
            }
            return 0;
        }
        """
        program = build_program(src)
        counts = set()
        for buffered in (True, False):
            for jit in (True, False):
                engine = PinEngine(program, jit=jit)
                tool = (TQuadTool() if buffered
                        else PerEventTQuadTool()).attach(engine)
                engine.run()
                counts.add(tool.prefetches_skipped)
        assert counts == {32}


def _profile(program, *, jit, tools, policy, grain=100000):
    """Run ``tools`` co-attached on one engine; return the fault (if the
    guest crashed) and each tool's (partial) report as JSON."""
    engine = PinEngine(program, jit=jit)
    tquad = quad = None
    if "tquad" in tools:
        tquad = TQuadTool(TQuadOptions(slice_interval=grain,
                                       stack=policy)).attach(engine)
    if "quad" in tools:
        quad = QuadTool().attach(engine)
    fault = None
    try:
        engine.run()
    except (MemoryFault, ArithmeticFault) as exc:
        fault = (type(exc), exc.pc, engine.machine.icount)
    out = [fault]
    if tquad is not None:
        out.append(tquad_to_json(tquad.report(allow_partial=True)))
    if quad is not None:
        out.append(quad_to_json(quad.report(allow_partial=True)))
    return out


def _tquad_rows(program, *, grain, tools, jit=True):
    """(read rows, write rows) of a capture's tQUAD streams."""
    buf = io.BytesIO()
    capture_run(program, buf, tools=tools, jit=jit,
                options=TQuadOptions(slice_interval=grain))
    buf.seek(0)
    with CaptureReader(buf) as reader:
        return (len(reader.column("tquad.read")),
                len(reader.column("tquad.write")))


class TestSegmentModeWithQuad:
    """QUAD's raw sink co-attached must not veto tQUAD's per-segment
    aggregation; straddling traces still take the exact event branch."""

    # trace 1 = li + beq (icounts 1-2); trace 2 = the six instructions
    # from `body`, entered at icount 2, reading three words at icounts
    # 4, 5 and 7 and writing one at 6
    SEGMENT = assemble(""".data
    buf: .space 32
    .text
    .func main
    main:
        li t0, 0
        beq t0, t0, body
    body:
        la t1, buf
        ld t2, 0(t1)
        ld t3, 8(t1)
        sd t2, 16(t1)
        ld t4, 24(t1)
        halt
    .endfunc
    """)

    @pytest.mark.parametrize("tools", [("tquad",), ("tquad", "quad")])
    def test_non_straddling_trace_takes_agg_branch(self, tools):
        # 2 // 8 == 7 // 8: one row per direction for the whole segment
        assert _tquad_rows(self.SEGMENT, grain=8, tools=tools) == (1, 1)

    @pytest.mark.parametrize("tools", [("tquad",), ("tquad", "quad")])
    def test_straddling_trace_takes_event_branch(self, tools):
        # 2 // 6 != 7 // 6: the trace crosses a slice boundary
        assert _tquad_rows(self.SEGMENT, grain=6, tools=tools) == (3, 1)

    def test_unfused_tier_records_per_access(self):
        assert _tquad_rows(self.SEGMENT, grain=8, tools=("tquad", "quad"),
                           jit=False) == (3, 1)

    @pytest.mark.parametrize("policy", list(StackPolicy))
    @pytest.mark.parametrize("grain", [7, 5000])
    def test_reports_equal_unfused(self, policy, grain):
        program = build_fir(length=256, n_taps=8)
        reports = [_profile(program, jit=jit, tools=("tquad", "quad"),
                            policy=policy, grain=grain)
                   for jit in (True, False)]
        assert reports[0] == reports[1]

    def test_wfs_tiny_capture_aggregates_reads(self):
        """Guard against a silent fall-back to per-access rows."""
        program = build_wfs_program(TINY)
        buf = io.BytesIO()
        capture_run(program, buf, fs=make_workspace(TINY),
                    tools=("tquad", "quad"),
                    options=TQuadOptions(slice_interval=2500))
        buf.seek(0)
        with CaptureReader(buf) as reader:
            rows = len(reader.column("tquad.read"))
            reads = sum(io_.reads for io_ in
                        replay_quad(reader).kernels.values())
        assert rows < reads


class TestFaultPathRecords:
    """A fault mid-trace must not lose the records of accesses that
    retired before it: partial reports match the per-instruction tier."""

    GUEST = """
    int g[64];
    int work(int n) {
        int i; int s = 0; int *p = 0; int z = 0;
        for (i = 0; i < n; i = i + 1) { g[i] = i; s = s + g[i]; }
        return s + %s;
    }
    int main() { return work(60); }
    """

    @pytest.mark.parametrize("policy", list(StackPolicy))
    @pytest.mark.parametrize("tools", [("tquad",), ("quad",),
                                       ("tquad", "quad")])
    @pytest.mark.parametrize("crash", ["*p", "*(p - 8)", "s / z"])
    def test_partial_reports_equal_unfused(self, crash, tools, policy):
        program = build_program(self.GUEST % crash)
        fused, unfused = (_profile(program, jit=jit, tools=tools,
                                   policy=policy) for jit in (True, False))
        assert fused[0] is not None
        assert fused == unfused


class TestTraceFormation:
    def test_traces_follow_calls_and_jumps(self):
        program = assemble("""
        .text
        main: jal f
        halt
        f: li t0, 1
        ret
        """)
        m = Machine(program)
        fn, indices = build_block(m, 0)
        # the trace runs through the jal into the callee, up to the ret
        assert indices == [0, 2, 3]

    def test_trace_stops_on_cycle(self):
        program = assemble(".text\nspin: j spin\n")
        m = Machine(program)
        fn, indices = build_block(m, 0)
        assert indices == [0]
        assert fn(0) == 0  # the jump dispatches back to its own head

    def test_trace_length_capped(self):
        body = "addi t0, t0, 1\n" * (3 * MAX_BLOCK)
        program = assemble(".text\n" + body + "halt\n")
        m = Machine(program)
        fn, indices = build_block(m, 0)
        assert len(indices) == MAX_BLOCK

    def test_compile_count_matches_executed_instructions(self):
        program = KERNELS["mergesort"]()
        fused, _ = _run(program, jit=True)
        unfused, _ = _run(program, jit=False)
        assert fused.compile_count == unfused.compile_count
        assert fused.compile_count <= len(program.instrs)


# ---------------------------------------------------------------- property
@st.composite
def minic_programs(draw):
    """Small random MiniC programs exercising loops, calls and arrays."""
    size = draw(st.sampled_from([4, 8, 16]))
    n_stmts = draw(st.integers(min_value=1, max_value=3))
    stmts = []
    for _ in range(n_stmts):
        kind = draw(st.sampled_from(["fill", "sum", "branch", "call"]))
        if kind == "fill":
            stmts.append(f"for (i = 0; i < {size}; i = i + 1) "
                         f"{{ ga[i] = i * {draw(st.integers(1, 9))}; }}")
        elif kind == "sum":
            stmts.append(f"for (i = 0; i < {size}; i = i + 1) "
                         "{ acc = acc + ga[i]; }")
        elif kind == "branch":
            stmts.append(f"if (acc > {draw(st.integers(0, 50))}) "
                         "{ acc = acc - 1; } else { acc = acc + 2; }")
        else:
            stmts.append("acc = acc + helper(acc);")
    return (f"int ga[{size}];\n"
            "int helper(int v) { return v + 1; }\n"
            "int main() { int i; int acc = 0; "
            + " ".join(stmts) +
            " return acc & 255; }")


class TestPropertyDifferential:
    @given(minic_programs())
    @settings(max_examples=25, deadline=None)
    def test_fused_equals_unfused(self, src):
        program = build_program(src)
        fused, code_f = _run(program, jit=True)
        unfused, code_u = _run(program, jit=False)
        assert code_f == code_u
        assert _state(fused) == _state(unfused)
