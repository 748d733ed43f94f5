"""Differential properties of the parallel sharded-replay pipeline.

For hypothesis-generated MiniC guests:

* ``Machine.snapshot()`` → ``restore()`` round-trips are state-identical at
  arbitrary pause points, and a restored machine retraces the rest of the
  execution exactly;
* profiling with ``jobs ∈ {1, 2, 4}`` produces reports byte-identical
  (rendered tables *and* serialised JSON) to the serial tools, for all
  three profilers, with shard boundaries both on and off slice edges.

Shard replay runs through the inline executor — the identical shard /
seed / merge machinery without process-pool overhead, so hypothesis can
afford many examples; real ``multiprocessing`` is exercised by
``tests/unit/test_parallel.py`` and the scaling benchmark.
"""

from hypothesis import given, settings, strategies as st

from repro.core import TQuadOptions, run_tquad
from repro.gprofsim import run_gprof
from repro.minic import build_program
from repro.parallel import (GprofSpec, QuadSpec, TQuadSpec,
                            parallel_profile)
from repro.quad import run_quad
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json
from repro.vm import InstructionBudgetExceeded, Machine


@st.composite
def guest_programs(draw):
    """A random multi-function MiniC program over small int arrays."""
    n_funcs = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.sampled_from([8, 16, 32]))
    funcs = []
    calls = []
    for f in range(n_funcs):
        body = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            op = draw(st.sampled_from(["fill", "sum", "copy", "scale"]))
            if op == "fill":
                body.append(
                    f"for (i = 0; i < {size}; i = i + 1) "
                    f"{{ ga[i] = i * {draw(st.integers(1, 9))}; }}")
            elif op == "sum":
                body.append(
                    f"for (i = 0; i < {size}; i = i + 1) "
                    f"{{ acc = acc + ga[i]; }}")
            elif op == "copy":
                body.append(
                    f"for (i = 0; i < {size}; i = i + 1) "
                    f"{{ gb[i] = ga[i]; }}")
            else:
                body.append(
                    f"for (i = 0; i < {size}; i = i + 1) "
                    f"{{ gb[i] = gb[i] * {draw(st.integers(1, 5))}; }}")
        funcs.append(
            f"int f{f}() {{ int i; int acc = 0; "
            + " ".join(body) + " return acc; }")
        reps = draw(st.integers(min_value=1, max_value=2))
        calls.extend([f"r = r + f{f}();"] * reps)
    return (f"int ga[{size}]; int gb[{size}];\n"
            + "\n".join(funcs)
            + "\nint main() { int r = 0; " + " ".join(calls)
            + " return r & 255; }")


def _machine_state(m: Machine):
    return (m.icount, m.pc_index, tuple(m.x), tuple(m.f), bytes(m.mem),
            bytes(m.stdout), m.brk, m.exit_code, m.syscall.count)


class TestSnapshotRoundTrip:
    @given(guest_programs(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_restore_is_state_identical_and_resumable(self, src, frac):
        program = build_program(src)
        ref = Machine(program)
        ref.run()
        pause_at = max(1, int(ref.icount * frac))
        m = Machine(program)
        try:
            m.run(max_instructions=pause_at)
        except InstructionBudgetExceeded:
            m.halted = False
        snap = m.snapshot()
        fresh = Machine(program)
        fresh.restore(snap)
        assert _machine_state(fresh) == _machine_state(m)
        fresh.run()
        assert _machine_state(fresh) == _machine_state(ref)


class TestSerialParallelEquivalence:
    @given(guest_programs(),
           st.sampled_from([1, 2, 4]),
           st.sampled_from([97, 100, 1000]),   # interval
           st.booleans())                      # boundaries on slice edges?
    @settings(max_examples=20, deadline=None)
    def test_all_tools_byte_identical(self, src, jobs, interval, align):
        program = build_program(src)
        opts = TQuadOptions(slice_interval=interval)
        serial_t = run_tquad(build_program(src), options=opts)
        serial_q = run_quad(build_program(src))
        serial_g = run_gprof(build_program(src))
        run = parallel_profile(
            program,
            (TQuadSpec(options=opts), QuadSpec(), GprofSpec()),
            jobs=jobs, executor="inline",
            # small fixed quantum so even tiny guests split into shards;
            # align=True snaps boundaries to slice edges, False leaves
            # them mid-slice
            quantum=173 if jobs > 1 else None, align=align)
        pt = run.reports["tquad"]
        pq = run.reports["quad"]
        pg = run.reports["gprof"]
        assert tquad_to_json(serial_t) == tquad_to_json(pt)
        assert serial_t.format_table() == pt.format_table()
        assert quad_to_json(serial_q) == quad_to_json(pq)
        assert serial_q.format_table() == pq.format_table()
        assert flat_to_json(serial_g) == flat_to_json(pg)
        assert serial_g.format_table() == pg.format_table()
        assert serial_g.format_call_graph() == pg.format_call_graph()

    @given(guest_programs())
    @settings(max_examples=10, deadline=None)
    def test_shard_count_does_not_leak_into_report(self, src):
        program = build_program(src)
        opts = TQuadOptions(slice_interval=100)
        runs = [parallel_profile(build_program(src), TQuadSpec(options=opts),
                                 jobs=j, executor="inline", quantum=q,
                                 align=False)
                for j, q in ((2, 119), (4, 311), (3, 997))]
        blobs = {tquad_to_json(r.reports["tquad"]) for r in runs}
        assert len(blobs) == 1
        assert len({r.n_shards for r in runs}) > 1  # genuinely different
