"""Parallel sharded replay: checkpointed multi-core profiling.

The execution is deterministic and the analyses decompose over time, so a
profile can be computed as: one cheap *checkpoint pass* recording VM
snapshots at shard boundaries, then independent *replays* of each shard
under the full analysis stack in worker processes, then an exact *merge*
of the per-shard results.  The merged reports are byte-identical to the
serial tools' output — the differential tests in
``tests/property/test_prop_parallel.py`` and the scaling benchmark's
assertions hold the pipeline to that.

Workers are supervised (:mod:`repro.parallel.supervise`): crashes, hangs
past a heartbeat deadline, and torn result payloads cost bounded retries
— and at worst an in-process replay of the affected shard — never the
run, and never byte-exactness.
"""

from .checkpoint import CheckpointTracer, ShardSpec, iter_shards
from .merge import merge_gprof, merge_quad, merge_tquad
from .run import ParallelRun, parallel_profile
from .supervise import (DEFAULT_DEADLINE, DEFAULT_MAX_RETRIES,
                        HEARTBEAT_INTERVAL, Supervisor)
from .worker import (GprofSpec, QuadSpec, ShardPagedQuadTool, ShardResult,
                     ShardRunner, ToolSpec, TQuadSpec, execute_shard)

__all__ = [
    "parallel_profile", "ParallelRun",
    "TQuadSpec", "QuadSpec", "GprofSpec", "ToolSpec",
    "iter_shards", "ShardSpec", "CheckpointTracer",
    "execute_shard", "ShardRunner", "ShardResult", "ShardPagedQuadTool",
    "merge_tquad", "merge_quad", "merge_gprof",
    "Supervisor", "DEFAULT_DEADLINE", "DEFAULT_MAX_RETRIES",
    "HEARTBEAT_INTERVAL",
]
