"""Multipass by re-execution: the oracle for :func:`profile_passes`.

One instrumented run per slice interval, each on a freshly built guest.
:func:`repro.core.profile_passes` instead captures once at the gcd of the
intervals and sweeps the capture.
"""

from __future__ import annotations

from repro.core import MultiPassResult, TQuadOptions, run_tquad


def reexecute_passes(build, intervals: list[int], *,
                     options: TQuadOptions | None = None,
                     max_instructions: int | None = None
                     ) -> MultiPassResult:
    """tQUAD reports for ``intervals``, one VM run each.

    ``build()`` returns a fresh ``(program, fs)`` pair per call;
    ``options`` provides the non-interval settings.
    """
    base = options or TQuadOptions()
    reports = {}
    for interval in intervals:
        program, fs = build()
        opts = TQuadOptions(slice_interval=interval, stack=base.stack,
                            exclude_libraries=base.exclude_libraries,
                            kernels=base.kernels)
        reports[interval] = run_tquad(program, fs=fs, options=opts,
                                      max_instructions=max_instructions)
    return MultiPassResult(reports=reports)
