"""Reference implementations the differential tests compare against.

Each oracle is the straightforward per-access algorithm, written as a
small pintool on the public :mod:`repro.pin` API and the report classes:

* :mod:`.quad` — QUAD as a per-byte ``dict``/``set`` walk (the oracle for
  the paged shadow of :mod:`repro.quad.shadow`);
* :mod:`.tquad` — tQUAD's per-event ``IncreaseRead``/``IncreaseWrite``
  routine of the paper's Figs 3–5 (the oracle for the recording path of
  :mod:`repro.core.recording`);
* :mod:`.multipass` — one instrumented run per slice interval (the oracle
  for :func:`repro.core.profile_passes`, which captures once and sweeps).

The production tools record and aggregate in bulk; these oracles do the
attribution work on every access, so they are slow and obviously right.
Some benchmark gates time the production path against them.
"""
