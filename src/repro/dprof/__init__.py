"""DProf: a data-oriented cache profiler (the paper's contribution).

DProf attributes cache misses to *data types* instead of code locations.
It collects two kinds of raw data (Section 5):

- **access samples** from the IBS hardware: randomly tagged instructions
  with their data address, cache level served, and latency, resolved to a
  (type, offset) through the allocator (:mod:`repro.dprof.access_sampler`);
- **object access histories** from debug registers: complete traces of
  every instruction touching a watched slice of one object, from
  allocation to free (:mod:`repro.dprof.history`).

It combines them into **path traces** -- per (type, execution path)
aggregates of ips, CPU transitions, offsets, hit probabilities, and
latencies (:mod:`repro.dprof.pathtrace`) -- and derives four views
(Section 3): the data profile, miss classification, working set, and data
flow views (:mod:`repro.dprof.views`).

Entry point: :class:`repro.dprof.profiler.DProf`, re-exported with the
rest of the public surface by :mod:`repro.api`.
"""
