"""End-to-end serving benchmark: pinned workloads, wall-clock metrics,
and an outside-in per-layer trace.  See README.md in this directory."""
