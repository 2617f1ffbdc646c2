"""Exception hierarchy for the HyVE reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Malformed graph data (out-of-range vertex ids, negative counts...)."""


class PartitionError(ReproError):
    """Invalid partitioning request (e.g. zero intervals)."""


class ConfigError(ReproError):
    """Invalid architecture or device configuration."""


class MemoryModelError(ReproError):
    """Device model cannot satisfy the requested operating point."""


class DynamicGraphError(ReproError):
    """Invalid dynamic-graph update (unknown edge, deleted vertex...)."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its iteration cap."""


class SweepPointError(ReproError):
    """One design-space point failed to evaluate (timeout, device-model
    error...); carries the underlying cause as ``__cause__``."""


class VerificationError(ReproError):
    """A differential-conformance oracle found a mismatch between two
    execution paths that promise identical results (see
    :mod:`repro.verify`), or a repro file could not be replayed."""


class ShardError(ReproError):
    """An on-disk shard store cannot be written or trusted — a second
    write into a write-once directory, a torn or truncated manifest,
    data files whose sizes disagree with the manifest, or a checksum /
    fingerprint mismatch (see :mod:`repro.graph.shards`)."""


class StoreError(ReproError):
    """The durable result store (:mod:`repro.perf.store`) cannot satisfy
    a request — unopenable database, schema mismatch, invalid budget."""


class StreamError(ReproError):
    """Invalid streaming-update usage — a malformed ``hyve-updates-v1``
    log (bad schema tag, non-monotonic timestamps, out-of-range vertex
    ids), a delete with no matching open edge, or a query for an
    algorithm the stream engine was not asked to maintain (see
    :mod:`repro.dynamic.stream`)."""

