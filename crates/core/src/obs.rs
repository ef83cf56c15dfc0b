//! Runtime observability: the metric hub wired through dispatch,
//! settlement, snapshot/federation, and the serving transport.
//!
//! [`power_telemetry::ops`] supplies the primitives (sharded counters,
//! gauges, log2-bucket histograms, the registry, the structured log
//! facade); this module owns the *glue*: one [`ObsHub`] per ecovisor
//! holding pre-registered handles for every load-bearing path, so the
//! hot paths never touch the registry's lock.
//!
//! ## Determinism rules
//!
//! Observability must be invisible to the replay contract
//! (`docs/OBSERVABILITY.md` spells this out; a regression test in the
//! harness enforces it):
//!
//! * metrics are **write-only side channels** — no counter, gauge, or
//!   histogram reading flows into responses, trace bytes, or settlement
//!   arithmetic;
//! * **wall-clock values never leave the registry** — histograms store
//!   durations, and dispatch-side series are labeled by the
//!   deterministic tick index (`core.tick`), never by host time;
//! * the dispatch fast path pays a single thread-local tally (sampling
//!   countdown + pending request count, no atomics); full timing
//!   (batch latency, lock waits, per-kind counts) runs on a
//!   deterministic 1-in-`DISPATCH_SAMPLE` count-based sample, so
//!   instrumentation cost is meant to stay under a 2% hot-path budget
//!   (docs/OBSERVABILITY.md, "Overhead": no row times it alone yet).
//!
//! Attach a hub with [`Ecovisor::attach_obs`](crate::Ecovisor::attach_obs)
//! (the TCP server attaches one automatically at bind); read it back
//! over the wire with the credential-gated v2 `Stats` admin request
//! (`docs/PROTOCOL.md` §11) or `ecoharness stats`.

use std::cell::Cell;
use std::sync::Arc;

use power_telemetry::ops::Registry;
pub(crate) use power_telemetry::ops::{debug, info, warn, Counter, Gauge, Histogram};
pub use power_telemetry::ops::{MetricValue, MetricsSnapshot};

use crate::proto::EnergyRequest;

/// Dispatch batches between sampled full-timing passes. Power of two so
/// the countdown check is branch-predictable; count-based (never
/// wall-clock-based) so sampling itself is deterministic per thread.
pub(crate) const DISPATCH_SAMPLE: u32 = 256;

/// Pre-registered handles for the core (dispatch/settlement/snapshot/
/// federation) paths.
#[derive(Debug)]
pub(crate) struct CoreMetrics {
    /// `dispatch.requests_total` — every request in every batch.
    pub(crate) requests: Arc<Counter>,
    /// `dispatch.batches_total` — sampled ×[`DISPATCH_SAMPLE`].
    pub(crate) batches: Arc<Counter>,
    /// `dispatch.requests.{kind}_total` by [`EnergyRequest::kind_index`]
    /// — sampled ×[`DISPATCH_SAMPLE`].
    pub(crate) by_kind: Vec<Arc<Counter>>,
    /// `dispatch.batch_latency_ns` — whole-batch dispatch latency
    /// (sampled).
    pub(crate) batch_latency: Arc<Histogram>,
    /// `dispatch.shard_lock_wait_ns` — time to acquire the app shard
    /// lock (sampled).
    pub(crate) shard_lock_wait: Arc<Histogram>,
    /// `dispatch.cop_lock_wait_ns` — time to acquire the shared COP
    /// guard (sampled, command batches that touch containers).
    pub(crate) cop_lock_wait: Arc<Histogram>,
    /// `settle.barrier_wait_ns` — time the driver waits for dispatch to
    /// quiesce (outer write-lock acquisition).
    pub(crate) barrier_wait: Arc<Histogram>,
    /// `settle.duration_ns` — one whole `Ecovisor::tick` inside the
    /// barrier: carbon sample, settlement, broadcast hooks, clock advance.
    pub(crate) settle_duration: Arc<Histogram>,
    /// `core.tick` — the deterministic tick index after the last
    /// settlement (the tick-stamp for dispatch-side series).
    pub(crate) tick: Arc<Gauge>,
    /// `snapshot.capture_ns` — full-state capture latency.
    pub(crate) snapshot_capture: Arc<Histogram>,
    /// `snapshot.restore_ns` — full-state restore latency.
    pub(crate) snapshot_restore: Arc<Histogram>,
    /// `federation.collect_ns` — federated tick phase one.
    pub(crate) fed_collect: Arc<Histogram>,
    /// `federation.settle_ns` — federated tick phase two.
    pub(crate) fed_settle: Arc<Histogram>,
}

thread_local! {
    /// Per-thread dispatch fast-path state: `(countdown, pending
    /// requests)`. One TLS access covers both the sampling phase and
    /// exact request accounting — the unsampled path touches nothing
    /// else, which is what keeps the hot-path overhead under the 2%
    /// budget. Shared by every hub on the thread (the pending count is
    /// flushed into whichever hub's counter triggers the sample, which
    /// is always the hub that accumulated it: an ecovisor has at most
    /// one hub, and a thread dispatches into one ecovisor at a time).
    static DISPATCH_TLS: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

impl CoreMetrics {
    fn new(registry: &Registry) -> CoreMetrics {
        CoreMetrics {
            requests: registry.counter("dispatch.requests_total"),
            batches: registry.counter("dispatch.batches_total"),
            by_kind: EnergyRequest::KIND_NAMES
                .iter()
                .map(|kind| registry.counter(&format!("dispatch.requests.{kind}_total")))
                .collect(),
            batch_latency: registry.histogram("dispatch.batch_latency_ns"),
            shard_lock_wait: registry.histogram("dispatch.shard_lock_wait_ns"),
            cop_lock_wait: registry.histogram("dispatch.cop_lock_wait_ns"),
            barrier_wait: registry.histogram("settle.barrier_wait_ns"),
            settle_duration: registry.histogram("settle.duration_ns"),
            tick: registry.gauge("core.tick"),
            snapshot_capture: registry.histogram("snapshot.capture_ns"),
            snapshot_restore: registry.histogram("snapshot.restore_ns"),
            fed_collect: registry.histogram("federation.collect_ns"),
            fed_settle: registry.histogram("federation.settle_ns"),
        }
    }

    /// The dispatch fast path: folds `requests` into this thread's
    /// pending count and advances the sampling countdown — one
    /// thread-local access, no atomics. Returns `Some(pending)` once
    /// every [`DISPATCH_SAMPLE`] calls: the batch that takes the
    /// full-timing slow path, handed the accumulated request count to
    /// flush into [`CoreMetrics::requests`]. (`requests_total` thus
    /// trails the true total by at most one sampling window per
    /// thread.)
    #[inline]
    pub(crate) fn tally(&self, requests: u64) -> Option<u64> {
        DISPATCH_TLS.with(|c| {
            let (countdown, pending) = c.get();
            let pending = pending + requests;
            if countdown == 0 {
                c.set((DISPATCH_SAMPLE - 1, 0));
                Some(pending)
            } else {
                c.set((countdown - 1, pending));
                None
            }
        })
    }
}

/// Pre-registered handles for the serving transport (the serving
/// threads). This layer owns the wall clock: every frame served here is
/// timed at full fidelity — the path is microsecond-scale, so the
/// budget is plentiful.
#[derive(Debug)]
pub(crate) struct TransportMetrics {
    /// `transport.accepts_total` — connections accepted.
    pub(crate) accepts: Arc<Counter>,
    /// `transport.accept_failures_total` — accept errors (fd
    /// exhaustion, peer reset before accept). Counted always, logged
    /// rate-limited.
    pub(crate) accept_failures: Arc<Counter>,
    /// `transport.frames_in_total` — complete frames carved off
    /// receive buffers.
    pub(crate) frames_in: Arc<Counter>,
    /// `transport.bytes_in_total` — raw bytes read off sockets.
    pub(crate) bytes_in: Arc<Counter>,
    /// `transport.socket_reads_total` — `read(2)` calls made to fill
    /// receive buffers (the one that finds a socket dry included), so
    /// frames in ÷ socket reads is frames per read.
    pub(crate) socket_reads: Arc<Counter>,
    /// `transport.turns_total` — turns run: one per readable event of a
    /// connection, however many reads and frames it came to.
    pub(crate) turns: Arc<Counter>,
    /// `transport.frames_out_total` — frames committed to write queues.
    pub(crate) frames_out: Arc<Counter>,
    /// `transport.bytes_out_total` — bytes committed to write queues
    /// (length prefixes included).
    pub(crate) bytes_out: Arc<Counter>,
    /// `transport.socket_writes_total` — `write(2)` calls made to drain
    /// write queues. A turn commits its replies together, so frames out
    /// ÷ socket writes is frames per write.
    pub(crate) socket_writes: Arc<Counter>,
    /// `transport.coalesce_drops_total` — notifications displaced by
    /// the outbox policy while parking under backpressure (a level
    /// event coalesced/evicted rather than queued).
    pub(crate) coalesce_drops: Arc<Counter>,
    /// `transport.serve_latency_ns` — decode→dispatch→encode per frame
    /// (the socket write is per turn, and not in it).
    pub(crate) serve_latency: Arc<Histogram>,
    /// `transport.idle_disconnects_total` — connections reaped by the
    /// idle sweep.
    pub(crate) idle_disconnects: Arc<Counter>,
    /// `transport.conn_errors_total` — connections dropped on protocol
    /// or I/O errors.
    pub(crate) conn_errors: Arc<Counter>,
    /// `transport.mid_frame_closes_total` — peers that disconnected
    /// with a partial frame buffered.
    pub(crate) mid_frame_closes: Arc<Counter>,
}

impl TransportMetrics {
    fn new(registry: &Registry) -> TransportMetrics {
        TransportMetrics {
            accepts: registry.counter("transport.accepts_total"),
            accept_failures: registry.counter("transport.accept_failures_total"),
            frames_in: registry.counter("transport.frames_in_total"),
            bytes_in: registry.counter("transport.bytes_in_total"),
            socket_reads: registry.counter("transport.socket_reads_total"),
            turns: registry.counter("transport.turns_total"),
            frames_out: registry.counter("transport.frames_out_total"),
            bytes_out: registry.counter("transport.bytes_out_total"),
            socket_writes: registry.counter("transport.socket_writes_total"),
            coalesce_drops: registry.counter("transport.coalesce_drops_total"),
            serve_latency: registry.histogram("transport.serve_latency_ns"),
            idle_disconnects: registry.counter("transport.idle_disconnects_total"),
            conn_errors: registry.counter("transport.conn_errors_total"),
            mid_frame_closes: registry.counter("transport.mid_frame_closes_total"),
        }
    }
}

/// One ecovisor's observability hub: the registry plus pre-registered
/// handles for every instrumented path.
///
/// Shared by `Arc`: the ecovisor, the serving context and every
/// connection hold clones; recording is lock-free through the
/// handles, and the registry lock is touched only by
/// [`snapshot`](Self::snapshot) and late registration.
#[derive(Debug)]
pub struct ObsHub {
    registry: Arc<Registry>,
    /// Core-path handles.
    pub(crate) core: CoreMetrics,
    /// Transport-path handles.
    pub(crate) transport: TransportMetrics,
}

impl ObsHub {
    /// A fresh hub with every catalogue metric pre-registered.
    pub fn new() -> Arc<ObsHub> {
        let registry = Arc::new(Registry::new());
        let core = CoreMetrics::new(&registry);
        let transport = TransportMetrics::new(&registry);
        Arc::new(ObsHub {
            registry,
            core,
            transport,
        })
    }

    /// The underlying registry (for ad-hoc metrics beyond the
    /// pre-registered catalogue).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A serializable dump of every metric — the payload of the wire
    /// `Stats` request.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// `true` when the `ECOVISOR_OBS` environment variable asks for
/// observability in paths that default to none (the harness recorder
/// and verifier check this; the TCP server always attaches a hub).
/// Unset, empty, or `0` means off.
pub fn env_enabled() -> bool {
    std::env::var("ECOVISOR_OBS").is_ok_and(|v| !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_preregisters_the_catalogue() {
        let hub = ObsHub::new();
        let snap = hub.snapshot();
        for name in [
            "dispatch.requests_total",
            "dispatch.batch_latency_ns",
            "settle.barrier_wait_ns",
            "settle.duration_ns",
            "transport.socket_reads_total",
            "transport.turns_total",
            "transport.serve_latency_ns",
            "snapshot.capture_ns",
            "federation.collect_ns",
        ] {
            assert!(snap.get(name).is_some(), "missing {name}");
        }
        // One per-kind counter per request kind.
        assert_eq!(hub.core.by_kind.len(), EnergyRequest::KIND_NAMES.len());
    }

    #[test]
    fn sampling_fires_once_per_window_and_conserves_requests() {
        let hub = ObsHub::new();
        // Align to the start of a window, then count one full window.
        while hub.core.tally(0).is_none() {}
        let flushed: Vec<u64> = (0..DISPATCH_SAMPLE)
            .filter_map(|_| hub.core.tally(32))
            .collect();
        // Exactly one sampled batch per window, and the flush carries
        // every request tallied since the previous one.
        assert_eq!(flushed, vec![32 * u64::from(DISPATCH_SAMPLE)]);
    }
}
