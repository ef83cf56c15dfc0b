//! Tick-cadenced trace replay and deterministic digests.
//!
//! A [`ProtocolTrace`] recorded from a live run carries everything
//! needed to reproduce that run against a freshly built ecovisor: every
//! request batch, stamped with the tick it executed in, plus the event
//! frames taken for push delivery after each settlement. This module is
//! the replay engine the scenario harness (`crates/harness`) builds on:
//!
//! * [`Ecovisor::replay_trace`] re-executes a trace at its recorded tick
//!   cadence — dispatch the batches stamped for each tick, settle,
//!   regenerate that settlement's event frames, advance. This is the
//!   **one** replay loop;
//! * [`ShardedEcovisor::replay_trace`] runs that same loop on a wrapped
//!   ecovisor under a single hold of the settlement barrier, so a replay
//!   is atomic with respect to any concurrent dispatch on the wrapper;
//! * [`digest`] folds any serializable value to a stable 64-bit
//!   fingerprint via its canonical binary encoding, so "bit-identical
//!   settlement" is a one-integer comparison an artifact can carry.
//!
//! Replaying a recorded trace on a fresh build and comparing the
//! [`ReplayReport`] and totals (or their digests) with the recording is
//! the determinism contract the scenario corpus enforces: per-app state
//! only changes via dispatched batches between settlements, so a replay
//! must settle bit-identical totals and regenerate byte-identical push
//! traffic. (What the wrapper adds under *concurrent* dispatch is held
//! by `tests/shard_parallel.rs` and `ecoharness verify --transport`.)
//!
//! ## Example
//!
//! ```
//! use ecovisor::proto::{EnergyRequest, RequestBatch};
//! use ecovisor::{EcovisorBuilder, EnergyShare};
//! use simkit::units::Watts;
//!
//! // Record a tiny run …
//! let mut eco = EcovisorBuilder::new().build();
//! let app = eco.register_app("tenant", EnergyShare::grid_only()).unwrap();
//! eco.enable_protocol_trace();
//! eco.dispatch_batch(&RequestBatch::new(
//!     app,
//!     vec![EnergyRequest::SetBatteryChargeRate { rate: Watts::new(5.0) }],
//! ));
//! eco.begin_tick();
//! eco.settle_tick();
//! eco.advance_clock();
//! let trace = eco.take_protocol_trace().unwrap();
//! let recorded = eco.app_totals(app).unwrap();
//!
//! // … and replay it on a fresh twin: totals are bit-identical.
//! let mut twin = EcovisorBuilder::new().build();
//! twin.register_app("tenant", EnergyShare::grid_only()).unwrap();
//! let report = twin.replay_trace(&trace, 1);
//! assert_eq!(report.ticks, 1);
//! assert_eq!(twin.app_totals(app).unwrap(), recorded);
//! assert_eq!(ecovisor::digest(&recorded), ecovisor::digest(&twin.app_totals(app).unwrap()));
//! ```

use std::sync::atomic::Ordering;

use crate::dispatch::ProtocolTrace;
use crate::ecovisor::Ecovisor;
use crate::proto::{EventFrame, ResponseBatch};
use crate::shard::ShardedEcovisor;

/// What a tick-cadenced replay produced: the raw material for asserting
/// that a run reproduced bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Settlement ticks executed.
    pub ticks: u64,
    /// One response batch per replayed request batch, in trace order.
    /// (Responses are recomputed, not recorded — comparing them across
    /// replays checks query determinism, too.)
    pub responses: Vec<ResponseBatch>,
    /// Event frames regenerated after each settlement, apps in id order
    /// within a tick. On a faithful replay this equals the recorded
    /// [`ProtocolTrace::events`] sequence.
    pub frames: Vec<EventFrame>,
}

impl ReplayReport {
    /// Total notifications across the regenerated frames.
    pub fn event_count(&self) -> usize {
        self.frames.iter().map(|f| f.events.len()).sum()
    }
}

impl Ecovisor {
    /// Replays a recorded trace at its recorded tick cadence.
    ///
    /// For each of `ticks` settlement ticks: dispatches every trace
    /// entry stamped at or before the tick (in trace order), runs
    /// `begin_tick`/`settle_tick`, takes each app's event frame (apps in
    /// id order — the order the recording harness and the transport's
    /// broadcast hook use), and advances the clock. Entries stamped
    /// after the final settlement (e.g. post-run polls) are dispatched
    /// at the end.
    ///
    /// Protocol tracing is suspended for the duration, so replaying
    /// never re-records, and regenerated event frames are returned
    /// rather than appended to any live trace.
    pub fn replay_trace(&mut self, trace: &ProtocolTrace, ticks: u64) -> ReplayReport {
        self.replay_trace_from(trace, 0, ticks)
    }

    /// Replays only the tail of a trace, picking up at `start_tick` —
    /// the checkpoint-resume form of [`Ecovisor::replay_trace`].
    ///
    /// The ecovisor must already hold the state the original run had
    /// entering `start_tick` (i.e. a snapshot captured after settling
    /// tick `start_tick - 1` has been [applied](Ecovisor::apply_snapshot)).
    /// Entries stamped before `start_tick` are skipped — their effects
    /// are already part of the restored state — and the settlement loop
    /// runs ticks `start_tick..ticks`. [`ReplayReport::ticks`] counts
    /// only the ticks actually executed.
    pub fn replay_trace_from(
        &mut self,
        trace: &ProtocolTrace,
        start_tick: u64,
        ticks: u64,
    ) -> ReplayReport {
        let was_tracing = self.tracing.swap(false, Ordering::Relaxed);
        let mut entries = trace
            .entries
            .iter()
            .filter(|e| e.tick >= start_tick)
            .peekable();
        let mut responses = Vec::with_capacity(trace.entries.len());
        let mut frames = Vec::new();
        for tick in start_tick..ticks {
            while entries.peek().is_some_and(|e| e.tick <= tick) {
                let entry = entries.next().expect("peeked");
                responses.push(self.dispatch_batch(&entry.batch));
            }
            self.begin_tick();
            self.settle_tick();
            for app in self.app_ids() {
                frames.extend(self.take_event_frame(app));
            }
            self.advance_clock();
        }
        for entry in entries {
            responses.push(self.dispatch_batch(&entry.batch));
        }
        self.tracing.store(was_tracing, Ordering::Relaxed);
        ReplayReport {
            ticks: ticks.saturating_sub(start_tick),
            responses,
            frames,
        }
    }
}

impl ShardedEcovisor {
    /// Replays a recorded trace on the wrapped ecovisor: the whole
    /// [`Ecovisor::replay_trace`] runs under **one hold of the settlement
    /// barrier**, so no concurrent dispatch can interleave between a
    /// replay's batches or settlements.
    pub fn replay_trace(&self, trace: &ProtocolTrace, ticks: u64) -> ReplayReport {
        self.replay_trace_from(trace, 0, ticks)
    }

    /// Replays only the tail of a trace, picking up at `start_tick` —
    /// [`Ecovisor::replay_trace_from`] under one hold of the settlement
    /// barrier.
    pub fn replay_trace_from(
        &self,
        trace: &ProtocolTrace,
        start_tick: u64,
        ticks: u64,
    ) -> ReplayReport {
        self.with(|eco| eco.replay_trace_from(trace, start_tick, ticks))
    }
}

/// A stable 64-bit fingerprint of any serializable value: FNV-1a over
/// the value's canonical [`serde::binary`] encoding.
///
/// Floats contribute their exact little-endian IEEE-754 bit patterns,
/// so two values digest equal **iff** they are bit-identical — the
/// comparison the scenario corpus stores per artifact ("these totals,
/// these event frames") without shipping a second copy of the data.
pub fn digest<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    fnv1a(&serde::binary::to_bytes(value))
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_discriminating() {
        let a = vec![1.0_f64, 2.0, 3.0];
        let b = vec![1.0_f64, 2.0, 3.0000000001];
        assert_eq!(digest(&a), digest(&a));
        assert_ne!(digest(&a), digest(&b));
        // Known FNV-1a vectors over the raw encoding keep the digest
        // honest across refactors of the hash itself.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
