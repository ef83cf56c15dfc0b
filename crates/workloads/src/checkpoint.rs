//! Durable checkpoint store (HDFS stand-in).
//!
//! The §5.3 Spark job "checkpoint\[s\] completed operations in the Hadoop
//! Distributed File System (HDFS)" so that overnight shutdowns only lose
//! uncommitted in-memory work. [`CheckpointStore`] models the durable
//! side: append-only snapshots of committed progress.

use serde::{Deserialize, Serialize};

use simkit::time::SimTime;

/// One durable snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Checkpoint {
    /// When the checkpoint was written.
    at: SimTime,
    /// Cumulative committed work at that instant (core-hours).
    committed_work: f64,
}

/// Append-only durable store of progress checkpoints.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckpointStore {
    checkpoints: Vec<Checkpoint>,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Writes a snapshot. Committed work must be monotone.
    ///
    /// # Panics
    ///
    /// Panics if `committed_work` regresses (checkpoints are cumulative).
    pub(crate) fn commit(&mut self, at: SimTime, committed_work: f64) {
        if let Some(last) = self.checkpoints.last() {
            assert!(
                committed_work >= last.committed_work - 1e-9,
                "committed work must not regress"
            );
        }
        self.checkpoints.push(Checkpoint { at, committed_work });
    }

    /// Latest durable progress (0 before any checkpoint).
    pub fn latest_committed(&self) -> f64 {
        self.checkpoints
            .last()
            .map(|c| c.committed_work)
            .unwrap_or(0.0)
    }

    /// Number of checkpoints written.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// `true` when nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_recover() {
        let mut store = CheckpointStore::new();
        assert_eq!(store.latest_committed(), 0.0);
        store.commit(SimTime::from_secs(60), 1.5);
        store.commit(SimTime::from_secs(120), 3.0);
        assert_eq!(store.latest_committed(), 3.0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    #[should_panic(expected = "regress")]
    fn regression_rejected() {
        let mut store = CheckpointStore::new();
        store.commit(SimTime::from_secs(60), 2.0);
        store.commit(SimTime::from_secs(120), 1.0);
    }

    #[test]
    fn equal_progress_allowed() {
        let mut store = CheckpointStore::new();
        store.commit(SimTime::from_secs(60), 2.0);
        store.commit(SimTime::from_secs(120), 2.0);
        assert_eq!(store.len(), 2);
    }
}
