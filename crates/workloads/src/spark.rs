//! Delay-tolerant Spark-like batch job with checkpointing.
//!
//! Models the §5.3 application: "an image preprocessing and feature
//! extraction task written using pyspark ... we checkpoint completed
//! operations in HDFS, and wait until the next morning to resume Spark
//! computations. Incomplete workers are terminated without checkpointing
//! every evening and their in-memory results are lost."

use simkit::time::{SimDuration, SimTime};

use crate::checkpoint::CheckpointStore;

/// A Spark-like job: linear scaling, periodic checkpoints, and loss of
/// uncommitted work when its workers are killed.
#[derive(Debug, Clone, PartialEq)]
pub struct SparkJob {
    total_work: f64,
    /// Durable progress (checkpointed).
    committed: f64,
    /// In-memory progress since the last checkpoint.
    volatile: f64,
    checkpoint_interval: SimDuration,
    since_checkpoint: SimDuration,
    store: CheckpointStore,
    /// Work lost to kills, cumulative (diagnostics).
    lost: f64,
}

impl SparkJob {
    /// Creates a job with `total_work` core-hours, checkpointing every
    /// `checkpoint_interval` of wall-clock progress time.
    ///
    /// # Panics
    ///
    /// Panics if `total_work` is not positive or the interval is zero.
    pub fn new(total_work: f64, checkpoint_interval: SimDuration) -> Self {
        assert!(total_work > 0.0, "work must be positive");
        assert!(
            !checkpoint_interval.is_zero(),
            "checkpoint interval must be non-zero"
        );
        Self {
            total_work,
            committed: 0.0,
            volatile: 0.0,
            checkpoint_interval,
            since_checkpoint: SimDuration::ZERO,
            store: CheckpointStore::new(),
            lost: 0.0,
        }
    }

    /// Durable (checkpointed) progress.
    pub fn committed(&self) -> f64 {
        self.committed
    }

    /// In-memory progress not yet checkpointed.
    pub fn volatile(&self) -> f64 {
        self.volatile
    }

    /// Work lost to worker kills so far.
    pub fn lost(&self) -> f64 {
        self.lost
    }

    /// The durable checkpoint store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// `true` once all work is durably committed.
    pub fn is_done(&self) -> bool {
        self.committed >= self.total_work - 1e-9
    }

    /// Completion fraction of durable progress.
    pub fn progress(&self) -> f64 {
        (self.committed / self.total_work).min(1.0)
    }

    /// Advances by one tick with the granted effective cores. Work
    /// accumulates in memory and is checkpointed every interval; the
    /// final sliver is checkpointed immediately on completion.
    pub fn advance(&mut self, effective_cores: f64, now: SimTime, dt: SimDuration) -> f64 {
        if self.is_done() {
            return 0.0;
        }
        let remaining = self.total_work - self.committed - self.volatile;
        let done = (effective_cores.max(0.0) * dt.as_hours()).min(remaining.max(0.0));
        self.volatile += done;
        self.since_checkpoint += dt;

        let finished = self.committed + self.volatile >= self.total_work - 1e-9;
        if finished || self.since_checkpoint >= self.checkpoint_interval {
            self.checkpoint(now + dt);
        }
        done
    }

    /// Forces a checkpoint: volatile work becomes durable.
    fn checkpoint(&mut self, at: SimTime) {
        self.committed += self.volatile;
        self.volatile = 0.0;
        self.since_checkpoint = SimDuration::ZERO;
        self.store.commit(at, self.committed);
    }

    /// Workers were killed without checkpointing (the evening shutdown):
    /// in-memory results are lost.
    pub fn lose_uncommitted(&mut self) -> f64 {
        let lost = self.volatile;
        self.lost += lost;
        self.volatile = 0.0;
        self.since_checkpoint = SimDuration::ZERO;
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minute() -> SimDuration {
        SimDuration::from_minutes(1)
    }

    #[test]
    fn checkpoints_every_interval() {
        let mut job = SparkJob::new(100.0, SimDuration::from_minutes(30));
        let mut now = SimTime::EPOCH;
        for _ in 0..60 {
            job.advance(4.0, now, minute());
            now += minute();
        }
        // Two checkpoints in an hour at a 30-minute cadence.
        assert_eq!(job.store().len(), 2);
        assert!((job.committed() - 4.0).abs() < 1e-9);
        assert_eq!(job.volatile(), 0.0);
    }

    #[test]
    fn kill_loses_only_uncommitted_work() {
        let mut job = SparkJob::new(100.0, SimDuration::from_minutes(30));
        let mut now = SimTime::EPOCH;
        // 45 minutes: one checkpoint at 30 min, 15 min volatile.
        for _ in 0..45 {
            job.advance(4.0, now, minute());
            now += minute();
        }
        let committed_before = job.committed();
        let lost = job.lose_uncommitted();
        assert!((lost - 1.0).abs() < 1e-9, "15 min × 4 cores = 1 core-hour");
        assert_eq!(job.committed(), committed_before);
        assert_eq!(job.volatile(), 0.0);
        assert!((job.lost() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn final_sliver_checkpoints_immediately() {
        let mut job = SparkJob::new(1.0, SimDuration::from_hours(4));
        let mut now = SimTime::EPOCH;
        let mut ticks = 0;
        while !job.is_done() {
            job.advance(4.0, now, minute());
            now += minute();
            ticks += 1;
            assert!(ticks < 1000, "runaway");
        }
        assert_eq!(ticks, 15, "1 core-hour at 4 cores = 15 minutes");
        assert!(job.is_done());
        assert_eq!(job.volatile(), 0.0);
    }

    #[test]
    fn zero_cores_no_progress_no_checkpoint_spam() {
        let mut job = SparkJob::new(10.0, SimDuration::from_minutes(5));
        let mut now = SimTime::EPOCH;
        for _ in 0..20 {
            job.advance(0.0, now, minute());
            now += minute();
        }
        // Checkpoints fire on cadence but commit zero work.
        assert_eq!(job.committed(), 0.0);
        assert_eq!(job.progress(), 0.0);
    }

    #[test]
    fn done_jobs_ignore_advance() {
        let mut job = SparkJob::new(0.5, SimDuration::from_minutes(5));
        job.advance(30.0, SimTime::EPOCH, SimDuration::from_hours(1));
        assert!(job.is_done());
        assert_eq!(job.advance(30.0, SimTime::EPOCH, minute()), 0.0);
    }
}
