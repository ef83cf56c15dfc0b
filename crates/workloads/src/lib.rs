//! # workloads — application models for the ecovisor evaluation
//!
//! Software models of the applications the paper evaluates (§5). The real
//! applications (PyTorch, NCBI BLAST, Wikipedia-serving web stacks, Spark)
//! are not run here; what the evaluation depends on is each application's
//! *scaling behaviour*, *latency behaviour*, and *failure semantics*, which
//! these models reproduce:
//!
//! * [`scaling`] — speedup curves: linear, synchronization-overhead
//!   (ResNet-34 training), and central-queue bottleneck (BLAST-470).
//! * [`batch`] — a generic elastic batch job driven by a scaling curve.
//!   The key modeling decision: synchronization overhead manifests as
//!   *idle worker time* (per-container demand = speedup/cores), so busy
//!   cores always do useful work and dynamic energy is scale-invariant —
//!   exactly why the paper's Wait&Scale carbon grows only through idle
//!   power as the scale factor rises.
//! * [`mltrain`] / [`blast`] — the two §5.1 applications, calibrated to
//!   the paper's scaling observations (ML sync delays past 2×; BLAST
//!   linear to 3×, queue-server bottleneck at 4×).
//! * [`web`] — a load-balanced web service with an M/M/c (Erlang-C) p95
//!   latency model and backlog-based overload behaviour (§5.2, §5.3).
//! * [`spark`] — a delay-tolerant Spark-like job with HDFS-style
//!   checkpointing; uncheckpointed work is lost when workers are killed
//!   (§5.3).
//! * [`parallel`] — the §5.4 synthetic parallel job: barrier phases with
//!   I/O idleness, injected stragglers, and replica-based mitigation.
//! * [`traces`] — diurnal request-rate generators standing in for the
//!   Wikipedia trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod blast;
pub mod checkpoint;
pub mod mltrain;
pub mod parallel;
pub mod scaling;
pub mod spark;
pub mod traces;
pub mod web;
