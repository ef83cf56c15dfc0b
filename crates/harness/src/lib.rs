//! # ecoharness — the scenario harness
//!
//! Turns simulated multi-tenant days into **first-class, versioned
//! artifacts**: a [`ScenarioSpec`] describes a seeded day (physical
//! world + carbon signal + N workload/policy tenants), [`record()`](record()) runs
//! it tick by tick ([`Ecovisor::tick`](ecovisor::Ecovisor::tick)) with
//! protocol tracing on and packages the result as a
//! [`ScenarioArtifact`] (spec + complete wire trace + expected
//! totals/digests), and [`verify()`](verify()) proves a build still replays the
//! artifact **bit-identically**, whichever of the two file encodings
//! carried it.
//!
//! The committed `corpus/` directory holds twelve recorded days, each
//! re-recorded from the spec it embeds by `ecoharness record`;
//! `ecoharness verify corpus/` is the standing regression net run by
//! CI, and the `sim-day` workload of `benchmark/` replays the
//! thousand-tenants day as the replay-throughput benchmark for perf
//! work.
//!
//! Artifacts can additionally embed **checkpoints** — full
//! [`ecovisor::Snapshot`] captures taken mid-run
//! ([`record_with_checkpoints`], `ecoharness record --checkpoint-every
//! N`). The verifier restores every checkpoint and replays the rest of
//! the trace against it, and [`resume`] (`ecoharness record --from
//! ARTIFACT@TICK`) starts a *new* recording from a checkpoint: fresh
//! drivers against the restored warm state — a mid-day harness start.
//!
//! ## Layers
//!
//! 1. **Spec** ([`ScenarioSpec`]): the serializable scenario vocabulary,
//!    composing existing pieces — [`carbon_intel`] regions,
//!    [`energy_system`] solar/battery, [`workloads`] generators,
//!    [`carbon_policies`] controllers.
//! 2. **Recorder/verifier** ([`record()`](record())/[`verify()`](verify())): deterministic
//!    record → replay → compare, built on
//!    [`Ecovisor::replay_trace_from`](ecovisor::Ecovisor::replay_trace_from) and
//!    [`ecovisor::digest`].
//! 3. **Fuzzer** ([`fuzz`]): seeded generation over the whole spec
//!    space, every candidate pushed through the full verify matrix,
//!    failures shrunk to minimal replayable reproducers; plus soak days:
//!    long generated days with credential churn, replayed live.
//! 4. **CLI** (`ecoharness`): `record` / `verify` / `fuzz` / `stats` /
//!    `diff` over artifact files (see `docs/HARNESS.md`).
//!
//! ## Example
//!
//! ```
//! use ecoharness::{record, verify, ScenarioArtifact};
//!
//! // Shrink a committed day for a quick in-process round trip.
//! let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
//! let (day, _) = ScenarioArtifact::load(&corpus.join("budget-exhaustion.scn.json")).unwrap();
//! let mut spec = day.spec;
//! spec.ticks = 8;
//! let artifact = record(&spec).unwrap();
//! let report = verify(&artifact).unwrap();
//! assert!(report.passed(), "{:?}", report.failures());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod error;
pub mod fuzz;
mod record;
mod scenario;
mod spec;
mod verify;

pub use artifact::{
    artifacts_in_dir, codec_name, is_artifact_path, AppOutcome, Checkpoint, ExpectedOutcome,
    ScenarioArtifact, BINARY_EXT, JSON_EXT,
};
pub use error::HarnessError;
pub use record::{
    record, record_observed, record_resumed, record_with_checkpoints, resume, resumed_spec,
};
pub use scenario::build_ecovisor;
pub use spec::{
    CarbonSpec, CredentialRotation, CredentialSpec, DriverSpec, JobSpec, MigrationPlan,
    RestorePlan, ScenarioSpec, ScriptPhase, SolarSpec, TenantSpec, SPEC_FORMAT,
};
pub use verify::{verify, verify_federated, verify_transport, Check, VerifyReport};
