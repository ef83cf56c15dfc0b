//! Recording a scenario into a replayable artifact.
//!
//! The recorder materializes a [`ScenarioSpec`] and runs its tenants'
//! drivers in a [`Simulation`] — the one driver loop — for the spec's
//! tick count with protocol tracing enabled. The loop takes each app's
//! event frame between settlement and the clock's advance, exactly where
//! the server's broadcast hook runs, so the frames land in the trace.
//! Every request the drivers issue travels through their batching
//! clients into `dispatch_batch`, so the trace captures the day's
//! complete wire traffic. What is the recorder's own is around that
//! loop: the base restore of a continuation, the trace, checkpoints and
//! packaging.
//!
//! Determinism contract: a spec is a pure function of its seeds, so
//! recording the same spec twice yields byte-identical artifacts, and
//! replaying the trace against a freshly built ecovisor reproduces the
//! recorded totals and event frames bit-for-bit (that second half is
//! [`crate::verify()`](crate::verify())'s job).

use ecovisor::{digest, Simulation};

use crate::artifact::{AppOutcome, Checkpoint, ExpectedOutcome, ScenarioArtifact, ARTIFACT_FORMAT};
use crate::error::HarnessError;
use crate::scenario::{build_drivers, build_ecovisor};
use crate::spec::ScenarioSpec;

/// Records `spec` into an artifact: runs the full day with tracing on,
/// then packages the trace with the expected outcome.
///
/// # Errors
///
/// [`HarnessError::Spec`] / [`HarnessError::Ecovisor`] when the spec
/// cannot be materialized.
pub fn record(spec: &ScenarioSpec) -> Result<ScenarioArtifact, HarnessError> {
    record_with_checkpoints(spec, None)
}

/// [`record`], additionally embedding a [`Checkpoint`] after every
/// `every` ticks (and never at the very end of the run, where there is
/// no remainder left to restore into).
///
/// Checkpoints are captured right after the clock advances — the same
/// tick boundary the transport's `Snapshot` admin request observes — so
/// each one is a consistent image the verifier can restore and replay
/// the rest of the trace against.
/// Capturing does not perturb the run: the trace, totals, and digests
/// are identical to a checkpoint-free recording of the same spec.
///
/// # Errors
///
/// [`HarnessError::Spec`] when `every` is zero, plus everything
/// [`record`] can fail with.
pub fn record_with_checkpoints(
    spec: &ScenarioSpec,
    every: Option<u64>,
) -> Result<ScenarioArtifact, HarnessError> {
    drive(spec, None, every, None)
}

/// [`record`] with a caller-supplied observability hub attached for the
/// whole run — the instrumented twin of a plain recording.
///
/// The artifact must be **byte-identical** to [`record`]'s: metrics are
/// write-only side channels and never reach trace bytes, totals, or
/// digests (`tests/obs_determinism.rs` enforces this at max log
/// verbosity). The hub is handed in rather than created here so the
/// caller can read the populated registry after the run.
///
/// # Errors
///
/// Everything [`record`] can fail with.
pub fn record_observed(
    spec: &ScenarioSpec,
    hub: std::sync::Arc<ecovisor::obs::ObsHub>,
) -> Result<ScenarioArtifact, HarnessError> {
    drive(spec, None, None, Some(hub))
}

/// What every `record*` entry point runs: builds the world (seeded with
/// `base` when the recording is a continuation), hands the drivers to a
/// traced [`Simulation`], steps it from the base's tick (or 0) to the
/// spec's horizon with checkpoints, and packages the trace.
fn drive(
    spec: &ScenarioSpec,
    base: Option<&Checkpoint>,
    every: Option<u64>,
    hub: Option<std::sync::Arc<ecovisor::obs::ObsHub>>,
) -> Result<ScenarioArtifact, HarnessError> {
    if every == Some(0) {
        return Err(HarnessError::Spec(
            "checkpoint interval must be at least one tick".into(),
        ));
    }
    let start = match base {
        None => 0,
        Some(base) if base.tick < spec.ticks => base.tick,
        Some(base) => {
            return Err(HarnessError::Spec(format!(
                "base checkpoint at tick {} leaves no remainder of the {}-tick horizon",
                base.tick, spec.ticks
            )))
        }
    };
    let (mut eco, ids) = build_ecovisor(spec)?;
    if let Some(base) = base {
        eco.apply_snapshot(&base.decode()?)
            .map_err(|e| HarnessError::Spec(format!("base checkpoint does not restore: {e}")))?;
    }
    if let Some(hub) = hub {
        eco.attach_obs(hub);
    }
    eco.enable_protocol_trace();

    // on_start before the first tick (launch the initial fleets — against
    // the warm cluster, for a continuation); this traffic records at the
    // start tick, ahead of its settlement.
    let mut sim = Simulation::new(eco);
    for (&id, driver) in ids.iter().zip(build_drivers(spec)?) {
        sim.adopt(id, driver)?;
    }

    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    for tick in start..spec.ticks {
        sim.step();
        if every.is_some_and(|n| (tick + 1).is_multiple_of(n)) && tick + 1 < spec.ticks {
            checkpoints.push(Checkpoint::new(&sim.eco_mut().snapshot()));
        }
    }

    Ok(package(
        spec.clone(),
        sim.eco_mut(),
        &ids,
        checkpoints,
        base.cloned(),
    )?)
}

/// The spec of the recording that continues `parent` from a checkpoint
/// at `tick`: same world, same tenants, same horizon — renamed (a
/// `-resumed` suffix) so the continuation artifact can sit in the same
/// corpus directory as its parent.
pub fn resumed_spec(parent: &ScenarioSpec, tick: u64) -> ScenarioSpec {
    let mut spec = parent.clone();
    spec.name = format!("{}-resumed", parent.name);
    spec.description = format!(
        "{} — resumed from the embedded checkpoint at tick {tick} \
         (hour {}), fresh drivers against the restored mid-day state",
        parent.description,
        tick * parent.tick_minutes / 60
    );
    spec
}

/// Resumes a recording from the checkpoint `artifact` embeds at `tick`:
/// the mid-day harness start. The ecovisor is rebuilt from the spec,
/// seeded with the checkpointed state, and **fresh** drivers run the
/// rest of the horizon against it — modeling a new harness process
/// attaching to a warm system (restored battery charge, accumulated
/// totals, carbon/solar cursors mid-trace) rather than replaying the
/// parent's tail.
///
/// # Errors
///
/// [`HarnessError::Spec`] when no checkpoint exists at `tick`, plus
/// everything [`record_resumed`] can fail with.
pub fn resume(artifact: &ScenarioArtifact, tick: u64) -> Result<ScenarioArtifact, HarnessError> {
    let base = artifact
        .checkpoints
        .iter()
        .find(|c| c.tick == tick)
        .ok_or_else(|| {
            let available: Vec<u64> = artifact.checkpoints.iter().map(|c| c.tick).collect();
            HarnessError::Spec(format!(
                "`{}` has no checkpoint at tick {tick} (available: {available:?})",
                artifact.spec.name
            ))
        })?;
    record_resumed(&resumed_spec(&artifact.spec, tick), base)
}

/// Records the continuation of a run: restores `base` into a freshly
/// built ecovisor and drives fresh drivers from `base.tick` to the
/// spec's horizon. Deterministic in `(spec, base)`, so a committed
/// resumed artifact can be drift-checked by re-recording it.
///
/// # Errors
///
/// [`HarnessError::Spec`] when the base lies at or beyond the spec's
/// horizon or its snapshot fails to decode/restore, plus the usual
/// materialization failures.
pub fn record_resumed(
    spec: &ScenarioSpec,
    base: &Checkpoint,
) -> Result<ScenarioArtifact, HarnessError> {
    drive(spec, Some(base), None, None)
}

/// Packages a finished run into an artifact.
fn package(
    spec: ScenarioSpec,
    eco: &mut ecovisor::Ecovisor,
    ids: &[ecovisor::AppId],
    checkpoints: Vec<Checkpoint>,
    base: Option<Checkpoint>,
) -> Result<ScenarioArtifact, ecovisor::EcovisorError> {
    let trace = eco
        .take_protocol_trace()
        .expect("tracing was enabled for the whole run");
    let apps: Vec<AppOutcome> = ids
        .iter()
        .map(|&app| AppOutcome::read(eco, app))
        .collect::<Result<_, _>>()?;

    let expected = ExpectedOutcome {
        totals_digest: digest(&apps),
        events_digest: digest(&trace.events),
        request_count: trace.request_count(),
        event_count: trace.event_count(),
        apps,
    };
    Ok(ScenarioArtifact {
        format: ARTIFACT_FORMAT,
        spec,
        trace,
        expected,
        checkpoints,
        base,
    })
}
