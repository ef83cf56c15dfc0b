//! Verifying that an artifact still replays bit-identically.
//!
//! For each artifact the verifier round-trips the trace through **both
//! file encodings** (the decoded copy must equal the recorded trace),
//! then replays the recorded trace on a fresh build
//! ([`Ecovisor::replay_trace_from`] — the one in-process replay loop)
//! and asserts:
//!
//! * per-app [`VesTotals`](ecovisor::VesTotals) equal the recorded
//!   expectations exactly (f64 bit-equality, not tolerance),
//! * the regenerated event-frame sequence equals the recorded push
//!   traffic,
//! * the [`ecovisor::digest`] fingerprints match the stored ones.
//!
//! Artifacts carrying embedded [`Checkpoint`]s get one more replay per
//! checkpoint: the checkpointed snapshot is restored into a freshly
//! built ecovisor and the *rest* of the trace is replayed from its
//! tick — totals, remaining event frames, and digests must all land
//! exactly where the uninterrupted replay does. A resumed artifact (non-empty `base`) replays from its
//! base checkpoint instead of from a fresh build.
//!
//! [`verify_transport`] and [`verify_federated`] replay the same day
//! live, over one evented server or across a two-node federation. Both
//! are one cell of N nodes (`live_cell`): the node count decides the
//! tenants' owners, the credentials and which adversarial plans run,
//! and after that one day loop drives every deployment, one subscribed
//! connection per tenant, to the same bit-identical checks. Every live
//! replay ends with a leak gate: once its clients disconnect, each
//! server's [`ServerStats`] must return to zero (`{cell} leak-free`).
//! `live_cell` is the harness's only live-day driver; the fuzzer's soak
//! is a generated day replayed through it.
//!
//! Any code change that perturbs settlement arithmetic, dispatch
//! semantics, codec encoding, event generation, or snapshot/restore
//! for a recorded day turns at least one check red — that is the
//! regression net the corpus exists to provide.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use ecovisor::proto::{EnergyRequest, EventFrame};
use ecovisor::{
    digest, AppId, CredentialRegistry, Ecovisor, EcovisorServer, EnergyClient, EventFilter,
    ProtocolTrace, RemoteEcovisorClient, ServerHandle, ServerStats, WireCodec,
};

use crate::artifact::{codec_name, AppOutcome, Checkpoint, ScenarioArtifact, ARTIFACT_FORMAT};
use crate::error::HarnessError;
use crate::scenario::build_ecovisor;

/// One verification check's outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked, e.g. `replay totals digest`.
    pub label: String,
    /// Whether it held.
    pub(crate) ok: bool,
    /// Failure detail (empty when `ok`).
    pub detail: String,
}

/// The verification outcome for one artifact.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The artifact's scenario name.
    pub scenario: String,
    /// Every check performed, in order.
    pub checks: Vec<Check>,
}

impl VerifyReport {
    /// `true` when every check held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The failing checks.
    pub fn failures(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }

    fn push(&mut self, label: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            label: label.into(),
            ok,
            detail: if ok { String::new() } else { detail.into() },
        });
    }
}

/// Verifies one artifact: structural integrity, both file encodings
/// lossless for its trace, then one replay from the start and one from
/// every embedded checkpoint.
///
/// # Errors
///
/// [`HarnessError`] only for *environmental* failures (the spec no
/// longer builds). Determinism violations are reported as failed
/// [`Check`]s, not errors.
pub fn verify(artifact: &ScenarioArtifact) -> Result<VerifyReport, HarnessError> {
    let mut report = VerifyReport {
        scenario: artifact.spec.name.clone(),
        checks: Vec::new(),
    };

    // -- Structural integrity -------------------------------------------
    report.push(
        "artifact format",
        artifact.format == ARTIFACT_FORMAT,
        format!("format {} ≠ {ARTIFACT_FORMAT}", artifact.format),
    );
    report.push(
        "request count",
        artifact.trace.request_count() == artifact.expected.request_count,
        format!(
            "trace carries {} requests, artifact claims {}",
            artifact.trace.request_count(),
            artifact.expected.request_count
        ),
    );
    report.push(
        "event count",
        artifact.trace.event_count() == artifact.expected.event_count,
        format!(
            "trace carries {} events, artifact claims {}",
            artifact.trace.event_count(),
            artifact.expected.event_count
        ),
    );
    // Without this an artifact whose `expected.apps` lost a tenant (with
    // the digest recomputed over what is left) would have nothing to
    // compare that tenant's replayed totals against.
    let (_, ids) = build_ecovisor(&artifact.spec)?;
    report.push(
        "expected outcome covers every tenant, in id order",
        artifact.expected.apps.iter().map(|o| o.app).eq(ids),
        format!(
            "artifact records outcomes for {} app(s), the spec registers {} (or ids differ)",
            artifact.expected.apps.len(),
            artifact.spec.tenants.len()
        ),
    );
    report.push(
        "totals digest consistency",
        digest(&artifact.expected.apps) == artifact.expected.totals_digest,
        "stored per-app totals do not hash to the stored totals_digest".to_string(),
    );
    report.push(
        "events digest consistency",
        digest(&artifact.trace.events) == artifact.expected.events_digest,
        "recorded event frames do not hash to the stored events_digest".to_string(),
    );

    // -- Checkpoint integrity -------------------------------------------
    let ticks = artifact.spec.ticks;
    let mut prev_tick = artifact.base.as_ref().map_or(0, |b| b.tick);
    for cp in &artifact.checkpoints {
        let fault = match cp.decode() {
            Err(e) => Some(e.to_string()),
            Ok(_) if cp.tick > prev_tick && cp.tick < ticks => None,
            Ok(_) => Some(format!(
                "tick {} out of order or outside the {ticks}-tick horizon",
                cp.tick
            )),
        };
        report.push(
            format!("checkpoint@{} integrity", cp.tick),
            fault.is_none(),
            fault.unwrap_or_default(),
        );
        prev_tick = cp.tick;
    }
    if let Some(base) = &artifact.base {
        let fault = match base.decode() {
            Err(e) => Some(e.to_string()),
            Ok(_) if base.tick < ticks => None,
            Ok(_) => Some(format!(
                "base tick {} leaves no remainder of the {ticks}-tick horizon",
                base.tick
            )),
        };
        report.push(
            "base checkpoint integrity",
            fault.is_none(),
            fault.unwrap_or_default(),
        );
    }

    // -- File encodings: each must carry this trace losslessly ----------
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let fault = match codec.decode::<ProtocolTrace>(&codec.encode(&artifact.trace)) {
            Err(e) => Some(e.to_string()),
            Ok(trace) if trace == artifact.trace => None,
            Ok(_) => Some("decoded trace differs from the recorded one".to_string()),
        };
        report.push(
            format!("codec[{}] round-trip", codec_name(codec)),
            fault.is_none(),
            fault.unwrap_or_default(),
        );
    }

    // -- Replays: from the start (or base), then from every checkpoint --
    replay_cell(artifact, artifact.base.as_ref(), "replay", &mut report)?;
    for cp in &artifact.checkpoints {
        let cell = format!("restore@{}", cp.tick);
        replay_cell(artifact, Some(cp), &cell, &mut report)?;
    }
    Ok(report)
}

/// The world a cell replays against: the artifact's spec freshly built
/// and, when `restore_from` is `Some`, seeded with that checkpoint's
/// snapshot; with it the tenants' ids and the tick the replay starts at.
/// `None` — after pushing a failed `{cell} restore` check — when the
/// checkpoint does not decode or is refused.
fn build_cell(
    artifact: &ScenarioArtifact,
    restore_from: Option<&Checkpoint>,
    cell: &str,
    report: &mut VerifyReport,
) -> Result<Option<(Ecovisor, Vec<ecovisor::AppId>, u64)>, HarnessError> {
    let (mut eco, ids) = build_ecovisor(&artifact.spec)?;
    let Some(cp) = restore_from else {
        return Ok(Some((eco, ids, 0)));
    };
    let restored = cp
        .decode()
        .map_err(|e| e.to_string())
        .and_then(|snap| eco.apply_snapshot(&snap).map_err(|e| e.to_string()));
    Ok(match restored {
        Ok(()) => Some((eco, ids, cp.tick)),
        Err(e) => {
            report.push(format!("{cell} restore"), false, e);
            None
        }
    })
}

/// Replays the recorded trace once, from `restore_from`'s tick when
/// there is one; expected event frames are then the recorded frames at
/// or after that tick (the earlier ones were pushed before the capture
/// and cannot regenerate).
fn replay_cell(
    artifact: &ScenarioArtifact,
    restore_from: Option<&Checkpoint>,
    cell: &str,
    report: &mut VerifyReport,
) -> Result<(), HarnessError> {
    let Some((mut eco, ids, start)) = build_cell(artifact, restore_from, cell, report)? else {
        return Ok(());
    };
    let frames = eco
        .replay_trace_from(&artifact.trace, start, artifact.spec.ticks)
        .frames;
    let replayed = ids
        .iter()
        .map(|&a| AppOutcome::read(&eco, a))
        .collect::<Result<Vec<_>, _>>()?;
    check_outcome(artifact, cell, start, &frames, &replayed, report);
    Ok(())
}

/// Compares one replay's outcome (per-app outcomes as read back from
/// the replayed ecovisor + regenerated event frames) against the
/// artifact's recorded expectations, bit-exactly.
fn check_outcome(
    artifact: &ScenarioArtifact,
    cell: &str,
    start: u64,
    frames: &[EventFrame],
    replayed: &[AppOutcome],
    report: &mut VerifyReport,
) {
    // Totals: bit-identical per app. Driven by the *replay's* tenants,
    // so a tenant the artifact records nothing for fails here.
    for (i, got) in replayed.iter().enumerate() {
        let want = artifact.expected.apps.get(i);
        report.push(
            format!("{cell} totals[{}]", got.name),
            want == Some(got),
            format!("expected {want:?}, replayed {got:?}"),
        );
    }
    // (Vec<&T> digests like Vec<T>: references serialize transparently.)
    report.push(
        format!("{cell} totals digest"),
        digest(&replayed.iter().collect::<Vec<_>>()) == artifact.expected.totals_digest,
        "replayed totals hash differs from the recorded totals_digest",
    );

    // Event frames: the regenerated push traffic equals the recording
    // from the replay's start tick onward.
    let expected_frames: Vec<&EventFrame> = artifact
        .trace
        .events
        .iter()
        .filter(|f| f.tick >= start)
        .collect();
    let frame_refs: Vec<&EventFrame> = frames.iter().collect();
    let frames_match = frame_refs == expected_frames;
    let detail = if frames_match {
        String::new()
    } else {
        format!(
            "replayed {} frames ({} events), recorded {} frames from tick {start}",
            frames.len(),
            frames.iter().map(|f| f.events.len()).sum::<usize>(),
            expected_frames.len(),
        )
    };
    report.push(format!("{cell} event frames"), frames_match, detail);
    // A full-horizon replay checks against the stored events_digest
    // itself.
    let expected_digest = if expected_frames.len() == artifact.trace.events.len() {
        artifact.expected.events_digest
    } else {
        digest(&expected_frames)
    };
    report.push(
        format!("{cell} events digest"),
        digest(&frame_refs) == expected_digest,
        "replayed event frames hash differs from the recorded events_digest",
    );
}

/// Verifies an artifact over the **live evented transport**: the
/// ecovisor is rebuilt (and restored from the base checkpoint for a
/// resumed artifact), served by [`EcovisorServer::spawn`]'s serving
/// threads on a loopback port, and the recorded day is driven through
/// **one real TCP connection per tenant**, each subscribed to
/// server-push event frames. The pushed frames and the served
/// ecovisor's final totals must equal the recorded expectations
/// bit-for-bit: the evented transport is not allowed to be
/// distinguishable from the in-process dispatch path. Once the
/// connections close, the server's [`ServerStats`] must return to zero
/// (`transport leak-free`, the last check).
///
/// Specs carrying adversarial plans get extra choreography, still under
/// the same bit-identical bar:
///
/// * a non-empty [`credentials`](crate::spec::ScenarioSpec::credentials)
///   list spawns the server with a [`CredentialRegistry`]; tenants
///   connect with their tokens, and each
///   [`CredentialRotation`](crate::spec::CredentialRotation) is
///   exercised mid-day — rotate on the live server, prove the retired
///   token is rejected, reconnect with the new one — without losing or
///   duplicating a single pushed frame;
/// * a [`RestorePlan`](crate::spec::RestorePlan) pushes the artifact's
///   checkpoint for the plan's tick back into the live server at the
///   start of that tick (optionally after a rejected tampered push),
///   racing a state-idempotent restore against active dispatch.
///
/// # Errors
///
/// [`HarnessError`] only for *environmental* failures (the spec no
/// longer builds, totals unreadable). Socket-level and determinism
/// failures are reported as failed [`Check`]s.
pub fn verify_transport(artifact: &ScenarioArtifact) -> Result<VerifyReport, HarnessError> {
    let mut report = VerifyReport {
        scenario: format!("{} (transport)", artifact.spec.name),
        checks: Vec::new(),
    };
    live_cell(artifact, 1, &mut report)?;
    Ok(report)
}

/// Verifies an artifact over a **two-node federated deployment**: the
/// same day as [`verify_transport`], with the tenants partitioned
/// between two served replicas of the spec and settlement run as the
/// two-phase federated tick
/// ([`fed_collect`](RemoteEcovisorClient::fed_collect) on both nodes →
/// merge → [`fed_settle`](RemoteEcovisorClient::fed_settle) on both).
/// Container-id cursors are kept aligned across nodes
/// ([`fed_align`](RemoteEcovisorClient::fed_align)) so launch responses
/// replay the recorded ids.
///
/// A spec carrying a [`MigrationPlan`](crate::spec::MigrationPlan) puts
/// **every** tenant on node 0 (so placement replays the single-process
/// recording exactly) and live-migrates the plan's tenant to the empty
/// node 1 at the plan's tick —
/// [`fetch_tenant`](RemoteEcovisorClient::fetch_tenant) →
/// [`push_tenant`](RemoteEcovisorClient::push_tenant) →
/// [`commit_migration`](RemoteEcovisorClient::commit_migration) — with
/// the tenant's connection drained and re-homed across the move.
/// Without a plan the tenants split parity-wise. A resumed artifact is
/// refused: its trace starts from a checkpoint of the *single-process*
/// run, and there is no federated warm state to restore two partial
/// replicas from.
///
/// # Errors
///
/// As [`verify_transport`].
pub fn verify_federated(artifact: &ScenarioArtifact) -> Result<VerifyReport, HarnessError> {
    let mut report = VerifyReport {
        scenario: format!("{} (federated)", artifact.spec.name),
        checks: Vec::new(),
    };
    if artifact.base.is_some() {
        report.push(
            "federated resumed-artifact",
            false,
            "resumed artifacts cannot be verified federated",
        );
        return Ok(report);
    }
    live_cell(artifact, 2, &mut report)?;
    Ok(report)
}

/// Replays the whole trace across `nodes` live servers (the `transport`
/// cell with one, the `federated` cell with more).
///
/// Everything that depends on the node count is decided first: which
/// node owns each tenant, the credentials every node holds, and which
/// plans run. Then one serving world per node, one subscribed
/// connection per tenant to its owner and one unsubscribed operator
/// connection per node (filter `None` receives no pushes, so neither
/// the plans nor the federated tick can perturb the recorded frame
/// streams). The day loop fires the tick's plans, sends the tick's
/// batches through their tenants' connections in recorded order and
/// settles. Any socket failure fails the `liveness` check and ends the
/// cell; the outcome comparison is shared with the in-process replays.
/// Last, the connections close with the servers still up, and every
/// node's counters must reach zero within 2 s (`{cell} leak-free`): a
/// connection slot, subscriber frame or receive buffer that outlives
/// its client is a leak.
fn live_cell(
    artifact: &ScenarioArtifact,
    nodes: usize,
    report: &mut VerifyReport,
) -> Result<(), HarnessError> {
    let spec = &artifact.spec;
    let federated = nodes > 1;
    let cell = if federated { "federated" } else { "transport" };

    // Identical replicas of the same spec: identical substrate, app ids
    // and container cursors. Remote apps settle through shadow views,
    // so each node only *keeps* the tenants it owns.
    let (mut worlds, mut ids, mut start) = (Vec::with_capacity(nodes), Vec::new(), 0);
    for _ in 0..nodes {
        let Some((eco, built, from)) = build_cell(artifact, artifact.base.as_ref(), cell, report)?
        else {
            return Ok(());
        };
        worlds.push(eco);
        (ids, start) = (built, from);
    }
    let app_of: HashMap<&str, AppId> = spec
        .tenants
        .iter()
        .map(|t| t.name.as_str())
        .zip(ids.iter().copied())
        .collect();

    // With a migration plan node 0 owns everything — its placement
    // replays the single-process recording exactly, and the mid-day
    // graft lands on an empty node (adoption always fits). Otherwise
    // tenant `i` lives on node `i % nodes`.
    let migration = spec.migration.as_ref().filter(|_| federated);
    let mut owner: HashMap<AppId, usize> = ids
        .iter()
        .enumerate()
        .map(|(i, &app)| (app, if migration.is_some() { 0 } else { i % nodes }))
        .collect();
    for &app in &ids {
        for (node, eco) in worlds.iter_mut().enumerate() {
            if node == owner[&app] {
                continue;
            }
            if let Err(e) = eco.remove_app(app) {
                report.push(format!("{cell} partition"), false, e.to_string());
                return Ok(());
            }
        }
    }

    // One server holds the spec's own credentials (none: trusted mode)
    // and runs its rotation and restore plans. The federation surface is
    // credential-gated, so a federation holds a synthetic token for
    // every tenant and runs only the migration plan.
    let mut tokens: HashMap<AppId, String> = if federated {
        ids.iter()
            .enumerate()
            .map(|(i, &a)| (a, format!("fed-{i}")))
            .collect()
    } else {
        spec.credentials
            .iter()
            .map(|c| (app_of[c.tenant.as_str()], c.token.clone()))
            .collect()
    };
    let mut rotations: Vec<(u64, AppId, String)> = spec
        .credentials
        .iter()
        .filter(|_| !federated)
        .filter_map(|c| Some((c.rotation.as_ref()?, app_of[c.tenant.as_str()])))
        .map(|(r, app)| (r.tick, app, r.token.clone()))
        .collect();
    rotations.sort_by_key(|(tick, app, _)| (*tick, *app));
    let mut rotations = rotations.into_iter().peekable();
    let restore = spec.restore.filter(|_| !federated);

    // Port 0: the kernel assigns an unused ephemeral port. Never bind a
    // fixed port here — parallel CI shards and fuzz workers run many of
    // these servers at once and a fixed port flakes with EADDRINUSE.
    // Dropping a handle stops its server, so every return below shuts
    // down what was started.
    let serve = |eco: Ecovisor| -> io::Result<(ServerHandle, SocketAddr)> {
        let mut server = EcovisorServer::bind("127.0.0.1:0", eco)?;
        if !tokens.is_empty() {
            let mut registry = CredentialRegistry::new();
            for (&app, token) in &tokens {
                registry.insert(app, token.as_bytes());
            }
            server = server.with_credentials(registry);
        }
        let addr = server.local_addr()?;
        Ok((server.spawn()?, addr))
    };
    let served: io::Result<Vec<_>> = worlds.into_iter().map(serve).collect();
    let (handles, addrs): (Vec<ServerHandle>, Vec<SocketAddr>) = match served {
        Ok(served) => served.into_iter().unzip(),
        Err(e) => {
            report.push(format!("{cell} server"), false, e.to_string());
            return Ok(());
        }
    };

    // Each tenant's connection subscribes to the full push stream — the
    // union filter makes the broadcast drain exactly what the
    // recorder's `take_event_frame` drained.
    let subscribe = |node: usize, app: AppId, token: Option<String>| {
        let mut client = RemoteEcovisorClient::connect_full(addrs[node], app, token)?;
        client
            .subscribe_events(EventFilter::all())
            .map_err(io::Error::other)?;
        io::Result::Ok(client)
    };
    let connected = (|| -> io::Result<_> {
        let ops = addrs
            .iter()
            .map(|&addr| {
                RemoteEcovisorClient::connect_full(addr, ids[0], tokens.get(&ids[0]).cloned())
            })
            .collect::<io::Result<Vec<_>>>()?;
        let clients = ids
            .iter()
            .map(|&app| subscribe(owner[&app], app, tokens.get(&app).cloned()))
            .collect::<io::Result<Vec<_>>>()?;
        Ok((ops, clients))
    })();
    let (mut ops, mut clients) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            report.push(format!("{cell} connect"), false, e.to_string());
            return Ok(());
        }
    };
    let slot: HashMap<AppId, usize> = ids.iter().enumerate().map(|(i, &a)| (a, i)).collect();

    // Every pushed frame, banked off a connection whenever it is
    // drained: the wire is FIFO, so a poll's response follows the last
    // frame broadcast to that connection.
    let mut frames: Vec<EventFrame> = Vec::new();
    let drain = |client: &mut RemoteEcovisorClient, frames: &mut Vec<EventFrame>| {
        client.poll_events().map_err(io::Error::other)?;
        frames.extend(client.take_event_frames());
        io::Result::Ok(())
    };
    let mut entries = artifact.trace.entries.iter().peekable();
    let driven = (|| -> io::Result<()> {
        // The highest container cursor any node has reached. The nodes
        // start equal; a node is fast-forwarded to it before dispatching
        // a launch so allocated ids replay the recording's one cursor.
        let mut global = if federated { ops[0].fed_cursor()? } else { 0 };
        for tick in start..spec.ticks {
            while let Some((_, app, token)) = rotations.next_if(|(t, _, _)| *t == tick) {
                let idx = slot[&app];
                drain(&mut clients[idx], &mut frames)?;
                report.push(format!("{cell} rotation@{tick}[{app}] drain"), true, "");
                report.push(
                    format!("{cell} rotation@{tick}[{app}] applied"),
                    handles[0].rotate_credential(app, token.as_bytes()),
                    "server carries no credential registry",
                );
                // The retired token must be dead for *new* hellos, while
                // the new one opens the connection the rest of the day
                // runs on.
                let retired = tokens.insert(app, token.clone());
                report.push(
                    format!("{cell} rotation@{tick}[{app}] retired token rejected"),
                    RemoteEcovisorClient::connect_full(addrs[0], app, retired).is_err(),
                    "retired credential still opens connections",
                );
                clients[idx] = subscribe(0, app, Some(token))?;
            }
            if let Some(plan) = restore.filter(|p| p.tick == tick) {
                let checkpoint = artifact.checkpoints.iter().find(|c| c.tick == tick);
                let decoded = checkpoint
                    .ok_or_else(|| "artifact embeds no checkpoint at the restore tick".to_string())
                    .and_then(|cp| cp.decode().map_err(|e| e.to_string()));
                match decoded {
                    Err(e) => report.push(format!("{cell} restore@{tick} checkpoint"), false, e),
                    Ok(snap) => {
                        if plan.tamper {
                            // A snapshot whose environment fingerprint
                            // lies must bounce off the live server — the
                            // genuine restore after it (and the
                            // bit-identical day) proves state survived.
                            let mut bad = snap.clone();
                            bad.env_digest ^= 0x05EE_DBAD;
                            report.push(
                                format!("{cell} restore@{tick} tamper rejected"),
                                ops[0].push_restore(&bad).is_err(),
                                "tampered snapshot was accepted by the live server",
                            );
                        }
                        let pushed = ops[0].push_restore(&snap);
                        report.push(
                            format!("{cell} restore@{tick} accepted"),
                            pushed.is_ok(),
                            pushed.err().map(|e| e.to_string()).unwrap_or_default(),
                        );
                    }
                }
            }
            if let Some(plan) = migration.filter(|p| p.tick == tick) {
                let app = app_of[plan.tenant.as_str()];
                let (from, to) = (owner[&app], (owner[&app] + 1) % nodes);
                drain(&mut clients[slot[&app]], &mut frames)?;
                let snap = ops[from].fetch_tenant(app)?;
                ops[to].push_tenant(&snap)?;
                ops[from].commit_migration(app)?;
                owner.insert(app, to);
                clients[slot[&app]] = subscribe(to, app, tokens.get(&app).cloned())?;
                global = ops
                    .iter_mut()
                    .try_fold(0, |max, op| io::Result::Ok(max.max(op.fed_cursor()?)))?;
                report.push(format!("{cell} migration@{tick} applied"), true, "");
            }
            while let Some(entry) = entries.next_if(|e| e.tick == tick) {
                let node = owner[&entry.batch.app];
                let launches = federated
                    && entry
                        .batch
                        .requests
                        .iter()
                        .any(|r| matches!(r, EnergyRequest::LaunchContainer { .. }));
                if launches && ops[node].fed_cursor()? < global {
                    ops[node].fed_align(global)?;
                }
                let _ = clients[slot[&entry.batch.app]].transport(entry.batch.clone());
                if launches {
                    global = ops[node].fed_cursor()?;
                }
            }
            if federated {
                // The two-phase federated tick: collect shadow views from
                // every node, merge in app-id order, settle every node
                // against the same merged picture.
                let mut merged = Vec::new();
                for op in &mut ops {
                    merged.extend(op.fed_collect()?);
                }
                merged.sort_by_key(|v| v.app);
                for op in &mut ops {
                    op.fed_settle(&merged)?;
                }
            } else {
                handles[0].ecovisor().tick();
            }
        }
        // One final poll per connection read-drains every frame still in
        // flight and proves the connection survived the whole day.
        for client in &mut clients {
            drain(client, &mut frames)?;
        }
        Ok(())
    })();
    if let Err(e) = driven {
        report.push(format!("{cell} liveness"), false, e.to_string());
        return Ok(());
    }
    report.push(format!("{cell} liveness"), true, "");
    report.push(
        format!("{cell} trace exhausted"),
        entries.peek().is_none(),
        "trace carries batches beyond the spec's tick horizon",
    );

    // Reassemble the global push order: the broadcast walks apps in id
    // order inside each settlement and only a tenant's owner broadcasts
    // its frames, so (tick, app) recovers the recorded sequence.
    frames.sort_by_key(|f| (f.tick, f.app));
    let replayed: Vec<AppOutcome> = ids
        .iter()
        .map(|&a| {
            handles[owner[&a]]
                .ecovisor()
                .with(|eco| AppOutcome::read(eco, a))
        })
        .collect::<Result<_, _>>()?;
    check_outcome(artifact, cell, start, &frames, &replayed, report);

    // The leak gate: with every client gone and the servers still up,
    // the serving threads must reap each connection and hand back every
    // subscriber frame and receive buffer. Reaping is asynchronous, so
    // the counters get a bounded window to reach zero.
    drop((ops, clients));
    let idle = |s: &ServerStats| {
        s.active_connections == 0 && s.subscriber_backlog == 0 && s.recv_buffer_bytes == 0
    };
    let mut stats: Vec<ServerStats> = handles.iter().map(ServerHandle::stats).collect();
    for _ in 0..1000 {
        if stats.iter().all(idle) {
            break;
        }
        thread::sleep(Duration::from_millis(2));
        stats = handles.iter().map(ServerHandle::stats).collect();
    }
    report.push(
        format!("{cell} leak-free"),
        stats.iter().all(idle),
        format!("server counters after disconnect: {stats:?}"),
    );
    Ok(())
}
