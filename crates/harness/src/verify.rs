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
//! Any code change that perturbs settlement arithmetic, dispatch
//! semantics, codec encoding, event generation, or snapshot/restore
//! for a recorded day turns at least one check red — that is the
//! regression net the corpus exists to provide.

use ecovisor::{
    digest, CredentialRegistry, Ecovisor, EcovisorServer, EnergyClient, EnergyRequest, EventFilter,
    ProtocolTrace, RemoteEcovisorClient, WireCodec,
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
    pub ok: bool,
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
    frames: &[ecovisor::EventFrame],
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
    let expected_frames: Vec<&ecovisor::EventFrame> = artifact
        .trace
        .events
        .iter()
        .filter(|f| f.tick >= start)
        .collect();
    let frame_refs: Vec<&ecovisor::EventFrame> = frames.iter().collect();
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
/// resumed artifact), served by
/// [`EcovisorServer::spawn`]'s serving threads on a loopback
/// port, and the recorded day is driven through **one real TCP
/// connection per tenant** — every recorded batch round-trips through
/// its app's connection, settlement ticks between batches exactly as
/// the recorder ticked, and each connection subscribes to server-push
/// event frames. The pushed frames (reassembled into global settlement
/// order) and the served ecovisor's final totals must equal the
/// recorded expectations bit-for-bit: the evented transport is not
/// allowed to be distinguishable from the in-process dispatch path.
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
    transport_cell(artifact, &mut report)?;
    Ok(report)
}

/// Replays the whole trace over live per-tenant connections. Any socket
/// failure fails the `liveness` check; the outcome comparison is shared
/// with the in-process replays.
fn transport_cell(
    artifact: &ScenarioArtifact,
    report: &mut VerifyReport,
) -> Result<(), HarnessError> {
    let cell = "transport";
    let Some((eco, ids, start)) = build_cell(artifact, artifact.base.as_ref(), cell, report)?
    else {
        return Ok(());
    };

    // Tenant-name → app-id mapping (tenants register in order), the
    // current-token table, and the rotation schedule.
    let name_to_app: std::collections::HashMap<&str, ecovisor::AppId> = artifact
        .spec
        .tenants
        .iter()
        .zip(ids.iter())
        .map(|(t, &a)| (t.name.as_str(), a))
        .collect();
    let mut tokens: std::collections::HashMap<ecovisor::AppId, String> = artifact
        .spec
        .credentials
        .iter()
        .map(|c| (name_to_app[c.tenant.as_str()], c.token.clone()))
        .collect();
    let mut rotations: Vec<(u64, ecovisor::AppId, String)> = artifact
        .spec
        .credentials
        .iter()
        .filter_map(|c| {
            c.rotation
                .as_ref()
                .map(|r| (r.tick, name_to_app[c.tenant.as_str()], r.token.clone()))
        })
        .collect();
    rotations.sort_by_key(|(tick, app, _)| (*tick, *app));
    let credentialed = !tokens.is_empty();

    let served = (|| -> std::io::Result<_> {
        // Port 0: the kernel assigns an unused ephemeral port and we read
        // it back below. Never bind a fixed port here — parallel CI
        // shards and fuzz workers run many of these servers at once and
        // a fixed port flakes with EADDRINUSE.
        let mut server = EcovisorServer::bind("127.0.0.1:0", eco)?;
        if credentialed {
            let mut registry = CredentialRegistry::new();
            for (&app, token) in &tokens {
                registry.insert(app, token.as_bytes());
            }
            server = server.with_credentials(registry);
        }
        let addr = server.local_addr()?;
        Ok((server.spawn()?, addr))
    })();
    let (handle, addr) = match served {
        Ok(pair) => pair,
        Err(e) => {
            report.push(format!("{cell} server"), false, e.to_string());
            return Ok(());
        }
    };
    let shared = handle.ecovisor();

    // One live connection per tenant, each subscribed to the full push
    // stream — the union filter makes the broadcast drain exactly what
    // the recorder's `take_event_frame` drained.
    let connect_subscribed =
        |app: ecovisor::AppId, token: Option<&String>| -> Result<RemoteEcovisorClient, String> {
            let mut c = RemoteEcovisorClient::connect_full(addr, app, token.cloned())
                .map_err(|e| e.to_string())?;
            c.subscribe_events(EventFilter::all())
                .map_err(|e| e.to_string())?;
            Ok(c)
        };
    let mut clients: Vec<RemoteEcovisorClient> = Vec::with_capacity(ids.len());
    let mut slot: std::collections::HashMap<ecovisor::AppId, usize> =
        std::collections::HashMap::new();
    for &app in &ids {
        match connect_subscribed(app, tokens.get(&app)) {
            Ok(c) => {
                slot.insert(app, clients.len());
                clients.push(c);
            }
            Err(e) => {
                report.push(format!("{cell} connect"), false, e);
                drop(clients);
                handle.shutdown();
                return Ok(());
            }
        }
    }

    // Frames already delivered to a connection retired by a credential
    // rotation — merged with the live connections' streams at the end.
    let mut retired_frames: Vec<ecovisor::EventFrame> = Vec::new();

    // Drive the recorded day: each tick's batches round-trip through
    // their app's connection in recorded order, then settlement runs
    // (broadcasting frames into the connections' write queues) exactly
    // where the recorder ticked. Adversarial plans fire at start-of-tick
    // boundaries, before that tick's batches.
    let mut entries = artifact.trace.entries.iter().peekable();
    let mut rotations = rotations.into_iter().peekable();
    for tick in start..artifact.spec.ticks {
        while rotations.peek().is_some_and(|(t, _, _)| *t == tick) {
            let (_, app, new_token) = rotations.next().expect("peeked");
            let idx = slot[&app];
            // Drain every push already delivered to the retiring
            // connection (the wire is FIFO, so the poll response
            // follows the last broadcast frame), bank its frames, then
            // rotate on the live server.
            let drained = clients[idx].poll_events();
            report.push(
                format!("{cell} rotation@{tick}[{app}] drain"),
                drained.is_ok(),
                drained.err().map(|e| e.to_string()).unwrap_or_default(),
            );
            retired_frames.extend(clients[idx].take_event_frames());
            report.push(
                format!("{cell} rotation@{tick}[{app}] applied"),
                handle.rotate_credential(app, new_token.as_bytes()),
                "server carries no credential registry",
            );
            let old_token = tokens.insert(app, new_token.clone());
            // The retired token must be dead for *new* hellos …
            let stale = RemoteEcovisorClient::connect_full(addr, app, old_token);
            report.push(
                format!("{cell} rotation@{tick}[{app}] retired token rejected"),
                stale.is_err(),
                "retired credential still opens connections",
            );
            // … while the new one opens the replacement connection the
            // rest of the day runs on (dropping the old one here).
            match connect_subscribed(app, Some(&new_token)) {
                Ok(c) => clients[idx] = c,
                Err(e) => {
                    report.push(format!("{cell} rotation@{tick}[{app}] reconnect"), false, e);
                }
            }
        }
        if let Some(plan) = artifact.spec.restore.filter(|p| p.tick == tick) {
            // The operator rides the first tenant's (current) token on
            // an unsubscribed side connection: filter `None` receives
            // no pushes, so the restore choreography cannot perturb
            // the recorded frame streams.
            let op_app = ids[0];
            match artifact.checkpoints.iter().find(|c| c.tick == plan.tick) {
                None => report.push(
                    format!("{cell} restore@{tick} checkpoint"),
                    false,
                    "artifact embeds no checkpoint at the restore tick",
                ),
                Some(cp) => match (
                    cp.decode(),
                    RemoteEcovisorClient::connect_full(addr, op_app, tokens.get(&op_app).cloned()),
                ) {
                    (Err(e), _) => {
                        report.push(
                            format!("{cell} restore@{tick} checkpoint"),
                            false,
                            e.to_string(),
                        );
                    }
                    (_, Err(e)) => {
                        report.push(
                            format!("{cell} restore@{tick} operator"),
                            false,
                            e.to_string(),
                        );
                    }
                    (Ok(snap), Ok(mut op)) => {
                        if plan.tamper {
                            // A snapshot whose environment fingerprint
                            // lies must bounce off the live server —
                            // the subsequent genuine restore (and the
                            // bit-identical day) proves state survived.
                            let mut bad = snap.clone();
                            bad.env_digest ^= 0x05EE_DBAD;
                            report.push(
                                format!("{cell} restore@{tick} tamper rejected"),
                                op.push_restore(&bad).is_err(),
                                "tampered snapshot was accepted by the live server",
                            );
                        }
                        let pushed = op.push_restore(&snap);
                        report.push(
                            format!("{cell} restore@{tick} accepted"),
                            pushed.is_ok(),
                            pushed.err().map(|e| e.to_string()).unwrap_or_default(),
                        );
                    }
                },
            }
        }
        while let Some(entry) = entries.peek() {
            if entry.tick != tick {
                break;
            }
            let entry = entries.next().expect("peeked");
            let client = &mut clients[slot[&entry.batch.app]];
            let _ = client.transport(entry.batch.clone());
        }
        shared.tick();
    }
    report.push(
        format!("{cell} trace exhausted"),
        entries.peek().is_none(),
        "trace carries batches beyond the spec's tick horizon",
    );

    // One final poll per connection: read-drains every pushed frame
    // still in flight (the wire is FIFO, so the poll response follows
    // the last broadcast frame) and proves the connection survived the
    // whole day.
    let mut live = true;
    for client in &mut clients {
        if let Err(e) = client.poll_events() {
            report.push(format!("{cell} liveness"), false, e.to_string());
            live = false;
            break;
        }
    }
    if live {
        report.push(format!("{cell} liveness"), true, "");
    }

    // Reassemble the global push order: the broadcast walks apps in id
    // order inside each settlement, so (tick, app) recovers the
    // recorded sequence from the per-connection streams.
    let mut frames: Vec<ecovisor::EventFrame> = clients
        .iter_mut()
        .flat_map(RemoteEcovisorClient::take_event_frames)
        .collect();
    frames.extend(retired_frames);
    frames.sort_by_key(|f| (f.tick, f.app));

    let replayed: Vec<AppOutcome> = shared.with(|eco| {
        ids.iter()
            .map(|&a| AppOutcome::read(eco, a))
            .collect::<Result<_, _>>()
    })?;
    check_outcome(artifact, cell, start, &frames, &replayed, report);

    drop(clients);
    handle.shutdown();
    Ok(())
}

/// Verifies an artifact over a **two-node federated deployment**: two
/// ecovisor replicas are built from the same spec, the tenants
/// partitioned between them, both served on loopback ports,
/// and the recorded day driven through per-tenant connections to each
/// tenant's *owner* node while a coordinator loop runs the two-phase
/// federated tick ([`fed_collect`](RemoteEcovisorClient::fed_collect) on
/// both nodes → merge → [`fed_settle`](RemoteEcovisorClient::fed_settle)
/// on both). Container-id cursors are kept aligned across nodes
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
/// Without a plan the tenants split parity-wise. Either way the final
/// per-app totals, reassembled push frames, and digests must equal the
/// recorded single-process expectations bit-for-bit.
///
/// # Errors
///
/// [`HarnessError`] only for *environmental* failures (the spec no
/// longer builds, totals unreadable). Socket-level and determinism
/// failures are reported as failed [`Check`]s.
pub fn verify_federated(artifact: &ScenarioArtifact) -> Result<VerifyReport, HarnessError> {
    let mut report = VerifyReport {
        scenario: format!("{} (federated)", artifact.spec.name),
        checks: Vec::new(),
    };
    if artifact.base.is_some() {
        // A resumed artifact's trace starts mid-day from a checkpoint of
        // the *single-process* run; there is no recorded federated warm
        // state to restore two partial replicas from.
        report.push(
            "federated resumed-artifact",
            false,
            "resumed artifacts cannot be verified federated",
        );
        return Ok(report);
    }
    federated_cell(artifact, &mut report)?;
    Ok(report)
}

/// Replays the whole trace across a live two-node federation. Any socket
/// failure fails the `liveness` check; the outcome comparison is shared
/// with the in-process replays.
fn federated_cell(
    artifact: &ScenarioArtifact,
    report: &mut VerifyReport,
) -> Result<(), HarnessError> {
    let cell = "federated";
    let spec = &artifact.spec;

    // Two full replicas of the same spec: identical substrate, identical
    // app ids, identical container cursors. Remote apps settle through
    // shadow views, so each node only *keeps* the tenants it owns.
    let (mut eco0, ids) = build_ecovisor(spec)?;
    let (mut eco1, _) = build_ecovisor(spec)?;

    // Partition. With a migration plan node 0 owns everything — its
    // placement replays the single-process recording exactly, and the
    // mid-day graft lands on an empty node 1 (adoption always fits).
    // Without a plan, tenants split parity-wise across the nodes.
    let mut owner: std::collections::HashMap<ecovisor::AppId, usize> =
        std::collections::HashMap::new();
    for (i, &app) in ids.iter().enumerate() {
        let node = if spec.migration.is_some() { 0 } else { i % 2 };
        owner.insert(app, node);
        let evicted = if node == 0 {
            eco1.remove_app(app)
        } else {
            eco0.remove_app(app)
        };
        if let Err(e) = evicted {
            report.push(format!("{cell} partition"), false, e.to_string());
            return Ok(());
        }
    }
    let name_to_app: std::collections::HashMap<&str, ecovisor::AppId> = spec
        .tenants
        .iter()
        .zip(ids.iter())
        .map(|(t, &a)| (t.name.as_str(), a))
        .collect();

    // The federation surface is credential-gated, so both nodes always
    // run with a synthetic registry covering every tenant (the spec's
    // own credential plans are transport-cell concerns).
    let token_of: std::collections::HashMap<ecovisor::AppId, String> = ids
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, format!("fed-{i}")))
        .collect();
    let serve = |eco: Ecovisor| -> std::io::Result<_> {
        // Port 0 as in `transport_cell`: parallel verifiers must never
        // contend for a fixed port.
        let mut server = EcovisorServer::bind("127.0.0.1:0", eco)?;
        let mut registry = CredentialRegistry::new();
        for (&app, token) in &token_of {
            registry.insert(app, token.as_bytes());
        }
        server = server.with_credentials(registry);
        let addr = server.local_addr()?;
        Ok((server.spawn()?, addr))
    };
    let (h0, addr0) = match serve(eco0) {
        Ok(pair) => pair,
        Err(e) => {
            report.push(format!("{cell} server"), false, e.to_string());
            return Ok(());
        }
    };
    let (h1, addr1) = match serve(eco1) {
        Ok(pair) => pair,
        Err(e) => {
            report.push(format!("{cell} server"), false, e.to_string());
            h0.shutdown();
            return Ok(());
        }
    };
    let addrs = [addr0, addr1];
    let shared = [h0.ecovisor(), h1.ecovisor()];

    let connect_subscribed =
        |node: usize, app: ecovisor::AppId| -> std::io::Result<RemoteEcovisorClient> {
            let mut c = RemoteEcovisorClient::connect_with_credential(
                addrs[node],
                app,
                token_of[&app].as_str(),
            )?;
            c.subscribe_events(EventFilter::all())
                .map_err(std::io::Error::other)?;
            Ok(c)
        };
    // One coordinator (operator) connection per node, riding the first
    // tenant's synthetic token; unsubscribed, so the federation
    // choreography cannot perturb the recorded frame streams.
    let setup = (|| -> std::io::Result<_> {
        let ops = vec![
            RemoteEcovisorClient::connect_with_credential(
                addrs[0],
                ids[0],
                token_of[&ids[0]].as_str(),
            )?,
            RemoteEcovisorClient::connect_with_credential(
                addrs[1],
                ids[0],
                token_of[&ids[0]].as_str(),
            )?,
        ];
        let mut clients = Vec::with_capacity(ids.len());
        let mut slot: std::collections::HashMap<ecovisor::AppId, usize> =
            std::collections::HashMap::new();
        for &app in &ids {
            slot.insert(app, clients.len());
            clients.push(connect_subscribed(owner[&app], app)?);
        }
        Ok((ops, clients, slot))
    })();
    let (mut ops, mut clients, slot) = match setup {
        Ok(t) => t,
        Err(e) => {
            report.push(format!("{cell} connect"), false, e.to_string());
            h0.shutdown();
            h1.shutdown();
            return Ok(());
        }
    };

    // Frames banked off a connection retired by a migration re-home —
    // merged with the live connections' streams at the end.
    let mut retired_frames: Vec<ecovisor::EventFrame> = Vec::new();
    let mut entries = artifact.trace.entries.iter().peekable();

    let driven = (|| -> std::io::Result<()> {
        // The highest container cursor any node has reached. Both nodes
        // start equal (identical builds); a node is fast-forwarded to
        // `global` before dispatching a launch so allocated ids replay
        // the recording's single cursor.
        let mut global = ops[0].fed_cursor()?;
        for tick in 0..spec.ticks {
            if let Some(plan) = spec.migration.as_ref().filter(|p| p.tick == tick) {
                let app = name_to_app[plan.tenant.as_str()];
                let (from, to) = (owner[&app], 1 - owner[&app]);
                // Quiesce: read-drain every frame already pushed to the
                // out-going connection and bank it before the move.
                let idx = slot[&app];
                clients[idx].poll_events().map_err(std::io::Error::other)?;
                retired_frames.extend(clients[idx].take_event_frames());
                let snap = ops[from].fetch_tenant(app)?;
                ops[to].push_tenant(&snap)?;
                ops[from].commit_migration(app)?;
                owner.insert(app, to);
                clients[idx] = connect_subscribed(to, app)?;
                global = ops[0].fed_cursor()?.max(ops[1].fed_cursor()?);
                report.push(format!("{cell} migration@{tick} applied"), true, "");
            }
            while entries.peek().is_some_and(|e| e.tick == tick) {
                let entry = entries.next().expect("peeked");
                let node = owner[&entry.batch.app];
                let launches = entry
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
            // The two-phase federated tick: collect shadow views from
            // both nodes, merge in app-id order, settle both against the
            // same merged picture (each node advances its own clock).
            let mut merged = ops[0].fed_collect()?;
            merged.extend(ops[1].fed_collect()?);
            merged.sort_by_key(|v| v.app);
            ops[0].fed_settle(&merged)?;
            ops[1].fed_settle(&merged)?;
        }
        // One final poll per connection: read-drains in-flight frames
        // and proves every connection survived the whole day.
        for client in &mut clients {
            client.poll_events().map_err(std::io::Error::other)?;
        }
        Ok(())
    })();
    match driven {
        Ok(()) => report.push(format!("{cell} liveness"), true, ""),
        Err(e) => {
            report.push(format!("{cell} liveness"), false, e.to_string());
            drop(ops);
            drop(clients);
            h0.shutdown();
            h1.shutdown();
            return Ok(());
        }
    }
    report.push(
        format!("{cell} trace exhausted"),
        entries.peek().is_none(),
        "trace carries batches beyond the spec's tick horizon",
    );

    // Reassemble the global push order across both nodes' streams: only
    // the owner broadcasts a tenant's frames, so (tick, app) recovers
    // the recorded single-process sequence.
    let mut frames: Vec<ecovisor::EventFrame> = clients
        .iter_mut()
        .flat_map(RemoteEcovisorClient::take_event_frames)
        .collect();
    frames.extend(retired_frames);
    frames.sort_by_key(|f| (f.tick, f.app));

    // Per-app outcomes come from each tenant's final owner node.
    let replayed: Vec<AppOutcome> = ids
        .iter()
        .map(|&a| shared[owner[&a]].with(|eco| AppOutcome::read(eco, a)))
        .collect::<Result<_, _>>()?;
    check_outcome(artifact, cell, 0, &frames, &replayed, report);

    drop(ops);
    drop(clients);
    h0.shutdown();
    h1.shutdown();
    Ok(())
}
