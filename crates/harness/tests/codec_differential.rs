//! The typed codec on what the ecovisor actually puts on wires and in
//! files.
//!
//! `vendor/serde/tests/streaming.rs` holds the derive to `docs/PROTOCOL.md`
//! §5.3 against a hand-written reference, on types made up for the
//! purpose. There is no such reference for the protocol's own types —
//! `from_value` *is* the typed decoder, run over a tree's bytes — so this
//! suite checks what is still independent of it, on every frame of every
//! committed trace (requests as recorded, responses and events as a
//! replay regenerates them), every embedded checkpoint, a tenant capture
//! and every artifact whole:
//!
//! 1. what was committed is what is written today: every artifact
//!    re-encodes to its file's bytes in its own encoding, every
//!    checkpoint to its embedded bytes (the derive's `#[serde(default)]`
//!    fields present in some and absent in most), and so does the capture
//!    of a world restored from it, before and after a tenant moves out
//!    and back;
//! 2. a value's encoding reads back to a value that encodes the same;
//! 3. under seeded damage — bit flips, truncation, length-field lies, tag
//!    swaps, nesting bombs, overflowing varints — and under another
//!    writer's liberties (fields reordered, repeated, unknown; numbers in
//!    each other's forms), whatever the typed decoder accepts the untyped
//!    tree decoder accepts too (what it skips — `Reader::skip` — is held
//!    to what `Reader::value` checks), what it accepts re-encodes and
//!    reads back to itself, and nothing panics.
//!
//! The corpus frames are the seed inputs of the byte-level fuzzer ROADMAP
//! item 5(a) asks for; the decoder is born with them. The suite also pins
//! what one hostile frame may cost a worker: nothing it did not send.

#[path = "../../../vendor/serde/tests/common/counting_alloc.rs"]
mod counting_alloc;
#[path = "../../../vendor/serde/tests/common/mutate.rs"]
mod mutate;

use std::path::PathBuf;

use ecoharness::{artifacts_in_dir, build_ecovisor, ScenarioArtifact};
use ecovisor::proto::{Frame, RequestBatch};
use ecovisor::{Snapshot, TenantSnapshot, WireCodec};
use serde::{binary, Deserialize, Serialize};
use simkit::rng::SimRng;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// The typed decoder on `bytes`, against what is independent of it: bytes
/// it accepts are a well-formed tree, and the value it read encodes to
/// bytes that read back as the same value. Returns its verdict; `what`
/// names the input in a failure.
fn accepts<T: Serialize + Deserialize>(bytes: &[u8], what: &str) -> bool {
    let Ok(value) = binary::from_bytes::<T>(bytes) else {
        return false;
    };
    if let Err(e) = binary::decode(bytes) {
        panic!(
            "{what}: accepted typed, refused as a tree ({e}): {} bytes starting {:02x?}",
            bytes.len(),
            &bytes[..bytes.len().min(96)]
        );
    }
    let canonical = binary::to_bytes(&value);
    let again = binary::from_bytes::<T>(&canonical)
        .unwrap_or_else(|e| panic!("{what}: an accepted value's own encoding refused: {e}"));
    assert!(
        binary::to_bytes(&again) == canonical,
        "{what}: an accepted value does not round-trip"
    );
    true
}

/// Checks (2) and (3) for one value, against `variants` hostile variants
/// of each kind.
fn differential<T: Serialize + Deserialize>(
    value: &T,
    what: &str,
    rng: &mut SimRng,
    variants: usize,
) {
    let bytes = binary::to_bytes(value);
    assert!(accepts::<T>(&bytes, what), "{what}: own encoding refused");
    let back: T = binary::from_bytes(&bytes).expect("accepted above");
    assert!(
        binary::to_bytes(&back) == bytes,
        "{what}: does not round-trip"
    );

    for _ in 0..variants {
        let damaged = mutate::mutate_bytes(&bytes, &mut || rng.next_u64());
        accepts::<T>(&damaged, what);
    }
    let tree = binary::decode(&bytes).expect("accepted above");
    for _ in 0..variants {
        let mut rewritten = tree.clone();
        mutate::mutate_tree(&mut rewritten, 24, &mut || rng.next_u64());
        let mut other_writer = Vec::new();
        binary::encode(&rewritten, &mut other_writer);
        accepts::<T>(&other_writer, what);
        // And the two compounded: another writer's bytes, damaged.
        let damaged = mutate::mutate_bytes(&other_writer, &mut || rng.next_u64());
        accepts::<T>(&damaged, what);
    }
}

#[test]
fn every_corpus_frame_and_checkpoint_reads_and_writes_as_the_tree_route_did() {
    // About 27,000 frames at a handful of variants each is most of the
    // suite's time; the few snapshots can afford more.
    const PER_FRAME: usize = 3;
    const PER_SNAPSHOT: usize = 12;
    const PER_ARTIFACT: usize = 2;
    let root = SimRng::from_seed(0xC0DEC);
    let paths = artifacts_in_dir(&corpus_dir()).expect("corpus directory exists");
    let (mut frames, mut snapshots, mut tenants) = (0, 0, 0);
    for path in &paths {
        let name = path.file_name().expect("a file").to_string_lossy();
        let mut rng = root.fork(&name);
        let (artifact, codec) =
            ScenarioArtifact::load(path).unwrap_or_else(|e| panic!("{name}: {e}"));
        // The file itself, in the encoding it is committed in: what was
        // written before a defaulted field existed is written the same.
        let committed = std::fs::read(path).expect("just loaded");
        assert!(artifact.to_bytes(codec) == committed, "{name}: file bytes");
        differential(&artifact, &name, &mut rng, PER_ARTIFACT);

        let mut frame = |frame: Frame, rng: &mut SimRng| {
            differential(&frame, &name, rng, PER_FRAME);
            frames += 1;
        };
        for entry in &artifact.trace.entries {
            frame(Frame::Request(entry.batch.clone()), &mut rng);
        }
        for events in &artifact.trace.events {
            frame(Frame::Event(events.clone()), &mut rng);
        }
        // The server's half of the wire, regenerated: a from-scratch day
        // replays in well under a second at this size even unoptimized.
        if artifact.base.is_none() && artifact.spec.tenants.len() <= 64 {
            let (mut eco, _) = build_ecovisor(&artifact.spec).expect("catalogued spec builds");
            let replay = eco.replay_trace_from(&artifact.trace, 0, artifact.spec.ticks);
            for response in replay.responses {
                frame(Frame::Response(response), &mut rng);
            }
        }

        for checkpoint in artifact.checkpoints.iter().chain(&artifact.base) {
            let snap = checkpoint
                .decode()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                snap.to_bytes() == checkpoint.snapshot,
                "{name}: checkpoint bytes"
            );
            differential(&snap, &name, &mut rng, PER_SNAPSHOT);
            snapshots += 1;
            // Restored, the checkpoint captures to its own bytes: every
            // record installed is captured back as it was.
            let (mut eco, apps) = build_ecovisor(&artifact.spec).expect("spec builds");
            eco.apply_snapshot(&snap).expect("own checkpoint restores");
            assert!(
                eco.snapshot().to_bytes() == checkpoint.snapshot,
                "{name}: a restored checkpoint's capture"
            );
            // One tenant's capture out of the restored state; moved out
            // and grafted back, the world captures to the same bytes.
            if tenants < 4 {
                let app = apps[rng.uniform_u64(0, apps.len() as u64) as usize];
                let tenant = eco.extract_app(app).expect("registered by the spec");
                // One layout: the tenant's record is the bytes the
                // checkpoint holds for it.
                let held = snap
                    .tenants
                    .iter()
                    .find(|t| t.app.app == app)
                    .expect("the checkpoint holds every tenant");
                assert!(
                    binary::to_bytes(&tenant.record) == binary::to_bytes(held),
                    "{name}: {app}'s record in the checkpoint and in its capture"
                );
                differential(&tenant, &name, &mut rng, PER_SNAPSHOT);
                eco.remove_app(app).expect("registered");
                eco.graft_app(&tenant).expect("its own capture grafts back");
                assert!(
                    eco.snapshot().to_bytes() == checkpoint.snapshot,
                    "{name}: {app} moved out and back"
                );
                tenants += 1;
            }
        }
    }
    assert!(
        frames > 10_000 && snapshots >= 3 && tenants >= 1,
        "the corpus went missing: {frames} frames, {snapshots} snapshots, {tenants} tenant captures"
    );
}

/// A sequence of nulls as large as a frame may be: any tenant can send it
/// after the hello, and an operator connection 256 MiB of it through
/// `Restore` / `MigrateIn`.
#[test]
fn a_hostile_frame_costs_a_worker_nothing_it_did_not_send() {
    const BUDGET: u64 = 1 << 20;
    let hostile = mutate::null_seq(ecovisor::transport::MAX_FRAME_LEN as usize - 5);
    let refused = |what: &str, decode: &dyn Fn() -> bool| {
        let before = counting_alloc::requested_bytes();
        let accepted = decode();
        let requested = counting_alloc::requested_bytes() - before;
        assert!(!accepted, "{what}: accepted");
        assert!(
            requested < BUDGET,
            "{what}: allocated {requested} bytes on the way to `Err`"
        );
    };
    let codec = WireCodec::Binary;
    refused("as a frame", &|| codec.decode::<Frame>(&hostile).is_ok());
    refused("as a snapshot", &|| Snapshot::from_bytes(&hostile).is_ok());
    refused("as a tenant capture", &|| {
        TenantSnapshot::from_bytes(&hostile).is_ok()
    });

    // The same bulk where a later protocol version's field would sit: in
    // a request frame's batch, beside the fields this version knows.
    let batch = RequestBatch::new(ecovisor::AppId::new(1), vec![]);
    let mut later_version = vec![0x08, 0x01, 0x07];
    later_version.extend_from_slice(b"Request");
    let known = binary::to_bytes(&batch);
    assert_eq!(known[..2], [0x08, 0x03], "a three-field struct");
    later_version.extend_from_slice(&[0x08, 0x04]);
    later_version.extend_from_slice(&known[2..]);
    later_version.extend_from_slice(&[0x03, b'n', b'e', b'w']);
    later_version.extend_from_slice(&mutate::null_seq(1 << 20));
    // Well-formed, so accepted (unknown fields are ignored) — but walked,
    // not built: a million skipped values allocate nothing.
    let before = counting_alloc::requested_bytes();
    let frame = codec
        .decode::<Frame>(&later_version)
        .expect("unknown fields are ignored");
    let requested = counting_alloc::requested_bytes() - before;
    assert_eq!(frame, Frame::Request(batch));
    assert!(requested < 4096, "skipping allocated {requested} bytes");
    // …and refused, as cheaply, once the bulk is all there is.
    later_version.truncate(later_version.len() - 1);
    refused("as an unknown field, truncated", &|| {
        codec.decode::<Frame>(&later_version).is_ok()
    });
}
