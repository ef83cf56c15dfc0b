//! Cross-codec replay determinism (seeded property loop).
//!
//! The corpus stores artifacts in whichever codec each file was
//! committed in, and the verifier re-encodes traces through both — so
//! the determinism contract must survive *any* codec path: a trace
//! recorded in binary, re-encoded as JSON (and vice versa, and double
//! round trips) must replay to identical `VesTotals` and event-frame
//! sequences. This is the satellite guarantee
//! that nothing about the codec layer (float formatting, varint edge
//! cases, map ordering) can silently perturb a recorded day.

use ecoharness::{build_ecovisor, generate, record, ScenarioArtifact};
use ecovisor::{ProtocolTrace, VesTotals, WireCodec};

mod common;

fn json_roundtrip<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    serde::json::from_str(&serde::json::to_string(value)).expect("json round trip")
}

fn binary_roundtrip<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    serde::binary::from_bytes(&serde::binary::to_bytes(value)).expect("binary round trip")
}

/// Replays `trace` against a fresh build of the spec, returning
/// (per-app totals, regenerated frames).
fn replay(
    artifact: &ScenarioArtifact,
    trace: &ProtocolTrace,
) -> (Vec<VesTotals>, Vec<ecovisor::EventFrame>) {
    let (mut eco, ids) = build_ecovisor(&artifact.spec).expect("build");
    let report = eco.replay_trace_from(trace, 0, artifact.spec.ticks);
    let totals = ids.iter().map(|&a| eco.app_totals(a).unwrap()).collect();
    (totals, report.frames)
}

/// The property loop: for three generated multi-tenant days, every
/// codec re-encoding of the recorded trace — identity, J(t), B(t),
/// J(B(t)), B(J(t)) — replays bit-identically to the recording. The
/// candidates are ones that push events (8, 9 and 7 frames); some of
/// their neighbours push none, which would leave the frame comparison
/// empty.
#[test]
fn seeded_cross_codec_replays_are_bit_identical() {
    for round in [0, 2, 11] {
        let spec = generate(0xC0DEC, round).spec;
        let artifact = record(&spec).expect("record");
        assert!(
            !artifact.trace.events.is_empty(),
            "round {round}: seeded day should push events"
        );

        let expected_totals: Vec<VesTotals> =
            artifact.expected.apps.iter().map(|a| a.totals).collect();

        let variants: Vec<(&str, ProtocolTrace)> = vec![
            ("identity", artifact.trace.clone()),
            ("json", json_roundtrip(&artifact.trace)),
            ("binary", binary_roundtrip(&artifact.trace)),
            (
                "json∘binary",
                json_roundtrip(&binary_roundtrip(&artifact.trace)),
            ),
            (
                "binary∘json",
                binary_roundtrip(&json_roundtrip(&artifact.trace)),
            ),
        ];
        for (label, trace) in &variants {
            // The codec itself must be lossless …
            assert_eq!(
                trace, &artifact.trace,
                "round {round}: {label} re-encoding altered the trace"
            );
            // … and the replay bit-identical.
            let (totals, frames) = replay(&artifact, trace);
            assert_eq!(
                totals, expected_totals,
                "round {round}: {label} totals diverged"
            );
            assert_eq!(
                frames, artifact.trace.events,
                "round {round}: {label} event frames diverged"
            );
        }
    }
}

/// Whole-artifact cross-codec round trips: an artifact saved in one
/// codec and re-encoded in the other decodes to the identical value,
/// and the codec is auto-detected from the bytes.
#[test]
fn artifact_files_cross_codec_roundtrip() {
    let mut spec = common::spec("budget-exhaustion");
    spec.ticks = 8;
    let artifact = record(&spec).expect("record");

    let json_bytes = artifact.to_bytes(WireCodec::Json);
    let bin_bytes = artifact.to_bytes(WireCodec::Binary);
    assert!(
        bin_bytes.len() < json_bytes.len(),
        "binary encoding should be the compact one"
    );

    let (from_json, c1) = ScenarioArtifact::from_bytes(&json_bytes).expect("decode json");
    let (from_bin, c2) = ScenarioArtifact::from_bytes(&bin_bytes).expect("decode binary");
    assert_eq!(c1, WireCodec::Json);
    assert_eq!(c2, WireCodec::Binary);
    assert_eq!(from_json, artifact);
    assert_eq!(from_bin, artifact);

    // Cross re-encoding: decode(json) re-saved as binary equals the
    // original binary bytes, and vice versa.
    assert_eq!(from_json.to_bytes(WireCodec::Binary), bin_bytes);
    assert_eq!(from_bin.to_bytes(WireCodec::Json), json_bytes);
}
