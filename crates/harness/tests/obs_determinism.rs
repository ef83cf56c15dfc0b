//! Observability never perturbs a recorded day.
//!
//! The whole observability layer — metric registry, latency histograms,
//! sampling, structured logging at maximum verbosity — is a write-only
//! side channel: recording a scenario with a hub attached and the log
//! facade wide open must produce **byte-identical** artifacts to a
//! plain recording. Wall-clock readings exist (histograms store real
//! durations), but they live and die inside the registry; the moment
//! one leaked into a response, a trace entry, settlement arithmetic, or
//! an expected-outcome digest, these tests would catch the byte diff.

use ecoharness::{corpus, record, record_observed};
use ecovisor::obs::{self, Level, ObsHub};
use ecovisor::WireCodec;

/// A builtin with real traffic: multiple tenants, solar, a battery,
/// event push — enough to exercise dispatch sampling, lock timing, and
/// the settlement histograms.
fn busy_spec() -> ecoharness::ScenarioSpec {
    corpus::builtin("mixed-tenants").expect("builtin corpus")
}

#[test]
fn observed_recording_is_byte_identical_across_codecs() {
    // Max verbosity: every log site fires into the in-memory ring.
    // The stderr sink stays off so test output remains clean — the
    // determinism claim is about artifact bytes, not terminal noise.
    obs::set_max_level(Some(Level::Trace));
    obs::clear_ring();

    let spec = busy_spec();
    let plain = record(&spec).expect("plain recording");
    let hub = ObsHub::new();
    let observed = record_observed(&spec, std::sync::Arc::clone(&hub)).expect("observed recording");

    // Structural equality first (clearer failure messages)…
    assert_eq!(
        plain.expected, observed.expected,
        "totals/digests diverged with observability attached"
    );
    assert_eq!(
        plain.trace, observed.trace,
        "trace diverged with observability attached"
    );
    // …then the real contract: identical bytes in both codecs.
    for codec in [WireCodec::Json, WireCodec::Binary] {
        assert_eq!(
            plain.to_bytes(codec),
            observed.to_bytes(codec),
            "artifact bytes diverged in {codec:?}"
        );
    }

    // The side channel actually observed the run (this is not a
    // vacuous pass with a dead hub). `requests_total` is flushed on
    // sampled batches, so it trails the true total by at most one
    // sampling window — but never exceeds it and never stays at zero
    // for a day with thousands of requests.
    let snap = hub.snapshot();
    let counted = snap.counter("dispatch.requests_total").unwrap_or(0);
    assert!(
        counted > 0 && counted <= plain.expected.request_count as u64,
        "hub miscounted dispatch traffic: {counted} of {}",
        plain.expected.request_count
    );
    // The transport's instruments are in the same catalogue, the syscall
    // counters beside the frame counters they are read against; a day
    // recorded in process has read from and written to no socket.
    for name in [
        "transport.frames_in_total",
        "transport.socket_reads_total",
        "transport.turns_total",
        "transport.frames_out_total",
        "transport.socket_writes_total",
    ] {
        assert_eq!(snap.counter(name), Some(0), "{name}");
    }

    obs::set_max_level(None);
}

#[test]
fn observed_recording_is_repeatable() {
    // Two observed recordings of the same spec agree with each other
    // too — sampling phase (a thread-local countdown) never reaches
    // the artifact.
    let spec = busy_spec();
    let a = record_observed(&spec, ObsHub::new()).expect("first observed recording");
    let b = record_observed(&spec, ObsHub::new()).expect("second observed recording");
    assert_eq!(a.to_bytes(WireCodec::Binary), b.to_bytes(WireCodec::Binary));
}
