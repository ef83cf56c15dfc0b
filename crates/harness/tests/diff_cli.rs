//! `ecoharness diff` sees what two recordings embed, not only what they
//! replay: two days that agree on spec, traffic, digests and totals but
//! embed different checkpoints are not "identical".

use std::path::{Path, PathBuf};
use std::process::Command;

use ecoharness::{corpus, record_with_checkpoints, resume, ScenarioArtifact};
use ecovisor::WireCodec;

/// A fresh directory of this test's own under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecoharness-diff-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `artifact` into `dir` and returns its path.
fn write(artifact: &ScenarioArtifact, dir: &Path) -> PathBuf {
    artifact
        .write_to_dir(dir, WireCodec::Binary)
        .expect("artifact written")
}

/// `ecoharness diff a b`'s standard output; the command must succeed.
fn diff(a: &Path, b: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ecoharness"))
        .arg("diff")
        .arg(a)
        .arg(b)
        .output()
        .expect("ecoharness runs");
    assert!(out.status.success(), "diff exited {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn diff_names_the_checkpoints_two_recordings_embed() {
    let spec = corpus::builtin("batch-checkpoint").expect("catalogued");
    let plain = record_with_checkpoints(&spec, None).expect("records");
    let cadenced = record_with_checkpoints(&spec, Some(24)).expect("records");
    assert!(!cadenced.checkpoints.is_empty());
    let (dir_a, dir_b) = (scratch("plain"), scratch("cadenced"));
    let (a, b) = (write(&plain, &dir_a), write(&cadenced, &dir_b));

    let out = diff(&a, &b);
    assert!(
        out.contains("  checkpoints (tick@digest):\n    a: none\n    b: 24@"),
        "{out}"
    );
    // Capturing does not perturb the day: the checkpoint row is the only one.
    assert_eq!(out.matches("\n    a: ").count(), 1, "{out}");
    assert!(!out.contains("identical"), "{out}");

    let same = diff(&b, &b);
    assert!(
        same.contains("identical (specs, traffic shape, digests, totals, checkpoints)"),
        "{same}"
    );

    // A resumed day names its base checkpoint too.
    let resumed = resume(&cadenced, 24).expect("resumes from the hour-24 checkpoint");
    let mut unbased = resumed.clone();
    unbased.base = None;
    let (dir_c, dir_d) = (scratch("resumed"), scratch("unbased"));
    let out = diff(&write(&resumed, &dir_c), &write(&unbased, &dir_d));
    assert!(
        out.contains("  base checkpoint (tick@digest):\n    a: 24@"),
        "{out}"
    );
    assert!(out.contains("\n    b: none"), "{out}");

    for dir in [dir_a, dir_b, dir_c, dir_d] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
