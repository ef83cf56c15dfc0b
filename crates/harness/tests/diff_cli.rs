//! `ecoharness diff` sees what two recordings embed, not only what they
//! replay: two days that agree on spec, traffic, digests and totals but
//! embed different checkpoints are not "identical". And the way a day
//! is authored — copy an artifact, edit its spec, `ecoharness record`
//! it — ends in a file `diff` tells apart from the one it was copied
//! from.

use std::path::{Path, PathBuf};
use std::process::Command;

use ecoharness::{record_with_checkpoints, resume, ScenarioArtifact};
use ecovisor::WireCodec;

mod common;

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

/// Runs `ecoharness` with `args`.
fn ecoharness(args: &[&std::ffi::OsStr]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ecoharness"))
        .args(args)
        .output()
        .expect("ecoharness runs")
}

/// `ecoharness diff a b`'s standard output; the command must succeed.
fn diff(a: &Path, b: &Path) -> String {
    let out = ecoharness(&["diff".as_ref(), a.as_ref(), b.as_ref()]);
    assert!(out.status.success(), "diff exited {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn diff_names_the_checkpoints_two_recordings_embed() {
    let spec = common::spec("batch-checkpoint");
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

/// Authoring a day: a copy of `sunny-batch` whose `agnostic` tenant gets
/// a smaller solar fraction records into a new file, and `diff` against
/// the committed day names the spec and the totals that moved.
#[test]
fn an_edited_copy_records_and_diff_names_what_moved() {
    let committed = common::corpus_dir().join("sunny-batch.scn.json");
    let json = std::fs::read_to_string(&committed).expect("committed day");
    let from = r#""name":"agnostic","share":{"solar_fraction":0.3,"#;
    assert_eq!(json.matches(from).count(), 1);
    let edited = json.replace(from, &from.replace("0.3", "0.1"));
    let (copy, out) = (scratch("copy"), scratch("recorded"));
    std::fs::create_dir_all(&copy).expect("scratch dir");
    let source = copy.join("sunny-batch.scn.json");
    std::fs::write(&source, edited).expect("copy written");

    let recorded = ecoharness(&[
        "record".as_ref(),
        "--out".as_ref(),
        out.as_ref(),
        source.as_ref(),
    ]);
    assert!(recorded.status.success(), "{recorded:?}");
    let fresh = out.join("sunny-batch.scn.json");
    let (day, codec) = ScenarioArtifact::load(&fresh).expect("recorded day");
    assert_eq!(codec, WireCodec::Json, "the copy's encoding is kept");
    assert_eq!(day.spec.tenants[1].share.solar_fraction, 0.1);

    let out_text = diff(&committed, &fresh);
    assert!(out_text.contains("  spec (full):"), "{out_text}");
    assert!(out_text.contains("  totals[agnostic]:"), "{out_text}");
    assert!(out_text.contains("  totals digest:"), "{out_text}");

    for dir in [copy, out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `record` takes a day's checkpoint cadence from the ticks it embeds,
/// so it refuses ticks that are not `n, 2n, …` below the horizon rather
/// than guess one.
#[test]
fn record_refuses_irregular_checkpoint_ticks() {
    let committed = common::corpus_dir().join("batch-checkpoint.scn.bin");
    let (day, _) = ScenarioArtifact::load(&committed).expect("committed day");
    let ticks = |day: &ScenarioArtifact| day.checkpoints.iter().map(|c| c.tick).collect::<Vec<_>>();
    assert_eq!(ticks(&day), [24, 48, 72]);
    let mut gap = day.clone();
    gap.checkpoints.remove(1);
    let mut unordered = day.clone();
    unordered.checkpoints.swap(0, 1);
    for (case, irregular) in [("gap", gap), ("unordered", unordered)] {
        let (dir, out) = (scratch(case), scratch(&format!("{case}-out")));
        let path = write(&irregular, &dir);
        let refused = ecoharness(&[
            "record".as_ref(),
            "--out".as_ref(),
            out.as_ref(),
            path.as_ref(),
        ]);
        assert_eq!(refused.status.code(), Some(2), "{case}: {refused:?}");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        let want = format!("checkpoint ticks {:?} are not every", ticks(&irregular));
        assert!(stderr.contains(&want), "{case}: {stderr}");
        assert!(!out.exists(), "{case}: nothing written");
        let _ = std::fs::remove_dir_all(dir);
    }
}
