//! The committed corpus as test input: a day's spec is read from its
//! file, the one place it is kept.

#![allow(dead_code)] // each test crate uses what it needs

use std::path::PathBuf;

use ecoharness::{ScenarioArtifact, ScenarioSpec, BINARY_EXT, JSON_EXT};

/// The committed `corpus/` directory.
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// The spec the committed day `name` was recorded from, whichever
/// encoding stores it.
pub fn spec(name: &str) -> ScenarioSpec {
    let path = [JSON_EXT, BINARY_EXT]
        .iter()
        .map(|ext| corpus_dir().join(format!("{name}.{ext}")))
        .find(|p| p.exists())
        .unwrap_or_else(|| panic!("no committed day `{name}`"));
    let (artifact, _) =
        ScenarioArtifact::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    artifact.spec
}
