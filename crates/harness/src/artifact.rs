//! Scenario artifacts: a recorded day as a first-class, versioned file.
//!
//! A [`ScenarioArtifact`] is everything a future build needs to prove it
//! still reproduces a recorded multi-tenant day bit-for-bit:
//!
//! * the [`ScenarioSpec`] the day was recorded from (to rebuild the
//!   exact ecovisor),
//! * the full [`ProtocolTrace`] — every request batch with its tick
//!   stamp, plus the event frames taken for push delivery, and
//! * the [`ExpectedOutcome`]: per-app [`VesTotals`] and 64-bit digests
//!   of the totals and the event-frame sequence
//!   ([`ecovisor::digest`]).
//!
//! Artifacts serialize through either encoding — readable
//! [`serde::json`] (`.scn.json`) or compact [`serde::binary`]
//! (`.scn.bin`) — and loading auto-detects which one a file used: a
//! JSON artifact's first byte is `{` (0x7B), a binary artifact's is the
//! codec's Map tag (0x08). The committed corpus deliberately mixes both
//! so each loader stays regression-covered.

use ecovisor::{AppId, Ecovisor, EcovisorError, ProtocolTrace, Snapshot, VesTotals, WireCodec};
use serde::{Deserialize, Serialize};

use crate::error::HarnessError;
use crate::spec::ScenarioSpec;

/// Version of the artifact container format.
///
/// Format 1 artifacts may additionally carry `checkpoints` (embedded
/// mid-day state captures) and `base` (the starting state of a resumed
/// recording); both fields are optional on the wire — absent in
/// pre-checkpoint artifacts, omitted when empty — so every committed
/// format-1 file keeps loading and checkpoint-free recordings stay
/// byte-identical to what older builds wrote.
pub(crate) const ARTIFACT_FORMAT: u32 = 1;

/// File extension of a JSON-encoded artifact.
pub const JSON_EXT: &str = "scn.json";
/// File extension of a binary-encoded artifact.
pub const BINARY_EXT: &str = "scn.bin";

/// One tenant's expected end-of-day accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppOutcome {
    /// The tenant's app id (spec order ⇒ deterministic).
    pub app: AppId,
    /// The tenant's registration name.
    pub name: String,
    /// Cumulative energy/carbon totals after the final settlement.
    pub totals: VesTotals,
}

impl AppOutcome {
    /// One tenant's accounting as `eco` holds it now — how the recorder
    /// writes an outcome and how the verifier reads a replay's back.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when `app` is not registered.
    pub(crate) fn read(eco: &Ecovisor, app: AppId) -> Result<Self, EcovisorError> {
        Ok(AppOutcome {
            app,
            name: eco.app_name(app)?,
            totals: eco.app_totals(app)?,
        })
    }
}

/// The recorded run's expected outcome: what every future replay must
/// reproduce bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpectedOutcome {
    /// Per-app totals, in app-id order.
    pub apps: Vec<AppOutcome>,
    /// [`ecovisor::digest`] of `apps` (one-integer totals comparison).
    pub totals_digest: u64,
    /// [`ecovisor::digest`] of the recorded event-frame sequence.
    pub events_digest: u64,
    /// Total requests across the trace (quick integrity check).
    pub request_count: usize,
    /// Total notifications across the recorded event frames.
    pub event_count: usize,
}

/// A mid-run state capture embedded in an artifact: the ecovisor's
/// complete dynamic state after `tick` fully settled ticks, as a
/// binary-encoded [`Snapshot`].
///
/// The snapshot travels as bytes (its canonical at-rest form) rather
/// than as a decoded structure, so artifact equality stays structural
/// and the stored [`Checkpoint::digest`] doubles as an integrity check
/// the verifier can apply before restoring anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Fully settled ticks at capture time ([`Snapshot::tick`]).
    pub tick: u64,
    /// The binary-encoded [`Snapshot`].
    pub snapshot: Vec<u8>,
    /// [`Snapshot::digest`] of the encoded snapshot.
    pub digest: u64,
}

impl Checkpoint {
    /// Packages a snapshot as an embeddable checkpoint.
    pub(crate) fn new(snap: &Snapshot) -> Self {
        Checkpoint {
            tick: snap.tick,
            snapshot: snap.to_bytes(),
            digest: snap.digest(),
        }
    }

    /// Decodes the embedded snapshot, verifying the stored digest and
    /// the declared tick.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Decode`] when the bytes do not decode, hash to a
    /// different digest, or disagree with [`Checkpoint::tick`].
    pub fn decode(&self) -> Result<Snapshot, HarnessError> {
        let snap = Snapshot::from_bytes(&self.snapshot)
            .map_err(|e| HarnessError::Decode(format!("checkpoint@{}: {e}", self.tick)))?;
        if snap.digest() != self.digest {
            return Err(HarnessError::Decode(format!(
                "checkpoint@{}: snapshot digest {:016x} ≠ stored {:016x}",
                self.tick,
                snap.digest(),
                self.digest
            )));
        }
        if snap.tick != self.tick {
            return Err(HarnessError::Decode(format!(
                "checkpoint@{}: embedded snapshot settled {} ticks",
                self.tick, snap.tick
            )));
        }
        Ok(snap)
    }
}

/// A recorded scenario: spec + trace + expected outcome, optionally
/// carrying embedded mid-day [`Checkpoint`]s and/or the `base`
/// checkpoint a resumed recording started from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioArtifact {
    /// Artifact container version ([`ARTIFACT_FORMAT`]).
    pub(crate) format: u32,
    /// The spec the day was recorded from.
    pub spec: ScenarioSpec,
    /// The complete recorded wire traffic.
    pub trace: ProtocolTrace,
    /// What replaying `trace` against `spec` must reproduce.
    pub expected: ExpectedOutcome,
    /// Embedded mid-day state captures, ascending by tick. The verifier
    /// restores each one and replays the remainder of the trace against
    /// it.
    #[serde(default)]
    pub checkpoints: Vec<Checkpoint>,
    /// For a resumed recording (`ecoharness record --from`): the
    /// checkpoint the run started from. Replay restores this state
    /// first and begins at its tick instead of tick 0.
    #[serde(default)]
    pub base: Option<Checkpoint>,
}

impl ScenarioArtifact {
    /// Serializes the artifact in the given encoding.
    pub fn to_bytes(&self, codec: WireCodec) -> Vec<u8> {
        codec.encode(self)
    }

    /// Decodes an artifact, auto-detecting the codec from the leading
    /// byte. Returns the artifact and the codec it was stored in.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Decode`] on malformed input or a format-version
    /// mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<(Self, WireCodec), HarnessError> {
        let codec = detect_codec(bytes)?;
        let artifact: ScenarioArtifact = codec
            .decode(bytes)
            .map_err(|e| HarnessError::Decode(format!("{} artifact: {e}", codec_name(codec))))?;
        if artifact.format != ARTIFACT_FORMAT {
            return Err(HarnessError::Decode(format!(
                "artifact format {} (this build reads {ARTIFACT_FORMAT})",
                artifact.format
            )));
        }
        Ok((artifact, codec))
    }

    /// The canonical file name for this artifact in `codec`.
    pub fn file_name(&self, codec: WireCodec) -> String {
        match codec {
            WireCodec::Json => format!("{}.{JSON_EXT}", self.spec.name),
            WireCodec::Binary => format!("{}.{BINARY_EXT}", self.spec.name),
        }
    }

    /// Writes the artifact into `dir` under its canonical name,
    /// returning the path written.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] on filesystem failure.
    pub fn write_to_dir(
        &self,
        dir: &std::path::Path,
        codec: WireCodec,
    ) -> Result<std::path::PathBuf, HarnessError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name(codec));
        std::fs::write(&path, self.to_bytes(codec))?;
        Ok(path)
    }

    /// The checkpoint cadence, in ticks, the day was recorded at: its
    /// first checkpoint's tick, or `None` when it embeds none.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Spec`] when the checkpoint ticks are not exactly
    /// `n, 2n, …` below the horizon, which no cadence records.
    pub fn checkpoint_cadence(&self) -> Result<Option<u64>, HarnessError> {
        let ticks: Vec<u64> = self.checkpoints.iter().map(|c| c.tick).collect();
        let Some(&every) = ticks.first() else {
            return Ok(None);
        };
        let regular = every > 0
            && std::iter::successors(Some(every), |t| t.checked_add(every))
                .take_while(|&t| t < self.spec.ticks)
                .eq(ticks.iter().copied());
        if !regular {
            return Err(HarnessError::Spec(format!(
                "`{}`: checkpoint ticks {ticks:?} are not every {every} ticks below \
                 the {}-tick horizon",
                self.spec.name, self.spec.ticks
            )));
        }
        Ok(Some(every))
    }

    /// Loads an artifact from a file, auto-detecting the codec.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] / [`HarnessError::Decode`].
    pub fn load(path: &std::path::Path) -> Result<(Self, WireCodec), HarnessError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

/// `true` when `path` looks like a scenario artifact file.
pub fn is_artifact_path(path: &std::path::Path) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    name.ends_with(&format!(".{JSON_EXT}")) || name.ends_with(&format!(".{BINARY_EXT}"))
}

/// Artifact files directly inside `dir`, sorted by file name.
///
/// # Errors
///
/// [`HarnessError::Io`] when the directory cannot be read.
pub fn artifacts_in_dir(dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>, HarnessError> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| is_artifact_path(p))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Stable lowercase codec name (check labels, CLI output).
pub fn codec_name(codec: WireCodec) -> &'static str {
    match codec {
        WireCodec::Json => "json",
        WireCodec::Binary => "binary",
    }
}

fn detect_codec(bytes: &[u8]) -> Result<WireCodec, HarnessError> {
    match bytes.first() {
        Some(b'{') => Ok(WireCodec::Json),
        // The binary codec's Map tag: every artifact's top level is a
        // struct, which both codecs encode as a map.
        Some(0x08) => Ok(WireCodec::Binary),
        Some(other) => Err(HarnessError::Decode(format!(
            "unrecognized artifact leading byte 0x{other:02x}"
        ))),
        None => Err(HarnessError::Decode("empty artifact".into())),
    }
}
