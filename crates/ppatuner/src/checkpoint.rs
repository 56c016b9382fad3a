//! Versioned checkpoint/resume support for interrupted tuning runs.
//!
//! A real tuning campaign runs for days on a shared license pool; the
//! driver process dies, the cluster preempts, someone trips over a power
//! cord. The tuner therefore persists a [`Checkpoint`] at the end of
//! every iteration, and [`PpaTuner::resume`](crate::PpaTuner::resume)
//! continues an interrupted run to a [`TuneResult`](crate::TuneResult)
//! *identical* to the uninterrupted one.
//!
//! # How resume reproduces a run exactly
//!
//! The checkpoint's load-bearing content is the **evaluation-outcome
//! log**: one [`EvalRecord`] per oracle attempt, successes and failures
//! alike, in order. Resume re-executes Algorithm 1 from the beginning
//! with the same seed, but reads every wave's attempts back from the log
//! through the retry loop live attempts take; because every other source
//! of randomness (the initialization shuffle, the hyper-parameter restart
//! draws) is the tuner's own seeded RNG replayed over the same data, the
//! loop deterministically re-reaches the checkpointed state — regions,
//! statuses, models, and RNG position included — and the oracle takes
//! over. Failed attempts are replayed too: they drive retry and
//! quarantine control flow, so eliding them would desynchronize the run.
//!
//! The [`StateSnapshot`] carried alongside the log is for *verification*
//! only: the log must drain at the checkpoint's iteration boundary (an
//! empty one drains at the run's start and is refused), in the recorded
//! state (statuses, run counts, RNG position, δ, degraded fits, and a
//! digest of every uncertainty region are compared before going live; any
//! mismatch aborts with [`TunerError::Checkpoint`](crate::TunerError::Checkpoint)).
//! Nothing else is stored, since replay rebuilds the rest.

use std::cell::RefCell;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::oracle::EvalError;
use crate::tuner::{PpaTunerConfig, SourceData};

/// Current checkpoint format version. Bumped on any incompatible change;
/// resume refuses other versions rather than misinterpreting them.
/// Version 2 replaced the configuration's `threads`, `eval_workers`,
/// `predict_workers` and `predict_block` with the single `workers`;
/// version 3 replaced the snapshot's `regions` and `history` with
/// `regions_digest`; version 4 dropped five configuration fields: the
/// batch-diversity γ, the diversity radius and the outlier gate became
/// constants, and the retry backoff's base and cap went with the backoff.
pub const CHECKPOINT_VERSION: u32 = 4;

/// The result of one oracle attempt, after sanitization.
///
/// `Accepted` means the QoR vector passed validation and entered the
/// model; `Failed` covers crashes, timeouts, and rejected QoR. The
/// distinction is exactly what the resilient executor branches on, which
/// is why replaying these records reproduces its control flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EvalOutcome {
    /// The attempt produced a usable QoR vector.
    Accepted {
        /// The accepted (finite, validated) QoR values.
        qor: Vec<f64>,
    },
    /// The attempt produced no usable QoR.
    Failed {
        /// Why the attempt failed.
        error: EvalError,
    },
}

/// One oracle attempt in the evaluation log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Candidate index the attempt targeted.
    pub candidate: usize,
    /// What came back.
    pub outcome: EvalOutcome,
}

/// The loop state at checkpoint time that resume verifies after replay.
///
/// Everything here is *derived*: resume rebuilds it by replaying the
/// evaluation log, then compares it field by field, so a replay that
/// drifted is refused before live evaluation resumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateSnapshot {
    /// One character per candidate: `u` undecided, `p` Pareto,
    /// `d` dropped, `q` quarantined.
    pub statuses: String,
    /// Number of accepted observations so far.
    pub evaluated: usize,
    /// Oracle runs so far (failed attempts included).
    pub runs: usize,
    /// The tuner RNG's internal state words at checkpoint time; compared
    /// verbatim after replay, so any drift in RNG consumption is caught
    /// before live evaluation resumes.
    pub rng_state: Vec<u64>,
    /// Absolute per-objective δ the run locked in after initialization.
    pub delta: Vec<f64>,
    /// [`digest_matrix`] over every candidate's uncertainty region, its
    /// optimistic then its pessimistic corner: replay must rebuild the
    /// ε-PAL boxes bit for bit, not just the statuses they imply.
    pub regions_digest: u64,
    /// Degraded-fit fallbacks the run has taken so far (surrogate
    /// calibrations served by the last-good model; see the `DegradedFit`
    /// trace event). A resume that forgets to re-install an injected
    /// fault plan (or hits different numerics) is caught here, before
    /// going live.
    pub degraded_fits: usize,
}

/// A complete, resumable checkpoint of a tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The iteration resume will execute next (the checkpoint was written
    /// at the end of iteration `next_iteration − 1`).
    pub next_iteration: usize,
    /// The configuration the run used. Resume requires the same
    /// configuration up to `workers`: a different τ, seed, or budget would
    /// silently diverge from the log, while the thread budget never
    /// changes a result.
    pub config: PpaTunerConfig,
    /// Digest of the candidate matrix the run was started with.
    pub candidates_digest: u64,
    /// Digest of the source-task data the run was started with.
    pub source_digest: u64,
    /// Every oracle attempt so far, in order (the replay script).
    pub eval_log: Vec<EvalRecord>,
    /// Derived loop state that resume verifies.
    pub snapshot: StateSnapshot,
}

impl Checkpoint {
    /// Validates that this checkpoint belongs to the run being resumed:
    /// same format version, the same configuration (`workers` aside), and
    /// the same candidate/source data (by digest).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn validate(
        &self,
        config: &PpaTunerConfig,
        candidates: &[Vec<f64>],
        source: &SourceData,
    ) -> Result<(), String> {
        if self.version != CHECKPOINT_VERSION {
            let version = u64::from(self.version);
            return Err(CheckpointError::Unsupported { version }.to_string());
        }
        // `workers` only trades wall-clock, never a result.
        let same_run = PpaTunerConfig {
            workers: config.workers,
            ..self.config.clone()
        };
        if &same_run != config {
            return Err("checkpoint configuration differs from the tuner's".into());
        }
        let cd = digest_matrix(candidates);
        if self.candidates_digest != cd {
            return Err(format!(
                "candidate set changed since checkpoint (digest {:#x} != {:#x})",
                cd, self.candidates_digest
            ));
        }
        let sd = source_digest(source);
        if self.source_digest != sd {
            return Err(format!(
                "source data changed since checkpoint (digest {:#x} != {:#x})",
                sd, self.source_digest
            ));
        }
        Ok(())
    }

    /// Serializes to the sealed JSON checkpoint format: the checkpoint's
    /// fields, then a trailing `digest` key holding
    /// [`Checkpoint::content_digest`], so a torn or bit-flipped write
    /// surfaces as *corrupt* on [`Checkpoint::from_json`] instead of
    /// silently resuming from damaged state.
    pub fn to_json(&self) -> String {
        let mut json = self.unsealed_json();
        let digest = fnv1a(FNV_OFFSET, json.as_bytes());
        json.pop(); // the closing brace
        json.push_str(&format!(",\"digest\":{digest}}}"));
        json
    }

    /// The content digest [`Checkpoint::to_json`] seals the bytes with:
    /// FNV-1a over the JSON serialization without the `digest` key.
    pub fn content_digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.unsealed_json().as_bytes())
    }

    fn unsealed_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization cannot fail")
    }

    /// Parses a checkpoint from its sealed JSON form, checks its format
    /// version, and verifies its content digest.
    ///
    /// # Errors
    ///
    /// A description of the parse failure, version mismatch, or digest
    /// mismatch.
    pub fn from_json(s: &str) -> Result<Self, String> {
        Checkpoint::parse(s).map_err(|e| match e {
            CheckpointError::Corrupt { reason } => reason,
            e => e.to_string(),
        })
    }

    /// [`Checkpoint::from_json`] with the failure classified. The version
    /// is read before anything version-specific is checked: another
    /// format's bytes re-serialize differently, so its digest cannot
    /// match, and it must be refused as unsupported rather than mistaken
    /// for a torn write.
    fn parse(s: &str) -> Result<Self, CheckpointError> {
        let corrupt = |reason: String| CheckpointError::Corrupt { reason };
        let value: serde_json::Value =
            serde_json::from_str(s).map_err(|e| corrupt(format!("malformed checkpoint: {e}")))?;
        match value.get("version").and_then(serde_json::Value::as_u64) {
            Some(v) if v == u64::from(CHECKPOINT_VERSION) => {}
            Some(version) => return Err(CheckpointError::Unsupported { version }),
            None => return Err(corrupt("checkpoint has no format version".into())),
        }
        let stored = value
            .get("digest")
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| corrupt("checkpoint has no content digest".into()))?;
        let ckpt: Checkpoint = serde_json::from_value(&value)
            .map_err(|e| corrupt(format!("malformed checkpoint: {e}")))?;
        let expected = ckpt.content_digest();
        if stored != expected {
            return Err(corrupt(format!(
                "checkpoint digest mismatch: stored {stored:#x}, content hashes to {expected:#x} \
                 (torn or tampered write)"
            )));
        }
        Ok(ckpt)
    }
}

/// The FNV-1a offset basis: the state every digest starts from.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the bit patterns of `f64` rows (each prefixed by its
/// length, the row count last), used to pin a checkpoint to the exact
/// data it was created from. Takes any row iterator, so callers need not
/// gather borrowed rows into a matrix first.
pub fn digest_matrix<R: AsRef<[f64]>>(rows: impl IntoIterator<Item = R>) -> u64 {
    let word = |h: u64, w: u64| fnv1a(h, &w.to_le_bytes());
    let mut h = FNV_OFFSET;
    let mut count = 0u64;
    for row in rows {
        let row = row.as_ref();
        h = word(h, row.len() as u64);
        for &v in row {
            h = word(h, v.to_bits());
        }
        count += 1;
    }
    word(h, count)
}

/// Digest of a full [`SourceData`] (inputs and outputs).
pub fn source_digest(source: &SourceData) -> u64 {
    digest_matrix(source.inputs()) ^ digest_matrix(source.outputs()).rotate_left(1)
}

/// Why a checkpoint store operation failed, split along the axis callers
/// branch on: *corrupt data* can be degraded around (scan back to an
/// older entry, or accept losing progress), while an *I/O failure* means
/// the storage itself is unhealthy and retrying or aborting is the only
/// sound move. An intact checkpoint of another format version is neither:
/// it is refused outright, since older entries of the same chain share
/// its format. Refuse-with-reason for foreign checkpoints (config or data
/// digest) lives in [`Checkpoint::validate`], after a load succeeds.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The stored bytes exist but do not parse as a checkpoint or fail
    /// their content-digest check (torn write, bit rot, tampering).
    Corrupt {
        /// What was wrong with the bytes.
        reason: String,
    },
    /// The underlying storage failed (permissions, disk full, transient
    /// filesystem error). The data may be fine; the medium is not.
    Io {
        /// The failing operation and OS error.
        reason: String,
    },
    /// The stored bytes are a checkpoint of another format version
    /// ([`CHECKPOINT_VERSION`]). Not corrupt, so never skipped by a chain
    /// scan-back; resume refuses it.
    Unsupported {
        /// The version found.
        version: u64,
    },
}

impl CheckpointError {
    /// `true` for [`CheckpointError::Corrupt`] — the variant a caller may
    /// degrade around by falling back to an older checkpoint.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, CheckpointError::Corrupt { .. })
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            CheckpointError::Io { reason } => write!(f, "checkpoint I/O failure: {reason}"),
            CheckpointError::Unsupported { version } => write!(
                f,
                "checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// What a [`CheckpointStore::recover`] scan found.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The newest valid checkpoint, or `None` when the store is empty.
    pub checkpoint: Option<Checkpoint>,
    /// Entries examined, newest first (0 for an empty store).
    pub scanned: usize,
    /// Entries skipped as torn/corrupt/digest-mismatched before a valid
    /// one was found. Always 0 for single-slot stores.
    pub skipped: usize,
}

/// Where checkpoints are persisted and recovered from.
///
/// `&self` receivers keep the store usable through the tuner's shared
/// borrows; implementations use interior mutability where needed.
pub trait CheckpointStore {
    /// Persists a checkpoint, replacing any previous one atomically (a
    /// torn write must never shadow a complete older checkpoint).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] describing the persistence failure.
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError>;

    /// Recovers the most recent checkpoint, or `None` when the store is
    /// empty (resume then starts a fresh run).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when the stored bytes are damaged
    /// (callers may fall back), [`CheckpointError::Io`] when the storage
    /// failed (callers should abort).
    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError>;

    /// Like [`CheckpointStore::load`], but reports how the recovery went:
    /// chain stores scan back past damaged entries and count what they
    /// skipped, which resume surfaces as a `RecoveryScan` trace event.
    /// The default implementation is a plain load with no scan-back.
    ///
    /// # Errors
    ///
    /// Same surface as [`CheckpointStore::load`].
    fn recover(&self) -> Result<Recovery, CheckpointError> {
        let checkpoint = self.load()?;
        Ok(Recovery {
            scanned: usize::from(checkpoint.is_some()),
            skipped: 0,
            checkpoint,
        })
    }
}

/// In-memory store, for tests and same-process recovery drills.
#[derive(Debug, Default)]
pub struct MemoryCheckpointStore {
    slot: RefCell<Option<Checkpoint>>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently held checkpoint, if any.
    pub fn latest(&self) -> Option<Checkpoint> {
        self.slot.borrow().clone()
    }

    /// Seeds the store with a checkpoint (e.g. one carried over from
    /// another process).
    pub fn put(&self, checkpoint: Checkpoint) {
        *self.slot.borrow_mut() = Some(checkpoint);
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        *self.slot.borrow_mut() = Some(checkpoint.clone());
        Ok(())
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        Ok(self.slot.borrow().clone())
    }
}

/// An I/O-failure error tagged with the failing operation and path.
fn io_failure(op: &str, path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        reason: format!("{op} {}: {e}", path.display()),
    }
}

/// Replaces `path` with `contents` atomically and durably: the bytes go
/// to a sibling `.tmp` file, which is flushed to the storage device
/// (`fsync`) and renamed over `path`; then the parent directory is
/// flushed too. Without that last step the rename is crash-*consistent*
/// but not *durable*: after power loss the directory may still name the
/// old file.
fn write_durable(path: &Path, contents: &str) -> Result<(), CheckpointError> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp).map_err(|e| io_failure("creating", &tmp, e))?;
    file.write_all(contents.as_bytes())
        .map_err(|e| io_failure("writing", &tmp, e))?;
    file.sync_all()
        .map_err(|e| io_failure("syncing", &tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_failure("renaming into", path, e))?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir = std::fs::File::open(parent).map_err(|e| io_failure("opening dir", parent, e))?;
    dir.sync_all()
        .map_err(|e| io_failure("syncing dir", parent, e))
}

/// Reads and parses one checkpoint file. `Ok(None)` when the file does
/// not exist; parse/digest failures are [`CheckpointError::Corrupt`],
/// another format version [`CheckpointError::Unsupported`], everything
/// else [`CheckpointError::Io`].
fn read_checkpoint_file(path: &Path) -> Result<Option<Checkpoint>, CheckpointError> {
    match std::fs::read_to_string(path) {
        Ok(s) => Checkpoint::parse(&s).map(Some).map_err(|e| match e {
            CheckpointError::Corrupt { reason } => CheckpointError::Corrupt {
                reason: format!("{}: {reason}", path.display()),
            },
            e => e,
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_failure("reading", path, e)),
    }
}

/// File-backed store: one JSON checkpoint file, replaced atomically via a
/// sibling temp file and rename, with the temp file and the parent
/// directory fsynced around the rename so a completed [`save`] survives
/// power loss (not just a process crash).
///
/// [`save`]: CheckpointStore::save
#[derive(Debug, Clone)]
pub struct FileCheckpointStore {
    path: PathBuf,
}

impl FileCheckpointStore {
    /// A store writing to (and reading from) `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileCheckpointStore { path: path.into() }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        write_durable(&self.path, &checkpoint.to_json())
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        read_checkpoint_file(&self.path)
    }
}

/// Bounded rotating checkpoint chain: each save writes a fresh
/// `ckpt-NNNNNNNN.json` entry (durably, like [`FileCheckpointStore`]) and
/// prunes entries beyond the newest `keep`. Recovery scans back from the
/// newest entry past anything torn, unparseable, or digest-mismatched to
/// the newest *valid* checkpoint — so a crash at any byte of a save costs
/// at most one iteration of progress, never the run.
#[derive(Debug, Clone)]
pub struct ChainCheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl ChainCheckpointStore {
    /// A chain rooted at directory `dir` keeping the newest `keep`
    /// entries (at least 1; 0 is clamped).
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        ChainCheckpointStore {
            dir: dir.into(),
            keep: keep.max(1),
        }
    }

    /// The chain directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many entries the chain retains.
    pub fn keep(&self) -> usize {
        self.keep
    }

    fn entry_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:08}.json"))
    }

    /// Chain entries as `(sequence, path)`, ascending by sequence. Files
    /// that do not match the `ckpt-NNNNNNNN.json` pattern (including
    /// leftover `.tmp` files from a crashed save) are ignored.
    fn entries(&self) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
        let read = match std::fs::read_dir(&self.dir) {
            Ok(read) => read,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_failure("listing", &self.dir, e)),
        };
        let mut entries = Vec::new();
        for entry in read {
            let entry = entry.map_err(|e| io_failure("listing", &self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            entries.push((seq, entry.path()));
        }
        entries.sort_unstable();
        Ok(entries)
    }
}

impl CheckpointStore for ChainCheckpointStore {
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| io_failure("creating dir", &self.dir, e))?;
        let entries = self.entries()?;
        let seq = entries.last().map_or(0, |&(seq, _)| seq + 1);
        write_durable(&self.entry_path(seq), &checkpoint.to_json())?;
        // Prune beyond keep-last-k, oldest first. Best-effort: the new
        // entry is already durable, and a failed unlink only costs disk.
        let excess = (entries.len() + 1).saturating_sub(self.keep);
        for (_, old) in entries.into_iter().take(excess) {
            std::fs::remove_file(old).ok();
        }
        Ok(())
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        self.recover().map(|r| r.checkpoint)
    }

    fn recover(&self) -> Result<Recovery, CheckpointError> {
        let entries = self.entries()?;
        let mut scanned = 0;
        let mut skipped = 0;
        let mut first_damage: Option<String> = None;
        for (_, path) in entries.iter().rev() {
            scanned += 1;
            match read_checkpoint_file(path) {
                Ok(Some(checkpoint)) => {
                    return Ok(Recovery {
                        checkpoint: Some(checkpoint),
                        scanned,
                        skipped,
                    });
                }
                // Raced unlink (e.g. a concurrent prune): not damage.
                Ok(None) => {}
                Err(CheckpointError::Corrupt { reason }) => {
                    skipped += 1;
                    first_damage.get_or_insert(reason);
                }
                // I/O failures and foreign formats stop the scan: neither
                // is damage an older entry could route around.
                Err(e) => return Err(e),
            }
        }
        if skipped > 0 {
            // Every entry was damaged: losing the whole campaign silently
            // would be worse than surfacing it.
            return Err(CheckpointError::Corrupt {
                reason: format!(
                    "all {skipped} chain entr{} corrupt (newest: {})",
                    if skipped == 1 { "y is" } else { "ies are" },
                    first_damage.unwrap_or_default()
                ),
            });
        }
        Ok(Recovery {
            checkpoint: None,
            scanned,
            skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            next_iteration: 3,
            config: PpaTunerConfig::default(),
            candidates_digest: digest_matrix(&[vec![0.5], vec![1.0]]),
            source_digest: source_digest(&SourceData::empty()),
            eval_log: vec![
                EvalRecord {
                    candidate: 1,
                    outcome: EvalOutcome::Accepted {
                        qor: vec![1.0, 2.0],
                    },
                },
                EvalRecord {
                    candidate: 0,
                    outcome: EvalOutcome::Failed {
                        error: EvalError::Crash {
                            detail: "injected".into(),
                        },
                    },
                },
            ],
            snapshot: StateSnapshot {
                statuses: "up".into(),
                evaluated: 1,
                runs: 2,
                rng_state: vec![1, 2, 3, 4],
                delta: vec![0.1, 0.1],
                regions_digest: digest_matrix([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]),
                degraded_fits: 0,
            },
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let ckpt = sample_checkpoint();
        let back = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn validate_rejects_version_config_and_data_drift() {
        let ckpt = sample_checkpoint();
        let candidates = vec![vec![0.5], vec![1.0]];
        let source = SourceData::empty();
        assert!(ckpt
            .validate(&PpaTunerConfig::default(), &candidates, &source)
            .is_ok());

        let mut wrong_version = ckpt.clone();
        wrong_version.version = 99;
        let e = wrong_version
            .validate(&PpaTunerConfig::default(), &candidates, &source)
            .unwrap_err();
        assert!(e.contains("version"), "{e}");

        let other_config = PpaTunerConfig {
            seed: 1234,
            ..PpaTunerConfig::default()
        };
        assert!(ckpt.validate(&other_config, &candidates, &source).is_err());

        let other_candidates = vec![vec![0.5], vec![0.9]];
        assert!(ckpt
            .validate(&PpaTunerConfig::default(), &other_candidates, &source)
            .is_err());

        let other_source = SourceData::new(vec![vec![0.0]], vec![vec![1.0, 2.0]]).unwrap();
        assert!(ckpt
            .validate(&PpaTunerConfig::default(), &candidates, &other_source)
            .is_err());
    }

    #[test]
    fn validate_ignores_the_worker_count() {
        let ckpt = sample_checkpoint();
        let candidates = vec![vec![0.5], vec![1.0]];
        for workers in [1, 4, 64] {
            let config = PpaTunerConfig {
                workers,
                ..PpaTunerConfig::default()
            };
            assert!(ckpt
                .validate(&config, &candidates, &SourceData::empty())
                .is_ok());
        }
    }

    /// `json` with the five configuration fields versions 1–3 stored and
    /// version 4 made constants, at their only values.
    fn with_retired_knobs(json: &str) -> String {
        let old = json
            .replace(
                "\"batch_size\":1,",
                "\"batch_size\":1,\"batch_diversity\":0.5,\"diversity_radius\":0.25,",
            )
            .replace(
                "\"max_eval_attempts\":3,",
                "\"max_eval_attempts\":3,\"backoff_base_s\":1.0,\"backoff_cap_s\":60.0,\
                 \"outlier_gate\":8.0,",
            );
        assert!(old.contains("\"diversity_radius\"") && old.contains("\"outlier_gate\""));
        old
    }

    /// A sealed checkpoint as version 1 wrote it: the four retired thread
    /// settings in place of `workers`.
    fn version_1_json() -> String {
        let json = sample_checkpoint().to_json();
        let v1 = with_retired_knobs(&json)
            .replace(
                &format!("\"version\":{CHECKPOINT_VERSION}"),
                "\"version\":1",
            )
            .replace(
                "\"workers\":0",
                "\"threads\":8,\"eval_workers\":1,\"predict_block\":256,\"predict_workers\":0",
            );
        assert_ne!(v1, json);
        v1
    }

    /// A sealed checkpoint as version 2 wrote it: the snapshot's boxes and
    /// history in place of `regions_digest`, and the digest computed over
    /// the JSON with a zeroed `digest` key.
    fn version_2_json() -> String {
        let ckpt = sample_checkpoint();
        let body = with_retired_knobs(&ckpt.to_json())
            .replace(
                &format!("\"version\":{CHECKPOINT_VERSION}"),
                "\"version\":2",
            )
            .replace(
                &format!("\"regions_digest\":{}", ckpt.snapshot.regions_digest),
                "\"regions\":[{\"lo\":[1.0,2.0],\"hi\":[1.0,2.0]},\
                 {\"lo\":[3.0,4.0],\"hi\":[3.0,4.0]}],\"history\":[]",
            )
            .replace(
                &format!("\"digest\":{}}}", ckpt.content_digest()),
                "\"digest\":0}",
            );
        assert!(body.contains("\"history\":[]") && body.ends_with("\"digest\":0}"));
        let v2_digest = fnv1a(FNV_OFFSET, body.as_bytes());
        body.replace("\"digest\":0}", &format!("\"digest\":{v2_digest}}}"))
    }

    /// A sealed checkpoint as version 3 wrote it: the five retired
    /// configuration fields, resealed over the JSON without the `digest`
    /// key, so only the version can refuse it.
    fn version_3_json() -> String {
        let ckpt = sample_checkpoint();
        let sealed = format!(",\"digest\":{}}}", ckpt.content_digest());
        let body = with_retired_knobs(&ckpt.to_json())
            .replace(
                &format!("\"version\":{CHECKPOINT_VERSION}"),
                "\"version\":3",
            )
            .replace(&sealed, "}");
        assert!(body.contains("\"version\":3") && !body.contains("\"digest\""));
        let v3_digest = fnv1a(FNV_OFFSET, body.as_bytes());
        let mut v3 = body;
        v3.pop();
        v3.push_str(&format!(",\"digest\":{v3_digest}}}"));
        v3
    }

    #[test]
    fn older_checkpoint_versions_are_refused_as_unsupported() {
        let v3 = version_3_json();
        // Read as the current version, the version-3 bytes fail the digest
        // (their config has fields v4 drops), so the version must be
        // checked first or the file would pass for a torn write.
        match Checkpoint::parse(&v3.replace("\"version\":3", "\"version\":4")) {
            Err(CheckpointError::Corrupt { reason }) => assert!(reason.contains("digest mismatch")),
            other => panic!("version-3 bytes read as version 4: {other:?}"),
        }
        for (version, json) in [(1, version_1_json()), (2, version_2_json()), (3, v3)] {
            let unsupported = format!("version {version} unsupported");
            let e = Checkpoint::from_json(&json).unwrap_err();
            assert!(e.contains(&unsupported), "{e}");
            assert!(!e.contains("digest"), "{e}");

            // In a chain, the old-format entry stops recovery with the
            // version error instead of being skipped as torn.
            let dir = chain_dir(&format!("v{version}"));
            let store = ChainCheckpointStore::new(&dir, 4);
            store.save(&sample_checkpoint()).unwrap();
            std::fs::write(dir.join("ckpt-00000001.json"), json).unwrap();
            let err = store.recover().unwrap_err();
            assert!(!err.is_corrupt(), "{err}");
            assert_eq!(err, CheckpointError::Unsupported { version });
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn digest_is_sensitive_to_values_and_shape() {
        let base = digest_matrix(&[vec![1.0, 2.0], vec![3.0]]);
        assert_ne!(base, digest_matrix(&[vec![1.0, 2.0], vec![3.5]]));
        assert_ne!(base, digest_matrix(&[vec![1.0, 2.0, 3.0]]));
        assert_ne!(base, digest_matrix(&[vec![1.0], vec![2.0, 3.0]]));
        assert_eq!(base, digest_matrix(&[vec![1.0, 2.0], vec![3.0]]));
    }

    #[test]
    fn memory_store_round_trips() {
        let store = MemoryCheckpointStore::new();
        assert!(store.load().unwrap().is_none());
        let ckpt = sample_checkpoint();
        store.save(&ckpt).unwrap();
        assert_eq!(store.load().unwrap().unwrap(), ckpt);
        assert_eq!(store.latest().unwrap(), ckpt);
    }

    #[test]
    fn file_store_round_trips_and_overwrites() {
        let dir = std::env::temp_dir().join(format!("ppat-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = FileCheckpointStore::new(dir.join("run.ckpt.json"));
        assert!(store.load().unwrap().is_none());
        let mut ckpt = sample_checkpoint();
        store.save(&ckpt).unwrap();
        ckpt.next_iteration = 9;
        store.save(&ckpt).unwrap();
        let back = store.load().unwrap().unwrap();
        assert_eq!(back.next_iteration, 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_checkpoint_file_is_an_error_not_none() {
        let dir = std::env::temp_dir().join(format!("ppat-ckpt-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt.json");
        std::fs::write(&path, "{ not json").unwrap();
        let store = FileCheckpointStore::new(&path);
        // Malformed bytes are a *corrupt* error — the variant a caller
        // may degrade around — never silently `None`, and never mistaken
        // for an I/O failure.
        let err = store.load().unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealing_is_idempotent_and_detects_tampering() {
        let ckpt = sample_checkpoint();
        let json = ckpt.to_json();
        assert!(
            json.ends_with(&format!(",\"digest\":{}}}", ckpt.content_digest())),
            "{json}"
        );
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.to_json(), json);

        // Any content change under an unrefreshed digest is rejected.
        let tampered = json.replace("\"next_iteration\":3", "\"next_iteration\":4");
        assert_ne!(tampered, json);
        let e = Checkpoint::from_json(&tampered).unwrap_err();
        assert!(e.contains("digest mismatch"), "{e}");

        // So is a checkpoint without one.
        let unsealed = json.replace(&format!(",\"digest\":{}", ckpt.content_digest()), "");
        let e = Checkpoint::from_json(&unsealed).unwrap_err();
        assert!(e.contains("no content digest"), "{e}");
    }

    #[test]
    fn file_store_seals_on_disk_and_rejects_truncation() {
        let dir = std::env::temp_dir().join(format!("ppat-ckpt-seal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.json");
        let store = FileCheckpointStore::new(&path);
        store.save(&sample_checkpoint()).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, sample_checkpoint().to_json());

        // A torn (truncated) file is corrupt, not an I/O failure.
        std::fs::write(&path, &on_disk[..on_disk.len() - 7]).unwrap();
        let err = store.load().unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn chain_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppat-chain-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn chain_store_rotates_and_loads_newest() {
        let dir = chain_dir("rotate");
        let store = ChainCheckpointStore::new(&dir, 3);
        assert_eq!(store.keep(), 3);
        assert!(store.load().unwrap().is_none());
        for t in 0..5 {
            let mut ckpt = sample_checkpoint();
            ckpt.next_iteration = t;
            store.save(&ckpt).unwrap();
        }
        assert_eq!(store.load().unwrap().unwrap().next_iteration, 4);
        // Only the newest `keep` entries survive pruning.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 3, "{names:?}");
        assert!(
            names.contains(&"ckpt-00000004.json".to_string()),
            "{names:?}"
        );
        assert!(
            !names.contains(&"ckpt-00000001.json".to_string()),
            "{names:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chain_recover_scans_past_damaged_entries() {
        let dir = chain_dir("scan");
        let store = ChainCheckpointStore::new(&dir, 4);
        for t in 0..3 {
            let mut ckpt = sample_checkpoint();
            ckpt.next_iteration = t;
            store.save(&ckpt).unwrap();
        }
        // Tear the newest entry mid-byte and digest-tamper the next one:
        // recovery must land on entry 0 and count both skips.
        let newest = dir.join("ckpt-00000002.json");
        let bytes = std::fs::read_to_string(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let middle = dir.join("ckpt-00000001.json");
        let bytes = std::fs::read_to_string(&middle).unwrap();
        std::fs::write(&middle, bytes.replace("\"runs\":2", "\"runs\":3")).unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.checkpoint.as_ref().unwrap().next_iteration, 0);
        assert_eq!(recovery.scanned, 3);
        assert_eq!(recovery.skipped, 2);
        assert_eq!(store.load().unwrap().unwrap().next_iteration, 0);

        // A leftover .tmp from a crashed save is ignored entirely.
        std::fs::write(dir.join("ckpt-00000003.json.tmp"), "torn").unwrap();
        assert_eq!(store.recover().unwrap().skipped, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chain_with_only_damaged_entries_is_corrupt_not_empty() {
        let dir = chain_dir("all-bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ckpt-00000000.json"), "{ torn").unwrap();
        let store = ChainCheckpointStore::new(&dir, 2);
        let err = store.recover().unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        // An actually-empty chain is a fresh start, not an error.
        std::fs::remove_dir_all(&dir).ok();
        let empty = store.recover().unwrap();
        assert_eq!(
            empty,
            Recovery {
                checkpoint: None,
                scanned: 0,
                skipped: 0
            }
        );
    }
}
