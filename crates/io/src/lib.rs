//! # cats-io — crash-safe persistence primitives
//!
//! Everything downstream of the crawler writes model state to disk at
//! some point: `cats-cli train` emits pipeline snapshots, the serving
//! watcher copies last-good models aside, and resumable training drops
//! epoch/round checkpoints. A host crash in the middle of any of those
//! writes must never leave a file that *parses but lies* — a torn
//! snapshot that decodes into half a model is strictly worse than a
//! missing file. This crate is the single choke point those writes go
//! through (DESIGN.md §10):
//!
//! 1. [`atomic_write`] — write to a same-directory temp file, `fsync`,
//!    then `rename` over the destination. Readers observe either the old
//!    bytes or the new bytes, never a prefix.
//! 2. [`io2`] — the `CATS-IO2` sectioned binary container, the one
//!    on-disk encoding: little-endian flat arrays behind a
//!    per-section-checksummed table, so truncation, bit flips and
//!    zero-length files are *detected* at load with a typed [`IoError`],
//!    not discovered later as a half-loaded model.
//! 3. [`CheckpointStore`] — named checkpoint slots for resumable
//!    training ("latest valid checkpoint" semantics: a corrupt slot
//!    reads as absent, because rename atomicity guarantees the previous
//!    good generation was replaced wholesale or not at all).
//!
//! [`ScratchDir`] is the temporary directory the benches and the
//! checkpoint tests write into; it is removed on drop, so also when an
//! assertion unwinds.
//!
//! Zero third-party dependencies; the CRC32 (IEEE/zlib polynomial) is
//! hand-rolled with a compile-time table.

pub mod io2;

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};

/// What went wrong reading or writing a persisted file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Underlying filesystem error (open/write/fsync/rename).
    Io(String),
    /// The file exists but holds zero bytes — a classic torn
    /// `create`-then-crash artifact.
    Empty {
        /// Offending file.
        path: String,
    },
    /// The container header or section table is malformed.
    BadHeader {
        /// Offending file.
        path: String,
        /// Why the header did not parse.
        reason: String,
    },
    /// The file is shorter or longer than its header and section table
    /// declare — truncation (or concatenation) in flight.
    LengthMismatch {
        /// Offending file.
        path: String,
        /// Length the header and table declare.
        expected: u64,
        /// Length actually present.
        actual: u64,
    },
    /// A section's length matches but its CRC32 does not — bit rot or a
    /// corrupting writer.
    ChecksumMismatch {
        /// Offending file.
        path: String,
        /// Checksum the section table declared.
        expected: u32,
        /// Checksum of the bytes actually present.
        actual: u32,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io: {e}"),
            Self::Empty { path } => write!(f, "{path}: empty file"),
            Self::BadHeader { path, reason } => write!(f, "{path}: bad header: {reason}"),
            Self::LengthMismatch { path, expected, actual } => {
                write!(f, "{path}: truncated payload: expected {expected} bytes, found {actual}")
            }
            Self::ChecksumMismatch { path, expected, actual } => {
                write!(f, "{path}: checksum mismatch: expected {expected:08x}, found {actual:08x}")
            }
        }
    }
}

impl std::error::Error for IoError {}

/// CRC32 lookup table for the reflected IEEE polynomial 0xEDB88320
/// (the zlib/PNG/gzip CRC), built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes`. Matches zlib's `crc32(0, ...)`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_of(&[bytes])
}

/// CRC32 (IEEE) of the concatenation of `parts`.
fn crc32_of(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in parts.iter().copied().flatten() {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Atomically replaces `path` with `bytes`: writes a same-directory temp
/// file, fsyncs it, then renames it over the destination (and fsyncs the
/// directory on Unix so the rename itself is durable). A crash at any
/// point leaves either the previous contents or the new contents — never
/// a prefix, never a mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), IoError> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .ok_or_else(|| IoError::Io(format!("{}: not a file path", path.display())))?;
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = dir.join(tmp_name);
    let write = |tmp: &Path| -> std::io::Result<()> {
        let mut f = File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    };
    if let Err(e) = write(&tmp) {
        let _ = fs::remove_file(&tmp);
        return Err(IoError::Io(format!("{}: {e}", tmp.display())));
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(IoError::Io(format!("rename {} -> {}: {e}", tmp.display(), path.display())));
    }
    // Durability of the rename itself: fsync the containing directory.
    #[cfg(unix)]
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    cats_obs::counter("cats.io.atomic_writes").inc();
    Ok(())
}

/// A directory `temp_dir()/<prefix>_<pid>`, removed with its contents
/// when dropped — also when an assertion unwinds past it.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates the directory (and any missing parents).
    pub fn new(prefix: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("{prefix}_{}", std::process::id()));
        fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", dir.display()));
        Self(dir)
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Named checkpoint slots backed by `CATS-IO2` atomic files — one file
/// per stage under one directory. Because every [`CheckpointStore::save`]
/// replaces the slot file atomically, the slot always holds the *latest
/// complete* checkpoint: a kill mid-save leaves the previous good
/// generation in place. A slot that fails verification (crashed host,
/// flipped bits) reads as absent, so resumable training falls back to
/// recomputing the stage rather than trusting damaged state.
pub struct CheckpointStore {
    dir: PathBuf,
    /// Chaos hook: when ≥ 0, each save decrements it and panics once it
    /// hits zero — simulating a process killed immediately after a
    /// checkpoint write completes. Used by `exp_soak` and the
    /// crash-safety tests to interrupt training deterministically.
    kill_after: AtomicI64,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, IoError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| IoError::Io(format!("{}: {e}", dir.display())))?;
        Ok(Self { dir, kill_after: AtomicI64::new(-1) })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a stage's slot file.
    pub fn path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}.ckpt"))
    }

    /// Arms the chaos kill switch: the `n`-th subsequent save panics
    /// right after its write completes, simulating a `kill -9` between a
    /// checkpoint and the next unit of training work.
    pub fn kill_after_saves(&self, n: u64) {
        self.kill_after.store(n as i64, Ordering::SeqCst);
    }

    /// Atomically writes a stage checkpoint as a single-section
    /// `CATS-IO2` container (a fixed 48 bytes of framing before the
    /// payload).
    pub fn save(&self, stage: &str, payload: &[u8]) -> Result<(), IoError> {
        let mut container = io2::Io2Builder::new();
        container.section("payload", payload.to_vec());
        container.write(&self.path(stage))?;
        cats_obs::counter("cats.io.checkpoint.saves").inc();
        if self.kill_after.load(Ordering::SeqCst) >= 0
            && self.kill_after.fetch_sub(1, Ordering::SeqCst) == 1
        {
            panic!("cats-io chaos: simulated kill after checkpoint save ({stage})");
        }
        Ok(())
    }

    /// Loads the latest valid checkpoint of a stage. Returns `None` for
    /// a missing slot *and* for a corrupt one (counted under
    /// `cats.io.checkpoint.corrupt`): resume must recompute, not trust.
    pub fn load(&self, stage: &str) -> Option<Vec<u8>> {
        let path = self.path(stage);
        if !path.exists() {
            return None;
        }
        let read = || -> Result<Vec<u8>, IoError> {
            let bytes =
                fs::read(&path).map_err(|e| IoError::Io(format!("{}: {e}", path.display())))?;
            let name = path.display().to_string();
            let file = io2::Io2File::parse(&bytes, &name)?;
            Ok(file.require("payload", &name)?.to_vec())
        };
        match read() {
            Ok(payload) => Some(payload),
            Err(e) => {
                cats_obs::counter("cats.io.checkpoint.corrupt").inc();
                eprintln!("cats-io: discarding corrupt checkpoint {stage}: {e}");
                None
            }
        }
    }

    /// Removes a stage's slot (training finished; the checkpoint must
    /// not resurrect into a later, different run).
    pub fn clear(&self, stage: &str) {
        let _ = fs::remove_file(self.path(stage));
    }

    /// Removes every slot in the store.
    pub fn clear_all(&self) {
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if entry.path().extension().is_some_and(|e| e == "ckpt") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_removed_when_a_test_panics() {
        let mut path = PathBuf::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = ScratchDir::new("cats_io_scratch_test");
            fs::write(dir.join("f"), b"x").unwrap();
            path = dir.to_path_buf();
            panic!("a failed assertion");
        }));
        assert!(unwound.is_err());
        assert!(!path.exists(), "a panic must remove the scratch dir too");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values (zlib-compatible).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn atomic_write_replaces_existing_contents() {
        let scratch = ScratchDir::new("cats_io_replace");
        let path = scratch.join("file");
        atomic_write(&path, b"first generation").unwrap();
        atomic_write(&path, b"second generation").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second generation");
        // No temp droppings left behind.
        let dir = path.parent().unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.starts_with(&name) && n != name
            })
            .count();
        assert_eq!(leftovers, 0, "temp file leaked");
    }

    #[test]
    fn checkpoint_store_saves_loads_and_clears() {
        let dir = ScratchDir::new("cats_io_store");
        let store = CheckpointStore::open(&*dir).unwrap();
        assert!(store.load("w2v").is_none(), "missing slot reads as absent");
        store.save("w2v", b"epoch 3 state").unwrap();
        assert_eq!(store.load("w2v").unwrap(), b"epoch 3 state");
        store.save("w2v", b"epoch 4 state").unwrap();
        assert_eq!(store.load("w2v").unwrap(), b"epoch 4 state", "latest generation wins");

        // Corrupt slot reads as absent, not as an error or stale data.
        let slot = store.path("w2v");
        let mut bytes = fs::read(&slot).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&slot, &bytes).unwrap();
        assert!(store.load("w2v").is_none(), "corrupt checkpoint must be discarded");

        store.save("gbt", b"round 10").unwrap();
        store.clear("gbt");
        assert!(store.load("gbt").is_none());
        store.save("a", b"1").unwrap();
        store.save("b", b"2").unwrap();
        store.clear_all();
        assert!(store.load("a").is_none() && store.load("b").is_none());
    }

    #[test]
    fn kill_switch_panics_after_nth_save() {
        let dir = ScratchDir::new("cats_io_kill");
        let store = CheckpointStore::open(&*dir).unwrap();
        store.kill_after_saves(2);
        store.save("s", b"one").unwrap();
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.save("s", b"two").unwrap();
        }));
        assert!(killed.is_err(), "second save must simulate the kill");
        // The write itself completed before the simulated kill — exactly
        // like a real crash after fsync+rename.
        assert_eq!(store.load("s").unwrap(), b"two");
        store.save("s", b"three").unwrap();
    }
}
