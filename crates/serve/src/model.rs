//! The hot-swappable model slot and its file watcher.
//!
//! The slot is a hand-rolled `ArcSwap`: a `Mutex<Arc<VersionedModel>>`
//! where the lock is held only for the duration of a pointer clone or
//! store — never across scoring. Readers take a cheap [`ModelSlot::load`]
//! and then own an immutable, fully-constructed model for as long as
//! they need it; a concurrent [`ModelSlot::swap`] publishes a *new* Arc
//! and cannot mutate anything a reader already holds. That is the whole
//! no-torn-reads argument: a request either sees the old model or the
//! new one, version stamp and weights together, never a mix.
//!
//! [`ModelWatcher`] closes the deployment loop from the paper's §VI:
//! `cats-cli train` writes a snapshot, the watcher notices the content
//! change (length + CRC32 — same-size rewrites and coarse-mtime
//! filesystems can fool a metadata fingerprint), parses it off the
//! serving path, and swaps it in. A snapshot that fails its checksum or
//! parse (torn rewrite, truncation, newer format) is counted and
//! skipped — the server keeps answering from the old model — and each
//! successfully swapped snapshot can be mirrored to a *last-good* copy
//! so a restart survives a corrupt primary file (DESIGN.md §10).

use cats_core::{CatsPipeline, PipelineSnapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A pipeline plus the slot version that published it.
pub struct VersionedModel {
    /// Monotonic slot version, starting at 1.
    pub version: u64,
    /// The trained pipeline.
    pub pipeline: CatsPipeline,
}

/// Atomically swappable model reference shared by every serving thread.
///
/// The slot keeps **two** generations: the current model and the one it
/// displaced. During a cluster rolling swap a router pins every request
/// to one version; a shard that has already advanced can still serve
/// requests pinned to the old version from the `previous` slot, so the
/// swap never forces a mixed-version response (see `router.rs`).
pub struct ModelSlot {
    current: Mutex<Arc<VersionedModel>>,
    previous: Mutex<Option<Arc<VersionedModel>>>,
    version: AtomicU64,
}

impl ModelSlot {
    /// Publishes `pipeline` as version 1.
    pub fn new(pipeline: CatsPipeline) -> Self {
        cats_obs::gauge("cats.serve.model.version").set(1.0);
        Self {
            current: Mutex::new(Arc::new(VersionedModel { version: 1, pipeline })),
            previous: Mutex::new(None),
            version: AtomicU64::new(1),
        }
    }

    /// The current model. The returned Arc stays valid (and immutable)
    /// across any number of concurrent swaps.
    pub fn load(&self) -> Arc<VersionedModel> {
        cats_obs::lock_recover(&self.current, "cats.serve.model.slot").clone()
    }

    /// The model published as `version`, if it is still one of the two
    /// retained generations (current or the one before it).
    pub fn load_version(&self, version: u64) -> Option<Arc<VersionedModel>> {
        let cur = self.load();
        if cur.version == version {
            return Some(cur);
        }
        cats_obs::lock_recover(&self.previous, "cats.serve.model.slot.prev")
            .clone()
            .filter(|p| p.version == version)
    }

    /// Atomically replaces the model, returning the new version.
    /// In-flight readers keep the Arc they already loaded; the displaced
    /// model stays resolvable through [`ModelSlot::load_version`].
    pub fn swap(&self, pipeline: CatsPipeline) -> u64 {
        let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
        self.publish(pipeline, version)
    }

    /// [`ModelSlot::swap`] with a caller-chosen version tag. Cluster
    /// rolling swaps use this so every shard lands on the *same* number
    /// for the same artifact; tags must be monotonically increasing
    /// (the router's coordinator guarantees it).
    pub fn swap_tagged(&self, pipeline: CatsPipeline, version: u64) -> u64 {
        self.publish(pipeline, version)
    }

    fn publish(&self, pipeline: CatsPipeline, version: u64) -> u64 {
        let next = Arc::new(VersionedModel { version, pipeline });
        let mut cur = cats_obs::lock_recover(&self.current, "cats.serve.model.slot");
        let old = std::mem::replace(&mut *cur, next);
        *cats_obs::lock_recover(&self.previous, "cats.serve.model.slot.prev") = Some(old);
        drop(cur);
        self.version.fetch_max(version, Ordering::Relaxed);
        cats_obs::counter("cats.serve.model.swaps").inc();
        cats_obs::gauge("cats.serve.model.version").set(version as f64);
        version
    }

    /// The latest published version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }
}

/// Restores a pipeline from a `CATS-IO2` snapshot file (the
/// `cats-cli train` output). Section checksums and the snapshot format
/// version are verified before the pipeline is rebuilt.
pub fn load_pipeline_file(path: &Path) -> Result<CatsPipeline, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let snapshot =
        PipelineSnapshot::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(CatsPipeline::restore(snapshot))
}

/// Content fingerprint (length, CRC32) used to detect snapshot
/// rewrites. Unlike the `(mtime, len)` metadata fingerprint this
/// replaced, it cannot be fooled by a same-size rewrite landing within
/// the filesystem's mtime granularity.
fn fingerprint(bytes: &[u8]) -> (u64, u32) {
    (bytes.len() as u64, cats_io::crc32(bytes))
}

/// Polls a snapshot file and hot-swaps it into a [`ModelSlot`].
pub struct ModelWatcher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ModelWatcher {
    /// Starts watching `path`, re-checking every `interval`. The file's
    /// *current* contents are assumed to be what the slot already holds;
    /// only subsequent rewrites trigger a reload.
    pub fn spawn(slot: Arc<ModelSlot>, path: PathBuf, interval: Duration) -> Self {
        Self::spawn_with_checkpoint(slot, path, interval, None)
    }

    /// [`ModelWatcher::spawn`] plus a *last-good* mirror: whenever a
    /// rewrite of `path` passes checksum + parse validation and is
    /// swapped in, its exact bytes are atomically copied to
    /// `last_good`. A later restart that finds `path` torn or corrupt
    /// can fall back to the mirror (see `cats-cli serve
    /// --checkpoint-dir`), so a crash mid-rewrite never strands the
    /// service without a loadable model.
    pub fn spawn_with_checkpoint(
        slot: Arc<ModelSlot>,
        path: PathBuf,
        interval: Duration,
        last_good: Option<PathBuf>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        // The baseline is read here, before the thread starts: a rewrite
        // that lands between spawn and the thread's first poll must
        // still count as a change.
        let startup = std::fs::read(&path).ok();
        let handle = std::thread::Builder::new()
            .name("cats-serve-watch".into())
            .spawn(move || {
                watch_loop(&slot, &path, startup, interval, &stop_flag, last_good.as_deref())
            })
            .expect("spawn model watcher");
        Self { stop, handle: Some(handle) }
    }

    /// Stops the watcher and joins its thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ModelWatcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn watch_loop(
    slot: &ModelSlot,
    path: &Path,
    startup: Option<Vec<u8>>,
    interval: Duration,
    stop: &AtomicBool,
    last_good: Option<&Path>,
) {
    let reloads = cats_obs::counter("cats.serve.model.reloads");
    let errors = cats_obs::counter("cats.serve.model.reload_errors");
    // Rollback visibility (DESIGN.md §15): reload_errors alone cannot tell
    // "file was garbage" apart from "we kept serving the incumbent", so
    // every rejected rewrite also counts as a rollback to the old model.
    let rollbacks = cats_obs::counter("cats.serve.model.watcher_rollbacks");
    let mut last = startup.as_deref().map(fingerprint);
    // Seed the last-good mirror from the startup snapshot so a restart
    // has a fallback even if the primary is never rewritten again.
    if let (Some(lg), Some(bytes)) = (last_good, startup) {
        if PipelineSnapshot::from_bytes(&bytes).is_ok() {
            if let Err(e) = cats_io::atomic_write(lg, &bytes) {
                eprintln!("cats-serve: last-good mirror write failed: {e}");
            }
        }
    }
    // Sleep in small slices so stop() returns promptly even with a
    // coarse polling interval.
    let slice =
        Duration::from_millis(interval.as_millis().min(20) as u64).max(Duration::from_millis(1));
    let mut slept = Duration::ZERO;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(slice);
        slept += slice;
        if slept < interval {
            continue;
        }
        slept = Duration::ZERO;
        let Ok(bytes) = std::fs::read(path) else {
            // File momentarily missing (e.g. non-atomic replace in
            // flight): keep the current model and retry next tick.
            continue;
        };
        let now = Some(fingerprint(&bytes));
        if now == last {
            continue;
        }
        match PipelineSnapshot::from_bytes(&bytes) {
            Ok(snapshot) => {
                let v = slot.swap(CatsPipeline::restore(snapshot));
                reloads.inc();
                eprintln!("cats-serve: hot-swapped model from {} (v{v})", path.display());
                last = now;
                if let Some(lg) = last_good {
                    if let Err(e) = cats_io::atomic_write(lg, &bytes) {
                        eprintln!("cats-serve: last-good mirror write failed: {e}");
                    }
                }
            }
            Err(e) => {
                // Possibly a half-written file: keep the old model and
                // remember the *bad* content's fingerprint — a write
                // completing cannot keep the same (len, crc32), so the
                // retry fires on the very next content change, while
                // unchanged garbage is not re-parsed (and re-counted)
                // every tick.
                errors.inc();
                rollbacks.inc();
                eprintln!("cats-serve: model reload failed, keeping current model: {e}");
                last = now;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn slot_versions_are_monotonic_and_readers_keep_their_arc() {
        let pipeline = testutil::trained(0.0);
        let snap = pipeline.to_snapshot().to_io2_bytes().unwrap();
        let slot = ModelSlot::new(pipeline);
        assert_eq!(slot.version(), 1);
        let before = slot.load();
        let v2 = slot.swap(testutil::restore(&snap, 0.2));
        assert_eq!(v2, 2);
        assert_eq!(slot.version(), 2);
        // The pre-swap reader still holds a complete version-1 model.
        assert_eq!(before.version, 1);
        let items = vec![testutil::fraud_item(7)];
        let old_reports = before.pipeline.detect(&items, &[50]);
        assert_eq!(old_reports.len(), 1);
        assert_eq!(slot.load().version, 2);
    }

    #[test]
    fn concurrent_loads_never_see_a_torn_model() {
        // Swap in a tight loop while readers score; every reader must
        // get a report consistent with the version stamp it loaded.
        let pipeline = testutil::trained(0.0);
        let snap = pipeline.to_snapshot().to_io2_bytes().unwrap();
        let slot = Arc::new(ModelSlot::new(pipeline));
        let item = testutil::fraud_item(3);
        let expect_v1 = slot.load().pipeline.detect(std::slice::from_ref(&item), &[50])[0].score;
        let swapper = {
            let slot = slot.clone();
            let snap = snap.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    slot.swap(testutil::restore(&snap, 0.3));
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let mut v1_seen = 0;
        for _ in 0..200 {
            let model = slot.load();
            let got = model.pipeline.detect(std::slice::from_ref(&item), &[50])[0].score;
            // The restored snapshot scores identically to the original
            // (deterministic training), so ANY coherent model — old or
            // new — produces this exact score. A torn read would not.
            assert_eq!(got.to_bits(), expect_v1.to_bits(), "model v{} torn?", model.version);
            if model.version == 1 {
                v1_seen += 1;
            }
        }
        swapper.join().unwrap();
        assert!(v1_seen > 0 || slot.version() > 1);
        assert_eq!(slot.version(), 21, "20 swaps on top of v1");
    }

    #[test]
    fn watcher_reloads_on_rewrite_and_survives_garbage() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cats_serve_watch_{}.cats", std::process::id()));
        let pipeline = testutil::trained(0.0);
        let snap = pipeline.to_snapshot().to_io2_bytes().unwrap();
        std::fs::write(&path, &snap).unwrap();

        let slot = Arc::new(ModelSlot::new(pipeline));
        let rollbacks = cats_obs::counter("cats.serve.model.watcher_rollbacks");
        let rollbacks_before = rollbacks.get();
        let watcher = ModelWatcher::spawn(slot.clone(), path.clone(), Duration::from_millis(10));

        // Garbage rewrite: must NOT swap, must keep serving v1.
        std::thread::sleep(Duration::from_millis(30));
        std::fs::write(&path, "{not a snapshot").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while std::time::Instant::now() < deadline && slot.version() != 1 {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(slot.version(), 1, "garbage must not be swapped in");
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while std::time::Instant::now() < deadline && rollbacks.get() == rollbacks_before {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            rollbacks.get() > rollbacks_before,
            "rejected garbage must be visible as a watcher rollback"
        );

        // Valid rewrite: must swap (the garbage attempt left `last`
        // stale, so the very next poll retries).
        std::fs::write(&path, &snap).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline && slot.version() < 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(slot.version() >= 2, "valid rewrite must hot-swap");

        watcher.stop();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_generations_stay_resolvable_across_a_tagged_swap() {
        let pipeline = testutil::trained(0.0);
        let snap = pipeline.to_snapshot().to_io2_bytes().unwrap();
        let slot = ModelSlot::new(pipeline);
        assert!(slot.load_version(1).is_some(), "v1 current");
        assert!(slot.load_version(2).is_none(), "v2 not published yet");
        assert_eq!(slot.swap_tagged(testutil::restore(&snap, 0.1), 7), 7);
        assert_eq!(slot.version(), 7, "tagged swap advances the version");
        assert_eq!(slot.load().version, 7);
        assert_eq!(slot.load_version(1).unwrap().version, 1, "previous retained");
        // A second swap evicts v1: only the last two generations live.
        slot.swap_tagged(testutil::restore(&snap, 0.2), 9);
        assert!(slot.load_version(1).is_none(), "two-deep history only");
        assert!(slot.load_version(7).is_some());
        assert!(slot.load_version(9).is_some());
    }

    /// Writes `snap` (the snapshot of `pipeline`) to `path`, spawns a
    /// watcher and at once rewrites the file twice with different
    /// contents (the detector threshold differs; the classifier does
    /// not). Each rewrite must swap, and every loaded generation must
    /// score bit-identically to the in-memory pipeline.
    fn rewrites_right_after_spawn_swap(
        path: &Path,
        pipeline: CatsPipeline,
        snap: &[u8],
        shifted: &[u8],
    ) {
        cats_io::atomic_write(path, snap).unwrap();
        let item = [testutil::fraud_item(9)];
        let expect = pipeline.detect(&item, &[50])[0].score;
        let slot = Arc::new(ModelSlot::new(pipeline));
        let watcher =
            ModelWatcher::spawn(slot.clone(), path.to_path_buf(), Duration::from_millis(10));

        let wait_for = |v: u64| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while std::time::Instant::now() < deadline && slot.version() < v {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(slot.version() >= v, "expected swap to v{v}, at v{}", slot.version());
        };

        for (v, bytes) in [(2, shifted), (3, snap)] {
            cats_io::atomic_write(path, bytes).unwrap();
            wait_for(v);
            let got = slot.load().pipeline.detect(&item, &[50])[0].score;
            assert_eq!(got.to_bits(), expect.to_bits(), "v{v} must score identically");
        }
        watcher.stop();
    }

    /// A trained pipeline, its snapshot and a copy of that with a
    /// shifted threshold.
    fn snapshot_pair() -> (CatsPipeline, Vec<u8>, Vec<u8>) {
        let pipeline = testutil::trained(0.0);
        let snap = pipeline.to_snapshot().to_io2_bytes().unwrap();
        let mut shifted = PipelineSnapshot::from_bytes(&snap).unwrap();
        shifted.detector_config.threshold = 0.6;
        (pipeline, snap, shifted.to_io2_bytes().unwrap())
    }

    #[test]
    fn watcher_hot_swaps_each_rewrite_and_scores_identically() {
        let path =
            std::env::temp_dir().join(format!("cats_serve_rewrite_{}.cats", std::process::id()));
        let (pipeline, snap, shifted) = snapshot_pair();
        rewrites_right_after_spawn_swap(&path, pipeline, &snap, &shifted);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[ignore = "200 rounds; run with --ignored"]
    fn watcher_swaps_a_rewrite_made_right_after_spawn_every_time() {
        let path = std::env::temp_dir()
            .join(format!("cats_serve_rewrite_loop_{}.cats", std::process::id()));
        let (_, snap, shifted) = snapshot_pair();
        for _ in 0..200 {
            let pipeline = testutil::restore(&snap, 0.0);
            rewrites_right_after_spawn_swap(&path, pipeline, &snap, &shifted);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn content_fingerprint_catches_same_size_rewrites() {
        // An (mtime, len) fingerprint misses a same-length rewrite that
        // lands within the filesystem's mtime granularity; the content
        // fingerprint cannot.
        let a = fingerprint(b"model-bytes-A");
        let b = fingerprint(b"model-bytes-B");
        assert_eq!(a.0, b.0, "same length");
        assert_ne!(a.1, b.1, "different checksum");
    }

    #[test]
    fn watcher_mirrors_last_good_and_rejects_torn_rewrites() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path = dir.join(format!("cats_serve_lg_{pid}.snap"));
        let mirror = dir.join(format!("cats_serve_lg_{pid}.last_good"));
        let _ = std::fs::remove_file(&mirror);
        let pipeline = testutil::trained(0.0);
        let snap = pipeline.to_snapshot().to_io2_bytes().unwrap();
        cats_io::atomic_write(&path, &snap).unwrap();

        let slot = Arc::new(ModelSlot::new(pipeline));
        let watcher = ModelWatcher::spawn_with_checkpoint(
            slot.clone(),
            path.clone(),
            Duration::from_millis(10),
            Some(mirror.clone()),
        );

        // The startup snapshot is mirrored even before any rewrite.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline && !mirror.exists() {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            load_pipeline_file(&mirror).is_ok(),
            "mirror must hold a loadable copy of the startup snapshot"
        );

        // A torn rewrite (file cut mid-payload) must fail verification
        // and must NOT be swapped in.
        let rollbacks = cats_obs::counter("cats.serve.model.watcher_rollbacks");
        let rollbacks_before = rollbacks.get();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(slot.version(), 1, "torn rewrite must not be swapped in");
        assert!(load_pipeline_file(&mirror).is_ok(), "mirror untouched by the torn rewrite");
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while std::time::Instant::now() < deadline && rollbacks.get() == rollbacks_before {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            rollbacks.get() > rollbacks_before,
            "torn rewrite must be visible as a watcher rollback"
        );

        // Completing the rewrite with the valid bytes swaps.
        cats_io::atomic_write(&path, &snap).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline && slot.version() < 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(slot.version() >= 2, "completed rewrite must hot-swap");

        watcher.stop();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&mirror);
    }
}
