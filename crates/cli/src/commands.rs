//! The CLI subcommands, factored as library functions so they are
//! testable without spawning processes.
//!
//! * [`generate`] — synthesize a labeled JSONL dataset from the platform
//!   generator (for demos and pipelines without proprietary data);
//! * [`train`] — train the full CATS pipeline from a labeled JSONL file
//!   and persist the model snapshot;
//! * [`detect`] — load a snapshot and score an unlabeled JSONL file,
//!   emitting one report per item plus a batch summary;
//! * [`analyze`] — evaluate reports against a labeled file
//!   (precision/recall/F1) for closed-loop runs;
//! * [`crawl`] — run the resilient collector against the simulated public
//!   site (optionally fault-injected) and emit the collected items as
//!   unlabeled JSONL, the public-data scenario end to end;
//! * [`start_server`] / [`score`] — the online half: stand up the
//!   `cats-serve` HTTP service over a model snapshot (hot-swapping it on
//!   rewrite with `--watch`) and score JSONL through it from a client.

use crate::io::{read_items, write_items, write_reports, ItemLine, ReportLine};
use cats_collector::{Collector, CollectorConfig, CrawlStats, FaultPlan, PublicSite, SiteConfig};
use cats_core::pipeline::{LabeledItem, PipelineSnapshot};
use cats_core::{
    CatsPipeline, DetectionSummary, DetectorConfig, ItemComments, PipelineConfig, SemanticConfig,
};
use cats_embedding::Word2VecConfig;
use cats_ml::metrics::BinaryMetrics;
use cats_platform::comment_model::{generate_comment, CommentStyle};
use cats_platform::datasets;
use rand::{rngs::StdRng, SeedableRng};
use serde::Deserialize;
use std::collections::HashMap;
use std::io::BufRead;

/// Runs `f` bracketed by a [`cats_obs::StageTimer`], returning its result
/// plus the per-run profile carved out of the global metrics registry.
/// This is what `--metrics-out` wraps around a subcommand.
pub fn profiled<T>(label: &str, f: impl FnOnce() -> T) -> (T, cats_obs::RunProfile) {
    let timer = cats_obs::StageTimer::start(label);
    let out = f();
    (out, timer.finish())
}

/// Synthesizes a D0-shaped labeled dataset as JSONL lines.
pub fn generate(scale: f64, seed: u64, out: &mut dyn std::io::Write) -> Result<usize, String> {
    let platform = datasets::d0(scale, seed);
    let items: Vec<ItemLine> = platform
        .items()
        .iter()
        .map(|it| ItemLine {
            item_id: it.id,
            sales_volume: it.sales_volume,
            label: Some(u8::from(it.label.is_fraud())),
            comments: it.comments.iter().map(|c| c.content.clone()).collect(),
        })
        .collect();
    write_items(out, &items).map_err(|e| e.to_string())?;
    Ok(items.len())
}

/// Trains the pipeline from labeled JSONL and returns its snapshot and
/// the number of training items. `threshold`, in `[0, 1]`, sets the
/// detector's operating point.
///
/// With a `store`, [`CatsPipeline::train`] checkpoints word2vec
/// epochs, the finished analyzer and GBT boosting rounds into it, so a
/// rerun after a kill resumes mid-stage instead of starting over, and the
/// resumed model is bit-identical to an uninterrupted checkpointed run.
/// All slots are cleared on success. Checkpointed word2vec always runs
/// the sharded schedule, which corpora below 4,096 comments otherwise
/// skip, so on those the two ways write different (each deterministic)
/// models.
pub fn train(
    input: &mut dyn BufRead,
    threshold: f64,
    seed: u64,
    store: Option<&cats_io::CheckpointStore>,
) -> Result<(PipelineSnapshot, usize), String> {
    DetectorConfig::check_threshold(threshold).map_err(|e| format!("--{e}"))?;
    let read_span = cats_obs::span!("cats.cli.train.read_input");
    let items = read_items(input)?;
    drop(read_span);
    if items.is_empty() {
        return Err("no items in training input".into());
    }
    let training: Vec<LabeledItem> = items
        .iter()
        .map(|i| {
            let label = i.label.ok_or_else(|| format!("item {} has no label", i.item_id))?;
            Ok(LabeledItem { comments: i.to_item_comments(), label })
        })
        .collect::<Result<_, String>>()?;
    if !training.iter().any(|l| l.label == 1) || !training.iter().any(|l| l.label == 0) {
        return Err("training data must contain both classes".into());
    }

    // Semantic analyzer from the training comments themselves. Sentiment
    // reviews come from the synthetic language model (the SnowNLP
    // stand-in is pre-trained, exactly as in the paper).
    let corpus: Vec<&str> =
        items.iter().flat_map(|i| i.comments.iter().map(String::as_str)).collect();
    let lang = cats_platform::SyntheticLexicon::generate(Default::default(), 0x1A96);
    let mut rng = StdRng::seed_from_u64(seed);
    let pos: Vec<String> = (0..2_000)
        .map(|_| generate_comment(&lang, CommentStyle::OrganicPositive, &mut rng))
        .collect();
    let neg: Vec<String> = (0..2_000)
        .map(|_| generate_comment(&lang, CommentStyle::OrganicNegative, &mut rng))
        .collect();
    let pos_refs: Vec<&str> = pos.iter().map(String::as_str).collect();
    let neg_refs: Vec<&str> = neg.iter().map(String::as_str).collect();
    let (pos_seeds, neg_seeds) = (lang.positive_seeds(), lang.negative_seeds());
    let config = PipelineConfig {
        semantic: SemanticConfig {
            word2vec: Word2VecConfig { dim: 48, epochs: 3, ..Word2VecConfig::default() },
            ..SemanticConfig::default()
        },
        detector: DetectorConfig { threshold, ..DetectorConfig::default() },
        ..PipelineConfig::default()
    };
    let pipeline = CatsPipeline::train(
        &corpus, &pos_seeds, &neg_seeds, &pos_refs, &neg_refs, &training, store, config,
    );

    let _snap_span = cats_obs::span!("cats.cli.train.snapshot");
    Ok((pipeline.to_snapshot(), items.len()))
}

/// Loads the snapshot at `model` and scores unlabeled JSONL items;
/// writes JSONL reports and returns the batch summary.
pub fn detect(
    model: &std::path::Path,
    input: &mut dyn BufRead,
    out: &mut dyn std::io::Write,
) -> Result<DetectionSummary, String> {
    let load_span = cats_obs::span!("cats.cli.detect.load_model");
    // load also validates the snapshot format version, so a model
    // written by a newer build fails loudly instead of misbehaving.
    let snapshot =
        PipelineSnapshot::load(model).map_err(|e| format!("{}: {e}", model.display()))?;
    let pipeline = CatsPipeline::restore(snapshot);
    drop(load_span);
    let read_span = cats_obs::span!("cats.cli.detect.read_input");
    let items = read_items(input)?;
    let ics: Vec<ItemComments> = items.iter().map(ItemLine::to_item_comments).collect();
    let sales: Vec<u64> = items.iter().map(|i| i.sales_volume).collect();
    drop(read_span);
    let reports = pipeline.detect(&ics, &sales);

    let lines: Vec<ReportLine> = reports
        .iter()
        .zip(&items)
        .map(|(r, i)| ReportLine {
            item_id: i.item_id,
            filter: cats_serve::wire::filter_str(r.filter).to_string(),
            score: r.score,
            is_fraud: r.is_fraud,
        })
        .collect();
    let write_span = cats_obs::span!("cats.cli.detect.write_reports", { lines.len() });
    write_reports(out, &lines).map_err(|e| e.to_string())?;
    drop(write_span);
    Ok(DetectionSummary::from_reports(&reports))
}

/// Crawls the simulated public site of an E-platform-shaped world and
/// writes the collected items as unlabeled JSONL (ready for [`detect`]).
/// `fault_intensity` in `[0, 1]` scales the injected fault schedule
/// (0 = clean site). Returns the item count and the crawl statistics.
pub fn crawl(
    scale: f64,
    seed: u64,
    fault_intensity: f64,
    out: &mut dyn std::io::Write,
) -> Result<(usize, CrawlStats), String> {
    if !(0.0..=1.0).contains(&fault_intensity) {
        return Err("--faults must be in [0, 1]".into());
    }
    let platform = datasets::e_platform(scale, seed);
    let site = PublicSite::new(
        &platform,
        SiteConfig {
            seed: seed ^ 0x517E,
            faults: FaultPlan::at_intensity(fault_intensity),
            ..SiteConfig::default()
        },
    );
    let mut collector = Collector::new(CollectorConfig::default());
    let data = collector.crawl(&site);
    let items: Vec<ItemLine> = data
        .items
        .iter()
        .map(|it| ItemLine {
            item_id: it.item_id,
            sales_volume: it.sales_volume,
            label: None,
            comments: it.comments.iter().map(|c| c.content.clone()).collect(),
        })
        .collect();
    write_items(out, &items).map_err(|e| e.to_string())?;
    Ok((items.len(), collector.stats()))
}

/// Options for the `serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Bind address (`host:port`; port 0 lets the OS pick).
    pub addr: String,
    /// Path to the model snapshot written by `train`.
    pub model_path: String,
    /// Hot-swap the model when the snapshot file is rewritten.
    pub watch: bool,
    /// Micro-batcher: most items one batch pops.
    pub max_batch_items: usize,
    /// Bounded request queue capacity (overflow answers 429).
    pub queue_capacity: usize,
    /// Batch worker threads.
    pub workers: usize,
    /// Directory for the *last-good* model mirror. At startup, a
    /// corrupt/torn primary snapshot falls back to the mirror instead of
    /// refusing to serve; with `watch`, every successfully swapped
    /// snapshot refreshes it.
    pub checkpoint_dir: Option<String>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        let b = cats_serve::BatchConfig::default();
        Self {
            addr: "127.0.0.1:7878".into(),
            model_path: String::new(),
            watch: false,
            max_batch_items: b.max_batch_items,
            queue_capacity: b.queue_capacity,
            workers: b.workers,
            checkpoint_dir: None,
        }
    }
}

/// Loads the snapshot at `opts.model_path` and starts the scoring
/// service. Returns the running server (bound address via
/// [`cats_serve::Server::addr`]) and, with `watch`, the file watcher
/// that hot-swaps rewrites of the snapshot into the live server.
pub fn start_server(
    opts: &ServeOpts,
) -> Result<(cats_serve::Server, Option<cats_serve::ModelWatcher>), String> {
    let path = std::path::Path::new(&opts.model_path);
    let last_good: Option<std::path::PathBuf> = match &opts.checkpoint_dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Some(dir.join("last_good.snapshot"))
        }
        None => None,
    };
    let pipeline = match cats_serve::load_pipeline_file(path) {
        Ok(p) => p,
        Err(primary_err) => {
            // A torn or corrupt primary snapshot is exactly what the
            // last-good mirror exists for: serve the mirror rather than
            // refuse to start (DESIGN.md §10).
            let Some(lg) = &last_good else { return Err(primary_err) };
            let p = cats_serve::load_pipeline_file(lg).map_err(|e| {
                format!("{primary_err}; last-good fallback {} also failed: {e}", lg.display())
            })?;
            cats_obs::counter("cats.cli.serve.last_good_fallbacks").inc();
            eprintln!(
                "cats-cli: primary model rejected ({primary_err}); serving last-good mirror {}",
                lg.display()
            );
            p
        }
    };
    let slot = std::sync::Arc::new(cats_serve::ModelSlot::new(pipeline));
    let config = cats_serve::ServeConfig {
        addr: opts.addr.clone(),
        batch: cats_serve::BatchConfig {
            max_batch_items: opts.max_batch_items,
            queue_capacity: opts.queue_capacity,
            workers: opts.workers,
        },
        ..cats_serve::ServeConfig::default()
    };
    let server = cats_serve::Server::start(slot.clone(), config)
        .map_err(|e| format!("bind {}: {e}", opts.addr))?;
    let watcher = opts.watch.then(|| {
        cats_serve::ModelWatcher::spawn_with_checkpoint(
            slot,
            path.to_path_buf(),
            std::time::Duration::from_millis(500),
            last_good,
        )
    });
    Ok((server, watcher))
}

/// Options for the multi-process cluster (`cats-cli serve --shards N`).
#[derive(Debug, Clone)]
pub struct ClusterOpts {
    /// Router bind address.
    pub addr: String,
    /// Model snapshot every shard starts from (cluster version 1).
    pub model_path: String,
    /// Shard child processes to spawn.
    pub shards: usize,
    /// Batch workers per shard.
    pub workers: usize,
    /// Feature-extraction threads per shard; 0 = an equal slice of the
    /// machine (`default_threads / shards`), so N shards don't each try
    /// to use every core.
    pub score_threads: usize,
}

/// Handle on the cluster's shard children: watches them and respawns
/// any that die onto their original address, so the router's prober can
/// re-admit them. Dropping the supervisor kills the children.
pub struct ClusterSupervisor {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ClusterSupervisor {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// Shard-mode argv for re-invoking this binary as shard `id` on `addr`.
fn shard_args(id: usize, addr: &str, opts: &ClusterOpts, score_threads: usize) -> Vec<String> {
    [
        "serve",
        "--shard-of",
        &id.to_string(),
        "--model",
        &opts.model_path,
        "--addr",
        addr,
        "--workers",
        &opts.workers.max(1).to_string(),
        "--score-threads",
        &score_threads.to_string(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect()
}

/// Spawns `opts.shards` shard child processes (this same binary in
/// `--shard-of` mode) and a [`cats_serve::Router`] over them, plus a
/// supervisor that respawns dead shards onto their original address —
/// the router ejects a dead shard, the supervisor brings it back, the
/// router's prober syncs its model version and re-admits it.
pub fn start_cluster(
    opts: &ClusterOpts,
) -> Result<(cats_serve::Router, ClusterSupervisor), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let shards = opts.shards.max(1);
    let score_threads = if opts.score_threads == 0 {
        (cats_par::default_threads() / shards).max(1)
    } else {
        opts.score_threads
    };
    let ready_timeout = std::time::Duration::from_secs(60);
    let mut children = Vec::with_capacity(shards);
    for id in 0..shards {
        // Port 0 on first spawn: the child announces the real address,
        // which then becomes the shard's fixed slot for respawns.
        let args = shard_args(id, "127.0.0.1:0", opts, score_threads);
        children.push(cats_serve::ShardProcess::spawn(id, &exe, &args, ready_timeout)?);
    }
    let shard_addrs: Vec<String> = children.iter().map(|c| c.addr.clone()).collect();
    let router = cats_serve::Router::start(
        shard_addrs,
        cats_serve::RouterConfig {
            addr: opts.addr.clone(),
            initial_artifact: Some(opts.model_path.clone()),
            ..cats_serve::RouterConfig::default()
        },
    )
    .map_err(|e| format!("bind router {}: {e}", opts.addr))?;

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let thread = {
        let stop = stop.clone();
        let opts = opts.clone();
        std::thread::Builder::new()
            .name("cats-cluster-supervisor".into())
            .spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    for child in &mut children {
                        if child.is_alive() {
                            continue;
                        }
                        eprintln!(
                            "cats-cli: shard {} died; respawning on {}",
                            child.id, child.addr
                        );
                        cats_obs::counter("cats.cli.cluster.respawns").inc();
                        let args = shard_args(child.id, &child.addr, &opts, score_threads);
                        match cats_serve::ShardProcess::spawn(child.id, &exe, &args, ready_timeout)
                        {
                            Ok(fresh) => *child = fresh,
                            Err(e) => {
                                eprintln!("cats-cli: respawn shard {} failed: {e}", child.id);
                            }
                        }
                    }
                    // Slice the wait so shutdown stays prompt.
                    for _ in 0..10 {
                        if stop.load(std::sync::atomic::Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                }
                // `children` drops here: each ShardProcess kills its child.
            })
            .map_err(|e| format!("spawn cluster supervisor: {e}"))?
    };
    Ok((router, ClusterSupervisor { stop, thread: Some(thread) }))
}

/// Items per `POST /v1/score` request sent by [`score`]; server-side
/// micro-batching recombines them, so this only bounds request size.
const SCORE_CHUNK: usize = 256;

/// Scores unlabeled JSONL through a running `cats-serve` endpoint and
/// writes JSONL reports. Returns (items scored, model versions seen) —
/// more than one version means a hot-swap landed mid-run, which is
/// fine: each individual response is still single-version.
pub fn score(
    addr: &str,
    input: &mut dyn BufRead,
    out: &mut dyn std::io::Write,
) -> Result<(usize, Vec<u64>), String> {
    let items = read_items(input)?;
    let client = cats_serve::ScoreClient::new(addr);
    let mut versions: Vec<u64> = Vec::new();
    let mut scored = 0usize;
    for chunk in items.chunks(SCORE_CHUNK.max(1)) {
        let request: Vec<cats_serve::ScoreItem> = chunk
            .iter()
            .map(|i| cats_serve::ScoreItem {
                item_id: i.item_id,
                sales_volume: i.sales_volume,
                comments: i.comments.clone(),
            })
            .collect();
        let resp = client.score(&request).map_err(|e| format!("score {addr}: {e}"))?;
        if !versions.contains(&resp.model_version) {
            versions.push(resp.model_version);
        }
        let lines: Vec<ReportLine> = resp
            .verdicts
            .iter()
            .map(|v| ReportLine {
                item_id: v.item_id,
                filter: v.filter.clone(),
                score: v.score,
                is_fraud: v.is_fraud,
            })
            .collect();
        write_reports(&mut *out, &lines).map_err(|e| e.to_string())?;
        scored += lines.len();
    }
    Ok((scored, versions))
}

/// Typed mirror of a `cats.run_profile.v1` document.
#[derive(Deserialize)]
struct ProfileDoc {
    schema: String,
    label: String,
    /// Absent from [`cats_obs::RunProfile::to_json_stripped`] output.
    #[serde(default)]
    wall_micros: u64,
    stages: Vec<StageDoc>,
    counters: Vec<CounterDoc>,
    gauges: Vec<GaugeDoc>,
}

#[derive(Deserialize)]
struct StageDoc {
    name: String,
    count: u64,
    items: u64,
    total_micros: u64,
    self_micros: u64,
    p50_micros: f64,
    p95_micros: f64,
    p99_micros: f64,
}

#[derive(Deserialize)]
struct CounterDoc {
    name: String,
    value: u64,
}

#[derive(Deserialize)]
struct GaugeDoc {
    name: String,
    value: f64,
}

/// Parses a saved [`cats_obs::RunProfile`] JSON document (written by
/// `--metrics-out`) and returns the human-readable rendering.
pub fn metrics(input: &mut dyn BufRead) -> Result<String, String> {
    let mut text = String::new();
    input.read_to_string(&mut text).map_err(|e| e.to_string())?;
    let doc: ProfileDoc = serde_json::from_str(&text).map_err(|e| format!("profile: {e}"))?;
    if doc.schema != "cats.run_profile.v1" {
        return Err(format!("unsupported profile schema: {:?}", doc.schema));
    }
    let profile = cats_obs::RunProfile {
        label: doc.label,
        wall_micros: doc.wall_micros,
        stages: doc
            .stages
            .into_iter()
            .map(|st| cats_obs::StageProfile {
                name: st.name,
                count: st.count,
                items: st.items,
                total_micros: st.total_micros,
                self_micros: st.self_micros,
                p50_micros: st.p50_micros,
                p95_micros: st.p95_micros,
                p99_micros: st.p99_micros,
            })
            .collect(),
        counters: doc.counters.into_iter().map(|c| (c.name, c.value)).collect(),
        gauges: doc.gauges.into_iter().map(|g| (g.name, g.value)).collect(),
    };
    Ok(profile.render())
}

/// Evaluates a JSONL report file against a labeled JSONL item file,
/// joining on `item_id`.
pub fn analyze(
    reports: &mut dyn BufRead,
    labeled: &mut dyn BufRead,
) -> Result<BinaryMetrics, String> {
    let items = read_items(labeled)?;
    let truth: HashMap<u64, u8> =
        items.iter().filter_map(|i| i.label.map(|l| (i.item_id, l))).collect();
    if truth.is_empty() {
        return Err("labeled file contains no labels".into());
    }
    let mut labels = Vec::new();
    let mut preds = Vec::new();
    for (no, line) in reports.lines().enumerate() {
        let line = line.map_err(|e| format!("reports line {}: {e}", no + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let r: ReportLine =
            serde_json::from_str(&line).map_err(|e| format!("reports line {}: {e}", no + 1))?;
        if let Some(&l) = truth.get(&r.item_id) {
            labels.push(l);
            preds.push(r.is_fraud);
        }
    }
    if labels.is_empty() {
        return Err("no report ids matched the labeled file".into());
    }
    Ok(BinaryMetrics::compute(&labels, &preds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cats_cli_{name}_{}", std::process::id()))
    }

    /// Trains on `data` and saves the snapshot to a per-test file, as
    /// `cats-cli train` does.
    fn trained_model(data: &[u8], name: &str) -> PathBuf {
        let (snapshot, _) = train(&mut BufReader::new(data), 0.5, 9, None).unwrap();
        let path = tmp(name);
        snapshot.save(&path).unwrap();
        path
    }

    #[test]
    fn generate_emits_valid_jsonl() {
        let mut buf = Vec::new();
        let n = generate(0.002, 5, &mut buf).unwrap();
        assert!(n >= 130);
        let items = read_items(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(items.len(), n);
        assert!(items.iter().any(|i| i.label == Some(1)));
        assert!(items.iter().any(|i| i.label == Some(0)));
    }

    #[test]
    fn train_then_detect_then_analyze_closed_loop() {
        // generate labeled data
        let mut data = Vec::new();
        generate(0.004, 9, &mut data).unwrap();

        // train
        let (snapshot, n) = train(&mut BufReader::new(data.as_slice()), 0.5, 9, None).unwrap();
        assert!(n > 0);
        let model = tmp("closed_loop.cats");
        snapshot.save(&model).unwrap();
        let size = std::fs::metadata(&model).unwrap().len();
        assert!(size > 10_000, "model suspiciously small: {size} bytes");

        // detect on a fresh platform (same language, different seed)
        let mut eval_data = Vec::new();
        generate(0.004, 10, &mut eval_data).unwrap();
        let mut reports = Vec::new();
        let summary =
            detect(&model, &mut BufReader::new(eval_data.as_slice()), &mut reports).unwrap();
        assert!(summary.reported > 0, "{summary}");
        let _ = std::fs::remove_file(&model);

        // analyze against ground truth
        let metrics = analyze(
            &mut BufReader::new(reports.as_slice()),
            &mut BufReader::new(eval_data.as_slice()),
        )
        .unwrap();
        assert!(metrics.f1 > 0.7, "closed-loop F1 too low: {metrics}");
    }

    #[test]
    fn crawl_emits_unlabeled_jsonl() {
        let mut buf = Vec::new();
        let (n, stats) = crawl(0.02, 7, 0.0, &mut buf).unwrap();
        assert!(n > 0);
        assert!(stats.pages_fetched > 0);
        assert_eq!(stats.truncated_resources, 0, "clean site: no truncation");
        let items = read_items(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(items.len(), n);
        assert!(items.iter().all(|i| i.label.is_none()), "crawl output is unlabeled");
    }

    #[test]
    fn crawl_under_faults_still_produces_parseable_output() {
        let mut buf = Vec::new();
        let (n, stats) = crawl(0.02, 7, 0.9, &mut buf).unwrap();
        let items = read_items(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(items.len(), n);
        // heavy faults leave footprints in the stats
        assert!(stats.rate_limited + stats.outage_errors + stats.stalled_pages > 0, "{stats:?}");
        assert!(crawl(0.02, 7, 1.5, &mut Vec::new()).is_err(), "intensity out of range");
    }

    #[test]
    fn crawl_then_detect_closed_loop() {
        // train on labeled generator output, detect on crawled public data
        let mut data = Vec::new();
        generate(0.004, 9, &mut data).unwrap();
        let model = trained_model(&data, "crawl_detect.cats");

        let mut crawled = Vec::new();
        crawl(0.02, 11, 0.5, &mut crawled).unwrap();
        let mut reports = Vec::new();
        let summary =
            detect(&model, &mut BufReader::new(crawled.as_slice()), &mut reports).unwrap();
        assert!(summary.total > 0);
        let _ = std::fs::remove_file(&model);
        // degraded input must not leak NaN into the report stream
        let text = String::from_utf8(reports).unwrap();
        assert!(!text.contains("NaN") && !text.contains("null"), "{text}");
    }

    #[test]
    fn train_rejects_unlabeled_and_single_class() {
        let unlabeled = "{\"item_id\":1,\"sales_volume\":2,\"comments\":[\"hao\"]}\n";
        let err =
            train(&mut BufReader::new(unlabeled.as_bytes()), 0.5, 1, None).map(|_| ()).unwrap_err();
        assert!(err.contains("no label"), "{err}");

        let one_class = "{\"item_id\":1,\"sales_volume\":2,\"label\":1,\"comments\":[\"hao\"]}\n";
        let err =
            train(&mut BufReader::new(one_class.as_bytes()), 0.5, 1, None).map(|_| ()).unwrap_err();
        assert!(err.contains("both classes"), "{err}");

        let err = train(&mut BufReader::new("".as_bytes()), 0.5, 1, None).map(|_| ()).unwrap_err();
        assert!(err.contains("no items"), "{err}");
    }

    #[test]
    fn train_rejects_a_threshold_outside_the_unit_interval() {
        let mut data = Vec::new();
        generate(0.002, 7, &mut data).unwrap();
        for threshold in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            let err = train(&mut BufReader::new(data.as_slice()), threshold, 1, None)
                .map(|_| ())
                .unwrap_err();
            assert!(err.starts_with("--threshold ") && err.contains("outside [0, 1]"), "{err}");
        }
    }

    #[test]
    fn serve_then_score_matches_offline_detect() {
        let mut data = Vec::new();
        generate(0.004, 9, &mut data).unwrap();
        let model_path = trained_model(&data, "serve.cats");

        let opts = ServeOpts {
            addr: "127.0.0.1:0".into(),
            model_path: model_path.display().to_string(),
            ..ServeOpts::default()
        };
        let (server, watcher) = start_server(&opts).unwrap();
        assert!(watcher.is_none(), "watch not requested");

        let mut offline = Vec::new();
        detect(&model_path, &mut BufReader::new(data.as_slice()), &mut offline).unwrap();
        let mut online = Vec::new();
        let (n, versions) =
            score(&server.addr().to_string(), &mut BufReader::new(data.as_slice()), &mut online)
                .unwrap();
        assert!(n > 0);
        assert_eq!(versions, vec![1], "no swap happened, so one model version");
        assert_eq!(
            String::from_utf8(online).unwrap(),
            String::from_utf8(offline).unwrap(),
            "online scoring must agree with offline detect byte-for-byte"
        );
        server.shutdown();
        let _ = std::fs::remove_file(&model_path);
    }

    #[test]
    fn checkpointed_train_is_deterministic_and_clears_its_slots() {
        let mut data = Vec::new();
        generate(0.004, 9, &mut data).unwrap();
        let dir = cats_io::ScratchDir::new("cats_cli_ckpt");
        let store = cats_io::CheckpointStore::open(&*dir).unwrap();
        let (a, _) = train(&mut BufReader::new(data.as_slice()), 0.5, 9, Some(&store)).unwrap();
        for slot in ["w2v", "analyzer", "gbt"] {
            assert!(store.load(slot).is_none(), "{slot} slot cleared on success");
        }
        let (b, _) = train(&mut BufReader::new(data.as_slice()), 0.5, 9, Some(&store)).unwrap();
        assert_eq!(
            a.to_io2_bytes().unwrap(),
            b.to_io2_bytes().unwrap(),
            "checkpointed training is deterministic"
        );
    }

    #[test]
    fn saved_model_reencodes_canonically_and_detects_identically() {
        let mut data = Vec::new();
        generate(0.004, 9, &mut data).unwrap();
        let model = trained_model(&data, "canonical.cats");

        // Decode → encode reproduces the file `train` wrote exactly.
        let written = std::fs::read(&model).unwrap();
        let decoded = PipelineSnapshot::from_bytes(&written).unwrap();
        assert_eq!(decoded.to_io2_bytes().unwrap(), written, "canonical re-encoding");

        // The re-saved model detects exactly as the original file does.
        let resaved = tmp("canonical_resaved.cats");
        decoded.save(&resaved).unwrap();
        let mut original = Vec::new();
        detect(&model, &mut BufReader::new(data.as_slice()), &mut original).unwrap();
        let mut again = Vec::new();
        detect(&resaved, &mut BufReader::new(data.as_slice()), &mut again).unwrap();
        assert!(!original.is_empty());
        assert_eq!(original, again, "reports identical after decode and re-save");
        let _ = std::fs::remove_file(&model);
        let _ = std::fs::remove_file(&resaved);
    }

    #[test]
    fn serve_falls_back_to_last_good_when_primary_is_corrupt() {
        let mut data = Vec::new();
        generate(0.004, 9, &mut data).unwrap();
        let (snapshot, _) = train(&mut BufReader::new(data.as_slice()), 0.5, 9, None).unwrap();
        let model = snapshot.to_io2_bytes().unwrap();
        let dir = cats_io::ScratchDir::new("cats_cli_lg");
        let model_path = dir.join("model.cats");
        // A seeded mirror plus a torn primary: exactly the post-crash
        // state the fallback exists for.
        std::fs::write(dir.join("last_good.snapshot"), &model).unwrap();
        std::fs::write(&model_path, &model[..model.len() / 3]).unwrap();

        let opts = ServeOpts {
            addr: "127.0.0.1:0".into(),
            model_path: model_path.display().to_string(),
            checkpoint_dir: Some(dir.display().to_string()),
            ..ServeOpts::default()
        };
        let (server, watcher) = start_server(&opts).expect("must serve the last-good mirror");
        assert!(watcher.is_none());
        server.shutdown();

        // Without a checkpoint dir the same torn primary refuses to start.
        let opts = ServeOpts { checkpoint_dir: None, ..opts };
        assert!(start_server(&opts).is_err(), "no mirror, no fallback");
    }

    #[test]
    fn start_server_rejects_missing_model() {
        let opts = ServeOpts {
            addr: "127.0.0.1:0".into(),
            model_path: "/definitely/not/a/model.cats".into(),
            ..ServeOpts::default()
        };
        let err = start_server(&opts).err().expect("a missing model must not start");
        assert!(err.contains("model.cats"), "{err}");
    }

    #[test]
    fn detect_rejects_bad_model() {
        let model = tmp("bad_model.cats");
        std::fs::write(&model, b"{not a snapshot").unwrap();
        let mut out = Vec::new();
        let err = detect(&model, &mut BufReader::new("".as_bytes()), &mut out).unwrap_err();
        assert!(err.contains("missing CATS-IO2 magic"), "{err}");
        let _ = std::fs::remove_file(&model);
    }

    #[test]
    fn detect_profile_names_pipeline_stages() {
        let mut data = Vec::new();
        generate(0.004, 9, &mut data).unwrap();
        let model = trained_model(&data, "profile.cats");
        let mut reports = Vec::new();
        let (res, profile) = profiled("cli.detect", || {
            detect(&model, &mut BufReader::new(data.as_slice()), &mut reports)
        });
        res.unwrap();
        let _ = std::fs::remove_file(&model);
        let names: Vec<&str> = profile.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(profile.stages.len() >= 6, "want >=6 stages, got {names:?}");
        for s in &profile.stages {
            assert!(s.count > 0, "{}", s.name);
            assert!(s.self_micros <= s.total_micros, "{}", s.name);
            assert!(s.p50_micros <= s.p95_micros, "{}", s.name);
        }
        for want in [
            "cats.cli.detect.load_model",
            "cats.cli.detect.read_input",
            "cats.cli.detect.write_reports",
            "cats.core.pipeline.detect",
            "cats.core.detect",
            "cats.core.extract",
        ] {
            assert!(profile.stage(want).is_some(), "missing stage {want} in {names:?}");
        }
    }

    #[test]
    fn metrics_renders_saved_profile() {
        let profile = cats_obs::RunProfile {
            label: "demo".into(),
            wall_micros: 1_000,
            stages: vec![cats_obs::StageProfile {
                name: "cats.x.stage".into(),
                count: 2,
                items: 8,
                total_micros: 500,
                self_micros: 400,
                p50_micros: 200.0,
                p95_micros: 300.5,
                p99_micros: 310.0,
            }],
            counters: vec![("cats.x.n".into(), 3)],
            gauges: vec![("cats.x.g".into(), 0.25)],
        };
        let json = profile.to_json();
        let text = metrics(&mut BufReader::new(json.as_bytes())).unwrap();
        assert_eq!(text, profile.render(), "render survives the JSON roundtrip");
        assert!(text.contains("cats.x.stage"));
        assert!(text.contains("cats.x.n 3"));

        let stripped = profile.to_json_stripped();
        let text = metrics(&mut BufReader::new(stripped.as_bytes())).unwrap();
        let expect = cats_obs::RunProfile { wall_micros: 0, ..profile.clone() }.render();
        assert_eq!(text, expect, "a stripped profile renders with zero wall time");

        let err = metrics(&mut BufReader::new(b"{}".as_slice())).unwrap_err();
        assert!(err.contains("schema"), "{err}");

        let wrong = json.replacen("\"count\": 2", "\"count\": \"x\"", 1);
        assert_ne!(wrong, json);
        assert!(metrics(&mut BufReader::new(wrong.as_bytes())).is_err(), "wrong-typed field");
    }

    #[test]
    fn analyze_requires_overlap() {
        let labeled = "{\"item_id\":1,\"sales_volume\":2,\"label\":1,\"comments\":[]}\n";
        let reports =
            "{\"item_id\":99,\"filter\":\"classified\",\"score\":0.9,\"is_fraud\":true}\n";
        let err = analyze(
            &mut BufReader::new(reports.as_bytes()),
            &mut BufReader::new(labeled.as_bytes()),
        )
        .unwrap_err();
        assert!(err.contains("matched"), "{err}");
    }
}
