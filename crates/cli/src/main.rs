//! Thin argument dispatcher over `cats_cli::commands`.

use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cats-cli generate --scale <f64> --seed <u64>            (JSONL to stdout)\n  cats-cli crawl    --scale <f64> --seed <u64> [--faults <0..1>]  (JSONL to stdout)\n  cats-cli train    --input <jsonl> --model <out.cats> [--threshold <f64>] [--seed <u64>] [--metrics-out <json>] [--checkpoint-dir <dir>] [--resume]\n  cats-cli detect   --model <cats> --input <jsonl> [--metrics-out <json>]  (reports to stdout)\n  cats-cli serve    --model <cats> [--addr <host:port>] [--watch] [--max-batch <n>] [--queue <n>] [--workers <n>] [--checkpoint-dir <dir>]\n  cats-cli serve    --model <cats> --shards <n> [--addr <host:port>] [--workers <n>] [--score-threads <n>]   (multi-process cluster)\n  cats-cli serve    --model <cats> --shard-of <id> [--addr <host:port>] [--workers <n>] [--score-threads <n>] (one cluster shard)\n  cats-cli score    --input <jsonl> [--addr <host:port>]  (reports to stdout)\n  cats-cli analyze  --reports <jsonl> --labeled <jsonl>\n  cats-cli metrics  --profile <json>                      (pretty-print a RunProfile)"
    );
    ExitCode::from(2)
}

/// Writes a run profile to `--metrics-out` when the flag was given.
fn write_metrics(path: Option<String>, profile: &cats_obs::RunProfile) -> Result<(), String> {
    if let Some(path) = path {
        std::fs::write(&path, profile.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("metrics profile written to {path}");
    }
    Ok(())
}

/// Pulls `--flag value` pairs and valueless `--flag` booleans out of
/// args; returns None on tokens that are not flags. A flag followed by
/// another `--flag` (or by nothing) is boolean and maps to `"true"`, so
/// `serve --model m.json --watch` does not swallow the next flag as a
/// value — the bug this replaces.
fn parse_flags(args: &[String]) -> Option<std::collections::HashMap<String, String>> {
    let mut map = std::collections::HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--")?;
        if key.is_empty() {
            return None;
        }
        let value = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().expect("peeked").clone(),
            _ => "true".to_string(),
        };
        map.insert(key.to_string(), value);
    }
    Some(map)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    let flags = parse_flags(rest).ok_or("malformed flags")?;
    let get = |k: &str| flags.get(k).cloned();
    let parse_f64 = |k: &str, default: f64| -> Result<f64, String> {
        get(k).map_or(Ok(default), |v| v.parse().map_err(|e| format!("--{k}: {e}")))
    };
    let parse_u64 = |k: &str, default: u64| -> Result<u64, String> {
        get(k).map_or(Ok(default), |v| v.parse().map_err(|e| format!("--{k}: {e}")))
    };
    let open = |k: &str| -> Result<BufReader<File>, String> {
        let path = get(k).ok_or(format!("--{k} is required"))?;
        File::open(&path).map(BufReader::new).map_err(|e| format!("{path}: {e}"))
    };

    match cmd.as_str() {
        "generate" => {
            let scale = parse_f64("scale", 0.01)?;
            let seed = parse_u64("seed", 0xCA75)?;
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            let n = cats_cli::commands::generate(scale, seed, &mut lock)?;
            eprintln!("generated {n} labeled items");
            Ok(())
        }
        "crawl" => {
            let scale = parse_f64("scale", 0.01)?;
            let seed = parse_u64("seed", 0xCA75)?;
            let faults = parse_f64("faults", 0.0)?;
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            let (n, stats) = cats_cli::commands::crawl(scale, seed, faults, &mut lock)?;
            eprintln!(
                "crawled {n} items ({} pages, {} truncated resources, {} poisoned records dropped, {}s simulated waiting)",
                stats.pages_fetched, stats.truncated_resources, stats.poisoned_records, stats.sim_clock_secs
            );
            Ok(())
        }
        "train" => {
            let mut input = open("input")?;
            let model_path = get("model").ok_or("--model is required")?;
            let threshold = parse_f64("threshold", 0.5)?;
            let seed = parse_u64("seed", 0xCA75)?;
            let resume = flags.contains_key("resume");
            let ckpt_dir = get("checkpoint-dir");
            if resume && ckpt_dir.is_none() {
                return Err("--resume requires --checkpoint-dir".into());
            }
            let store = ckpt_dir
                .map(cats_io::CheckpointStore::open)
                .transpose()
                .map_err(|e| e.to_string())?;
            if let (Some(store), false) = (&store, resume) {
                // A fresh (non-resume) run must not silently pick up
                // checkpoints left by an earlier, possibly killed run.
                store.clear_all();
            }
            let (result, profile) = cats_cli::commands::profiled("cats-cli train", || {
                cats_cli::commands::train(&mut input, threshold, seed, store.as_ref())
            });
            let (snapshot, n) = result?;
            let model = std::path::Path::new(&model_path);
            // Atomic: a kill mid-write leaves the old model or none,
            // never a torn file.
            snapshot.save(model).map_err(|e| format!("{model_path}: {e}"))?;
            let kib = std::fs::metadata(model).map_or(0, |m| m.len()) / 1024;
            write_metrics(get("metrics-out"), &profile)?;
            eprintln!("trained on {n} items; model written to {model_path} ({kib} KiB)");
            Ok(())
        }
        "detect" => {
            let model_path = get("model").ok_or("--model is required")?;
            let model = std::path::Path::new(&model_path);
            let mut input = open("input")?;
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            let (result, profile) = cats_cli::commands::profiled("cats-cli detect", || {
                cats_cli::commands::detect(model, &mut input, &mut lock)
            });
            let summary = result?;
            lock.flush().ok();
            write_metrics(get("metrics-out"), &profile)?;
            eprintln!("{summary}");
            Ok(())
        }
        "serve" => {
            // Shard mode: this process IS one cluster shard (spawned by
            // `--shards N` or by the bench harness). It binds, announces
            // the address on stdout, and serves until killed.
            if let Some(shard_id) = get("shard-of") {
                let id: usize = shard_id.parse().map_err(|e| format!("--shard-of: {e}"))?;
                let opts = cats_serve::ShardOpts {
                    addr: get("addr").unwrap_or_else(|| "127.0.0.1:0".into()),
                    model_path: get("model").ok_or("--model is required")?.into(),
                    workers: parse_u64("workers", 1)? as usize,
                    score_threads: parse_u64("score-threads", 0)? as usize,
                };
                let server = cats_serve::start_shard(&opts)?;
                cats_serve::announce_ready(&server);
                eprintln!("cats-serve shard {id} listening on http://{}", server.addr());
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            // Cluster mode: spawn N shard children and route over them.
            let shards = parse_u64("shards", 0)? as usize;
            if shards > 0 {
                let opts = cats_cli::commands::ClusterOpts {
                    addr: get("addr").unwrap_or_else(|| "127.0.0.1:7878".into()),
                    model_path: get("model").ok_or("--model is required")?,
                    shards,
                    workers: parse_u64("workers", 1)? as usize,
                    score_threads: parse_u64("score-threads", 0)? as usize,
                };
                let (router, _supervisor) = cats_cli::commands::start_cluster(&opts)?;
                eprintln!(
                    "cats-serve cluster: router on http://{} over {shards} shards (model {}); Ctrl-C to stop",
                    router.addr(),
                    opts.model_path,
                );
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            let opts = cats_cli::commands::ServeOpts {
                addr: get("addr").unwrap_or_else(|| "127.0.0.1:7878".into()),
                model_path: get("model").ok_or("--model is required")?,
                watch: flags.contains_key("watch"),
                max_batch_items: parse_u64("max-batch", 64)? as usize,
                queue_capacity: parse_u64("queue", 256)? as usize,
                workers: parse_u64("workers", 2)? as usize,
                checkpoint_dir: get("checkpoint-dir"),
            };
            let (server, _watcher) = cats_cli::commands::start_server(&opts)?;
            eprintln!(
                "cats-serve listening on http://{} (model {}{}); Ctrl-C to stop",
                server.addr(),
                opts.model_path,
                if opts.watch { ", hot-swap on rewrite" } else { "" },
            );
            // Serve until killed; the accept loop and watcher live on
            // their own threads.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        "score" => {
            let addr = get("addr").unwrap_or_else(|| "127.0.0.1:7878".into());
            let mut input = open("input")?;
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            let (n, versions) = cats_cli::commands::score(&addr, &mut input, &mut lock)?;
            lock.flush().ok();
            let vs: Vec<String> = versions.iter().map(u64::to_string).collect();
            eprintln!("scored {n} items via {addr} (model version {})", vs.join(", "));
            Ok(())
        }
        "metrics" => {
            let mut profile = open("profile")?;
            let text = cats_cli::commands::metrics(&mut profile)?;
            print!("{text}");
            Ok(())
        }
        "analyze" => {
            let mut reports = open("reports")?;
            let mut labeled = open("labeled")?;
            let m = cats_cli::commands::analyze(&mut reports, &mut labeled)?;
            println!("{m}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_flags;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn value_flags_parse_as_pairs() {
        let map = parse_flags(&args(&["--scale", "0.5", "--seed", "7"])).unwrap();
        assert_eq!(map.get("scale").map(String::as_str), Some("0.5"));
        assert_eq!(map.get("seed").map(String::as_str), Some("7"));
    }

    #[test]
    fn boolean_flags_do_not_swallow_the_next_flag() {
        // The old parser consumed "--addr" as the VALUE of --watch.
        let map = parse_flags(&args(&["--watch", "--addr", "127.0.0.1:0"])).unwrap();
        assert_eq!(map.get("watch").map(String::as_str), Some("true"));
        assert_eq!(map.get("addr").map(String::as_str), Some("127.0.0.1:0"));
    }

    #[test]
    fn trailing_boolean_flag_parses() {
        let map = parse_flags(&args(&["--model", "m.json", "--watch"])).unwrap();
        assert_eq!(map.get("model").map(String::as_str), Some("m.json"));
        assert_eq!(map.get("watch").map(String::as_str), Some("true"));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let map = parse_flags(&args(&["--shift", "-0.25"])).unwrap();
        assert_eq!(map.get("shift").map(String::as_str), Some("-0.25"));
    }

    #[test]
    fn train_resume_and_checkpoint_dir_flags_parse() {
        let map = parse_flags(&args(&[
            "--input",
            "d.jsonl",
            "--model",
            "m.json",
            "--checkpoint-dir",
            "ckpt",
            "--resume",
        ]))
        .unwrap();
        assert_eq!(map.get("checkpoint-dir").map(String::as_str), Some("ckpt"));
        assert_eq!(map.get("resume").map(String::as_str), Some("true"), "--resume is boolean");
        assert_eq!(map.get("model").map(String::as_str), Some("m.json"));
    }

    #[test]
    fn serve_checkpoint_dir_flag_parses_next_to_watch() {
        // --watch is boolean; it must not swallow --checkpoint-dir.
        let map = parse_flags(&args(&[
            "--model",
            "m.json",
            "--watch",
            "--checkpoint-dir",
            "/tmp/cats-ckpt",
        ]))
        .unwrap();
        assert_eq!(map.get("watch").map(String::as_str), Some("true"));
        assert_eq!(map.get("checkpoint-dir").map(String::as_str), Some("/tmp/cats-ckpt"));
    }

    #[test]
    fn cluster_flags_parse() {
        let map =
            parse_flags(&args(&["--model", "m.json", "--shards", "4", "--score-threads", "2"]))
                .unwrap();
        assert_eq!(map.get("shards").map(String::as_str), Some("4"));
        assert_eq!(map.get("score-threads").map(String::as_str), Some("2"));
        let map = parse_flags(&args(&["--shard-of", "1", "--addr", "127.0.0.1:0"])).unwrap();
        assert_eq!(map.get("shard-of").map(String::as_str), Some("1"));
    }

    #[test]
    fn non_flag_tokens_are_rejected() {
        assert!(parse_flags(&args(&["scale", "0.5"])).is_none());
        assert!(parse_flags(&args(&["--", "x"])).is_none(), "bare -- is not a flag");
        assert!(parse_flags(&args(&[])).unwrap().is_empty());
    }
}
