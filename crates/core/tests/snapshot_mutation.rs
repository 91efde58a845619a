//! Seeded mutation test of the one snapshot decoder,
//! [`PipelineSnapshot::from_bytes`].
//!
//! A real trained snapshot (analyzer, fitted GBT and feature reference)
//! is damaged in two ways:
//!
//! * (a) the whole container: random bit flips, truncation and appended
//!   bytes;
//! * (b) one section at a time, rebuilt with [`Io2Builder`] so its CRC
//!   is valid and the damage reaches the section decoders: truncation,
//!   appended bytes, forged length and count prefixes, and bit flips.
//!
//! No case may panic, and none may make a single allocation larger than
//! a fixed multiple of the input's length, which is what a decoder that
//! trusts a forged length would do. Every structural damage must be an
//! `Err`. A bit flip inside a CRC-valid section may still decode (a
//! different threshold or leaf weight is a valid model); such a model
//! must re-encode and score without panicking. Each failure names its
//! seed; rerun one with `SEEDS` narrowed to it.

use cats_core::pipeline::{LabeledItem, PipelineConfig};
use cats_core::{features, CatsPipeline, FeatureReferenceSet, ItemComments, PipelineSnapshot};
use cats_io::io2::{Dec, Io2Builder, Io2File};
use cats_io::IoError;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeds of the whole-container (a) and per-section (b) cases; a bounded
/// count keeps the test under a second in a debug build.
const SEEDS: std::ops::Range<u64> = 0..400;

/// Seeds that found decoder defects, kept as regression cases. Before
/// the container and every section decoder rejected unconsumed bytes,
/// these decoded: bytes appended to the `meta` (seed 0), `gbt` (1),
/// `lexicon` (35) and `featref` (5) sections and to the container (5),
/// and a flipped NUL in the padding of a section name (65).
const REGRESSION_SEEDS: [u64; 5] = [0, 1, 5, 35, 65];

thread_local! {
    /// Largest allocation request seen while armed, on this thread.
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Forwards to [`System`] and records the largest request made while
/// the current thread is armed (see [`decode`]).
struct PeakRequest;

impl PeakRequest {
    fn note(size: usize) {
        // `try_with`: the slot is gone while the thread is being torn down.
        let _ = PEAK.try_with(|p| {
            if let Some(peak) = p.get() {
                p.set(Some(peak.max(size)));
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's pointer,
// layout and size unchanged; recording the size touches only a
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakRequest = PeakRequest;

/// `n` random bytes.
fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn fraud_item(i: usize) -> ItemComments {
    ItemComments::from_texts([
        format!("hao0 hao0 zan1 ! hao0 bang2 w{i} ， hao0 hao0 zan0 hao1 hao1").as_str(),
        "hen hao0 zan2 ！ hao2 hao0 hao0 bang0 hao0",
    ])
}

fn normal_item(i: usize) -> ItemComments {
    ItemComments::from_texts([format!("shu hao0 kan w{i}").as_str(), "dongxi cha0 le dian"])
}

/// A trained snapshot with every section present, `featref` included.
fn trained_snapshot() -> Vec<u8> {
    let mut texts = Vec::new();
    for i in 0..250 {
        let v = i % 3;
        texts.push(format!("hao{v} zan{v} hao{v} bang{v} kuai du"));
        texts.push(format!("cha{v} lan{v} cha{v} huai{v} man du"));
        texts.push("he zi kuai di shou dao".to_string());
    }
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let mut training = Vec::new();
    for i in 0..30 {
        training.push(LabeledItem { comments: fraud_item(i), label: 1 });
        training.push(LabeledItem { comments: normal_item(i), label: 0 });
    }
    let pipeline = CatsPipeline::train(
        &refs,
        &["hao0".to_string()],
        &["cha0".to_string()],
        &["hao0 zan0 bang0 hao1", "zan1 hao2 bang1"],
        &["cha0 lan0 huai0", "lan1 cha2 huai2"],
        &training,
        None,
        PipelineConfig::default(),
    );
    let items: Vec<ItemComments> = training.iter().map(|l| l.comments.clone()).collect();
    let rows = features::extract_batch(&items, pipeline.analyzer(), 0);
    pipeline
        .to_snapshot()
        .with_feature_reference(FeatureReferenceSet::from_rows(&rows))
        .to_io2_bytes()
        .expect("snapshot encodes")
}

/// Runs the decoder on `bytes`, failing the test on a panic or on an
/// allocation larger than 16 bytes per input byte plus 1 MiB.
fn decode(bytes: &[u8], case: &str) -> Option<PipelineSnapshot> {
    PEAK.with(|p| p.set(Some(0)));
    let result = catch_unwind(AssertUnwindSafe(|| PipelineSnapshot::from_bytes(bytes)));
    let peak = PEAK.with(|p| p.replace(None)).expect("armed");
    let result = result.unwrap_or_else(|_| panic!("{case}: decoder panicked"));
    let limit = 16 * bytes.len() + (1 << 20);
    assert!(peak <= limit, "{case}: allocated {peak} bytes for a {}-byte input", bytes.len());
    result.ok()
}

fn must_fail(bytes: &[u8], case: &str) {
    if decode(bytes, case).is_some() {
        panic!("{case}: damaged snapshot decoded");
    }
}

/// A decoded model must re-encode to bytes that decode again, and must
/// score without panicking.
fn must_be_usable(snapshot: PipelineSnapshot, case: &str) {
    let bytes = snapshot.to_io2_bytes().unwrap_or_else(|e| panic!("{case}: re-encode: {e}"));
    assert!(decode(&bytes, case).is_some(), "{case}: re-encoded snapshot does not decode");
    let pipeline = CatsPipeline::restore(snapshot);
    let items = [fraud_item(77), normal_item(77)];
    catch_unwind(AssertUnwindSafe(|| pipeline.detect(&items, &[50, 50])))
        .unwrap_or_else(|_| panic!("{case}: decoded model panicked while scoring"));
}

fn sections(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let file = Io2File::parse(bytes, "base").expect("base snapshot parses");
    let names: Vec<String> = file.section_names().map(str::to_owned).collect();
    names.into_iter().map(|n| (n.clone(), file.section(&n).expect("listed").to_vec())).collect()
}

fn rebuild(sections: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut b = Io2Builder::new();
    for (name, payload) in sections {
        b.section(name, payload.clone());
    }
    b.finish()
}

/// (a): one whole-container mutation per seed.
fn container_case(base: &[u8], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let table_end = 16 + 32 * sections(base).len();
    let mut bytes = base.to_vec();
    match rng.random_range(0..3usize) {
        0 => {
            // Half the flips land in the header and table, which few
            // payload bytes would otherwise reach.
            let at = if rng.next_u64() % 2 == 0 {
                rng.random_range(0..table_end)
            } else {
                rng.random_range(0..base.len())
            };
            bytes[at] ^= 1 << rng.random_range(0..8usize);
            must_fail(&bytes, &format!("seed {seed}: container bit flip at byte {at}"));
        }
        1 => {
            bytes.truncate(rng.random_range(0..base.len()));
            must_fail(&bytes, &format!("seed {seed}: container truncated to {}", bytes.len()));
        }
        _ => {
            let n = 1 + rng.random_range(0..64usize);
            let extra = random_bytes(&mut rng, n);
            bytes.extend_from_slice(&extra);
            must_fail(&bytes, &format!("seed {seed}: {} bytes appended", extra.len()));
        }
    }
}

/// (b): one mutation of one section's payload per seed, CRC kept valid.
fn section_case(base: &[(String, Vec<u8>)], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC7_1045);
    let mut sections = base.to_vec();
    let k = rng.random_range(0..sections.len());
    let (name, payload) = &mut sections[k];
    let name = name.clone();
    match rng.random_range(0..3usize) {
        0 => {
            payload.truncate(rng.random_range(0..payload.len()));
            let case = format!("seed {seed}: {name} truncated to {}", payload.len());
            must_fail(&rebuild(&sections), &case);
        }
        1 => {
            let n = 1 + rng.random_range(0..16usize);
            let extra = random_bytes(&mut rng, n);
            payload.extend_from_slice(&extra);
            let case = format!("seed {seed}: {} bytes appended to {name}", extra.len());
            must_fail(&rebuild(&sections), &case);
        }
        _ => {
            let flips = 1 + rng.random_range(0..4usize);
            for _ in 0..flips {
                let at = rng.random_range(0..payload.len());
                payload[at] ^= 1 << rng.random_range(0..8usize);
            }
            let case = format!("seed {seed}: {flips} bit flips in {name}");
            if let Some(snapshot) = decode(&rebuild(&sections), &case) {
                must_be_usable(snapshot, &case);
            }
        }
    }
}

/// Offsets of the length and count prefixes in each section, found by
/// walking the base payloads with the encoder's layout; each entry is
/// (section, offset, width in bytes).
fn prefixes(sections: &[(String, Vec<u8>)]) -> Vec<(String, usize, usize)> {
    let at = |payload: &[u8], d: &Dec<'_>| payload.len() - d.remaining();
    let mut out = Vec::new();
    for (name, payload) in sections {
        let mut push = |off: usize, width: usize| out.push((name.clone(), off, width));
        let mut d = Dec::new(payload);
        match name.as_str() {
            "meta" => push(0, 4),
            "lexicon" => {
                for _ in 0..2 {
                    push(at(payload, &d), 8);
                    let n = d.u64().expect("word count");
                    for w in 0..n {
                        if w == 0 {
                            push(at(payload, &d), 4);
                        }
                        d.str().expect("word");
                    }
                }
            }
            "sentiment" => {
                d.u32().expect("version");
                d.u8().expect("order");
                push(at(payload, &d), 8);
                let n = d.u64().expect("vocab count");
                for w in 0..n {
                    if w == 0 {
                        push(at(payload, &d), 4);
                    }
                    d.str().expect("word");
                    d.u64().expect("count");
                }
                push(at(payload, &d), 8);
                d.f64s().expect("log_pos");
                push(at(payload, &d), 8);
            }
            "gbt" => {
                d.f64().expect("base score");
                push(at(payload, &d), 8);
                d.u64s().expect("split counts");
                push(at(payload, &d), 8);
                d.f64s().expect("gain sums");
                push(at(payload, &d), 8);
                d.u64().expect("forest length");
                d.u32().expect("forest version");
                for elem in [4, 4, 8, 4, 8] {
                    push(at(payload, &d), 8);
                    let n = d.u64().expect("array count") as usize;
                    for _ in 0..n * elem {
                        d.u8().expect("array byte");
                    }
                }
            }
            "featref" => {
                d.u64().expect("rows");
                push(at(payload, &d), 4);
                d.u32().expect("column count");
                push(at(payload, &d), 8);
            }
            _ => {}
        }
    }
    out
}

#[test]
fn damaged_snapshots_fail_typed_without_panic_or_huge_allocations() {
    let base = trained_snapshot();
    assert!(decode(&base, "intact snapshot").is_some(), "intact snapshot decodes");
    let parts = sections(&base);
    assert_eq!(
        parts.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        ["meta", "detector", "lexicon", "sentiment", "gbt", "featref"]
    );

    for seed in REGRESSION_SEEDS.into_iter().chain(SEEDS) {
        container_case(&base, seed);
        section_case(&parts, seed);
    }

    // Forged prefixes: each length or count set to huge values.
    let forged = prefixes(&parts);
    assert!(forged.len() >= 15, "walked every section's prefixes: {forged:?}");
    for (name, off, width) in forged {
        let len = parts.iter().find(|(n, _)| *n == name).expect("section").1.len() as u64;
        let values = match width {
            4 => [u64::from(u32::MAX), 1 << 31, len + 1],
            _ => [u64::MAX, 1 << 40, len + 1],
        };
        for value in values {
            let mut sections = parts.clone();
            let payload = &mut sections.iter_mut().find(|(n, _)| *n == name).expect("section").1;
            payload[off..off + width].copy_from_slice(&value.to_le_bytes()[..width]);
            must_fail(&rebuild(&sections), &format!("{name} prefix at {off} forged to {value}"));
        }
    }

    // Forged section-table fields: offset and length of every entry.
    for i in 0..parts.len() {
        for (field, width) in [(12, 8), (20, 8)] {
            for value in [u64::MAX, 1 << 40, base.len() as u64 + 1] {
                let mut bytes = base.clone();
                let at = 16 + 32 * i + field;
                bytes[at..at + width].copy_from_slice(&value.to_le_bytes());
                must_fail(&bytes, &format!("table entry {i} field {field} forged to {value}"));
            }
        }
    }
}

/// Flips each bit of each of the 12 name bytes of every section table
/// entry in `bytes`, and requires a typed error from the container
/// parser each time: the section CRC covers the name.
fn every_name_bit_flip_fails(bytes: &[u8], what: &str) {
    let n = sections(bytes).len();
    for i in 0..n {
        for at in 16 + 32 * i..16 + 32 * i + 12 {
            for bit in 0..8 {
                let mut damaged = bytes.to_vec();
                damaged[at] ^= 1 << bit;
                let case = format!("{what}: entry {i}, name byte {at}, bit {bit}");
                match Io2File::parse(&damaged, "damaged") {
                    Err(IoError::ChecksumMismatch { .. } | IoError::BadHeader { .. }) => {}
                    other => panic!("{case}: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn a_damaged_section_name_is_a_typed_error_in_a_snapshot_and_a_checkpoint_slot() {
    every_name_bit_flip_fails(&trained_snapshot(), "snapshot");

    let dir = cats_io::ScratchDir::new("cats_core_name_crc");
    let store = cats_io::CheckpointStore::open(&*dir).expect("open checkpoint store");
    store.save("gbt", b"a checkpoint payload").expect("save slot");
    let slot = std::fs::read(store.path("gbt")).expect("read slot");
    every_name_bit_flip_fails(&slot, "checkpoint slot");
}
