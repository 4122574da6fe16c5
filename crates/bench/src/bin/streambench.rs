//! Incremental-vs-full benchmark for the streaming mining engine:
//! replays a Quest database batch-by-batch through
//! [`eclat_stream::StreamEngine`] and, after every batch, re-mines the
//! same prefix from scratch — timing both, asserting they agree
//! exactly, and reporting the dirty-class fraction that explains the
//! incremental win.
//!
//! ```text
//! cargo run -p repro-bench --bin streambench --release [-- \
//!     --transactions=50000 --batches=10 --support=0.5 \
//!     --confidence=0.3 --smoke --json=results/streambench.json]
//! ```
//!
//! The replay ends with a deliberately tiny final batch (`--delta`,
//! default 0.1 % of the stream) on top of the full prefix — the
//! steady-state shape incremental mining exists for, where only the
//! classes the delta actually touched pay for re-mining. Every batch is
//! equality-asserted against the from-scratch mine (frequent sets and
//! rules), so the bench doubles as an end-to-end correctness check; a
//! divergence aborts the run rather than reporting a meaningless time.

use dbstore::HorizontalDb;
use eclat::pipeline::Serial;
use eclat::EclatConfig;
use eclat_stream::{MinedState, StreamEngine, StreamStats};
use mining_types::json::{Arr, Obj};
use mining_types::MinSupport;
use questgen::{QuestGenerator, QuestParams};
use repro_bench::{row, Args};
use std::time::Instant;

struct BenchConfig {
    transactions: usize,
    batches: usize,
    delta: usize,
    support_percent: f64,
    confidence: f64,
}

/// One batch's paired measurement: the engine's incremental ingest vs a
/// from-scratch mine of the same prefix.
struct Paired {
    batch: u64,
    transactions: u64,
    total_transactions: u64,
    classes_total: u64,
    classes_dirty: u64,
    dirty_bound: u64,
    dirty_fraction: f64,
    itemsets: u64,
    rules: u64,
    incremental_secs: f64,
    full_secs: f64,
}

impl Paired {
    fn speedup(&self) -> f64 {
        if self.incremental_secs > 0.0 {
            self.full_secs / self.incremental_secs
        } else {
            0.0
        }
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let cfg = BenchConfig {
        transactions: args
            .get("transactions")
            .map(|s| s.parse().expect("--transactions"))
            .unwrap_or(if smoke { 3_000 } else { 50_000 }),
        batches: args
            .get("batches")
            .map(|s| s.parse().expect("--batches"))
            .unwrap_or(if smoke { 5 } else { 10 }),
        delta: args
            .get("delta")
            .map(|s| s.parse().expect("--delta"))
            .unwrap_or(0),
        support_percent: args
            .get("support")
            .map(|s| s.parse().expect("--support"))
            .unwrap_or(if smoke { 1.0 } else { 0.5 }),
        confidence: args
            .get("confidence")
            .map(|s| s.parse().expect("--confidence"))
            .unwrap_or(0.3),
    };
    assert!(cfg.batches > 0, "--batches must be > 0");
    let delta = if cfg.delta > 0 {
        cfg.delta
    } else {
        (cfg.transactions / 1000).max(1)
    };

    let params = QuestParams::t10_i6(cfg.transactions).with_seed(0x57BE);
    eprintln!(
        "[streambench] generating {} (last {delta} txns held as the final delta) ...",
        params.name()
    );
    let txns = QuestGenerator::new(params).generate_all();
    let (main_stream, tail) = txns.split_at(cfg.transactions - delta);
    let batch_size = main_stream.len().div_ceil(cfg.batches);

    let minsup = MinSupport::from_percent(cfg.support_percent);
    let mining_cfg = EclatConfig::with_singletons();
    let num_items = txns
        .iter()
        .flat_map(|t| t.iter().map(|i| i.0 + 1))
        .max()
        .unwrap_or(0);
    let mut engine = StreamEngine::new(num_items, minsup, cfg.confidence, mining_cfg.clone());
    let mut run = StreamStats {
        representation: eclat::pipeline::LABEL_AUTO.to_string(),
        batch_size: batch_size as u64,
        ..StreamStats::default()
    };

    // The replay: `batches` even slices of the main stream, then the
    // small tail delta that models steady-state ingest.
    let mut slices: Vec<&[_]> = main_stream.chunks(batch_size).collect();
    slices.push(tail);

    let widths = [5usize, 6, 8, 9, 9, 7, 9, 12, 12, 8];
    println!(
        "{}",
        row(
            &[
                "batch", "+txns", "total", "classes", "dirty", "bound", "dirty%", "incr (s)",
                "full (s)", "speedup"
            ]
            .map(String::from),
            &widths
        )
    );

    let mut paired = Vec::with_capacity(slices.len());
    let mut prefix: Vec<Vec<mining_types::ItemId>> = Vec::with_capacity(txns.len());
    for batch in slices {
        let t0 = Instant::now();
        let stats = engine.ingest_batch(batch, &Serial);
        let incremental_secs = t0.elapsed().as_secs_f64();
        assert!(
            stats.classes_dirty <= stats.dirty_bound,
            "pair-granular dirty set exceeded the item-granular bound"
        );

        prefix.extend(batch.iter().cloned());
        let db = HorizontalDb::from_transactions(prefix.clone());
        let t1 = Instant::now();
        let full = MinedState::full_mine(&db, minsup, cfg.confidence, &mining_cfg);
        let full_secs = t1.elapsed().as_secs_f64();
        assert_eq!(
            engine.state().frequent,
            full.frequent,
            "incremental frequent set diverged from full re-mine at batch {}",
            stats.batch
        );
        assert_eq!(
            engine.state().rules,
            full.rules,
            "incremental rules diverged from full re-mine at batch {}",
            stats.batch
        );

        let p = Paired {
            batch: stats.batch,
            transactions: stats.transactions,
            total_transactions: stats.total_transactions,
            classes_total: stats.classes_total,
            classes_dirty: stats.classes_dirty,
            dirty_bound: stats.dirty_bound,
            dirty_fraction: stats.dirty_fraction(),
            itemsets: stats.itemsets,
            rules: stats.rules,
            incremental_secs,
            full_secs,
        };
        println!(
            "{}",
            row(
                &[
                    p.batch.to_string(),
                    p.transactions.to_string(),
                    p.total_transactions.to_string(),
                    p.classes_total.to_string(),
                    p.classes_dirty.to_string(),
                    p.dirty_bound.to_string(),
                    format!("{:.1}", p.dirty_fraction * 100.0),
                    format!("{:.4}", p.incremental_secs),
                    format!("{:.4}", p.full_secs),
                    format!("{:.2}x", p.speedup()),
                ],
                &widths
            )
        );
        run.push(stats);
        paired.push(p);
    }

    let last = paired.last().expect("at least one batch");
    println!(
        "streambench: {} batches verified against full re-mine ({} itemsets, {} rules at gen {})",
        paired.len(),
        last.itemsets,
        last.rules,
        engine.generation()
    );
    println!(
        "  final delta: +{} txns touched {}/{} classes ({:.1}%), incremental {:.4}s vs full {:.4}s ({:.2}x)",
        last.transactions,
        last.classes_dirty,
        last.classes_total,
        last.dirty_fraction * 100.0,
        last.incremental_secs,
        last.full_secs,
        last.speedup()
    );

    if let Some(path) = args.json_out() {
        let mut batches = Arr::new();
        for p in &paired {
            batches.raw(
                &Obj::new()
                    .u64("batch", p.batch)
                    .u64("transactions", p.transactions)
                    .u64("total_transactions", p.total_transactions)
                    .u64("classes_total", p.classes_total)
                    .u64("classes_dirty", p.classes_dirty)
                    .u64("dirty_bound", p.dirty_bound)
                    .f64("dirty_fraction", p.dirty_fraction)
                    .u64("itemsets", p.itemsets)
                    .u64("rules", p.rules)
                    .f64("incremental_secs", p.incremental_secs)
                    .f64("full_secs", p.full_secs)
                    .f64("speedup", p.speedup())
                    .finish(),
            );
        }
        let doc = Obj::new()
            .str("bench", "streambench")
            .raw("smoke", if smoke { "true" } else { "false" })
            .u64("transactions", cfg.transactions as u64)
            .u64("batch_size", batch_size as u64)
            .u64("delta", delta as u64)
            .f64("support_percent", cfg.support_percent)
            .f64("confidence", cfg.confidence)
            .f64("final_dirty_fraction", last.dirty_fraction)
            .f64("final_speedup", last.speedup())
            .raw("batches", &batches.finish())
            .raw("stream_stats", &run.to_json())
            .finish();
        repro_bench::write_json(path, &doc).expect("write --json output");
        eprintln!("[streambench] wrote {path}");
    }
}
