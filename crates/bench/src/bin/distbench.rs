//! Distributed-mining speedup bench: real TCP workers on loopback.
//!
//! Where `table2`/`fig7` replay the simulator's Memory Channel cost
//! model, `distbench` measures the real thing — a coordinator and `W`
//! [`eclat_net`] workers exchanging tid-lists over loopback sockets.
//! Each worker is a paper-style host mining its classes on `P` threads,
//! so the fleet sweeps an `H x P` matrix: pure multi-process rows
//! (`P = 1`) next to hybrid rows (`W x P` processors on `W` sockets).
//! Every run is checked against the sequential miner, so the table
//! doubles as an end-to-end correctness gate.
//!
//! ```text
//! cargo run -p repro-bench --bin distbench --release [-- \
//!     --transactions=20000 --support=0.25 --smoke \
//!     --threads=4 --mem-budget=65536 \
//!     --json=results/distbench.json]
//! ```
//!
//! `--smoke` shrinks the database and stops at `W = 2` for CI.
//! `--trace=PATH` arms the [`eclat_obs`] tracer for the whole sweep and
//! writes the span timeline as a JSONL artifact — the workers run
//! in-process here, so coordinator and worker phases land in one
//! single-process trace (use `eclat dmine --spawn-local --trace` for a
//! true multi-process cluster timeline).
//! `--threads=P` pins every row to `P` threads per worker instead of
//! sweeping the matrix; `--mem-budget=BYTES` caps each worker's
//! resident exchanged tid-lists, forcing the out-of-core class store
//! into the measurement (a bounded-RAM axis — the spill column reports
//! the bytes that moved through disk). The `--json` document embeds
//! each run's full [`mining_types::MiningStats`] report (per-phase
//! timings and the per-worker-thread `cluster` section), so
//! `scripts/stats_diff` can put a measured artifact next to a simulated
//! `eclat simulate --stats=json` one — the sim-vs-real Table 2 story.

use dbstore::HorizontalDb;
use eclat::pipeline::Serial;
use eclat::EclatConfig;
use eclat_net::{mine_distributed, start_worker, DistConfig, WorkerConfig};
use mining_types::json::{Arr, Obj};
use mining_types::{MinSupport, OpMeter};
use questgen::{QuestGenerator, QuestParams};
use repro_bench::{row, Args};
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let transactions: usize = args
        .get("transactions")
        .map(|s| s.parse().expect("--transactions"))
        .unwrap_or(if smoke { 5_000 } else { 20_000 });
    let support: f64 = args
        .get("support")
        .map(|s| s.parse().expect("--support must be a number (percent)"))
        .unwrap_or(0.25);
    let forced_threads: Option<usize> = args
        .get("threads")
        .map(|s| s.parse().expect("--threads must be a thread count"));
    let mem_budget: Option<u64> = args
        .get("mem-budget")
        .map(|s| s.parse().expect("--mem-budget must be bytes"));
    if args.get("trace").is_some() {
        // Identity (run id + coordinator rank) is stamped by each
        // mine_distributed call; only the enable flag goes here.
        eclat_obs::trace::set_enabled(true);
    }

    // (workers, threads-per-worker). The baseline is always the first
    // entry; P = 1 rows reproduce the old pure-process sweep, the rest
    // are hybrid H x P configurations.
    let fleet: Vec<(usize, usize)> = if let Some(p) = forced_threads {
        if smoke {
            vec![(1, p), (2, p)]
        } else {
            vec![(1, p), (2, p), (4, p), (8, p)]
        }
    } else if smoke {
        vec![(1, 1), (2, 1), (2, 2)]
    } else {
        vec![
            (1, 1),
            (2, 1),
            (4, 1),
            (8, 1),
            (1, 4),
            (2, 2),
            (2, 4),
            (4, 2),
        ]
    };

    let params = QuestParams::t10_i6(transactions).with_seed(0xD157);
    let name = params.name();
    eprintln!("[distbench] generating {name} ...");
    let db = HorizontalDb::from_transactions(QuestGenerator::new(params).generate_all());
    let minsup = MinSupport::from_percent(support);

    eprintln!("[distbench] sequential oracle at {support}% ...");
    let t0 = Instant::now();
    let cfg = EclatConfig::default();
    let oracle = eclat::pipeline::run(&db, minsup, &cfg, &mut OpMeter::new(), &Serial);
    let seq_secs = t0.elapsed().as_secs_f64();
    println!(
        "distbench: {name} @ {support}% — {} frequent itemsets, sequential {seq_secs:.3}s",
        oracle.len()
    );

    let widths = [7usize, 7, 10, 8, 10, 14, 12];
    let header: Vec<String> = [
        "workers",
        "threads",
        "wall s",
        "speedup",
        "imbalance",
        "exchange B",
        "spill B",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    println!("{}", row(&header, &widths));

    let mut runs = Arr::new();
    let mut base_secs = None;
    for &(w, p) in &fleet {
        let worker_cfg = WorkerConfig {
            threads: p,
            mem_budget,
            ..WorkerConfig::default()
        };
        let workers: Vec<_> = (0..w)
            .map(|_| start_worker(&worker_cfg).expect("start worker"))
            .collect();
        let addrs: Vec<String> = workers.iter().map(|h| h.addr().to_string()).collect();
        let t = Instant::now();
        let report =
            mine_distributed(&db, minsup, &addrs, &DistConfig::default()).expect("distributed run");
        let wall = t.elapsed().as_secs_f64();
        assert_eq!(
            report.frequent, oracle,
            "W={w} P={p} diverged from the sequential miner"
        );
        let base = *base_secs.get_or_insert(wall);
        let speedup = base / wall;
        let cluster = report
            .stats
            .cluster
            .as_ref()
            .expect("dist runs carry a cluster section");
        let bytes: u64 = cluster
            .procs
            .iter()
            .map(|p| p.bytes_sent + p.bytes_received)
            .sum();
        let spill_bytes = report.spill_bytes_written + report.spill_bytes_read;
        println!(
            "{}",
            row(
                &[
                    w.to_string(),
                    p.to_string(),
                    format!("{wall:.3}"),
                    format!("{speedup:.2}"),
                    format!("{:.2}", cluster.load_imbalance),
                    bytes.to_string(),
                    spill_bytes.to_string(),
                ],
                &widths
            )
        );
        runs.raw(
            &Obj::new()
                .u64("workers", w as u64)
                .u64("threads_per_worker", p as u64)
                .u64("mem_budget_bytes", mem_budget.unwrap_or(u64::MAX))
                .f64("wall_secs", wall)
                .f64("speedup", speedup)
                .f64("load_imbalance", cluster.load_imbalance)
                .u64("exchange_bytes", bytes)
                .u64("spill_bytes_written", report.spill_bytes_written)
                .u64("spill_bytes_read", report.spill_bytes_read)
                .raw("stats", &report.stats.to_json(false))
                .finish(),
        );
    }

    if let Some(path) = args.json_out() {
        let doc = Obj::new()
            .str("bench", "distbench")
            .raw("smoke", if smoke { "true" } else { "false" })
            .str("database", &name)
            .u64("transactions", transactions as u64)
            .f64("support_percent", support)
            .u64("num_frequent", oracle.len() as u64)
            .f64("sequential_secs", seq_secs)
            .raw("runs", &runs.finish())
            .finish();
        repro_bench::write_json(path, &doc).expect("write --json output");
        eprintln!("[distbench] wrote {path}");
    }

    if let Some(path) = args.get("trace") {
        std::fs::write(path, eclat_obs::trace::render_jsonl()).expect("write --trace output");
        eprintln!("[distbench] wrote trace {path}");
    }
}
