//! Seeded inputs of the four workloads.
//!
//! Each workload is a fixed distribution: a Quest pattern table built
//! from a table seed that never changes, so the frequent-set shape (and
//! with it the mining cost) is a property of the workload, not of the
//! run. The run's `--seed` only draws the sample: which transactions
//! (or customer sequences) come out of that table. Drawing follows the
//! Quest procedure of `questgen`'s generators step for step, over the
//! public pattern-table API.

use dbstore::{binfmt, seqfmt, HorizontalDb};
use mining_types::{ItemId, MinSupport};
use questgen::{sampler, PatternTable, QuestParams, SeqParams, SeqPatternTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// quest-sparse: T10.I6.D200K at 0.1% (the paper's Table 2 shape).
pub const SPARSE_TXNS: usize = 200_000;
/// quest-sparse support, percent.
pub const SPARSE_SUPPORT_PCT: f64 = 0.1;
/// quest-dense: the `dense` preset (48 items, |T| = 12), D100K at 3%.
pub const DENSE_TXNS: usize = 100_000;
/// quest-dense support, percent.
pub const DENSE_SUPPORT_PCT: f64 = 3.0;
/// stream-serve: T10.I6.D110K at 0.5%, confidence 0.3: a 90K prefix,
/// then 200 deltas of 100 transactions.
pub const STREAM_TXNS: usize = 110_000;
/// stream-serve support, percent.
pub const STREAM_SUPPORT_PCT: f64 = 0.5;
/// stream-serve rule confidence.
pub const STREAM_CONFIDENCE: f64 = 0.3;
/// stream-serve prefix ingested at set-up.
pub const STREAM_PREFIX: usize = 90_000;
/// stream-serve delta size.
pub const STREAM_DELTA: usize = 100;
/// spade: C10.T4.S4.I2.D40K at 2%.
pub const SPADE_SEQS: usize = 40_000;
/// spade support, percent.
pub const SPADE_SUPPORT_PCT: f64 = 2.0;

const SPARSE_TABLE_SEED: u64 = 1;
const DENSE_TABLE_SEED: u64 = 1;
const STREAM_TABLE_SEED: u64 = 10;
const SPADE_TABLE_SEED: u64 = 9;

/// Parameters of a basket workload's distribution.
pub fn basket_params(workload: &str) -> Option<QuestParams> {
    Some(match workload {
        "quest-sparse" => QuestParams::t10_i6(SPARSE_TXNS).with_seed(SPARSE_TABLE_SEED),
        "quest-dense" => QuestParams::dense(DENSE_TXNS, DENSE_TABLE_SEED),
        "stream-serve" => QuestParams::t10_i6(STREAM_TXNS).with_seed(STREAM_TABLE_SEED),
        _ => return None,
    })
}

/// Support threshold of a workload.
pub fn support_pct(workload: &str) -> f64 {
    match workload {
        "quest-sparse" => SPARSE_SUPPORT_PCT,
        "quest-dense" => DENSE_SUPPORT_PCT,
        "stream-serve" => STREAM_SUPPORT_PCT,
        "spade" => SPADE_SUPPORT_PCT,
        other => panic!("unknown workload '{other}'"),
    }
}

/// [`support_pct`] as a [`MinSupport`].
pub fn minsup(workload: &str) -> MinSupport {
    MinSupport::from_percent(support_pct(workload))
}

/// Parameters of the spade workload's distribution.
pub fn seq_params() -> SeqParams {
    SeqParams::c10_t4(SPADE_SEQS).with_seed(SPADE_TABLE_SEED)
}

fn sample_rng(workload: &str, seed: u64) -> StdRng {
    // Distinct streams per workload, so one seed never reuses another
    // workload's draws.
    let salt = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    StdRng::seed_from_u64(seed ^ salt)
}

/// Draw `params.num_transactions` baskets from the workload's table.
pub fn baskets(workload: &str, seed: u64) -> Vec<Vec<ItemId>> {
    let params = basket_params(workload).expect("a basket workload");
    let table = PatternTable::build(&params, &mut StdRng::seed_from_u64(params.seed));
    let mut rng = sample_rng(workload, seed);
    let mut pending = None;
    (0..params.num_transactions)
        .map(|_| basket(&params, &table, &mut rng, &mut pending))
        .collect()
}

fn corrupt_basket(table: &PatternTable, idx: usize, rng: &mut StdRng) -> Vec<ItemId> {
    let mut items = table.pattern(idx).to_vec();
    let c = table.corruption(idx);
    while items.len() > 1 && rng.random::<f64>() < c {
        let drop = rng.random_range(0..items.len());
        items.swap_remove(drop);
    }
    items
}

/// One Quest transaction: pack corrupted patterns up to a Poisson(|T|)
/// size; a pattern that does not fit is added half the time and put
/// aside for the next transaction otherwise.
fn basket(
    params: &QuestParams,
    table: &PatternTable,
    rng: &mut StdRng,
    pending: &mut Option<Vec<ItemId>>,
) -> Vec<ItemId> {
    let size = sampler::poisson(rng, params.avg_transaction_len).max(1) as usize;
    let mut txn: Vec<ItemId> = Vec::new();
    loop {
        let corrupted = match pending.take() {
            Some(p) => p,
            None => {
                let idx = table.pick(rng);
                corrupt_basket(table, idx, rng)
            }
        };
        if txn.len() + corrupted.len() <= size {
            txn.extend_from_slice(&corrupted);
            if txn.len() >= size {
                break;
            }
        } else {
            if txn.is_empty() || rng.random::<bool>() {
                txn.extend_from_slice(&corrupted);
            } else {
                *pending = Some(corrupted);
            }
            break;
        }
    }
    txn.sort_unstable();
    txn.dedup();
    txn
}

/// Draw the spade workload's customer sequences as raw `(eid, items)`
/// events.
pub fn sequences(seed: u64) -> Vec<Vec<(u32, Vec<u32>)>> {
    let params = seq_params();
    let table = SeqPatternTable::build(&params, &mut StdRng::seed_from_u64(params.seed));
    let mut rng = sample_rng("spade", seed);
    let mut pending = None;
    (0..params.num_sequences)
        .map(|_| sequence(&params, &table, &mut rng, &mut pending))
        .collect()
}

fn sample_sorted(rng: &mut StdRng, k: usize, n: usize, out: &mut Vec<usize>) {
    out.clear();
    let mut need = k.min(n);
    for e in 0..n {
        if need == 0 {
            break;
        }
        if rng.random_range(0..n - e) < need {
            out.push(e);
            need -= 1;
        }
    }
}

fn corrupt_sequence(table: &SeqPatternTable, idx: usize, rng: &mut StdRng) -> Vec<Vec<ItemId>> {
    let c = table.corruption(idx);
    let mut elems: Vec<Vec<ItemId>> = Vec::new();
    for src in table.pattern(idx) {
        let mut items = src.clone();
        while !items.is_empty() && rng.random::<f64>() < c {
            let drop = rng.random_range(0..items.len());
            items.swap_remove(drop);
        }
        if !items.is_empty() {
            items.sort_unstable();
            elems.push(items);
        }
    }
    if elems.is_empty() {
        elems.push(table.pattern(idx)[0].clone());
    }
    elems
}

fn place(rng: &mut StdRng, elems: &[Vec<ItemId>], events: &mut [Vec<ItemId>]) -> usize {
    let mut positions = Vec::new();
    sample_sorted(
        rng,
        elems.len().min(events.len()),
        events.len(),
        &mut positions,
    );
    let mut placed = 0;
    for (&pos, elem) in positions.iter().zip(elems) {
        events[pos].extend_from_slice(elem);
        placed += elem.len();
    }
    placed
}

/// One customer history: Poisson(|C|) events sharing a Poisson(|T|)
/// per-event item budget, filled with corrupted patterns at increasing
/// event positions.
fn sequence(
    params: &SeqParams,
    table: &SeqPatternTable,
    rng: &mut StdRng,
    pending: &mut Option<Vec<Vec<ItemId>>>,
) -> Vec<(u32, Vec<u32>)> {
    let n_events = sampler::poisson(rng, params.avg_events_per_seq).max(1) as usize;
    let budget: usize = (0..n_events)
        .map(|_| sampler::poisson(rng, params.avg_items_per_event).max(1) as usize)
        .sum();
    let mut events: Vec<Vec<ItemId>> = vec![Vec::new(); n_events];
    let mut placed = 0;
    loop {
        let corrupted = match pending.take() {
            Some(p) => p,
            None => {
                let idx = table.pick(rng);
                corrupt_sequence(table, idx, rng)
            }
        };
        let size: usize = corrupted.iter().map(Vec::len).sum();
        if placed + size <= budget {
            placed += place(rng, &corrupted, &mut events);
            if placed >= budget {
                break;
            }
        } else {
            if placed == 0 || rng.random::<bool>() {
                place(rng, &corrupted, &mut events);
            } else {
                *pending = Some(corrupted);
            }
            break;
        }
    }
    events
        .into_iter()
        .enumerate()
        .filter(|(_, items)| !items.is_empty())
        .map(|(i, mut items)| {
            items.sort_unstable();
            items.dedup();
            (i as u32 + 1, items.into_iter().map(|it| it.0).collect())
        })
        .collect()
}

/// Write a basket database in the `eclat` binary format.
pub fn write_baskets(db: &HorizontalDb, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    binfmt::write_horizontal(db, &mut w)?;
    w.flush()
}

/// Write a sequence database in the `eclat seq` format.
pub fn write_sequences(raw: &[Vec<(u32, Vec<u32>)>], path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    seqfmt::write_seq_db(raw, seq_params().num_items, &mut w)?;
    w.flush()
}
