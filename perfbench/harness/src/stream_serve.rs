//! The stream-serve system the traced run measures: incremental ingest
//! published to a live query server, under an open-loop read load.
//!
//! Set-up ingests a 90K-transaction prefix into a [`StreamEngine`],
//! publishes it as a results snapshot and starts an `assoc_serve`
//! server on a loopback port. The measured phase then paces the
//! remaining deltas evenly over the run: each delta is ingested,
//! published as a v2 snapshot file (encode, atomic rename, decode) and
//! hot-reloaded into the server's [`Store`]. Meanwhile one client thread
//! sends a seeded query mix at a fixed rate over one connection, each
//! request timed from the moment it was due.

use crate::inputs;
use assoc_serve::{
    Client, Dataset, Query, Response, ServerConfig, ServerHandle, Store, StoreConfig,
};
use dbstore::{binfmt, HorizontalDb};
use eclat::pipeline::Serial;
use eclat::EclatConfig;
use eclat_stream::{MinedState, StreamEngine};
use mining_types::{ItemId, Itemset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop request rate, requests per second. Single-connection
/// closed-loop capacity is several times higher, so queueing behind
/// ingest and reload sets the tail, not saturation.
pub const QUERY_RATE: f64 = 4000.0;
/// Answers are checked at every `CHECKED_EVERY`-th store generation
/// ([`Live`] keeps those generations' datasets), and there every
/// `VERIFY_EVERY`-th answer.
const CHECKED_EVERY: u64 = 8;
const VERIFY_EVERY: u64 = 2;

/// Is store generation `g` one whose answers are checked?
fn checked(g: u64) -> bool {
    g % CHECKED_EVERY == 1
}
/// Result limit of the enumerating query kinds and of `top_k`, as
/// `servload`'s default `--limit`.
const LIMIT: u32 = 20;
/// Itemsets the mix probes: the store's top-256 of any size, as
/// `servload` discovers them.
const PROBES: u32 = 256;
/// The five query kinds, in [`kind_of`] order.
pub const KINDS: [&str; 5] = ["support", "subsets", "supersets", "rules_for", "top_k"];

/// Index of a query's kind in [`KINDS`].
pub fn kind_of(q: &Query) -> usize {
    match q {
        Query::Support { .. } => 0,
        Query::Subsets { .. } => 1,
        Query::Supersets { .. } => 2,
        Query::RulesFor { .. } => 3,
        _ => 4,
    }
}

/// Draws `servload`'s query mix from the seed: out of ten requests,
/// four look up the support of a probe itemset, one that of an absent
/// itemset, two ask for a probe's subsets, one for its supersets, one
/// for the rules of one of the first [`LIMIT`] probes and one for a
/// `top_k` of size 1 to 3. Probes are drawn uniformly.
pub struct QueryMix {
    rng: StdRng,
    present: Vec<Itemset>,
    missing: Itemset,
}

impl QueryMix {
    /// A mix over the itemsets `store` serves now.
    pub fn new(store: &Store, seed: u64) -> QueryMix {
        let mut present: Vec<Itemset> = match store.execute(&Query::TopK {
            size: 0,
            k: PROBES,
        }) {
            Response::Itemsets(v) => v.into_iter().map(|c| c.itemset).collect(),
            _ => Vec::new(),
        };
        if present.is_empty() {
            present.push(Itemset::of(&[0]));
        }
        let max_item = present
            .iter()
            .flat_map(|s| s.items())
            .map(|i| i.index() as u32)
            .max()
            .unwrap_or(0);
        QueryMix {
            rng: StdRng::seed_from_u64(seed),
            present,
            missing: Itemset::of(&[max_item + 1, max_item + 2]),
        }
    }

    /// The next query of the mix.
    pub fn next_query(&mut self) -> Query {
        let probe = self.present[self.rng.random_range(0..self.present.len())].clone();
        match self.rng.random_range(0..10u32) {
            0..=3 => Query::Support { itemset: probe },
            4 => Query::Support {
                itemset: self.missing.clone(),
            },
            5 | 6 => Query::Subsets {
                of: probe,
                limit: LIMIT,
            },
            7 => Query::Supersets {
                of: probe,
                limit: LIMIT,
            },
            8 => {
                let ants = self.present.len().min(LIMIT as usize);
                Query::RulesFor {
                    antecedent: self.present[self.rng.random_range(0..ants)].clone(),
                    k: LIMIT,
                }
            }
            _ => Query::TopK {
                size: self.rng.random_range(1..=3),
                k: LIMIT,
            },
        }
    }
}

/// Read a results snapshot back into the dataset the server indexes.
pub fn dataset_of(snap: binfmt::ResultsSnapshot) -> Dataset {
    Dataset {
        frequent: snap.frequent,
        rules: snap
            .rules
            .into_iter()
            .map(|r| assoc_rules::Rule {
                antecedent: r.antecedent,
                consequent: r.consequent,
                support: r.support,
                antecedent_support: r.antecedent_support,
                consequent_support: r.consequent_support,
            })
            .collect(),
        num_transactions: snap.num_transactions,
    }
}

/// Write `state` as a results snapshot at `path`: next to it first,
/// then renamed over, so a reader never sees a partial file.
pub fn encode_snapshot(state: &MinedState, path: &Path) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut w = BufWriter::new(File::create(&tmp)?);
    binfmt::write_results(&state.to_snapshot(), &mut w)?;
    w.flush()?;
    drop(w);
    std::fs::rename(&tmp, path)
}

/// Read the snapshot at `path` back into a servable dataset.
pub fn decode_snapshot(path: &Path) -> std::io::Result<Dataset> {
    let (snap, _) = binfmt::read_results(&mut BufReader::new(File::open(path)?))?;
    Ok(dataset_of(snap))
}

/// Publish `state` through the snapshot file at `path` and read it back.
pub fn publish(state: &MinedState, path: &Path) -> std::io::Result<Dataset> {
    encode_snapshot(state, path)?;
    decode_snapshot(path)
}

/// The running stream-serve system: the prefix ingested, its snapshot
/// served.
pub struct Live {
    /// The incremental engine after the prefix.
    pub engine: StreamEngine,
    /// Every transaction of the run, prefix first.
    pub txns: Vec<Vec<ItemId>>,
    /// The served store.
    pub store: Arc<Store>,
    /// The running server.
    pub server: ServerHandle,
    /// Snapshot file the deltas are published through.
    pub snap_path: PathBuf,
    /// Dataset of every checked store generation so far.
    pub datasets: BTreeMap<u64, Dataset>,
}

impl Live {
    /// Generate the seed's stream, ingest the prefix, publish it and
    /// start the server.
    pub fn setup(seed: u64, work: &Path) -> std::io::Result<Live> {
        let txns = inputs::baskets("stream-serve", seed);
        let params = inputs::basket_params("stream-serve").expect("a basket workload");
        let mut engine = StreamEngine::new(
            params.num_items,
            inputs::minsup("stream-serve"),
            inputs::STREAM_CONFIDENCE,
            EclatConfig::default(),
        );
        engine.ingest_batch(&txns[..inputs::STREAM_PREFIX], &Serial);
        let snap_path = work.join("stream-serve.ecr");
        let dataset = publish(engine.state(), &snap_path)?;
        let store = Arc::new(Store::with_dataset(&dataset, &StoreConfig::default()));
        let server = assoc_serve::start(
            Arc::clone(&store),
            &ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )?;
        let mut live = Live {
            engine,
            txns,
            store,
            server,
            snap_path,
            datasets: BTreeMap::new(),
        };
        live.keep(1, dataset);
        Ok(live)
    }

    /// The deltas after the prefix.
    pub fn deltas(&self) -> Vec<Vec<Vec<ItemId>>> {
        self.txns[inputs::STREAM_PREFIX..]
            .chunks(inputs::STREAM_DELTA)
            .map(<[_]>::to_vec)
            .collect()
    }

    /// Ingest one delta, publish it and hot-reload the server. Returns
    /// the freshness in seconds.
    pub fn apply(&mut self, delta: &[Vec<ItemId>]) -> std::io::Result<f64> {
        let t = Instant::now();
        self.engine.ingest_batch(delta, &Serial);
        let dataset = publish(self.engine.state(), &self.snap_path)?;
        let generation = self.store.reload(&dataset);
        let fresh = t.elapsed().as_secs_f64();
        self.keep(generation, dataset);
        Ok(fresh)
    }

    /// Keep `dataset` for checking answers if `generation` is checked.
    pub fn keep(&mut self, generation: u64, dataset: Dataset) {
        if checked(generation) {
            self.datasets.insert(generation, dataset);
        }
    }

    /// Does the engine's state equal a full re-mine of everything
    /// ingested so far?
    pub fn state_matches_full_mine(&self) -> bool {
        let n = self.engine.num_transactions();
        let db = HorizontalDb::from_transactions(self.txns[..n].to_vec());
        let full = MinedState::full_mine(
            &db,
            inputs::minsup("stream-serve"),
            inputs::STREAM_CONFIDENCE,
            &EclatConfig::default(),
        );
        let state = self.engine.state();
        state.frequent == full.frequent
            && state.rules == full.rules
            && state.num_transactions == full.num_transactions
    }

    /// Stop the server.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// One answered request kept for checking.
pub struct Sample {
    query: Query,
    response: Response,
    /// The store generation current both before sending and after the
    /// answer arrived, so the one the server answered from.
    generation: u64,
}

/// What the load generator saw.
#[derive(Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Requests refused, timed out or answered with an error.
    pub errors: u64,
    /// Latency from due time to answer, seconds.
    pub latency: Vec<f64>,
    /// Lateness of the send behind the due time, seconds.
    pub lag: Vec<f64>,
    /// Answers kept for checking.
    pub samples: Vec<Sample>,
}

/// Send the mix open-loop at [`QUERY_RATE`] over one connection until
/// `end`, starting at `start`.
pub fn open_loop(
    addr: std::net::SocketAddr,
    store: &Store,
    mut mix: QueryMix,
    start: Instant,
    end: Instant,
) -> LoadReport {
    let mut report = LoadReport::default();
    let Ok(mut client) = Client::connect(addr) else {
        report.sent = 1;
        report.errors = 1;
        return report;
    };
    let _ = client.set_read_timeout(Some(Duration::from_secs(5)));
    for i in 0u64.. {
        let due = start + Duration::from_secs_f64(i as f64 / QUERY_RATE);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let query = mix.next_query();
        let sent = Instant::now();
        let lo = store.snapshot().generation();
        let answer = client.query(&query);
        let done = Instant::now();
        let hi = store.snapshot().generation();
        report.sent += 1;
        report.latency.push((done - due).as_secs_f64());
        report.lag.push((sent - due).as_secs_f64());
        match answer {
            Ok(Response::Error(_)) | Err(_) => {
                report.errors += 1;
                if client_broken(&mut client, addr) {
                    break;
                }
            }
            Ok(response) => {
                if lo == hi && checked(lo) && i.is_multiple_of(VERIFY_EVERY) {
                    report.samples.push(Sample {
                        query,
                        response,
                        generation: lo,
                    });
                }
            }
        }
    }
    report
}

/// After a failed request, reconnect; true when that fails too.
fn client_broken(client: &mut Client, addr: std::net::SocketAddr) -> bool {
    match Client::connect(addr) {
        Ok(c) => {
            *client = c;
            false
        }
        Err(_) => true,
    }
}

/// Count kept answers that differ from [`Store::execute`] on a fresh,
/// cache-less store of the generation that produced them.
pub fn wrong_answers(samples: &[Sample], datasets: &BTreeMap<u64, Dataset>) -> u64 {
    let cfg = StoreConfig {
        cache_entries: 0,
        ..StoreConfig::default()
    };
    let mut by_generation: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        by_generation.entry(s.generation).or_default().push(s);
    }
    let mut wrong = 0;
    for (g, kept) in by_generation {
        let Some(dataset) = datasets.get(&g) else {
            wrong += kept.len() as u64;
            continue;
        };
        let reference = Store::with_dataset(dataset, &cfg);
        wrong += kept
            .iter()
            .filter(|s| reference.execute(&s.query) != s.response)
            .count() as u64;
    }
    wrong
}

/// Percentile `q` (0..=100) of `values` by linear interpolation.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Result of the measured phase.
pub struct RunReport {
    /// Freshness per delta, seconds.
    pub fresh: Vec<f64>,
    /// Deltas that failed to publish or reload.
    pub batch_errors: u64,
    /// The load generator's view.
    pub load: LoadReport,
}

/// Pace `deltas` evenly over `seconds` while the client thread runs
/// the open loop over the same window.
pub fn run(live: &mut Live, deltas: &[Vec<Vec<ItemId>>], seed: u64, seconds: f64) -> RunReport {
    let mix = QueryMix::new(&live.store, seed ^ 0x9e37_79b9_7f4a_7c15);
    let addr = live.server.local_addr();
    let store = Arc::clone(&live.store);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let spacing = seconds / deltas.len() as f64;
    let mut fresh = Vec::with_capacity(deltas.len());
    let mut batch_errors = 0;
    let load = std::thread::scope(|scope| {
        let client = scope.spawn(|| open_loop(addr, &store, mix, start, end));
        for (k, delta) in deltas.iter().enumerate() {
            let due = start + Duration::from_secs_f64((k as f64 + 0.5) * spacing);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            match live.apply(delta) {
                Ok(secs) => fresh.push(secs),
                Err(_) => batch_errors += 1,
            }
        }
        client.join().expect("load generator thread panicked")
    });
    RunReport {
        fresh,
        batch_errors,
        load,
    }
}
