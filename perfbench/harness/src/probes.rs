//! The traced run: per-layer metrics from spans around the benchmark's
//! own calls into each crate's public functions.
//!
//! Every traced run measures every layer, each on the workload whose
//! inputs exercise it: the core phases and kernels on the quest-sparse
//! and quest-dense fixtures, the exchange and spill on quest-sparse,
//! stream, rules, snapshot and serve on stream-serve, and seq on spade.
//! The same seed draws the same fixtures as the untraced runs.

use crate::inputs;
use crate::stream_serve::{self, percentile, Live, QueryMix, KINDS};
use crate::trace::Tracer;
use assoc_serve::{Store, StoreConfig};
use dbstore::{binfmt, HorizontalDb, SpillStore};
use eclat::equivalence::{ClassMember, EquivalenceClass};
use eclat::pipeline::{self, Serial};
use eclat::schedule::{schedule_l2, schedule_weights, ScheduleHeuristic};
use eclat::{transform, EclatConfig};
use mining_types::{FrequentSet, ItemId, OpMeter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tidlist::{AdaptiveSet, BitmapSet, ChunkedList, GallopList, TidList, TidSet};

/// Upper bound on sampled class-member pairs per kernel fixture.
const KERNEL_PAIRS: usize = 20_000;
/// Upper bound on tid-list elements the sampled pairs touch per pass.
const KERNEL_ELEMS: u64 = 16_000_000;
/// Timed passes per kernel (the median pass is reported).
const KERNEL_PASSES: usize = 3;
/// Deltas ingested by the stream probe (ending on a generation whose
/// answers the open-loop check verifies).
const STREAM_BATCHES: usize = 32;
/// Deltas and length of the probe's measured stream-serve phase: the
/// same pacing as the untraced workload.
const TAIL_BATCHES: usize = 48;
const TAIL_SECONDS: f64 = 6.0;
/// Queries executed in process by the serve probe.
const SERVE_QUERIES: usize = 4000;
/// Mem budget of the in-process dmine workers, bytes (as `run.py`).
const DIST_BUDGET: u64 = 2 << 20;

/// Accumulates metrics and check outcomes.
pub struct Probe<'a> {
    tr: &'a Tracer,
    seed: u64,
    work: &'a Path,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// Spearman rank correlation (average ranks for ties).
fn rank_corr(x: &[f64], y: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
        let mut r = vec![0.0; v.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            for &k in &idx[i..=j] {
                r[k] = (i + j) as f64 / 2.0;
            }
            i = j + 1;
        }
        r
    }
    let (rx, ry) = (ranks(x), ranks(y));
    let n = x.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let cov: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = rx.iter().map(|a| (a - mx).powi(2)).sum();
    let vy: f64 = ry.iter().map(|b| (b - my).powi(2)).sum();
    cov / (vx * vy).sqrt()
}

/// Sampled member pairs `(class, i, j)` of one kernel fixture.
struct JoinSample {
    fixture: String,
    pairs: Vec<(usize, usize, usize)>,
    /// Tids in both operands, summed over the pairs.
    elems: u64,
    threshold: u32,
}

/// Every class's members in representation `S`.
fn convert<S>(classes: &[EquivalenceClass], f: impl Fn(&ClassMember) -> S) -> Vec<Vec<S>> {
    classes
        .iter()
        .map(|c| c.members.iter().map(&f).collect())
        .collect()
}

/// What the core probe leaves for the kernel, net and spill probes.
struct CoreOut {
    l2: Vec<(ItemId, ItemId, u32)>,
    classes: Vec<EquivalenceClass>,
    frequent: FrequentSet,
    threshold: u32,
}

impl<'a> Probe<'a> {
    /// A probe writing spans to `tr`.
    pub fn new(tr: &'a Tracer, seed: u64, work: &'a Path) -> Probe<'a> {
        Probe {
            tr,
            seed,
            work,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench-harness: check failed: {what}");
        }
    }

    /// Run every layer probe.
    pub fn run_all(&mut self) -> std::io::Result<()> {
        let (baskets, sequences) = self.datagen();
        let sparse = HorizontalDb::from_transactions(baskets);
        let dense = HorizontalDb::from_transactions(inputs::baskets("quest-dense", self.seed));
        self.decode(&sparse)?;
        let core_sparse = self.core("sparse", &sparse, "quest-sparse", 2);
        let core_dense = self.core("dense", &dense, "quest-dense", 1);
        self.kernels("sparse", &core_sparse);
        self.kernels("dense", &core_dense);
        drop(core_dense);
        self.spill(&core_sparse)?;
        self.exchange(&sparse, &core_sparse)?;
        drop(core_sparse);
        self.stream_serve()?;
        self.seq(sequences);
        Ok(())
    }

    /// Draw quest-sparse's baskets and spade's sequences from the seed,
    /// as set-up does; returns both.
    fn datagen(&mut self) -> (Vec<Vec<ItemId>>, Vec<Vec<(u32, Vec<u32>)>>) {
        let _g = self.tr.span("probe.datagen");
        let baskets = self.tr.time("datagen.baskets", || {
            inputs::baskets("quest-sparse", self.seed)
        });
        let sequences = self
            .tr
            .time("datagen.sequences", || inputs::sequences(self.seed));
        self.check(
            baskets.len() == inputs::SPARSE_TXNS && sequences.len() == inputs::SPADE_SEQS,
            "datagen sizes",
        );
        let secs = self.tr.self_secs("datagen.baskets")[0]
            + self.tr.self_secs("datagen.sequences")[0];
        self.metric("datagen.gen_s", secs, "s");
        (baskets, sequences)
    }

    fn decode(&mut self, db: &HorizontalDb) -> std::io::Result<()> {
        let _g = self.tr.span("probe.storage.decode");
        let mut bytes = Vec::new();
        binfmt::write_horizontal(db, &mut bytes)?;
        let mut ok = true;
        for _ in 0..5 {
            let (back, _) = self.tr.time("storage.read_horizontal", || {
                binfmt::read_horizontal(&mut &bytes[..])
            })?;
            ok &= back.num_transactions() == db.num_transactions();
        }
        self.check(ok, "horizontal decode round trip");
        let secs = median(&self.tr.self_secs("storage.read_horizontal"));
        self.metric("storage.decode_mb_s", mb(bytes.len() as u64) / secs, "MB/s");
        Ok(())
    }

    /// Init, transform and per-class async phases on one fixture, traced
    /// `reps` times. An untraced `pipeline::run` before each rep gives
    /// the tracing overhead and the expected output.
    fn core(&mut self, fixture: &str, db: &HorizontalDb, workload: &str, reps: usize) -> CoreOut {
        let minsup = inputs::minsup(workload);
        let threshold = minsup.count_threshold(db.num_transactions());
        let cfg = EclatConfig::default();
        let span = |phase: &str| format!("core.{phase}.{fixture}");
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        let mut kept = None;
        let mut class_secs: Vec<Vec<f64>> = Vec::new();
        let mut weights = Vec::new();
        let (mut joins, mut wasted) = (0u64, 0u64);
        for rep in 0..reps {
            let t = Instant::now();
            let reference = pipeline::run(db, minsup, &cfg, &mut OpMeter::new(), &Serial);
            untraced.push(t.elapsed().as_secs_f64());

            let group = self.tr.span(format!("probe.core.{fixture}"));
            let mut meter = OpMeter::new();
            let (tri, pairs) = self.tr.time(span("init"), || {
                let tri = transform::count_pairs(db, 0..db.num_transactions(), &mut meter);
                let pairs = pipeline::frequent_l2(&tri, threshold);
                (tri, pairs)
            });
            // The counted pairs, for the exchange probe, outside the span.
            let l2: Vec<_> = tri.frequent_pairs(threshold).collect();
            drop(tri);
            let classes = self.tr.time(span("transform"), || {
                pipeline::vertical_classes(db, &pairs, &mut meter)
            });
            let copy = (rep + 1 == reps).then(|| classes.clone());
            weights = classes.iter().map(|c| c.weight()).collect();
            class_secs.resize(classes.len(), Vec::new());
            let mut out = FrequentSet::new();
            (joins, wasted) = (0, 0);
            {
                let _a = self.tr.span(span("async"));
                for (c, class) in classes.into_iter().enumerate() {
                    let t = Instant::now();
                    let stats = self.tr.time(span("mine_class"), || {
                        pipeline::mine_class(class, threshold, &cfg, &mut meter, &mut out)
                    });
                    class_secs[c].push(t.elapsed().as_secs_f64());
                    joins += stats.kernel.joins;
                    wasted += stats.kernel.infrequent;
                }
            }
            drop(group);
            // The phases' own spans, so the copy above is not counted.
            let last = |phase: &str| *self.tr.total_secs(&span(phase)).last().expect("a span");
            traced.push(last("init") + last("transform") + last("async"));
            self.check(
                out == reference,
                &format!("core phases on {fixture} match pipeline::run"),
            );
            if let Some(classes) = copy {
                kept = Some(CoreOut {
                    l2,
                    classes,
                    frequent: out,
                    threshold,
                });
            }
        }
        let kept = kept.expect("at least one rep");
        let times: Vec<f64> = class_secs.iter().map(|v| median(v)).collect();
        let total: f64 = times.iter().sum();
        let init = median(&self.tr.self_secs(&span("init")));
        let transform = median(&self.tr.self_secs(&span("transform")));
        let asynch = median(&self.tr.total_secs(&span("async")));
        self.metric(span("init_s"), init, "s");
        self.metric(span("transform_s"), transform, "s");
        self.metric(span("async_s"), asynch, "s");
        self.metric(span("classes"), kept.classes.len() as f64, "count");
        self.metric(span("joins"), joins as f64, "count");
        self.metric(
            span("short_circuit_frac"),
            wasted as f64 / joins.max(1) as f64,
            "ratio",
        );
        let top = times.iter().copied().fold(0.0, f64::max);
        self.metric(span("top_class_share"), top / total, "ratio");
        let float_weights: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        self.metric(
            span("weight_rank_corr"),
            rank_corr(&float_weights, &times),
            "ratio",
        );
        let assignment = schedule_weights(&weights, 2, ScheduleHeuristic::GreedyPairs);
        let mut load = [0.0f64; 2];
        for (c, &p) in assignment.owner.iter().enumerate() {
            load[p] += times[c];
        }
        let makespan = load[0].max(load[1]);
        self.metric(
            span("sched_makespan_ratio"),
            makespan / (total / 2.0),
            "ratio",
        );
        if fixture == "sparse" {
            let overhead = median(&traced) / median(&untraced) - 1.0;
            self.metric("obs.trace_overhead_frac", overhead, "ratio");
        }
        kept
    }

    /// `TidSet` joins over sampled pairs of real `L2` class members.
    fn kernels(&mut self, fixture: &str, core: &CoreOut) {
        let _g = self.tr.span(format!("probe.tidlist.{fixture}"));
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x6b65_726e);
        let mut all: Vec<(usize, usize, usize)> = Vec::new();
        for (c, class) in core.classes.iter().enumerate() {
            for i in 0..class.members.len() {
                for j in i + 1..class.members.len() {
                    all.push((c, i, j));
                }
            }
        }
        // Seeded sample under both the pair and the element budget.
        for k in (1..all.len()).rev() {
            all.swap(k, rng.random_range(0..=k));
        }
        let mut pairs = Vec::new();
        let mut elems = 0u64;
        for &(c, i, j) in &all {
            let m = &core.classes[c].members;
            let e = (m[i].tids.len() + m[j].tids.len()) as u64;
            if pairs.len() >= KERNEL_PAIRS || elems + e > KERNEL_ELEMS {
                break;
            }
            elems += e;
            pairs.push((c, i, j));
        }
        let lists: Vec<Vec<TidList>> = convert(&core.classes, |m| m.tids.clone());
        let sample = JoinSample {
            fixture: fixture.to_string(),
            pairs,
            elems,
            threshold: core.threshold,
        };
        let expected = self.time_joins(&sample, "tidlist", &lists);
        let bitmaps: Vec<Vec<BitmapSet>> = lists
            .iter()
            .map(|class| {
                let (base, words) = BitmapSet::frame_of(class.iter());
                class
                    .iter()
                    .map(|l| BitmapSet::from_tidlist(l, base, words))
                    .collect()
            })
            .collect();
        let others = [
            (
                "diffset",
                self.time_joins(
                    &sample,
                    "diffset",
                    &convert(&core.classes, |m| AdaptiveSet::with_fuel(m.tids.clone(), 0)),
                ),
            ),
            (
                "gallop",
                self.time_joins(
                    &sample,
                    "gallop",
                    &convert(&core.classes, |m| GallopList(m.tids.clone())),
                ),
            ),
            (
                "chunked",
                self.time_joins(
                    &sample,
                    "chunked",
                    &convert(&core.classes, |m| ChunkedList(m.tids.clone())),
                ),
            ),
            ("bitmap", self.time_joins(&sample, "bitmap", &bitmaps)),
        ];
        for (repr, supports) in others {
            self.check(
                supports == expected,
                &format!("{repr} joins agree with tidlist on {fixture}"),
            );
        }
    }

    /// Time `sample`'s joins on one representation (median of
    /// [`KERNEL_PASSES`] passes), then count comparisons in one metered
    /// pass. Returns each join's support, `None` when infrequent.
    fn time_joins<S: TidSet>(
        &mut self,
        sample: &JoinSample,
        repr: &str,
        sets: &[Vec<S>],
    ) -> Vec<Option<u32>> {
        let (fixture, pairs) = (&sample.fixture, &sample.pairs);
        let (elems, threshold) = (sample.elems, sample.threshold);
        let name = format!("tidlist.join.{repr}.{fixture}");
        for _ in 0..KERNEL_PASSES {
            let _g = self.tr.span(name.clone());
            for &(c, i, j) in pairs {
                black_box(
                    sets[c][i]
                        .join_bounded(&sets[c][j], threshold)
                        .map(|s| s.support()),
                );
            }
        }
        let mut meter = OpMeter::new();
        let supports: Vec<Option<u32>> = pairs
            .iter()
            .map(|&(c, i, j)| {
                sets[c][i]
                    .join_bounded_metered(&sets[c][j], threshold, &mut meter)
                    .map(|s| s.support())
            })
            .collect();
        let pass = median(&self.tr.self_secs(&name));
        let n = pairs.len().max(1) as f64;
        self.metric(
            format!("tidlist.join_ns.{repr}.{fixture}"),
            pass * 1e9 / n,
            "ns",
        );
        self.metric(
            format!("tidlist.elem_ns.{repr}.{fixture}"),
            pass * 1e9 / elems.max(1) as f64,
            "ns",
        );
        self.metric(
            format!("tidlist.cmp_per_join.{repr}.{fixture}"),
            meter.tid_cmp as f64 / n,
            "count",
        );
        supports
    }

    /// Evict quest-sparse's `L2` class lists through a small budget and
    /// fault them back.
    fn spill(&mut self, core: &CoreOut) -> std::io::Result<()> {
        let _g = self.tr.span("probe.storage.spill");
        let dir = self.work.join("spill");
        let mut store = SpillStore::create(&dir, 1 << 20, core.classes.len())?;
        for (id, class) in core.classes.iter().enumerate() {
            let lists: Vec<TidList> = class.members.iter().map(|m| m.tids.clone()).collect();
            self.tr
                .time("storage.spill_insert", || store.insert(id, lists))?;
        }
        let mut ok = true;
        for (id, class) in core.classes.iter().enumerate() {
            let back = self.tr.time("storage.spill_take", || store.take(id))?;
            ok &= back.iter().zip(&class.members).all(|(l, m)| *l == m.tids)
                && back.len() == class.members.len();
        }
        self.check(ok, "spill round trip");
        let m = store.metrics();
        let insert: f64 = self.tr.self_secs("storage.spill_insert").iter().sum();
        let take: f64 = self.tr.self_secs("storage.spill_take").iter().sum();
        self.metric("storage.spill_mb_s", mb(m.bytes_written) / insert, "MB/s");
        self.metric("storage.fault_mb_s", mb(m.bytes_read) / take, "MB/s");
        Ok(())
    }

    /// Route, assemble and frame the two-worker exchange of quest-sparse's
    /// `L2` lists, then run the real distributed mine for its byte count.
    fn exchange(&mut self, db: &HorizontalDb, core: &CoreOut) -> std::io::Result<()> {
        let _g = self.tr.span("probe.net");
        let sched = schedule_l2(&core.l2, 2, ScheduleHeuristic::GreedyPairs);
        let owner: Vec<u32> = sched.slot_owner.iter().map(|&p| p as u32).collect();
        let pairs: Vec<(ItemId, ItemId)> = core.l2.iter().map(|&(a, b, _)| (a, b)).collect();
        let idx = transform::index_pairs(&pairs);
        let n = db.num_transactions();
        let blocks = [0..n / 2, n / 2..n];
        let partials: Vec<Vec<TidList>> = blocks
            .iter()
            .map(|r| transform::build_pair_tidlists(db, r.clone(), &idx, &mut OpMeter::new()))
            .collect();
        // Tids are already global, so every block's offset is zero.
        let routed: Vec<Vec<eclat_net::exchange::Entries>> = partials
            .iter()
            .map(|lists| {
                self.tr.time("net.route_partials", || {
                    eclat_net::exchange::route_partials(lists, &owner, 2, 0)
                })
            })
            .collect();
        let routed_bytes: u64 = routed
            .iter()
            .flatten()
            .flatten()
            .map(|(_, tids)| 4 * tids.len() as u64)
            .sum();
        let mut ok = true;
        let full = transform::build_pair_tidlists(db, 0..n, &idx, &mut OpMeter::new());
        for dest in 0..2u32 {
            let deposits: BTreeMap<u32, eclat_net::exchange::Entries> = (0..2u32)
                .map(|src| (src, routed[src as usize][dest as usize].clone()))
                .collect();
            let lists = self.tr.time("net.assemble", || {
                eclat_net::exchange::assemble(&deposits, pairs.len())
            });
            match lists {
                Ok(lists) => {
                    for (slot, l) in lists.iter().enumerate() {
                        if owner[slot] == dest {
                            ok &= *l == full[slot];
                        }
                    }
                }
                Err(_) => ok = false,
            }
        }
        self.check(ok, "exchange assembles the global L2 lists");
        let route: f64 = self.tr.self_secs("net.route_partials").iter().sum();
        let assemble: f64 = self.tr.self_secs("net.assemble").iter().sum();
        self.metric("net.route_mb_s", mb(routed_bytes) / route, "MB/s");
        self.metric("net.assemble_mb_s", mb(routed_bytes) / assemble, "MB/s");

        // Frame every (source, destination) payload through the wire
        // framing, as the workers' sockets do.
        let payloads: Vec<Vec<u8>> = routed
            .iter()
            .flatten()
            .map(|entries| {
                let mut buf = Vec::new();
                for (slot, tids) in entries {
                    wire::put_u32(&mut buf, *slot);
                    wire::put_u32(&mut buf, tids.len() as u32);
                    for t in tids {
                        wire::put_u32(&mut buf, *t);
                    }
                }
                buf
            })
            .collect();
        let frame_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
        let mut ok = true;
        for _ in 0..3 {
            let _f = self.tr.span("wire.frame");
            let mut stream = Vec::with_capacity(frame_bytes as usize + 64);
            for p in &payloads {
                wire::write_frame(&mut stream, p)?;
            }
            let mut r = &stream[..];
            for p in &payloads {
                match wire::read_frame(&mut r, usize::MAX)? {
                    wire::Frame::Payload(got) => ok &= got == *p,
                    _ => ok = false,
                }
            }
        }
        self.check(ok, "wire frames round trip");
        let frame = median(&self.tr.self_secs("wire.frame"));
        self.metric("wire.frame_mb_s", mb(frame_bytes) / frame, "MB/s");

        let spill_dir = self.work.join("dist-spill");
        let workers: Vec<eclat_net::WorkerHandle> = (0..2)
            .map(|_| {
                eclat_net::start_worker(&eclat_net::WorkerConfig {
                    threads: 1,
                    mem_budget: Some(DIST_BUDGET),
                    spill_dir: Some(spill_dir.clone()),
                    ..eclat_net::WorkerConfig::default()
                })
            })
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        let report = self.tr.time("net.mine_distributed", || {
            eclat_net::mine_distributed(
                db,
                inputs::minsup("quest-sparse"),
                &addrs,
                &eclat_net::DistConfig::default(),
            )
        });
        drop(workers);
        match report {
            Ok(r) => {
                self.check(r.frequent == core.frequent, "dmine matches the core phases");
                let sent: u64 = r
                    .stats
                    .cluster
                    .as_ref()
                    .map_or(0, |c| c.procs.iter().map(|p| p.bytes_sent).sum());
                self.metric("net.exchange_bytes", sent as f64, "bytes");
                self.metric(
                    "storage.dist_spill_bytes",
                    r.spill_bytes_written as f64,
                    "bytes",
                );
            }
            Err(e) => {
                self.check(false, &format!("dmine: {e}"));
                self.metric("net.exchange_bytes", f64::NAN, "bytes");
                self.metric("storage.dist_spill_bytes", f64::NAN, "bytes");
            }
        }
        Ok(())
    }

    fn stream_serve(&mut self) -> std::io::Result<()> {
        let _g = self.tr.span("probe.stream_serve");
        let mut live = self
            .tr
            .time("stream.setup", || Live::setup(self.seed, self.work))?;
        let deltas = live.deltas();
        let mut dirty = Vec::new();
        let mut last = None;
        for delta in deltas.iter().take(STREAM_BATCHES) {
            let stats = self.tr.time("stream.ingest_batch", || {
                live.engine.ingest_batch(delta, &Serial)
            });
            dirty.push(stats.dirty_fraction());
            let state = live.engine.state();
            let rules = self.tr.time("rules.generate", || {
                assoc_rules::generate(&state.frequent, inputs::STREAM_CONFIDENCE)
            });
            self.check(rules == state.rules, "rules regenerate identically");
            self.tr.time("storage.write_results", || {
                stream_serve::encode_snapshot(state, &live.snap_path)
            })?;
            let dataset = self.tr.time("storage.read_results", || {
                stream_serve::decode_snapshot(&live.snap_path)
            })?;
            let generation = self.tr.time("serve.reload", || live.store.reload(&dataset));
            last = Some((generation, dataset));
        }
        self.check(
            live.state_matches_full_mine(),
            "stream state equals a full re-mine",
        );
        let ms = |p: &Self, name: &str| median(&p.tr.self_secs(name)) * 1e3;
        let ingest = ms(self, "stream.ingest_batch");
        let rules = ms(self, "rules.generate");
        let encode = ms(self, "storage.write_results");
        let decode = ms(self, "storage.read_results");
        let reload = ms(self, "serve.reload");
        self.metric("stream.ingest_ms", ingest, "ms");
        self.metric("stream.dirty_frac", median(&dirty), "ratio");
        self.metric("rules.generate_ms", rules, "ms");
        self.metric("storage.snapshot_encode_ms", encode, "ms");
        self.metric("storage.snapshot_decode_ms", decode, "ms");
        self.metric("serve.reload_ms", reload, "ms");

        // In-process lookups on the live store, checked against a
        // cache-less store of the same generation.
        let store = std::sync::Arc::clone(&live.store);
        let mut mix = QueryMix::new(&store, self.seed);
        let before = store.cache_stats();
        let (generation, dataset) = last.expect("at least one delta");
        let reference = Store::with_dataset(
            &dataset,
            &StoreConfig {
                cache_entries: 0,
                ..StoreConfig::default()
            },
        );
        let mut ok = true;
        let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
        for i in 0..SERVE_QUERIES {
            let q = mix.next_query();
            let t = Instant::now();
            let r = black_box(store.execute(&q));
            per_kind[stream_serve::kind_of(&q)].push(t.elapsed().as_secs_f64());
            if i % 8 == 0 {
                ok &= reference.execute(&q) == r;
            }
        }
        self.check(ok, "in-process answers match a cache-less store");
        live.keep(generation, dataset);
        for (kind, secs) in KINDS.iter().zip(&per_kind) {
            self.metric(format!("serve.execute_us.{kind}"), median(secs) * 1e6, "us");
        }
        let after = store.cache_stats();
        let hits = after.hits - before.hits;
        let lookups = hits + after.misses - before.misses;
        self.metric(
            "serve.cache_hit_frac",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        );

        // A short measured phase over the remaining deltas: the tails
        // of freshness and query latency, and how late the generator ran.
        let rest = &deltas[STREAM_BATCHES..STREAM_BATCHES + TAIL_BATCHES];
        let run = self.tr.time("stream_serve.run", || {
            stream_serve::run(&mut live, rest, !self.seed, TAIL_SECONDS)
        });
        let wrong = stream_serve::wrong_answers(&run.load.samples, &live.datasets);
        self.check(
            run.batch_errors == 0
                && run.load.errors == 0
                && wrong == 0
                && !run.load.samples.is_empty(),
            "stream-serve answers under writes",
        );
        self.metric(
            "stream.fresh_p90_ms",
            percentile(&run.fresh, 90.0) * 1e3,
            "ms",
        );
        self.metric(
            "serve.query_p50_us",
            percentile(&run.load.latency, 50.0) * 1e6,
            "us",
        );
        self.metric(
            "serve.query_p99_us",
            percentile(&run.load.latency, 99.0) * 1e6,
            "us",
        );
        self.metric(
            "loadgen.lag_p99_ms",
            percentile(&run.load.lag, 99.0) * 1e3,
            "ms",
        );
        live.shutdown();
        Ok(())
    }

    fn seq(&mut self, raw: Vec<Vec<(u32, Vec<u32>)>>) {
        let _g = self.tr.span("probe.seq");
        let db = self
            .tr
            .time("seq.db_build", || eclat_seq::SeqDb::from_events(raw));
        let (fs, stats) = self.tr.time("seq.mine", || {
            eclat_seq::mine_stats(
                &db,
                inputs::minsup("spade"),
                &eclat_seq::SeqConfig::default(),
                &mut OpMeter::new(),
                &Serial,
                "sequential",
            )
        });
        self.check(
            fs.len() as u64 == stats.num_frequent && !fs.is_empty(),
            "seq result size",
        );
        let joins: Vec<u64> = stats.classes.iter().map(|c| c.kernel.joins).collect();
        let total: u64 = joins.iter().sum();
        let top = joins.iter().copied().max().unwrap_or(0);
        self.metric("seq.db_build_s", self.tr.self_secs("seq.db_build")[0], "s");
        self.metric("seq.joins", total as f64, "count");
        self.metric(
            "seq.top_class_share",
            top as f64 / total.max(1) as f64,
            "ratio",
        );
    }
}
