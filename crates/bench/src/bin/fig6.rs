//! Regenerates **Figure 6** — number of frequent k-itemsets per size for
//! each database at the minimum support.
//!
//! ```text
//! cargo run -p repro-bench --bin fig6 --release [-- --scale=small --support=0.25]
//! ```

use dbstore::HorizontalDb;
use eclat::pipeline::Serial;
use eclat::EclatConfig;
use mining_types::{MinSupport, OpMeter};
use questgen::QuestGenerator;
use repro_bench::Args;

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let support = args.support_percent();
    let minsup = MinSupport::from_percent(support);
    println!("Figure 6: Number of frequent k-itemsets (support = {support}%, scale {scale:?})\n");

    for params in scale.table1_databases() {
        let name = params.name();
        eprintln!("[fig6] generating {name} ...");
        let txns = QuestGenerator::new(params).generate_all();
        let db = HorizontalDb::from_transactions(txns);
        eprintln!("[fig6] mining {name} ...");
        let t0 = std::time::Instant::now();
        let cfg = EclatConfig::default();
        let fs = eclat::pipeline::run(&db, minsup, &cfg, &mut OpMeter::new(), &Serial);
        let counts = fs.counts_by_size();
        println!("{name}  (mined in {:.1}s wall)", t0.elapsed().as_secs_f64());
        println!("  k : count");
        for (k, c) in counts.iter().enumerate() {
            // sizes start at 2: Eclat does not count singletons
            if k >= 1 {
                println!("  {:>2} : {}", k + 1, c);
            }
        }
        let total: usize = counts.iter().skip(1).sum();
        println!("  total (k>=2): {total}\n");
    }
    println!("(expected shape per the paper: a rise to a peak around k=3..5, then a");
    println!(" geometric tail out to k≈10-12; smaller |D| at fixed support % yields");
    println!(" MORE frequent itemsets — compare D800K vs D1600K in §8.1)");
}
