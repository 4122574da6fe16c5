//! Quickstart: generate a small market-basket database, mine frequent
//! itemsets with Eclat, and print the strongest association rules.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use eclat::pipeline::Serial;
use eclat_repro::prelude::*;
use mining_types::OpMeter;

fn main() {
    // A small Quest-style database: 5 000 baskets over 60 products with
    // 50 planted purchase patterns.
    let params = QuestParams::tiny(5_000, 7);
    println!("generating {} ...", params.name());
    let txns = QuestGenerator::new(params).generate_all();
    let db = HorizontalDb::from_transactions(txns);
    println!(
        "{} transactions, {} items, avg basket {:.1} items\n",
        db.num_transactions(),
        db.num_items(),
        db.avg_transaction_len()
    );

    // Mine at 2 % minimum support. `with_singletons` makes the result
    // downward closed so rule generation can look up every subset.
    let minsup = MinSupport::from_percent(2.0);
    let mut meter = OpMeter::new();
    let frequent = eclat::pipeline::run(
        &db,
        minsup,
        &eclat::EclatConfig::with_singletons(),
        &mut meter,
        &Serial,
    );
    println!(
        "frequent itemsets: {} (largest has {} items; {} tid comparisons)",
        frequent.len(),
        frequent.max_size(),
        meter.tid_cmp
    );
    println!("per size: {:?}\n", frequent.counts_by_size());

    // Association rules at 70 % confidence.
    let rules = assoc_rules::generate(&frequent, 0.7);
    println!("top rules (of {}):", rules.len());
    for r in rules.iter().take(10) {
        println!("  {r}   lift {:.2}", r.lift(db.num_transactions()));
    }
}
