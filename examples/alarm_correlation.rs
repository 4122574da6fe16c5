//! Telecommunications alarm correlation — one of the application domains
//! the paper's introduction motivates: *"Association rules have been
//! shown to be useful in domains that range from decision support to
//! telecommunications alarm diagnosis, and prediction."*
//!
//! Synthesizes alarm bursts from a small network model (a root failure on
//! a node probabilistically triggers dependent alarms downstream), groups
//! alarms into time-window "transactions", mines co-occurring alarm sets
//! with Eclat, and derives diagnosis rules such as
//! `link-down + high-ber => card-fault`.
//!
//! ```text
//! cargo run --example alarm_correlation --release
//! ```

use eclat_repro::prelude::*;
use mining_types::ItemId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALARMS: &[&str] = &[
    "link-down",     // 0
    "high-ber",      // 1  (bit error rate)
    "card-fault",    // 2
    "power-dip",     // 3
    "fan-failure",   // 4
    "temp-high",     // 5
    "switch-reboot", // 6
    "route-flap",    // 7
    "packet-loss",   // 8
    "latency-spike", // 9
    "auth-failure",  // 10
    "config-drift",  // 11
];

/// Causal cascades: a root alarm and the alarms it tends to trigger,
/// with trigger probabilities.
const CASCADES: &[(usize, &[(usize, f64)])] = &[
    (2, &[(0, 0.9), (1, 0.8), (8, 0.6)]), // card-fault → link-down, high-ber, loss
    (4, &[(5, 0.95), (6, 0.4)]),          // fan-failure → temp-high, maybe reboot
    (3, &[(6, 0.7), (0, 0.5)]),           // power-dip → reboot, link-down
    (7, &[(8, 0.8), (9, 0.85)]),          // route-flap → loss, latency
];

fn main() {
    let mut rng = StdRng::seed_from_u64(31337);
    let windows = 30_000usize;
    let mut txns: Vec<Vec<ItemId>> = Vec::with_capacity(windows);
    for _ in 0..windows {
        let mut alarms: Vec<ItemId> = Vec::new();
        // each window: some root causes fire
        for &(root, effects) in CASCADES {
            if rng.random::<f64>() < 0.06 {
                alarms.push(ItemId(root as u32));
                for &(eff, p) in effects {
                    if rng.random::<f64>() < p {
                        alarms.push(ItemId(eff as u32));
                    }
                }
            }
        }
        // background noise alarms
        for _ in 0..rng.random_range(0..3) {
            alarms.push(ItemId(rng.random_range(0..ALARMS.len() as u32)));
        }
        if alarms.is_empty() {
            alarms.push(ItemId(rng.random_range(0..ALARMS.len() as u32)));
        }
        txns.push(alarms);
    }
    let db = HorizontalDb::from_transactions(txns);
    println!(
        "{} alarm windows over {} alarm types\n",
        db.num_transactions(),
        ALARMS.len()
    );

    let minsup = MinSupport::from_percent(2.0);
    let mut meter = mining_types::OpMeter::new();
    let frequent = eclat::pipeline::run(
        &db,
        minsup,
        &eclat::EclatConfig::with_singletons(),
        &mut meter,
        &eclat::Threads::new(0),
    );

    println!("co-occurring alarm sets (support >= 2%):");
    for c in frequent.sorted() {
        if c.itemset.len() >= 2 {
            let names: Vec<&str> = c
                .itemset
                .items()
                .iter()
                .map(|i| ALARMS[i.index()])
                .collect();
            println!("  {:<44} {:>5} windows", names.join(" , "), c.support);
        }
    }

    // Diagnosis rules: symptoms => root cause, at 60% confidence.
    println!("\ndiagnosis rules (confidence >= 60%):");
    let name = |is: &mining_types::Itemset| {
        is.items()
            .iter()
            .map(|i| ALARMS[i.index()])
            .collect::<Vec<_>>()
            .join("+")
    };
    let mut shown = 0;
    for r in assoc_rules::generate(&frequent, 0.6) {
        // only rules whose consequent is a known root cause
        let is_root = r
            .consequent
            .items()
            .iter()
            .all(|i| CASCADES.iter().any(|&(root, _)| root == i.index()));
        if is_root && r.consequent.len() == 1 {
            println!(
                "  {:<36} => {:<14} conf {:.2}  lift {:.1}",
                name(&r.antecedent),
                name(&r.consequent),
                r.confidence(),
                r.lift(db.num_transactions())
            );
            shown += 1;
            if shown >= 12 {
                break;
            }
        }
    }
    assert!(shown > 0, "expected at least one diagnosis rule");

    // The strongest cascade must be recovered as an itemset.
    let fan_temp = mining_types::Itemset::of(&[4, 5]);
    assert!(
        frequent.contains(&fan_temp),
        "fan-failure + temp-high cascade not found"
    );
    println!("\n(recovered the planted fan-failure => temp-high cascade)");
}
