//! `perfbench-harness` — the in-process half of the repository benchmark.
//!
//! ```text
//! perfbench-harness gen --workload W --seed N --out FILE
//! perfbench-harness probe --seed N --work DIR --spans FILE
//! ```
//!
//! Each subcommand prints one JSON object on its last stdout line;
//! `perfbench/run.py` drives them and the `eclat` binary.

mod inputs;
mod probes;
mod stream_serve;
mod trace;

use mining_types::json::Obj;
use std::path::Path;

struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        let flag = format!("--{key}");
        self.0
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.require(key)?
            .parse()
            .map_err(|_| format!("--{key}: cannot parse"))
    }
}

/// Generate a workload's input file; reports the support the workload
/// mines at.
fn cmd_gen(args: &Args) -> Result<String, String> {
    let workload = args.require("workload")?;
    let seed: u64 = args.parse("seed")?;
    let out = Path::new(args.require("out")?);
    let written = if workload == "spade" {
        inputs::write_sequences(&inputs::sequences(seed), out)
    } else {
        let db = dbstore::HorizontalDb::from_transactions(inputs::baskets(workload, seed));
        inputs::write_baskets(&db, out)
    };
    written.map_err(|e| format!("write {}: {e}", out.display()))?;
    Ok(Obj::new()
        .f64("support_pct", inputs::support_pct(workload))
        .finish())
}

/// The contract's result line: `correct`, `attempted`, `failed` and
/// `metrics` as `{name: {value, unit}}`.
fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let mut m = Obj::new();
    for (name, value, unit) in metrics {
        m = m.raw(
            name,
            &Obj::new().f64("value", *value).str("unit", unit).finish(),
        );
    }
    Obj::new()
        .raw("correct", if failed == 0 { "true" } else { "false" })
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &m.finish())
        .finish()
}

/// The traced run: every layer probe, spans written to `--spans`.
fn cmd_probe(args: &Args) -> Result<String, String> {
    let seed: u64 = args.parse("seed")?;
    let work = Path::new(args.require("work")?);
    let spans = Path::new(args.require("spans")?);
    let tracer = trace::Tracer::new((u64::from(std::process::id()) << 32) | (seed & 0xffff_ffff));
    let mut probe = probes::Probe::new(&tracer, seed, work);
    probe.run_all().map_err(|e| format!("probe: {e}"))?;
    let n = tracer
        .write_jsonl(spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    eprintln!("probe: {n} spans -> {}", spans.display());
    Ok(result_line(probe.attempted, probe.failed, &probe.metrics))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-harness gen|probe [flags]");
        std::process::exit(2);
    };
    let args = Args(rest.to_vec());
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "probe" => cmd_probe(&args),
        other => Err(format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(1);
        }
    }
}
