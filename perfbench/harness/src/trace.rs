//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end and the span open around it
//! when it began; every span of one traced run shares the run id. Spans
//! stay in memory until [`Tracer::write_jsonl`] at the end of the run.
//! A span's self time is its duration minus the time its direct
//! children cover (children never overlap: each layer call runs on the
//! caller's thread).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Span store of one traced run.
pub struct Tracer {
    run_id: u64,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.id].end_ns = end;
        let popped = self.tracer.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.id), "spans close in stack order");
    }
}

impl Tracer {
    /// An empty store for run `run_id`.
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn span(&self, name: impl Into<String>) -> Guard<'_> {
        let parent = self.open.borrow().last().copied();
        let start = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name: name.into(),
            start_ns: start,
            end_ns: start,
            parent,
        });
        self.open.borrow_mut().push(id);
        Guard { tracer: self, id }
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(&self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name);
        f()
    }

    fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Self times in seconds of every span named `name`, in start order.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .borrow()
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 * 1e-9)
            .collect()
    }

    /// Total durations in seconds of every span named `name`.
    pub fn total_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Write every span as one JSON line; returns the span count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let own = self.self_ns();
        let spans = self.spans.borrow();
        let mut doc = String::new();
        for (id, (s, self_ns)) in spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                doc,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                self.run_id,
                mining_types::json::escape(&s.name),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, doc)?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(7);
        {
            let _outer = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        }
        let outer_total = t.total_secs("outer")[0];
        let outer_self = t.self_secs("outer")[0];
        let inner = t.total_secs("inner")[0];
        assert!(inner >= 0.02);
        assert!((outer_total - outer_self - inner).abs() < 1e-9);
    }
}
