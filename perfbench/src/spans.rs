//! Benchmark-side tracing: a span around each call into a layer's public
//! function, kept in memory and written out once when the run ends.
//!
//! A span records its name, layer, start, end, the span that caused it
//! and the job it belongs to (0 for set-up work). A layer's self time is
//! the duration of its spans minus the part covered by their children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
    /// Recording thread (client index); spans of one thread nest.
    pub thread: usize,
}

/// An in-memory span log. When disabled every method is a no-op apart
/// from running the timed closure.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    thread: usize,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool, origin: Instant, thread: usize) -> Spans {
        Spans {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off between jobs (a traced run records
    /// only its traced jobs).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (`usize::MAX` when disabled).
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if let Some(end) = self.enabled.then(|| self.now_ns()) {
            self.spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, layer, parent, job);
        let r = f();
        self.close(id);
        r
    }

    /// Appends another thread's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total self time per layer in ms, over spans that belong to a job.
    /// Children of one span run one after another on its thread, so the
    /// covered part is the sum of their durations.
    pub fn job_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            if s.job == 0 {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes the log as JSON Lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"job\": {}, \"thread\": {}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.job, s.thread
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true, Instant::now(), 0);
        s.spans = vec![
            Span {
                name: "job",
                layer: "bench",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                job: 1,
                thread: 0,
            },
            Span {
                name: "execute",
                layer: "core",
                start_ns: 1_000_000,
                end_ns: 8_000_000,
                parent: Some(0),
                job: 1,
                thread: 0,
            },
        ];
        let m = s.job_self_ms();
        assert_eq!(m["bench"], 3.0);
        assert_eq!(m["core"], 7.0);
    }
}
