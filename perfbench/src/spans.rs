//! In-memory spans recorded at the benchmark's own call boundaries.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One timed call boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// The cell the span belongs to (spans of one cell share it).
    pub cell: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory; they are written out when the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, cell: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds, over the spans from index
    /// `from` on: each span's duration minus the time its children
    /// cover.
    pub fn self_times(&self, from: SpanId) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p - from] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.duration_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Every span as JSON: `[name, cell, parent (-1 for none), start_ns,
    /// end_ns]` rows, compact because the engine batches add up to
    /// thousands per run.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "columns",
                Json::Arr(
                    ["name", "cell", "parent", "start_ns", "end_ns"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "rows",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Arr(vec![
                                Json::str(s.name),
                                Json::Int(u64::from(s.cell)),
                                s.parent.map_or(Json::Num(-1.0), |p| Json::Int(p as u64)),
                                Json::Int(s.start_ns),
                                Json::Int(s.end_ns),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new();
        let root = r.open("cell", None, 0);
        let child = r.open("engine.advance", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(child);
        r.close(root);
        let t = r.self_times(0);
        let secs = |id: SpanId| r.spans()[id].duration_ns() as f64 * 1e-9;
        assert!(secs(child) >= 0.002);
        assert!((t["engine.advance"] - secs(child)).abs() < 1e-12);
        assert!((t["cell"] - (secs(root) - secs(child))).abs() < 1e-9);
    }
}
