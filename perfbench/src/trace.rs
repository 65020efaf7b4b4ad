//! The host clock and the traced run's spans.
//!
//! Spans are kept in memory while the benchmark runs and written out once
//! at the end, so recording one costs two clock reads and a push.

use crate::alloc::Snapshot;
use std::fmt::Write as _;
use std::sync::OnceLock;
// dl-analyze: allow(wall-clock) — host time is what the benchmark measures; the simulator never sees it
use std::time::Instant;

// dl-analyze: allow(wall-clock) — origin of the benchmark's host-time readings
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Host seconds since the benchmark's first reading. Every wall-clock read
/// of the benchmark goes through this function.
pub fn secs() -> f64 {
    // dl-analyze: allow(wall-clock) — the benchmark's one host-clock read, used only for reporting
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Allocation calls and bytes requested while the span was open.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on one thread.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    /// Open spans, innermost last, with the allocator counts at entry.
    open: Vec<(usize, Snapshot)>,
}

impl Tracer {
    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: f64::NAN,
            end: f64::NAN,
            parent: self.open.last().map(|&(p, _)| p),
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push((id, Snapshot::now()));
        self.spans[id].start = secs();
        id
    }

    /// Closes span `id` and any span still open inside it (left open by a
    /// call that panicked).
    pub fn exit(&mut self, id: usize) {
        let end = secs();
        let now = Snapshot::now();
        while let Some((open, at_entry)) = self.open.pop() {
            let allocated = now.since(at_entry);
            let span = &mut self.spans[open];
            span.end = end;
            span.allocs = allocated.calls;
            span.alloc_bytes = allocated.bytes;
            if open == id {
                return;
            }
        }
        panic!("span {id} is not open");
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// `root` and every span opened inside it, in opening order.
    pub fn subtree(&self, root: usize) -> Vec<usize> {
        let mut inside = vec![root];
        for id in root + 1..self.spans.len() {
            if self.spans[id].parent.is_some_and(|p| inside.contains(&p)) {
                inside.push(id);
            }
        }
        inside
    }

    /// The first span called `name` among `ids`.
    pub fn find(&self, ids: &[usize], name: &str) -> Option<&Span> {
        ids.iter().map(|&i| &self.spans[i]).find(|s| s.name == name)
    }

    /// A span's duration minus the part its children cover. Children run
    /// one after another on the same thread, so they never overlap.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// Every span as a JSON array, with times in seconds from the
    /// benchmark's first clock reading.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"self\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                s.name,
                s.start,
                s.end,
                self.self_secs(id),
                s.allocs,
                s.alloc_bytes
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}
