//! Host-time spans recorded by the benchmark around calls into each
//! layer, and a timing [`MemoryBus`] that wraps the Shield bus.
//!
//! Spans nest on a stack: a span's *self* time is its duration minus the
//! time its child spans cover, so the self times of every span opened
//! inside an op add up to the op's duration exactly. Aggregates are kept
//! in memory and read out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use shef::core::shield::bus::MemoryBus;
use shef::core::shield::engine::AccessMode;
use shef::core::ShefError;

/// Totals of every span recorded under one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanAgg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span self times (duration minus child spans), ns.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// A span stack plus per-name aggregates.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Open>,
    aggs: BTreeMap<&'static str, SpanAgg>,
}

impl Tracer {
    /// Opens a span named `name` (a layer boundary).
    pub fn enter(&mut self, name: &'static str) {
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open: enter/exit are paired in this crate.
    pub fn exit(&mut self) {
        let open = self.stack.pop().expect("exit without enter");
        let dur = open.start.elapsed().as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Spans currently open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes open spans until `depth` remain (after an early error).
    pub fn unwind(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.exit();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// The aggregate for `name` (zero if never recorded).
    pub fn get(&self, name: &str) -> SpanAgg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Every aggregate, by span name.
    pub fn aggs(&self) -> &BTreeMap<&'static str, SpanAgg> {
        &self.aggs
    }
}

/// Wraps a kernel-facing bus and records `shield.read`, `shield.write`
/// and `shield.flush` spans around each call.
pub struct TimedBus<'t, B> {
    /// The wrapped bus.
    pub inner: B,
    /// Where the spans go.
    pub tracer: &'t mut Tracer,
}

impl<B: MemoryBus> MemoryBus for TimedBus<'_, B> {
    fn read(&mut self, addr: u64, len: usize, mode: AccessMode) -> Result<Vec<u8>, ShefError> {
        self.tracer.enter("shield.read");
        let out = self.inner.read(addr, len, mode);
        self.tracer.exit();
        out
    }

    fn write(&mut self, addr: u64, data: &[u8], mode: AccessMode) -> Result<(), ShefError> {
        self.tracer.enter("shield.write");
        let out = self.inner.write(addr, data, mode);
        self.tracer.exit();
        out
    }

    fn flush(&mut self) -> Result<(), ShefError> {
        self.tracer.enter("shield.flush");
        let out = self.inner.flush();
        self.tracer.exit();
        out
    }

    fn compute(&mut self, cycles: u64) {
        self.inner.compute(cycles);
    }

    fn reg_read(&mut self, index: usize) -> u64 {
        self.inner.reg_read(index)
    }

    fn reg_write(&mut self, index: usize, value: u64) {
        self.inner.reg_write(index, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::default();
        t.span("op", |t| {
            t.span("a", |t| {
                t.span("b", |_| std::hint::black_box((0..1000).sum::<u64>()));
            });
            t.span("b", |_| ());
        });
        let root = t.get("op");
        let selfs: u64 = t.aggs().values().map(|a| a.self_ns).sum();
        assert_eq!(selfs, root.total_ns);
        assert_eq!(t.get("b").count, 2);
        assert_eq!(t.get("missing"), SpanAgg::default());
    }
}
