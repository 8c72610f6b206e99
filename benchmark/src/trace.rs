//! Benchmark-side spans around calls into the program's layers.
//!
//! Spans are kept in memory while the traced replay runs and are only
//! summarised when it ends. A span's self time is its duration minus the
//! part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `ir.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds: duration minus the union of
/// its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut intervals: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per layer, the summed duration of its spans within each request, in
/// microseconds: one sample per request that entered the layer.
pub fn per_request_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut sums: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for s in spans {
        *sums.entry((s.name, s.request)).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in sums {
        out.entry(name).or_default().push(ns as f64 / 1_000.0);
    }
    out
}

/// Cost of recording one span, in nanoseconds, measured on this machine
/// with empty spans.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let mut tracer = Tracer::new();
    let begun = Instant::now();
    for i in 0..N {
        tracer.set_request(i);
        tracer.span("calibrate", |_| ());
    }
    begun.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_is_never_negative() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a", |t| t.span("a.inner", |_| std::hint::black_box(0)));
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let spans = t.spans();
        let selfs = self_times(spans);
        for (s, own) in spans.iter().zip(&selfs) {
            assert!(
                *own <= s.duration_ns(),
                "{}: self time exceeds duration",
                s.name
            );
        }
        let root = &spans[0];
        let kids: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(Span::duration_ns)
            .sum();
        assert_eq!(selfs[0], root.duration_ns() - kids);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            Span {
                name: "p",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 0,
            },
            Span {
                name: "c1",
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
                request: 0,
            },
            Span {
                name: "c2",
                start_ns: 40,
                end_ns: 120,
                parent: Some(0),
                request: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![10, 50, 80]);
    }
}
