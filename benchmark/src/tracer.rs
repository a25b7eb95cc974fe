//! The benchmark's own tracer: a span around each call into a layer's
//! public API, kept in memory and written at exit as Chrome-trace JSON.
//!
//! The tracer lives here and not in the crates: this change defines the
//! benchmark and may not touch the code it measures. Spans inside the
//! crates are a later issue; until then the finer split comes from the
//! differential probes (`core.functional.us_per_iter` and friends).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Upper bound on recorded spans, so a long traced window cannot grow
/// memory without limit. Spans past it are counted, not stored.
const MAX_SPANS: usize = 400_000;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The crate whose API the call entered (`core`, `domain`, ...).
    pub layer: &'static str,
    /// The call (`Skeleton::sequence`, `run_iters[real]`, ...).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, the span that caused this one.
    pub parent: Option<u32>,
    /// The sample this span belongs to; spans of one sample share it.
    pub sample: u32,
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    sample: u32,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            sample: 0,
            dropped: 0,
        }
    }

    /// Switch recording on or off. The traced pass alternates, so that the
    /// traced and the untraced floor of one loop see the same host.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Start the next sample: later spans carry a new sample id.
    pub fn next_sample(&mut self) {
        self.sample += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span for a call into `layer`.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            sample: self.sample,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::enter`]. Spans close in the
    /// reverse of the order they opened in.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a span around `f`.
    pub fn scope<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.enter(layer, name);
        let r = f();
        self.exit(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time per layer, in nanoseconds (see [`self_times`]).
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.layer).or_insert(0) += own;
        }
        out
    }

    /// Write the spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    /// Each span is a complete event (`ph: "X"`) with microsecond times;
    /// `args` carries the sample id, the parent span and the self time.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            ("sample", Json::Num(f64::from(s.sample))),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                            ),
                            ("self_us", Json::Num(own[i] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([
                    ("workload", Json::str(workload)),
                    ("dropped_spans", Json::Num(self.dropped as f64)),
                ]),
            ),
            ("traceEvents", Json::Arr(events)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.compact())
    }
}

/// A span's self time: its duration minus the part of that interval its
/// children cover. Children are clipped to the parent and overlapping
/// children (work on other threads) are counted once, so self time is
/// never negative and the self times of a tree sum to at most its root.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer: "core",
            name: "t",
            start_ns,
            end_ns,
            parent,
            sample: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // children 10..40 and 30..70 overlap by 10; 90..120 leaves the parent.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 70, Some(0)),
            span(90, 120, Some(0)),
        ];
        // covered: 10..70 (60) + 90..100 (10) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let r = t.scope("core", "x", || 7);
        assert_eq!(r, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enter_exit_builds_the_parent_chain() {
        let mut t = Tracer::new(true);
        let a = t.enter("serve", "outer");
        t.next_sample();
        let b = t.enter("apps", "inner");
        t.exit(b);
        t.exit(a);
        t.scope("core", "sibling", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!((s[0].sample, s[1].sample), (0, 1));
        assert!(s[0].end_ns >= s[1].end_ns);
        let by_layer = t.layer_self_ns();
        assert_eq!(by_layer.len(), 3);
    }
}
