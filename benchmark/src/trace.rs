//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, their self-time arithmetic, and the `trace-<workload>.json`
//! writer.
//!
//! Nothing inside the crates is instrumented: a span is two `Instant` reads
//! around one call into a layer's public function.  Spans of one request
//! share a `request` id; `parent` is the index of the span that caused this
//! one ([`NO_PARENT`] for a root).  A replayed lower-layer call is recorded
//! as the child of the upper-layer call it mirrors, its interval re-based to
//! start where the parent started — the replay ran later, but it stands for
//! work that happened inside the parent.

use crate::json::Json;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span store of one traced run.  One tracer per generator thread; merged at
/// the end with [`Tracer::absorb`].
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Interns a span name.
    pub fn name(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    #[inline]
    pub fn record(
        &mut self,
        name: u16,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Sets the end of a span recorded before its end was known (a request
    /// is opened when it is sent and closed when its answer arrives).
    #[inline]
    pub fn close(&mut self, span: u32, end_ns: u64) {
        self.spans[span as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: u16,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.record(name, start, end, parent, request))
    }

    /// Records a replayed call of `duration_ns` as a child of `parent`,
    /// re-based to the parent's start.  The full duration is kept (a replay
    /// can run longer than the call it mirrors); self times clip it.
    pub fn replayed_child(&mut self, name: u16, parent: u32, duration_ns: u64) -> u32 {
        let p = self.spans[parent as usize];
        self.record(
            name,
            p.start_ns,
            p.start_ns + duration_ns,
            parent,
            p.request,
        )
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Moves another thread's spans in, remapping names and parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let map: Vec<u16> = other.names.iter().map(|n| self.name(n)).collect();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            name: map[s.name as usize],
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + base
            },
            ..s
        }));
    }

    /// Mean duration in nanoseconds of the spans called `name`, 0 if none.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.mean_ns_where(name, |_| true)
    }

    /// Mean duration of the spans called `name` that pass `keep`.
    pub fn mean_ns_where(&self, name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return 0.0;
        };
        let (mut total, mut n) = (0u64, 0u64);
        for s in self
            .spans
            .iter()
            .filter(|s| s.name as usize == id && keep(s))
        {
            total += s.duration_ns();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        match self.names.iter().position(|n| *n == name) {
            Some(id) => self.spans.iter().filter(|s| s.name as usize == id).count(),
            None => 0,
        }
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its direct children cover (overlapping children are merged, and
    /// children are clipped to the parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                let start = s.start_ns.clamp(p.start_ns, p.end_ns);
                let end = s.end_ns.clamp(p.start_ns, p.end_ns);
                if end > start {
                    children[s.parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Mean self time in nanoseconds of the spans called `name`.
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return 0.0;
        };
        let selfs = self.self_times_ns();
        let picked: Vec<f64> = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name as usize == id)
            .map(|(_, t)| *t as f64)
            .collect();
        crate::stats::mean(&picked)
    }

    /// The trace file: a name table and one compact row per span, the first
    /// `limit` spans only (`spans_total` says how many there were).
    pub fn to_json(&self, workload: &str, stamp: &Json, limit: usize) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("stamp", stamp.clone()),
            ("spans_total", Json::Num(self.spans.len() as f64)),
            (
                "names",
                Json::Arr(self.names.iter().map(|n| Json::str(*n)).collect()),
            ),
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "request_id"]
                        .iter()
                        .map(|c| Json::str(*c))
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .take(limit)
                        .map(|s| {
                            Json::Arr(vec![
                                Json::Num(s.name as f64),
                                Json::Num(s.start_ns as f64),
                                Json::Num(s.end_ns as f64),
                                Json::Num(if s.parent == NO_PARENT {
                                    -1.0
                                } else {
                                    s.parent as f64
                                }),
                                Json::Num(s.request as f64),
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

    fn tracer() -> Tracer {
        Tracer::new(Instant::now())
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let mut t = tracer();
        let (outer, inner) = (t.name("outer"), t.name("inner"));
        let root = t.record(outer, 100, 200, NO_PARENT, 1);
        // Two overlapping children cover [110,150]; one sticks out past the
        // parent's end and is clipped to [190,200].
        t.record(inner, 110, 140, root, 1);
        t.record(inner, 130, 150, root, 1);
        t.record(inner, 190, 260, root, 1);
        // A grandchild does not count against the root.
        t.record(inner, 112, 118, 1, 1);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[root as usize], 100 - 40 - 10);
        assert_eq!(selfs[1], 30 - 6);
        assert_eq!(selfs[2], 20);
        assert_eq!(t.mean_ns("inner"), (30.0 + 20.0 + 70.0 + 6.0) / 4.0);
        assert_eq!(t.mean_self_ns("outer"), 50.0);
        assert_eq!(t.count("inner"), 4);
        assert_eq!(t.mean_ns("absent"), 0.0);
    }

    #[test]
    fn replayed_child_is_rebased_and_clipped_in_self_time() {
        let mut t = tracer();
        let (db, trie) = (t.name("db.get"), t.name("trie.get"));
        let a = t.record(db, 1000, 1300, NO_PARENT, 7);
        let b = t.record(db, 2000, 2100, NO_PARENT, 8);
        let ca = t.replayed_child(trie, a, 250);
        let cb = t.replayed_child(trie, b, 180);
        assert_eq!(
            t.spans()[ca as usize],
            Span {
                name: trie,
                start_ns: 1000,
                end_ns: 1250,
                parent: a,
                request: 7
            }
        );
        assert_eq!(
            t.spans()[cb as usize].duration_ns(),
            180,
            "the replay keeps its own duration"
        );
        let selfs = t.self_times_ns();
        assert_eq!(selfs[a as usize], 50);
        assert_eq!(selfs[b as usize], 0);
    }

    #[test]
    fn absorb_remaps_names_and_parents() {
        let mut a = tracer();
        let x = a.name("x");
        a.record(x, 0, 10, NO_PARENT, 0);
        let mut b = tracer();
        let (y, bx) = (b.name("y"), b.name("x"));
        let root = b.record(y, 5, 50, NO_PARENT, 1);
        b.record(bx, 6, 9, root, 1);
        a.absorb(b);
        assert_eq!(a.names(), ["x", "y"]);
        assert_eq!(a.spans()[1].name, 1);
        assert_eq!(a.spans()[2].name, 0);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.self_times_ns()[1], 45 - 3);
    }

    #[test]
    fn json_has_one_row_per_span() {
        let mut t = tracer();
        let n = t.name("db.get");
        t.record(n, 1, 2, NO_PARENT, 3);
        t.record(n, 2, 3, 0, 3);
        let doc = t.to_json("w", &Json::Null, 1);
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(doc.get("spans_total").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            doc.get("names").unwrap().as_arr().unwrap()[0].as_str(),
            Some("db.get")
        );
    }
}
