//! In-memory spans and the self time they imply.
//!
//! The benchmark opens one span per timed call into a layer, under a root
//! span covering the whole timed phase. A span's *self time* is its
//! duration minus the part of its interval that its direct children
//! cover; the root's self time is the wall no layer accounts for.

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (repository module) the span is attributed to.
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Calls this span stands for: 1 for a timed call, more for an
    /// aggregate of calls the program timed itself (see [`Tracer::child`]).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, index-aligned with `spans`: the span's
/// duration minus the union of its direct children's intervals, each
/// clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Span recorder. Spans are kept in memory and read back after the run.
#[derive(Debug)]
pub struct Tracer {
    origin: std::time::Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: std::time::Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn open(&mut self, layer: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (must be the innermost open one).
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close in LIFO order");
        self.stack.pop();
        self.spans[id].end_ns = end_ns;
    }

    /// Record time the program measured itself inside span `parent`:
    /// `calls` calls of `layer` totalling `total_ns`. The program reports
    /// only totals, so the child is laid out from where the previous such
    /// child of `parent` ended (calls inside one closed call are
    /// sequential on this thread, so they never overlap); only its total
    /// enters the parent's self time.
    pub fn child(&mut self, parent: usize, layer: &'static str, calls: u64, total_ns: u64) {
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        let end_ns = (start_ns + total_ns).min(self.spans[parent].end_ns);
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent: Some(parent),
            calls,
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_child_time() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` by 10: the union, not the sum, is covered.
            span("b", 20, 50, Some(0)),
            // Runs past the parent's end: only the inside part counts.
            span("c", 90, 120, Some(0)),
            // A grandchild covers part of `b`, not of the root.
            span("d", 25, 35, Some(2)),
        ];
        let st = self_times(&spans);
        // root: 100 − |[10,50) ∪ [90,100)| = 100 − 50.
        assert_eq!(st, vec![50, 20, 20, 30, 10]);
    }

    #[test]
    fn tracer_nests_and_lays_out_program_children() {
        let mut t = Tracer::default();
        let root = t.open("root");
        let net = t.open("net");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(net);
        let dur = t.spans()[net].dur_ns();
        t.child(net, "enc", 4, dur / 2);
        t.child(net, "codec", 1, dur / 4);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans[net].parent, Some(root));
        assert_eq!(spans[2].calls, 4);
        assert_eq!(
            spans[3].start_ns, spans[2].end_ns,
            "children laid back to back"
        );
        let st = self_times(spans);
        assert_eq!(st[net], dur - dur / 2 - dur / 4);
        let total: u64 = st.iter().sum();
        assert_eq!(total, spans[root].dur_ns());
    }
}
