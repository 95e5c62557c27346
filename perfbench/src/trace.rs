//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps calls into each layer's public functions in spans
//! from its own files; nothing inside the crates is instrumented. Spans
//! carry a name, start and end (ns since the tracer's epoch), the parent
//! span and an operation id. They stay in memory until the run ends, are
//! written out as JSON lines, and each layer's *self* time (its duration
//! minus that of its direct children) is derived from them.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its tracer's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (e.g. one sweep or one request) the span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `core.sim`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans a tracer keeps for writing out; later spans are folded into the
/// self-time totals only, so long traced runs stay bounded in memory.
pub const KEEP_SPANS: usize = 200_000;

/// A single-threaded span recorder. Nesting follows the call stack: a span
/// opened while another is open becomes its child.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
    folded: RefCell<Folded>,
}

/// Self-time totals of every span folded so far, plus the spans kept for
/// writing out.
#[derive(Debug, Default)]
pub struct Folded {
    /// Self time per span name, over every span.
    pub all: BTreeMap<&'static str, SelfTime>,
    /// Self time per span name, over spans under a root named by
    /// [`Tracer::fold`]'s `root`.
    pub under_root: BTreeMap<&'static str, SelfTime>,
    /// The first [`KEEP_SPANS`] spans, with ids renumbered to index this list.
    pub kept: Vec<Span>,
    /// Spans folded but not kept.
    pub dropped: u64,
}

fn merge(into: &mut BTreeMap<&'static str, SelfTime>, from: BTreeMap<&'static str, SelfTime>) {
    for (name, t) in from {
        let e = into.entry(name).or_default();
        e.self_ns += t.self_ns;
        e.total_ns += t.total_ns;
        e.count += t.count;
    }
}

impl Tracer {
    /// A tracer whose clock starts at `epoch` (share one epoch between
    /// tracers whose spans are merged).
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
            folded: RefCell::new(Folded::default()),
        }
    }

    /// Folds every closed span into the self-time totals (overall and
    /// under roots named `root`) and keeps it for writing out while fewer
    /// than [`KEEP_SPANS`] are kept. Call between operations, with no span
    /// open.
    ///
    /// # Panics
    ///
    /// If a span is still open (the call is misplaced).
    pub fn fold(&self, root: &str) {
        assert!(self.stack.borrow().is_empty(), "fold with a span open");
        let spans = std::mem::take(&mut *self.spans.borrow_mut());
        let mut f = self.folded.borrow_mut();
        merge(&mut f.all, self_times(&spans, None));
        merge(&mut f.under_root, self_times(&spans, Some(root)));
        let base = f.kept.len();
        // A prefix keeps every parent id resolvable: parents open before
        // their children.
        let cut = KEEP_SPANS.saturating_sub(base).min(spans.len());
        f.dropped += (spans.len() - cut) as u64;
        f.kept.extend(spans.into_iter().take(cut).map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Folds the remaining spans and returns the totals.
    #[must_use]
    pub fn finish(self, root: &str) -> Folded {
        self.fold(root);
        self.folded.into_inner()
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    /// Consumes the tracer, returning its spans in opening order.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Total self time and span count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Σ (duration − direct children's durations), ns.
    pub self_ns: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Spans of this name.
    pub count: u64,
}

/// Per-name self time over a span list whose ids index the list (as
/// returned by [`Tracer::into_spans`]), counting only spans whose root
/// span is named `root` (every span when `None`). A span's self time is its
/// duration minus the durations of its direct children, so summing self
/// time over every name accounts for each root's wall time exactly once.
#[must_use]
pub fn self_times(spans: &[Span], root: Option<&str>) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    // Parents open before their children, so one forward pass resolves
    // every span's root.
    let mut root_of = vec![0usize; spans.len()];
    for s in spans {
        root_of[s.id] = s.parent.map_or(s.id, |p| root_of[p]);
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        if root.is_some_and(|r| spans[root_of[s.id]].name != r) {
            continue;
        }
        let e = out.entry(s.name).or_default();
        e.self_ns += s.duration_ns().saturating_sub(child_ns[s.id]);
        e.total_ns += s.duration_ns();
        e.count += 1;
    }
    out
}

/// Renders spans as JSON lines (one object per span), each tagged with
/// `lane` so span lists from several tracers stay distinguishable.
#[must_use]
pub fn to_json_lines(spans: &[Span], lane: &str) -> String {
    let mut s = String::new();
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            s,
            "{{\"lane\":\"{lane}\",\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.id, span.op, span.name, span.start_ns, span.end_ns
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0, 100) ⊃ a [10, 60) ⊃ b [20, 30); op ⊃ a [70, 90).
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, Some(1), "b", 20, 30),
            span(3, Some(0), "a", 70, 90),
        ];
        let t = self_times(&spans, None);
        assert_eq!(t["op"].self_ns, 100 - 50 - 20);
        assert_eq!(t["a"].self_ns, (50 - 10) + 20);
        assert_eq!(t["a"].total_ns, 70);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["b"].self_ns, 10);
        let all: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(all, 100, "self times partition the root's wall time");
    }

    #[test]
    fn self_time_can_be_restricted_to_one_root() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, None, "replay", 100, 130),
            span(3, Some(2), "a", 100, 120),
        ];
        let under_op = self_times(&spans, Some("op"));
        assert_eq!(under_op["a"].self_ns, 50);
        assert!(!under_op.contains_key("replay"));
        assert_eq!(self_times(&spans, None)["a"].self_ns, 70);
    }

    #[test]
    fn tracer_records_nesting_and_op_ids() {
        let tracer = Tracer::new(Instant::now());
        tracer.set_op(7);
        let v = tracer.span("outer", || {
            tracer.span("inner", || 3) + tracer.span("inner", || 4)
        });
        assert_eq!(v, 7);
        tracer.set_op(8);
        tracer.span("outer", || ());
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[3].op, 8);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let t = self_times(&spans, None);
        assert_eq!(t["inner"].count, 2);
        assert!(t["outer"].total_ns >= t["inner"].total_ns);
    }

    #[test]
    fn folding_between_operations_matches_one_pass() {
        let tracer = Tracer::new(Instant::now());
        for op in 0..3 {
            tracer.set_op(op);
            tracer.span("op", || tracer.span("a", || tracer.span("b", || ())));
            tracer.span("replay", || tracer.span("a", || ()));
            tracer.fold("op");
        }
        let folded = tracer.finish("op");
        assert_eq!(folded.kept.len(), 15);
        assert_eq!(folded.dropped, 0);
        assert_eq!(folded.all, self_times(&folded.kept, None));
        assert_eq!(folded.under_root, self_times(&folded.kept, Some("op")));
        assert_eq!(folded.all["a"].count, 6);
        assert_eq!(folded.under_root["a"].count, 3);
        assert!(folded.kept.iter().enumerate().all(|(i, s)| s.id == i));
    }

    #[test]
    fn json_lines_carry_every_field() {
        let line = to_json_lines(&[span(1, Some(0), "core.sim", 5, 9)], "main");
        assert_eq!(
            line,
            "{\"lane\":\"main\",\"id\":1,\"parent\":0,\"op\":0,\"name\":\"core.sim\",\"start_ns\":5,\"end_ns\":9}\n"
        );
    }
}
