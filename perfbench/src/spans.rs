//! Reading a traced run's span events: sums by name, the top-level
//! `solve` spans under a root, and how much of a span its children cover.

use std::collections::HashMap;

use nvpg_obs::SpanEvent;

/// Span events indexed by id, for ancestry walks.
pub struct Spans {
    events: Vec<SpanEvent>,
    by_id: HashMap<u64, usize>,
}

impl Spans {
    /// Takes every buffered event out of the `nvpg_obs` sink.
    pub fn drain() -> Spans {
        let events = nvpg_obs::drain_events();
        let by_id = events.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        Spans { events, by_id }
    }

    pub fn iter(&self) -> impl Iterator<Item = &SpanEvent> {
        self.events.iter()
    }

    fn get(&self, id: u64) -> Option<&SpanEvent> {
        self.by_id.get(&id).map(|&i| &self.events[i])
    }

    /// `true` when `ev` lies strictly under the span `root`.
    pub fn under(&self, ev: &SpanEvent, root: u64) -> bool {
        let mut p = ev.parent;
        while p != 0 {
            if p == root {
                return true;
            }
            p = self.get(p).map_or(0, |e| e.parent);
        }
        false
    }

    /// `true` when some ancestor of `ev` is named `name`.
    fn has_ancestor_named(&self, ev: &SpanEvent, name: &str) -> bool {
        let mut p = ev.parent;
        while let Some(e) = self.get(p) {
            if e.name == name {
                return true;
            }
            p = e.parent;
        }
        false
    }

    /// The first span named `name` with label `label`.
    pub fn find(&self, name: &str, label: &str) -> Option<&SpanEvent> {
        self.events
            .iter()
            .find(|e| e.name == name && e.label == label)
    }

    /// Every span named `name` (any label) under `root`.
    pub fn named_under<'a>(
        &'a self,
        name: &'a str,
        root: u64,
    ) -> impl Iterator<Item = &'a SpanEvent> + 'a {
        self.events
            .iter()
            .filter(move |e| e.name == name && self.under(e, root))
    }

    /// Seconds spent in the outermost `solve:*` spans under `root` (a
    /// solve nested in another solve, such as a DC inside a transient
    /// restart, is counted once through its parent). Summed across
    /// threads.
    pub fn solve_s(&self, root: u64) -> f64 {
        self.named_under("solve", root)
            .filter(|e| !self.has_ancestor_named(e, "solve"))
            .map(|e| e.wall_ns() as f64 * 1e-9)
            .sum()
    }

    /// Share of `root`'s wall interval covered by the union of the
    /// intervals of `children` (any thread).
    pub fn coverage<'a>(root: &SpanEvent, children: impl Iterator<Item = &'a SpanEvent>) -> f64 {
        let mut iv: Vec<(u64, u64)> = children
            .map(|e| {
                (
                    e.t_start_ns.max(root.t_start_ns),
                    e.t_end_ns.min(root.t_end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut end = 0u64;
        for (a, b) in iv {
            let a = a.max(end);
            if b > a {
                covered += b - a;
                end = b;
            }
        }
        covered as f64 / root.wall_ns().max(1) as f64
    }
}
