//! Per-request timestamp recording for engine runs.
//!
//! Engines know *which* task produces a request's first token (the
//! prefill pass / mixed round that finishes its prompt) and which one
//! produces its last (the decode burst it retires in) at submission
//! time, but the corresponding simulated timestamps only exist once
//! those tasks execute. [`TimingRecorder`] therefore stores
//! `(request id, task handle)` pairs during the run and resolves them
//! against the drained simulator at `finish`, yielding the
//! [`RequestTiming`] timeline the latency metrics are computed from.
//!
//! Timestamps are round-granular: a request's completion time is the
//! end of the decode burst (or mixed round) that retired it, matching
//! the engines' round-boundary scheduling model.

use crate::online::{Progress, Unfinished};
use seesaw_sim::{SimTime, Simulator, TaskHandle};
use seesaw_workload::{RequestMap, RequestTiming};
use std::borrow::Cow;
use std::collections::HashMap;

/// Accumulates first-token / completion handles during a run.
#[derive(Debug, Default, Clone)]
pub struct TimingRecorder {
    first: Vec<(u64, TaskHandle)>,
    done: Vec<(u64, TaskHandle)>,
}

impl TimingRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorder pre-sized for `n` requests.
    pub fn with_capacity(n: usize) -> Self {
        TimingRecorder {
            first: Vec::with_capacity(n),
            done: Vec::with_capacity(n),
        }
    }

    /// Record that `task` produces request `id`'s first token.
    pub fn first_token(&mut self, id: u64, task: TaskHandle) {
        self.first.push((id, task));
    }

    /// Record that `task` produces request `id`'s last token.
    pub fn completed(&mut self, id: u64, task: TaskHandle) {
        self.done.push((id, task));
    }

    /// Pre-size for `n` more requests.
    pub fn reserve(&mut self, n: usize) {
        self.first.reserve(n);
        self.done.reserve(n);
    }

    /// Resolve every recorded handle against the (fully drained)
    /// simulator into a timeline sorted by request id.
    pub fn resolve(mut self, sim: &Simulator, meta: &RequestMap) -> Vec<RequestTiming> {
        assert_eq!(
            self.first.len(),
            self.done.len(),
            "every request needs both a first-token and a completion record"
        );
        self.first.sort_unstable_by_key(|&(id, _)| id);
        self.done.sort_unstable_by_key(|&(id, _)| id);
        self.first
            .iter()
            .zip(&self.done)
            .map(|(&(id, first), &(done_id, done))| {
                assert_eq!(id, done_id, "timing streams out of sync at request {id}");
                let req = meta.req(id);
                let at = |h: TaskHandle| {
                    sim.completion_time(h)
                        .unwrap_or_else(|| panic!("timing task for request {id} never ran"))
                        .as_secs()
                };
                RequestTiming {
                    id,
                    arrival_s: req.arrival_s,
                    first_token_s: at(first),
                    completion_s: at(done),
                    output_len: req.output_len,
                    attempts: 1,
                }
            })
            .collect()
    }
}

/// Incremental backward-looking progress of a resumable run: how many
/// recorded first tokens and completions have happened by a query
/// time.
///
/// Records already counted are dropped; the rest wait in a pending
/// list, so a query costs O(in-flight) rather than O(history). Query
/// times must be nondecreasing — a counted record stays counted.
#[derive(Debug, Default, Clone)]
pub struct ProgressTracker {
    seen_first: usize,
    seen_done: usize,
    pending_first: Vec<(u64, TaskHandle)>,
    pending_done: Vec<(u64, TaskHandle)>,
    counted: Progress,
}

impl ProgressTracker {
    /// Count the records of `rec` whose task has completed at or
    /// before `t`.
    ///
    /// The caller has executed every scheduling decision before `t`,
    /// so no record made later can complete by `t`. Events at or
    /// before `t` that `sim` has not processed yet are resolved on a
    /// fork (draining them on `sim` itself could reorder same-instant
    /// ties against the next decision), which only happens on exact
    /// time ties or while the engine idles on an open stream.
    pub fn count(&mut self, rec: &TimingRecorder, sim: &Simulator, t: f64) -> Progress {
        self.pending_first
            .extend_from_slice(&rec.first[self.seen_first..]);
        self.pending_done
            .extend_from_slice(&rec.done[self.seen_done..]);
        self.seen_first = rec.first.len();
        self.seen_done = rec.done.len();
        let at = SimTime::from_secs(t);
        let sim = if sim.next_event_time().is_some_and(|e| e <= at) {
            let mut fork = sim.clone();
            fork.run_through(at);
            Cow::Owned(fork)
        } else {
            Cow::Borrowed(sim)
        };
        let by_t = |h: TaskHandle| sim.completion_time(h).is_some_and(|c| c <= at);
        let before = self.pending_first.len();
        self.pending_first.retain(|&(_, h)| !by_t(h));
        self.counted.first_tokens += before - self.pending_first.len();
        let before = self.pending_done.len();
        self.pending_done.retain(|&(_, h)| !by_t(h));
        self.counted.completed += before - self.pending_done.len();
        self.counted
    }

    /// Timings of every request whose completion was not counted by
    /// the last [`ProgressTracker::count`], read from `sim` after the
    /// run was drained to the end (so every handle has resolved).
    /// First-token times already counted read as `-inf`.
    pub fn unfinished(&self, rec: &TimingRecorder, sim: &Simulator) -> Vec<Unfinished> {
        let at = |h: TaskHandle| {
            sim.completion_time(h)
                .expect("a drained run resolves every timing task")
                .as_secs()
        };
        let first: HashMap<u64, f64> = self
            .pending_first
            .iter()
            .chain(&rec.first[self.seen_first..])
            .map(|&(id, h)| (id, at(h)))
            .collect();
        self.pending_done
            .iter()
            .chain(&rec.done[self.seen_done..])
            .map(|&(id, h)| Unfinished {
                id,
                first_token_s: first.get(&id).copied().unwrap_or(f64::NEG_INFINITY),
                completion_s: at(h),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_sim::{TaskKind, TaskSpec};
    use seesaw_workload::Request;

    #[test]
    fn resolves_sorted_timeline_from_out_of_order_records() {
        let mut sim = Simulator::new();
        let g = sim.add_resource("g");
        let t1 = sim.submit(TaskSpec::new(g, 1.0, TaskKind::Compute));
        let t2 = sim.submit(TaskSpec::new(g, 2.0, TaskKind::Compute));
        sim.run_until_idle();

        let reqs = vec![
            Request::new(7, 100, 5).with_arrival(0.5),
            Request::new(3, 200, 1),
        ];
        let meta = RequestMap::new(&reqs);
        let mut rec = TimingRecorder::new();
        rec.first_token(7, t1);
        rec.completed(7, t2);
        rec.first_token(3, t2);
        rec.completed(3, t2);
        let timeline = rec.resolve(&sim, &meta);
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0].id, 3, "timeline is id-sorted");
        assert_eq!(timeline[0].first_token_s, 3.0);
        assert_eq!(timeline[1].id, 7);
        assert_eq!(timeline[1].arrival_s, 0.5);
        assert_eq!(timeline[1].first_token_s, 1.0);
        assert_eq!(timeline[1].completion_s, 3.0);
        assert_eq!(timeline[1].output_len, 5);
    }

    #[test]
    fn progress_counts_ties_still_pending_in_the_simulator() {
        // Two tasks finish at t = 1.0 on separate resources; running
        // until the first leaves the second's event pending. A count
        // at t = 1.0 must include both without disturbing `sim`.
        let mut sim = Simulator::new();
        let (g0, g1) = (sim.add_resource("g0"), sim.add_resource("g1"));
        let a = sim.submit(TaskSpec::new(g0, 1.0, TaskKind::Compute));
        let b = sim.submit(TaskSpec::new(g1, 1.0, TaskKind::Compute));
        let late = sim.submit(TaskSpec::new(g0, 1.0, TaskKind::Compute));
        sim.run_until(a);
        assert!(!sim.completed(b), "the tie is still pending");
        let mut rec = TimingRecorder::new();
        rec.first_token(0, a);
        rec.completed(0, a);
        rec.first_token(1, b);
        rec.completed(1, late);
        let mut progress = ProgressTracker::default();
        let p = progress.count(&rec, &sim, 1.0);
        assert_eq!((p.first_tokens, p.completed), (2, 1));
        assert!(
            !sim.completed(b),
            "counting never advances the run's simulator"
        );
        sim.run_until_idle();
        let open = progress.unfinished(&rec, &sim);
        assert_eq!(open.len(), 1);
        assert_eq!((open[0].id, open[0].completion_s), (1, 2.0));
        assert_eq!(
            open[0].first_token_s,
            f64::NEG_INFINITY,
            "first token already counted"
        );
    }

    #[test]
    #[should_panic(expected = "both a first-token and a completion")]
    fn unbalanced_records_are_rejected() {
        let mut sim = Simulator::new();
        let g = sim.add_resource("g");
        let t = sim.submit(TaskSpec::new(g, 1.0, TaskKind::Compute));
        sim.run_until_idle();
        let meta = RequestMap::new(&[]);
        let mut rec = TimingRecorder::new();
        rec.first_token(0, t);
        rec.resolve(&sim, &meta);
    }
}
