//! Step-wise live-state access to an [`OnlineEngine`].
//!
//! The fleet tier's global event loop needs, at each arrival instant,
//! the *actual* state of every replica — live queue depth and
//! remaining in-flight work — not the router's virtual-queue
//! estimate. [`EngineStepper`] gives it that from the engine's own
//! resumable run ([`crate::online::EngineRun`]): routed requests are
//! pushed as they arrive, and a state query at `t` advances the run
//! through every scheduling decision before `t` — never further, so
//! no decision can miss a request that has yet to be routed.
//!
//! The vLLM and Seesaw engines are **causal**: admission gates on
//! `Request::arrival_s`, so their trajectory up to `t` depends only on
//! requests that arrived by `t`, and the resumed run at `t` *is* the
//! prefix replay's state there — same rounds, same batches, same
//! clock. The disaggregated engine is not causal: it sizes its
//! prefill/decode split from the mean lengths of the whole stream it
//! is given. Its run therefore defines state queries by *prefix
//! evaluation* — the closed-form tandem queue over everything pushed
//! so far — which is what a prefix replay computes too. Either way
//! [`live_state`] over `run_ready(prefix)` stays the exact oracle
//! (property-tested against the stepper for every engine).
//!
//! # Cost
//!
//! * Backward-looking counts (`waiting`, `running`, `queue_depth`)
//!   cost O(1) amortized engine work per push — each request is
//!   simulated once, by the run that finally reports it — plus an
//!   O(in-flight) scan per query.
//! * Forward-looking reads (`work_s`, `next_event_s`, a kill's lost
//!   set) drain a clone of the committed run with the stream closed:
//!   O(in-flight) simulation, plus a copy of the simulator arena. The
//!   result is memoized until the next push.
//! * [`EngineStepper::finish`] closes the stream and runs to the end,
//!   yielding the same report as `run_ready` on the whole stream.

use crate::online::{EngineRun, OnlineEngine, Unfinished};
use crate::report::EngineReport;
use crate::sweep::SweepRunner;
use seesaw_workload::{LatencyStats, Request, RequestMap};
use std::sync::Mutex;

/// A replica's observable state at one instant (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveState {
    /// Requests that have arrived but not yet produced a first token.
    pub waiting: usize,
    /// Requests past their first token but not yet complete.
    pub running: usize,
    /// Total unfinished requests (`waiting + running`) — the live
    /// analogue of the router's virtual queue depth.
    pub queue_depth: usize,
    /// Summed remaining wall-clock seconds of all unfinished
    /// requests — the live analogue of the router's estimated work.
    /// Forward-looking: measured against the completion times the run
    /// would reach *if no further requests joined this replica*
    /// (future assignments add batch contention and can stretch
    /// in-flight completions). The backward-looking counts
    /// (`waiting`/`running`/`queue_depth`) are exact regardless.
    pub work_s: f64,
    /// The next instant at which this replica's state changes (a
    /// first token or a completion), if any work is pending.
    pub next_event_s: Option<f64>,
}

/// The backward-looking part of [`LiveState`]: cheap to read, and all
/// that queue-depth routing needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveCounts {
    /// Requests that have arrived but not yet produced a first token.
    pub waiting: usize,
    /// Requests past their first token but not yet complete.
    pub running: usize,
    /// `waiting + running`.
    pub queue_depth: usize,
}

/// Observable state of a finished (or replayed) engine run at time
/// `t`: which timeline entries are waiting, running, or done, and how
/// much wall-clock work remains. Entries arriving after `t` are
/// ignored, so passing a full-run report queries any instant of it.
pub fn live_state(report: &EngineReport, t: f64) -> LiveState {
    let mut waiting = 0usize;
    let mut running = 0usize;
    let mut work_s = 0.0f64;
    let mut next: Option<f64> = None;
    let mut note = |at: f64| {
        if at > t && next.map_or(true, |n| at < n) {
            next = Some(at);
        }
    };
    for entry in &report.timeline {
        if entry.arrival_s > t || entry.completion_s <= t {
            continue;
        }
        if entry.first_token_s <= t {
            running += 1;
        } else {
            waiting += 1;
            note(entry.first_token_s);
        }
        work_s += entry.completion_s - t;
        note(entry.completion_s);
    }
    LiveState {
        waiting,
        running,
        queue_depth: waiting + running,
        work_s,
        next_event_s: next,
    }
}

/// Step-wise wrapper over one replica's resumable run: accepts routed
/// requests one at a time and answers exact live-state queries between
/// pushes.
///
/// Queries must come at or after the last pushed arrival (causality:
/// nothing pushed later can have arrived by then) and in nondecreasing
/// time order. Both are checked in release builds.
pub struct EngineStepper {
    run: Box<dyn EngineRun>,
    ready_s: f64,
    pushed: usize,
    last_arrival: f64,
    last_query: f64,
    /// True arrivals of requests whose dispatch was clamped to
    /// `ready_s` (restored in the final report).
    early: Vec<Request>,
    /// Forward-looking memo: the drained fork's unfinished requests,
    /// id-sorted; cleared by every push.
    unfinished: Option<Vec<Unfinished>>,
    drains: u64,
    simulated: u64,
    unqueried: u64,
}

impl EngineStepper {
    /// A stepper for a replica running `engine` that becomes ready
    /// (weights loaded) at `ready_s` — `0.0` for an always-warm
    /// replica.
    pub fn new(engine: &dyn OnlineEngine, ready_s: f64) -> Self {
        engine.start(ready_s)
    }

    /// Wrap an already-started run (see [`OnlineEngine::start`]).
    pub fn from_run(run: Box<dyn EngineRun>, ready_s: f64) -> Self {
        assert!(
            ready_s.is_finite() && ready_s >= 0.0,
            "replica ready time must be finite and non-negative, got {ready_s}"
        );
        EngineStepper {
            run,
            ready_s,
            pushed: 0,
            last_arrival: f64::NEG_INFINITY,
            last_query: f64::NEG_INFINITY,
            early: Vec::new(),
            unfinished: None,
            drains: 0,
            simulated: 0,
            unqueried: 0,
        }
    }

    /// Assign `req` to this replica. Arrivals must be nondecreasing
    /// across pushes (the global event loop pops in time order) and
    /// must not precede an earlier state query.
    pub fn push(&mut self, req: Request) {
        assert!(
            req.arrival_s >= self.last_arrival,
            "stepper pushes must be arrival-ordered: {} after {}",
            req.arrival_s,
            self.last_arrival
        );
        assert!(
            req.arrival_s >= self.last_query,
            "push arriving at {} precedes an earlier state query at {}",
            req.arrival_s,
            self.last_query
        );
        self.last_arrival = req.arrival_s;
        self.pushed += 1;
        self.unqueried += 1;
        self.unfinished = None;
        let dispatch = if req.arrival_s < self.ready_s {
            self.early.push(req);
            req.with_arrival(self.ready_s)
        } else {
            req
        };
        self.run.push(dispatch);
    }

    /// Requests assigned so far.
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// `(state drains, requests simulated to answer state queries)` —
    /// the counters telemetry aggregates. A drain is a query that made
    /// the run catch up with requests pushed since the previous query,
    /// or a forward read that ran a closed-stream fork to the end.
    /// Requests count once when a query first makes the run simulate
    /// them, and again per fork they are in flight in.
    pub fn replay_counts(&self) -> (u64, u64) {
        (self.drains, self.simulated)
    }

    fn check_query(&mut self, t: f64) {
        assert!(
            t >= self.last_arrival,
            "state query at {t} precedes the last assignment at {}",
            self.last_arrival
        );
        assert!(
            t >= self.last_query,
            "state queries must be time-ordered: {t} after {}",
            self.last_query
        );
        self.last_query = t;
        if self.unqueried > 0 {
            self.drains += 1;
            self.simulated += self.unqueried;
            self.unqueried = 0;
        }
    }

    /// Exact backward-looking counts at `t`: advances the run through
    /// every decision before `t` and never drains.
    pub fn counts_at(&mut self, t: f64) -> LiveCounts {
        self.check_query(t);
        let p = self.run.progress_at(t);
        let queue_depth = self.pushed - p.completed;
        let running = p.first_tokens - p.completed;
        LiveCounts {
            waiting: queue_depth - running,
            running,
            queue_depth,
        }
    }

    /// The forward-looking memo, filled by draining a fork if no push
    /// invalidated it since (an idle replica needs no fork). Call
    /// right after [`EngineStepper::counts_at`] returned `counts`.
    fn unfinished(&mut self, counts: LiveCounts) -> &[Unfinished] {
        if self.unfinished.is_none() && counts.queue_depth == 0 {
            self.unfinished = Some(Vec::new());
        }
        if self.unfinished.is_none() {
            let mut drained = self.run.drain_unfinished();
            drained.sort_unstable_by_key(|u| u.id);
            self.drains += 1;
            self.simulated += drained.len() as u64;
            self.unfinished = Some(drained);
        }
        self.unfinished.as_deref().expect("memo just filled")
    }

    /// Remaining work at `t` over the memoized drain — the same
    /// id-ordered sum [`live_state`] takes over a replay's timeline.
    fn work_from(unfinished: &[Unfinished], t: f64) -> f64 {
        unfinished
            .iter()
            .filter(|u| u.completion_s > t)
            .fold(0.0, |acc, u| acc + (u.completion_s - t))
    }

    /// Exact live state at `t` (counts plus the forward-looking
    /// `work_s`/`next_event_s`, draining a fork unless memoized).
    pub fn state_at(&mut self, t: f64) -> LiveState {
        let counts = self.counts_at(t);
        let unfinished = self.unfinished(counts);
        let next_event_s = unfinished
            .iter()
            .filter(|u| u.completion_s > t)
            .flat_map(|u| [u.first_token_s, u.completion_s])
            .filter(|&at| at > t)
            .reduce(f64::min);
        LiveState {
            waiting: counts.waiting,
            running: counts.running,
            queue_depth: counts.queue_depth,
            work_s: Self::work_from(unfinished, t),
            next_event_s,
        }
    }

    /// `work_s` at `t` if the forward memo is current (no push since
    /// the last drain). Counts must already have been read at `t`.
    fn memoized_work_at(&self, t: f64) -> Option<f64> {
        self.unfinished.as_deref().map(|u| Self::work_from(u, t))
    }

    /// What a router reads at `t`: queue depth, and remaining work
    /// when `with_work` asks for it (a drain unless memoized) or when
    /// it is already memoized — so a depth-only router never drains.
    pub fn depth_and_work_at(&mut self, t: f64, with_work: bool) -> (usize, Option<f64>) {
        if with_work {
            let s = self.state_at(t);
            (s.queue_depth, Some(s.work_s))
        } else {
            let depth = self.counts_at(t).queue_depth;
            (depth, self.memoized_work_at(t))
        }
    }

    /// `(id, completion time)` of every request still unfinished at
    /// `t`, as the run would complete them with nothing more pushed —
    /// what a kill at `t` loses.
    pub fn unfinished_at(&mut self, t: f64) -> Vec<(u64, f64)> {
        let counts = self.counts_at(t);
        self.unfinished(counts)
            .iter()
            .filter(|u| u.completion_s > t)
            .map(|u| (u.id, u.completion_s))
            .collect()
    }

    /// Close the stream, run to completion, and return the final
    /// report — byte-identical to `run_ready` over everything pushed.
    pub fn finish(self) -> EngineReport {
        let mut report = self.run.finish();
        if !self.early.is_empty() {
            let true_arrivals = RequestMap::new(&self.early);
            for t in &mut report.timeline {
                if let Some(req) = true_arrivals.get(t.id) {
                    t.arrival_s = req.arrival_s;
                }
            }
            report.latency = LatencyStats::from_timeline(&report.timeline);
        }
        report
    }

    /// Finish every stepper on `runner` (reports in input order, so
    /// the result is runner-invariant).
    pub fn finish_all(runner: &SweepRunner, steppers: Vec<EngineStepper>) -> Vec<EngineReport> {
        let slots: Vec<Mutex<Option<EngineStepper>>> =
            steppers.into_iter().map(|s| Mutex::new(Some(s))).collect();
        runner.map(&slots, |slot| {
            slot.lock()
                .expect("stepper slot poisoned")
                .take()
                .expect("each stepper finishes once")
                .finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vllm::VllmEngine;
    use crate::SchedulingPolicy;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::presets;
    use seesaw_parallel::ParallelConfig;
    use std::sync::Arc;

    fn engine() -> VllmEngine {
        VllmEngine::new(
            Arc::new(ClusterSpec::a10x4()),
            Arc::new(presets::llama2_13b()),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .expect("valid config")
    }

    fn reqs(n: usize, gap_s: f64) -> Vec<Request> {
        (0..n)
            .map(|i| Request::new(i as u64, 256, 16).with_arrival(i as f64 * gap_s))
            .collect()
    }

    #[test]
    fn live_state_counts_match_timeline() {
        let eng = engine();
        let stream = reqs(6, 0.05);
        let report = eng.run(&stream);
        // Before anything arrives: empty.
        let s = live_state(&report, -1.0);
        assert_eq!((s.waiting, s.running, s.queue_depth), (0, 0, 0));
        assert_eq!(s.work_s, 0.0);
        // After everything completes: empty, no next event.
        let end = report
            .timeline
            .iter()
            .map(|t| t.completion_s)
            .fold(0.0f64, f64::max);
        let s = live_state(&report, end + 1.0);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.next_event_s, None);
        // Mid-run at the last arrival: depth counts exactly the
        // unfinished arrived requests, and work is their remaining
        // completion mass.
        let t = 5.0 * 0.05;
        let s = live_state(&report, t);
        let expect: Vec<_> = report
            .timeline
            .iter()
            .filter(|e| e.arrival_s <= t && e.completion_s > t)
            .collect();
        assert_eq!(s.queue_depth, expect.len());
        let work: f64 = expect.iter().map(|e| e.completion_s - t).sum();
        assert!((s.work_s - work).abs() < 1e-9);
        assert!(s.next_event_s.expect("work pending") > t);
    }

    #[test]
    fn stepper_replay_is_exact_prefix_of_full_run() {
        let eng = engine();
        let stream = reqs(5, 0.2);
        // A full run of the whole stream...
        let full = eng.run(&stream);
        // ...agrees with the stepper's replay at every arrival
        // instant (causality: engine decisions at or before `t` see
        // only arrivals at or before `t`, so the backward-looking
        // counts — arrived, first-token'd, completed — coincide).
        let mut stepper = EngineStepper::new(&eng, 0.0);
        for req in &stream {
            stepper.push(req.clone());
            let now = stepper.state_at(req.arrival_s);
            let reference = live_state(&full, req.arrival_s);
            assert_eq!(now.queue_depth, reference.queue_depth);
            assert_eq!(now.waiting, reference.waiting);
            assert_eq!(now.running, reference.running);
            assert!(now.work_s > 0.0, "the just-arrived request is unfinished");
        }
        let finished = stepper.finish();
        assert_eq!(finished, full, "stepper over the full stream is the full run");
    }

    #[test]
    fn idle_queries_between_pushes_hit_the_cache() {
        let eng = engine();
        let mut stepper = EngineStepper::new(&eng, 0.0);
        stepper.push(Request::new(0, 128, 8).with_arrival(0.0));
        let a = stepper.state_at(0.0);
        let b = stepper.state_at(0.0);
        assert_eq!(a, b);
        assert_eq!(a.queue_depth, 1);
        assert_eq!(
            stepper.memoized_work_at(0.0),
            Some(a.work_s),
            "forward reads memoize"
        );
        // One catch-up over the new request, one fork with it in flight.
        assert_eq!(stepper.replay_counts(), (2, 2));
        stepper.push(Request::new(1, 128, 8).with_arrival(1.0));
        assert_eq!(
            stepper.memoized_work_at(1.0),
            None,
            "a push invalidates the memo"
        );
        stepper.counts_at(1.0);
        assert_eq!(
            stepper.replay_counts(),
            (3, 3),
            "counts only catch up, never fork"
        );
        stepper.counts_at(1.0);
        assert_eq!(
            stepper.replay_counts(),
            (3, 3),
            "nothing new pushed, nothing simulated"
        );
        stepper.state_at(1.0);
        assert_eq!(
            stepper.replay_counts(),
            (4, 4),
            "a forward read after a push forks again"
        );
    }

    #[test]
    fn warming_replica_queues_until_ready() {
        let eng = engine();
        let mut stepper = EngineStepper::new(&eng, 10.0);
        stepper.push(Request::new(0, 128, 8).with_arrival(1.0));
        let s = stepper.state_at(1.0);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.running, 0, "nothing runs before ready_s");
        let done = stepper.finish();
        assert!(done.timeline[0].first_token_s >= 10.0);
        assert_eq!(done.timeline[0].arrival_s, 1.0, "true arrival preserved");
    }

    #[test]
    #[should_panic(expected = "arrival-ordered")]
    fn out_of_order_push_rejected() {
        let eng = engine();
        let mut stepper = EngineStepper::new(&eng, 0.0);
        stepper.push(Request::new(0, 128, 8).with_arrival(2.0));
        stepper.push(Request::new(1, 128, 8).with_arrival(1.0));
    }

    #[test]
    #[should_panic(expected = "state query at 1 precedes the last assignment at 2")]
    fn query_before_last_push_rejected() {
        // Checked in release builds too: a query behind the last push
        // would count a request that has not arrived yet.
        let eng = engine();
        let mut stepper = EngineStepper::new(&eng, 0.0);
        stepper.push(Request::new(0, 128, 8).with_arrival(2.0));
        stepper.state_at(1.0);
    }

    #[test]
    fn resumed_run_finishes_like_the_batch_run_for_every_engine() {
        let cluster = Arc::new(ClusterSpec::a10x4());
        let model = Arc::new(presets::llama2_13b());
        let seesaw = crate::seesaw::SeesawEngine::new(
            Arc::clone(&cluster),
            Arc::clone(&model),
            crate::seesaw::SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
        )
        .expect("valid spec");
        let disagg = crate::disagg::DisaggEngine::new(Arc::clone(&cluster), Arc::clone(&model));
        let engines: [&dyn OnlineEngine; 3] = [&engine(), &seesaw, &disagg];
        let stream = reqs(8, 0.3);
        for eng in engines {
            let mut stepper = eng.start(0.0);
            for req in &stream {
                stepper.push(*req);
                stepper.counts_at(req.arrival_s);
            }
            assert_eq!(stepper.finish(), eng.run(&stream), "{}", eng.label());
        }
    }
}
