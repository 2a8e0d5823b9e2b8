//! The engine-agnostic online-serving interface.
//!
//! Every engine in this crate ([`crate::seesaw::SeesawEngine`],
//! [`crate::vllm::VllmEngine`], [`crate::disagg::DisaggEngine`])
//! consumes an arrival-sorted request stream and produces an
//! [`EngineReport`]; [`OnlineEngine`] captures exactly that contract
//! so harnesses — and the fleet tier's replicas — can hold engines as
//! trait objects and mix backends freely.
//!
//! Every engine serves through one resumable run ([`EngineRun`]):
//! requests are pushed in arrival order, the run advances only as far
//! as causality allows, and [`OnlineEngine::run`] is "start, push all,
//! finish" — so each engine keeps exactly one scheduling loop, and the
//! fleet tier's live-state queries read that same loop mid-flight
//! (see [`crate::stepper`]).
//!
//! Cost-aware request routers additionally need a cheap *a-priori*
//! estimate of what a request will cost on a given engine, before any
//! simulation runs. [`ServiceRates`] provides that: analytic
//! roofline-derived token rates (the same Eq. 1/2 closed forms the
//! auto-tuner ranks candidates with), from which a request's
//! steady-state capacity occupancy is `in/prefill_rate +
//! out/decode_rate` seconds.

use crate::report::EngineReport;
use crate::stepper::EngineStepper;
use seesaw_workload::Request;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Analytic steady-state service rates of an engine, for cost-aware
/// routing. Derived from the roofline model (Eq. 1/2), not measured:
/// routers must rank replicas *before* simulating them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceRates {
    /// Sustained prefill rate, prompt tokens/second.
    pub prefill_tokens_per_sec: f64,
    /// Sustained decode rate, generated tokens/second (aggregate
    /// across the batch — a request's decode occupancy is its share
    /// of this budget).
    pub decode_tokens_per_sec: f64,
}

impl ServiceRates {
    /// Estimated capacity occupancy of one request, seconds: the
    /// slice of the engine's steady-state throughput budget the
    /// request consumes (prefill and decode phases add, as in the
    /// paper's Eq. 1/2 request-rate estimate).
    pub fn est_service_s(&self, req: &Request) -> f64 {
        req.input_len as f64 / self.prefill_tokens_per_sec
            + req.output_len as f64 / self.decode_tokens_per_sec
    }
}

/// Backward-looking progress of a run at a query time: how many pushed
/// requests have produced their first token, and how many have
/// completed (every completed request has produced its first token).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Progress {
    /// Requests whose first token is out.
    pub first_tokens: usize,
    /// Requests fully generated.
    pub completed: usize,
}

/// One unfinished request's timing as a drained fork of a run sees it
/// ([`EngineRun::drain_unfinished`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unfinished {
    /// Request id.
    pub id: u64,
    /// First-token time; `-inf` when the run had already counted it.
    pub first_token_s: f64,
    /// Completion time if nothing else were pushed.
    pub completion_s: f64,
}

/// A resumable run of one engine over a stream that arrives one
/// request at a time.
///
/// The run keeps a *horizon*: the latest push arrival or
/// [`EngineRun::advance_to`] time. Every later push arrives at or
/// after it, so a scheduling decision at sim time `s < horizon` sees
/// exactly the requests the full stream would show it and may run;
/// the run pauses at the first decision that is not. Termination tests
/// ("no requests left") mean *stream finished and queue empty* — while
/// more may be pushed the run pauses instead. Pushing everything and
/// then calling [`EngineRun::finish`] is therefore the batch run
/// itself, and any interleaving of pushes and advances reproduces it
/// byte-for-byte.
pub trait EngineRun: Send {
    /// Append `req`; arrivals must be nondecreasing across pushes and
    /// not precede an earlier [`EngineRun::advance_to`] time.
    fn push(&mut self, req: Request);

    /// Execute every scheduling decision whose sim time is `< t`.
    fn advance_to(&mut self, t: f64);

    /// Advance to `t`, then count first tokens and completions at or
    /// before `t`. Query times must be nondecreasing.
    fn progress_at(&mut self, t: f64) -> Progress;

    /// Drain a clone of the committed state with the stream closed
    /// and return the timings of every request not counted complete
    /// by the last [`EngineRun::progress_at`] (in no particular
    /// order). The run itself is untouched.
    fn drain_unfinished(&self) -> Vec<Unfinished>;

    /// Close the stream, run to completion, and report.
    fn finish(self: Box<Self>) -> EngineReport;
}

/// An engine that serves an arrival-sorted request stream to
/// completion.
///
/// Implementations must be deterministic: the same request slice
/// always produces the same report, and `run` must accept streams
/// whose `arrival_s` are nondecreasing (all-zero arrivals are the
/// offline path). `Send + Sync` because fleet replicas run
/// concurrently on a [`crate::SweepRunner`].
pub trait OnlineEngine: Send + Sync {
    /// Configuration label (the paper's notation where applicable,
    /// e.g. `"T4P2"`, `"P4->T4"`).
    fn label(&self) -> String;

    /// A fresh resumable run ([`EngineRun`]). It owns `Arc` handles
    /// to the engine's specs, so it outlives the borrow.
    fn begin(&self) -> Box<dyn EngineRun>;

    /// A fresh run wrapped for live-state queries, for a replica that
    /// becomes ready (weights loaded) at `ready_s` — see
    /// [`OnlineEngine::run_ready`] for the warm-up semantics.
    fn start(&self, ready_s: f64) -> EngineStepper {
        EngineStepper::from_run(self.begin(), ready_s)
    }

    /// Process `requests` (sorted by arrival time) to completion:
    /// start a run, push everything, finish.
    fn run(&self, requests: &[Request]) -> EngineReport {
        let mut run = self.begin();
        for req in requests {
            run.push(*req);
        }
        run.finish()
    }

    /// Analytic service rates for a workload averaging `avg_in`
    /// prompt and `avg_out` generated tokens — the basis for
    /// cost-aware routing (`in/prefill + out/decode` seconds per
    /// request).
    fn service_rates(&self, avg_in: usize, avg_out: usize) -> ServiceRates;

    /// [`OnlineEngine::run`] with span recording enabled
    /// ([`seesaw_sim::Trace`]), returning the report plus the
    /// per-category busy-time summary — the fleet `--breakdown`
    /// path. The report must equal `run`'s byte-for-byte (tracing
    /// only observes). Engines without a traced path fall back to an
    /// untraced run and an all-zero summary, which renders as an
    /// empty breakdown rather than wrong numbers.
    fn run_traced(&self, requests: &[Request]) -> (EngineReport, seesaw_sim::TraceSummary) {
        (self.run(requests), seesaw_sim::TraceSummary::default())
    }

    /// [`OnlineEngine::run`] for a replica that only becomes ready
    /// (weights loaded) at `ready_s` seconds: requests arriving
    /// earlier wait — their *dispatch* is clamped to `ready_s`, riding
    /// the engines' existing arrival-gated admission control — but the
    /// returned timeline keeps the **true** arrival times, so TTFT and
    /// end-to-end latency include the warm-up wait. Per-request TTFT
    /// under a later `ready_s` therefore never decreases: delayed
    /// requests start no earlier, and requests behind them inherit the
    /// longer backlog.
    ///
    /// `ready_s <= ` the first arrival returns `run` byte-for-byte (a
    /// warm replica's report is unchanged). The autoscale controller's
    /// router never assigns traffic to a warming replica, so for
    /// router-assigned streams the clamp never fires — it is the
    /// engine-level guard of the same contract for streams assembled
    /// without the router.
    fn run_ready(&self, requests: &[Request], ready_s: f64) -> EngineReport {
        let mut run = self.start(ready_s);
        for req in requests {
            run.push(*req);
        }
        run.finish()
    }
}

/// An [`EngineRun`] that queues pushes until the first advance or
/// finish, then builds its core. A push-only run (a replica whose
/// router never reads its state) therefore acquires its simulator and
/// roofline cache only when it finishes, on the thread that finishes
/// it — exactly like a batch run.
pub(crate) struct Deferred<C> {
    build: Arc<dyn Fn() -> C + Send + Sync>,
    queued: Vec<Request>,
    core: Option<C>,
}

impl<C: EngineRun + 'static> Deferred<C> {
    pub(crate) fn boxed(build: impl Fn() -> C + Send + Sync + 'static) -> Box<dyn EngineRun> {
        Box::new(Deferred {
            build: Arc::new(build),
            queued: Vec::new(),
            core: None,
        })
    }

    fn built(build: &dyn Fn() -> C, queued: &[Request]) -> C {
        let mut core = build();
        for req in queued {
            core.push(*req);
        }
        core
    }

    fn core(&mut self) -> &mut C {
        let (build, queued) = (&self.build, &mut self.queued);
        self.core
            .get_or_insert_with(|| Self::built(&**build, &std::mem::take(queued)))
    }
}

impl<C: EngineRun + 'static> EngineRun for Deferred<C> {
    fn push(&mut self, req: Request) {
        match &mut self.core {
            Some(core) => core.push(req),
            None => self.queued.push(req),
        }
    }

    fn advance_to(&mut self, t: f64) {
        self.core().advance_to(t);
    }

    fn progress_at(&mut self, t: f64) -> Progress {
        self.core().progress_at(t)
    }

    fn drain_unfinished(&self) -> Vec<Unfinished> {
        match &self.core {
            Some(core) => core.drain_unfinished(),
            None => Self::built(&*self.build, &self.queued).drain_unfinished(),
        }
    }

    fn finish(mut self: Box<Self>) -> EngineReport {
        self.core();
        Box::new(self.core.take().expect("core just built")).finish()
    }
}

/// Mean input/output lengths of a request set, rounded, each at least
/// 1 (the convention every analytic estimate in this workspace uses).
/// `(1, 1)` for an empty set.
pub fn mean_lengths(requests: &[Request]) -> (usize, usize) {
    if requests.is_empty() {
        return (1, 1);
    }
    let n = requests.len() as f64;
    let avg_in = requests.iter().map(|r| r.input_len as u64).sum::<u64>() as f64 / n;
    let avg_out = requests.iter().map(|r| r.output_len as u64).sum::<u64>() as f64 / n;
    ((avg_in.round() as usize).max(1), (avg_out.round() as usize).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_adds_phases() {
        let rates = ServiceRates {
            prefill_tokens_per_sec: 1000.0,
            decode_tokens_per_sec: 100.0,
        };
        let req = Request::new(0, 500, 50);
        assert!((rates.est_service_s(&req) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_lengths_round_and_clamp() {
        assert_eq!(mean_lengths(&[]), (1, 1));
        let reqs = vec![Request::new(0, 100, 10), Request::new(1, 301, 11)];
        assert_eq!(mean_lengths(&reqs), (201, 11)); // 200.5 rounds up, 10.5 rounds up
    }
}
