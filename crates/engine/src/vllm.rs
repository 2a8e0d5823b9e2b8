//! The static-parallelism baseline engine (vLLM-like).
//!
//! One `(DP, TP, PP)` configuration for the whole run, continuous
//! batching, paged KV, and one of three scheduling policies
//! ([`SchedulingPolicy`]). Admission is conservative: a request is
//! admitted only when its full `input + output` KV reservation fits,
//! so no preemption is ever needed (this matches the paper's
//! Appendix A batching model, where max batch size is derived from
//! average *total* sequence length).

use crate::cluster_sim::ClusterSim;
use crate::driver::{
    assert_arrivals_sorted, submit_decode_burst, submit_mixed_round, submit_prefill_batch,
    PassBuffers, Replica, RunSeq,
};
use crate::online::{Deferred, EngineRun, OnlineEngine, Progress, ServiceRates, Unfinished};
use crate::report::EngineReport;
use crate::timing::{ProgressTracker, TimingRecorder};
use crate::SchedulingPolicy;
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_parallel::{FitError, MemoryPlan, ParallelConfig};
use seesaw_roofline::{BatchShape, Roofline};
use seesaw_sim::{SimTime, TaskHandle, TraceSummary};
use seesaw_workload::{LatencyStats, Request, RequestMap, RunStats};
use std::collections::VecDeque;
use std::sync::Arc;

/// Maximum decode rounds submitted between scheduling decisions.
const BURST_CAP: usize = 64;

/// Maximum prompt tokens admitted into one prefill pass (vLLM's
/// `max_num_batched_tokens`-style bound).
const MAX_PREFILL_TOKENS: usize = 16384;

/// A static-parallelism engine instance.
///
/// Holds `Arc`-shared spec handles: every run (and its `ClusterSim` /
/// `Roofline`) borrows the same allocations instead of deep-cloning
/// the cluster and model per simulation. `Clone` is as cheap (a run
/// keeps its own handle, so it can outlive the engine borrow).
#[derive(Debug, Clone)]
pub struct VllmEngine {
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    cfg: ParallelConfig,
    policy: SchedulingPolicy,
    plan: MemoryPlan,
}

/// A submitted-but-not-yet-integrated prefill batch.
#[derive(Debug, Clone)]
struct InflightPrefill {
    join: TaskHandle,
    admitted: Vec<Vec<(u64, usize)>>,
}

/// Sequence being chunk-prefilled (chunked policy only).
#[derive(Debug, Clone, Copy)]
struct Prefilling {
    id: u64,
    prompt: usize,
    done: usize,
}

impl VllmEngine {
    /// Validate the configuration against the cluster and build the
    /// engine. Accepts owned specs or `Arc` handles (sweeps share one
    /// allocation across all candidates).
    pub fn new(
        cluster: impl Into<Arc<ClusterSpec>>,
        model: impl Into<Arc<ModelConfig>>,
        cfg: ParallelConfig,
        policy: SchedulingPolicy,
    ) -> Result<Self, FitError> {
        let (cluster, model) = (cluster.into(), model.into());
        if cfg.num_gpus() != cluster.num_gpus {
            return Err(FitError::NotEnoughGpus {
                need: cfg.num_gpus(),
                have: cluster.num_gpus,
            });
        }
        let plan = MemoryPlan::new(&model, &cluster, cfg)?;
        Ok(VllmEngine {
            cluster,
            model,
            cfg,
            policy,
            plan,
        })
    }

    /// Configuration label.
    pub fn label(&self) -> String {
        self.cfg.to_string()
    }

    /// Process `requests` to completion, returning the run report.
    pub fn run(&self, requests: &[Request]) -> EngineReport {
        self.run_impl(requests, false).0
    }

    /// [`VllmEngine::run`] with span recording on
    /// ([`ClusterSim::with_trace`]), additionally returning the
    /// per-category busy-time summary. The report itself is identical
    /// to `run`'s — tracing only observes.
    pub fn run_traced(&self, requests: &[Request]) -> (EngineReport, TraceSummary) {
        self.run_impl(requests, true)
    }

    fn run_impl(&self, requests: &[Request], traced: bool) -> (EngineReport, TraceSummary) {
        assert_arrivals_sorted(requests);
        let mut st = RunState::new(self.clone(), traced);
        st.reserve(requests.len());
        for req in requests {
            st.push(*req);
        }
        st.finish_traced()
    }
}

impl OnlineEngine for VllmEngine {
    fn label(&self) -> String {
        VllmEngine::label(self)
    }

    fn begin(&self) -> Box<dyn EngineRun> {
        let eng = self.clone();
        Deferred::boxed(move || RunState::new(eng.clone(), false))
    }

    fn run(&self, requests: &[Request]) -> EngineReport {
        VllmEngine::run(self, requests)
    }

    fn run_traced(&self, requests: &[Request]) -> (EngineReport, TraceSummary) {
        VllmEngine::run_traced(self, requests)
    }

    fn service_rates(&self, avg_in: usize, avg_out: usize) -> ServiceRates {
        let tm = seesaw_roofline::ThroughputModel::new(Roofline::new(
            Arc::clone(&self.cluster),
            Arc::clone(&self.model),
        ));
        ServiceRates {
            prefill_tokens_per_sec: tm.prefill_tokens_per_sec(self.cfg, avg_in.max(1), 4),
            decode_tokens_per_sec: tm
                .decode_seq_steps_per_sec_max_batch(self.cfg, avg_in + avg_out / 2)
                .expect("config validated at construction"),
        }
    }
}

/// Where a paused run resumes. Each policy's loop is a small state
/// machine over these; every stage either runs to its end or pauses
/// at a gate *before* its first side effect, so re-entering a stage
/// is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Loop head: the termination test (chunked: admission).
    Top,
    /// One admission round of the pipelined prefill.
    Prefill,
    /// After prefill: the termination test, then decode.
    AfterPrefill,
    /// Decode-prioritized: decode the batch to completion.
    Decode,
    /// Chunked: the termination test, then a mixed or decode round.
    Check,
    /// Chunked: nothing decoded; idle if the head is in the future.
    NoDecode,
    /// Nothing runnable: idle until the head request arrives.
    Idle,
}

#[derive(Clone)]
struct RunState {
    eng: VllmEngine,
    cs: ClusterSim,
    rl: Roofline,
    replicas: Vec<Replica>,
    waiting: VecDeque<Request>,
    meta: RequestMap,
    prefilling: Vec<VecDeque<Prefilling>>,
    completed: usize,
    prefill_wall: f64,
    decode_wall: f64,
    mixed_wall: f64,
    rec: TimingRecorder,
    /// Pushed requests and their token totals (for the run stats).
    pushed: (usize, u64, u64),
    /// Latest push arrival or advance time (see [`EngineRun`]).
    horizon: f64,
    /// No more pushes: every gate opens.
    closed: bool,
    /// The loop has terminated.
    done: bool,
    stage: Stage,
    /// Whether the current iteration prefilled (or decoded, under
    /// decode-prioritized scheduling).
    progressed: bool,
    /// Prefill batches in flight (at most two).
    outstanding: VecDeque<InflightPrefill>,
    /// Chunked policy: mixed rounds in flight (at most two).
    mixed: VecDeque<TaskHandle>,
    round: usize,
    progress: ProgressTracker,
    /// Reusable decode/mixed pass buffers.
    pass_bufs: PassBuffers,
}

impl RunState {
    fn new(eng: VllmEngine, traced: bool) -> Self {
        let cs = if traced {
            ClusterSim::with_trace(Arc::clone(&eng.cluster))
        } else {
            ClusterSim::new(Arc::clone(&eng.cluster))
        };
        let rl = Roofline::new(Arc::clone(&eng.cluster), Arc::clone(&eng.model));
        let replicas = (0..eng.cfg.dp)
            .map(|d| Replica::new(d, eng.plan.kv_tokens_per_replica, eng.cfg.pp))
            .collect();
        let dp = eng.cfg.dp;
        RunState {
            eng,
            cs,
            rl,
            replicas,
            waiting: VecDeque::new(),
            meta: RequestMap::new(&[]),
            prefilling: vec![VecDeque::new(); dp],
            completed: 0,
            prefill_wall: 0.0,
            decode_wall: 0.0,
            mixed_wall: 0.0,
            rec: TimingRecorder::new(),
            pushed: (0, 0, 0),
            horizon: f64::NEG_INFINITY,
            closed: false,
            done: false,
            stage: Stage::Top,
            progressed: false,
            outstanding: VecDeque::new(),
            mixed: VecDeque::new(),
            round: 0,
            progress: ProgressTracker::default(),
            pass_bufs: PassBuffers::default(),
        }
    }

    fn reserve(&mut self, n: usize) {
        self.waiting.reserve(n);
        self.rec.reserve(n);
    }

    /// Run the policy's loop until it terminates or pauses at a gate.
    fn resume(&mut self) {
        let policy = self.eng.policy;
        while !self.done {
            let moved = match policy {
                SchedulingPolicy::PrefillPrioritized => self.step_prefill_prioritized(),
                SchedulingPolicy::DecodePrioritized => self.step_decode_prioritized(),
                SchedulingPolicy::ChunkedPrefill { chunk_tokens } => {
                    self.step_chunked(chunk_tokens)
                }
            };
            if !moved {
                break;
            }
        }
    }

    /// Gate for a decision that reads arrivals against the clock:
    /// every request that can have arrived by now has been pushed.
    fn may_decide(&self) -> bool {
        self.closed || self.cs.now().as_secs() < self.horizon
    }

    /// Termination test: `None` while it depends on pushes to come.
    fn all_done(&self) -> Option<bool> {
        if self.replicas.iter().any(|r| !r.running.is_empty())
            || self.prefilling.iter().any(|p| !p.is_empty())
            || !self.waiting.is_empty()
        {
            Some(false)
        } else if self.closed {
            Some(true)
        } else {
            None
        }
    }

    /// Idle the cluster until the head request arrives. Only called
    /// when no admission, prefill, or decode progress is possible —
    /// which, for requests available *now*, would have panicked in
    /// `admit` instead — so the head arrival must lie in the future.
    fn wait_for_next_arrival(&mut self) {
        let t = self
            .waiting
            .front()
            .expect("an idle, unfinished engine must have pending arrivals")
            .arrival_s;
        // Drain any stragglers (e.g. in-flight mixed rounds) first;
        // if they carried the clock past the arrival, no idle gap
        // exists and admission can proceed immediately.
        self.cs.sim.run_until_idle();
        self.cs.sim.advance_to(SimTime::from_secs(t));
    }

    /// Admit waiting requests into replica KV caches (full
    /// `input+output` reservation), spreading across replicas.
    /// Returns per-replica admitted `(id, prompt_len)` lists.
    fn admit(&mut self, token_budget: usize) -> Vec<Vec<(u64, usize)>> {
        let dp = self.eng.cfg.dp;
        let mut admitted: Vec<Vec<(u64, usize)>> = vec![Vec::new(); dp];
        let mut budget = vec![token_budget; dp];
        'outer: while let Some(&req) = self.waiting.front() {
            // Online serving: a request is only schedulable once its
            // arrival time has passed in simulated time. (Offline
            // workloads carry arrival_s == 0.0 and never break here.)
            if req.arrival_s > self.cs.now().as_secs() {
                break 'outer;
            }
            let reserve = req.total_len();
            // Pick the replica with the most free KV that can take it.
            let mut best: Option<usize> = None;
            for (d, rep) in self.replicas.iter().enumerate() {
                if budget[d] >= req.input_len && rep.kv.can_fit(reserve) {
                    let better = match best {
                        None => true,
                        Some(b) => rep.kv.free_tokens() > self.replicas[b].kv.free_tokens(),
                    };
                    if better {
                        best = Some(d);
                    }
                }
            }
            match best {
                Some(d) => {
                    self.waiting.pop_front();
                    self.replicas[d]
                        .kv
                        .allocate(req.id, reserve)
                        .expect("can_fit checked");
                    admitted[d].push((req.id, req.input_len));
                    budget[d] -= req.input_len;
                }
                None => {
                    // No replica can take the head request right now.
                    if self.replicas.iter().all(|r| r.running.is_empty())
                        && self.prefilling.iter().all(|p| p.is_empty())
                        && admitted.iter().all(|a| a.is_empty())
                    {
                        let cap = self.replicas[0].kv.capacity_tokens();
                        panic!(
                            "request {} needs {} KV tokens but replica capacity is {cap}",
                            req.id, reserve
                        );
                    }
                    break 'outer;
                }
            }
        }
        admitted
    }

    /// Submit a whole-prompt prefill pass for admitted batches,
    /// returning the in-flight record (join handle + members). The
    /// caller decides when to wait on it, so consecutive batches keep
    /// the pipeline full.
    fn submit_prefill(&mut self, admitted: Vec<Vec<(u64, usize)>>) -> Option<InflightPrefill> {
        if admitted.iter().all(|a| a.is_empty()) {
            return None;
        }
        let mut joins: Vec<TaskHandle> = Vec::new();
        for (d, batch) in admitted.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let parts =
                submit_prefill_batch(&mut self.cs, &self.rl, self.eng.cfg, &mut self.replicas[d], batch);
            for (h, ids) in parts {
                // The slot's pass exit is where its sequences' first
                // tokens appear (and where single-token requests
                // finish outright).
                for &id in &ids {
                    self.rec.first_token(id, h);
                    if self.meta.req(id).output_len <= 1 {
                        self.rec.completed(id, h);
                    }
                }
                joins.push(h);
            }
        }
        let join = self.cs.join(&joins);
        Some(InflightPrefill { join, admitted })
    }

    /// Wait for one in-flight prefill batch and move its sequences to
    /// `running` (their first token is produced by the prefill pass).
    fn integrate_prefill(&mut self, batch: InflightPrefill) {
        let t0 = self.cs.now();
        self.cs.sim.run_until(batch.join);
        self.prefill_wall += self.cs.now() - t0;
        for (d, members) in batch.admitted.into_iter().enumerate() {
            for (id, prompt) in members {
                let req = self.meta.req(id);
                if req.output_len <= 1 {
                    self.replicas[d].kv.free(id).expect("was allocated");
                    self.completed += 1;
                } else {
                    self.replicas[d].running.push(RunSeq {
                        id,
                        ctx: prompt + 1,
                        remaining: req.output_len - 1,
                    });
                }
            }
        }
    }

    /// One admission round of the pipelined prefill: admit + submit
    /// with up to two batches in flight, so pipeline stages stay busy
    /// across batch boundaries (matching vLLM's virtual-engine
    /// behaviour under PP). Once nothing is admissible, integrates the
    /// stragglers and moves on to `next`. Returns `false` when paused
    /// at the admission gate.
    fn prefill_round(&mut self, next: Stage) -> bool {
        if !self.may_decide() {
            return false;
        }
        let admitted = self.admit(MAX_PREFILL_TOKENS);
        match self.submit_prefill(admitted) {
            Some(batch) => {
                self.progressed = true;
                self.outstanding.push_back(batch);
                if self.outstanding.len() >= 2 {
                    let oldest = self.outstanding.pop_front().expect("non-empty");
                    self.integrate_prefill(oldest);
                }
            }
            None => {
                while let Some(batch) = self.outstanding.pop_front() {
                    self.integrate_prefill(batch);
                }
                self.stage = next;
            }
        }
        true
    }

    /// One decode burst across replicas (each replica uses its own
    /// safe burst length). Returns whether any work ran.
    fn do_decode_burst(&mut self) -> bool {
        let mut submitted: Vec<(usize, usize, TaskHandle)> = Vec::new();
        for d in 0..self.replicas.len() {
            let rounds = self.replicas[d].max_burst(BURST_CAP);
            if rounds == 0 {
                continue;
            }
            if let Some(h) = submit_decode_burst(
                &mut self.cs,
                &self.rl,
                self.eng.cfg,
                &mut self.replicas[d],
                rounds,
                &mut self.pass_bufs,
            ) {
                submitted.push((d, rounds, h));
            }
        }
        if submitted.is_empty() {
            return false;
        }
        let t0 = self.cs.now();
        let join = self.cs.join(&submitted.iter().map(|&(_, _, h)| h).collect::<Vec<_>>());
        self.cs.sim.run_until(join);
        self.decode_wall += self.cs.now() - t0;
        for (d, rounds, h) in submitted {
            let finished = self.replicas[d].advance_decode(rounds);
            self.completed += finished.len();
            // The burst is capped at the minimum remaining count, so
            // retirees emit their last token in its final round.
            for seq in finished {
                self.rec.completed(seq.id, h);
            }
        }
        true
    }

    /// Prefill eagerly, then one decode burst; idle when neither ran.
    fn step_prefill_prioritized(&mut self) -> bool {
        match self.stage {
            Stage::Top | Stage::AfterPrefill => match self.all_done() {
                None => return false,
                Some(true) => self.done = true,
                Some(false) if self.stage == Stage::Top => {
                    self.progressed = false;
                    self.stage = Stage::Prefill;
                }
                Some(false) => {
                    let decoded = self.do_decode_burst();
                    // Nothing running and nothing admissible: the only
                    // remaining work is a future arrival.
                    self.stage = if self.progressed || decoded {
                        Stage::Top
                    } else {
                        Stage::Idle
                    };
                }
            },
            Stage::Prefill => return self.prefill_round(Stage::AfterPrefill),
            Stage::Idle => {
                self.wait_for_next_arrival();
                self.stage = Stage::Top;
            }
            other => unreachable!("prefill-prioritized run in stage {other:?}"),
        }
        true
    }

    /// Fill the batch once, then decode it to completion.
    fn step_decode_prioritized(&mut self) -> bool {
        match self.stage {
            Stage::Top => match self.all_done() {
                None => return false,
                Some(true) => self.done = true,
                Some(false) => {
                    self.progressed = false;
                    self.stage = Stage::Prefill;
                }
            },
            Stage::Prefill => return self.prefill_round(Stage::Decode),
            Stage::Decode => {
                if self.replicas.iter().any(|r| !r.running.is_empty()) {
                    self.do_decode_burst();
                    self.progressed = true;
                } else {
                    self.stage = if self.progressed {
                        Stage::Top
                    } else {
                        Stage::Idle
                    };
                }
            }
            Stage::Idle => {
                self.wait_for_next_arrival();
                self.stage = Stage::Top;
            }
            other => unreachable!("decode-prioritized run in stage {other:?}"),
        }
        true
    }

    /// Sarathi-style chunked prefill. Two mixed rounds stay in flight
    /// so pipeline stages remain busy across round boundaries. Engine
    /// state (graduations, decode advances, admissions) evolves
    /// deterministically, so bookkeeping is applied at submission; the
    /// simulator is only consulted for wall-clock time.
    fn step_chunked(&mut self, chunk_tokens: usize) -> bool {
        assert!(chunk_tokens > 0, "chunk size must be positive");
        match self.stage {
            Stage::Top => {
                // Admit into the prefilling queues.
                if !self.may_decide() {
                    return false;
                }
                let admitted = self.admit(usize::MAX);
                for (d, batch) in admitted.into_iter().enumerate() {
                    for (id, prompt) in batch {
                        self.prefilling[d].push_back(Prefilling {
                            id,
                            prompt,
                            done: 0,
                        });
                    }
                }
                self.stage = Stage::Check;
            }
            Stage::Check => match self.all_done() {
                None => return false,
                Some(true) => {
                    self.drain_mixed();
                    self.done = true;
                }
                Some(false) if self.prefilling.iter().any(|p| !p.is_empty()) => {
                    self.round += 1;
                    if let Some(join) = self.submit_mixed_round_step(chunk_tokens, self.round) {
                        self.mixed.push_back(join);
                        if self.mixed.len() >= 2 {
                            let oldest = self.mixed.pop_front().expect("non-empty");
                            self.await_mixed(oldest);
                        }
                    }
                    self.stage = Stage::Top;
                }
                Some(false) => {
                    // Drain in-flight mixed rounds before pure decode.
                    self.drain_mixed();
                    self.stage = if self.do_decode_burst() {
                        Stage::Top
                    } else {
                        Stage::NoDecode
                    };
                }
            },
            Stage::NoDecode => {
                // Nothing running and nothing chunking, but waiting
                // non-empty: either the drain above just made the head
                // request admissible, or its arrival is still in the
                // future and the cluster idles until it.
                // (An empty queue goes back to the top either way: the
                // termination test there pauses while the stream is
                // open.)
                if self
                    .waiting
                    .front()
                    .is_some_and(|r| r.arrival_s > self.cs.now().as_secs())
                {
                    self.wait_for_next_arrival();
                }
                self.stage = Stage::Top;
            }
            other => unreachable!("chunked run in stage {other:?}"),
        }
        true
    }

    fn await_mixed(&mut self, join: TaskHandle) {
        let t0 = self.cs.now();
        self.cs.sim.run_until(join);
        self.mixed_wall += self.cs.now() - t0;
    }

    fn drain_mixed(&mut self) {
        while let Some(join) = self.mixed.pop_front() {
            self.await_mixed(join);
        }
    }

    /// Submit one mixed round per replica (every running sequence
    /// decodes one token while up to `chunk_tokens` prompt tokens
    /// prefill) and apply its deterministic state updates immediately.
    /// Returns the round's join handle.
    fn submit_mixed_round_step(&mut self, chunk_tokens: usize, round: usize) -> Option<TaskHandle> {
        let mut handles = Vec::new();
        let mut graduated: Vec<(usize, u64, usize)> = Vec::new();
        let mut decoded: Vec<usize> = Vec::new();
        for d in 0..self.replicas.len() {
            // Build this replica's chunk from the head of its queue.
            let mut budget = chunk_tokens;
            let mut chunk = BatchShape::empty();
            while budget > 0 {
                let Some(front) = self.prefilling[d].front_mut() else {
                    break;
                };
                let take = budget.min(front.prompt - front.done);
                chunk = chunk.merge(&BatchShape::prefill_chunk(take, front.done));
                front.done += take;
                budget -= take;
                if front.done == front.prompt {
                    let p = self.prefilling[d].pop_front().expect("front exists");
                    graduated.push((d, p.id, p.prompt));
                }
            }
            let had_running = !self.replicas[d].running.is_empty();
            if chunk.is_empty() && !had_running {
                continue;
            }
            if let Some(h) = submit_mixed_round(
                &mut self.cs,
                &self.rl,
                self.eng.cfg,
                &mut self.replicas[d],
                &chunk,
                round,
                &mut self.pass_bufs,
            ) {
                handles.push(h);
                if had_running {
                    decoded.push(d);
                }
            }
        }
        if handles.is_empty() {
            return None;
        }
        let join = self.cs.join(&handles);
        for d in decoded {
            let finished = self.replicas[d].advance_decode(1);
            self.completed += finished.len();
            for seq in finished {
                self.rec.completed(seq.id, join);
            }
        }
        for (d, id, prompt) in graduated {
            let req = self.meta.req(id);
            // The round that finishes a prompt's last chunk emits its
            // first token.
            self.rec.first_token(id, join);
            if req.output_len <= 1 {
                self.replicas[d].kv.free(id).expect("was allocated");
                self.completed += 1;
                self.rec.completed(id, join);
            } else {
                self.replicas[d].running.push(RunSeq {
                    id,
                    ctx: prompt + 1,
                    remaining: req.output_len - 1,
                });
            }
        }
        Some(join)
    }

    fn finish_traced(mut self) -> (EngineReport, TraceSummary) {
        self.closed = true;
        self.resume();
        let end = self.cs.sim.run_until_idle();
        let (requests, input_tokens, output_tokens) = self.pushed;
        assert_eq!(self.completed, requests, "all requests must finish");
        let trace_summary = self.cs.sim.trace().summary();
        let gpu_utilization = self.cs.mean_compute_utilization();
        let timeline = std::mem::take(&mut self.rec).resolve(&self.cs.sim, &self.meta);
        let latency = LatencyStats::from_timeline(&timeline);
        let report = EngineReport {
            label: self.eng.label(),
            stats: RunStats::from_totals(requests, input_tokens, output_tokens, end.as_secs()),
            prefill_wall_s: self.prefill_wall,
            decode_wall_s: self.decode_wall,
            mixed_wall_s: self.mixed_wall,
            reshard_wall_s: 0.0,
            transitions: 0,
            swap_out_bytes: 0,
            swap_in_bytes: 0,
            phases: Vec::new(),
            gpu_utilization,
            timeline,
            latency,
        };
        (report, trace_summary)
    }
}

impl EngineRun for RunState {
    fn push(&mut self, req: Request) {
        assert!(!self.closed, "push into a finished run");
        assert!(
            req.arrival_s >= self.horizon,
            "push at {} precedes the run's horizon {}",
            req.arrival_s,
            self.horizon
        );
        self.horizon = req.arrival_s;
        self.meta.insert(req);
        self.waiting.push_back(req);
        self.pushed.0 += 1;
        self.pushed.1 += req.input_len as u64;
        self.pushed.2 += req.output_len as u64;
    }

    fn advance_to(&mut self, t: f64) {
        self.horizon = self.horizon.max(t);
        self.resume();
    }

    fn progress_at(&mut self, t: f64) -> Progress {
        self.advance_to(t);
        self.progress.count(&self.rec, &self.cs.sim, t)
    }

    fn drain_unfinished(&self) -> Vec<Unfinished> {
        let mut fork = self.clone();
        fork.closed = true;
        fork.resume();
        fork.cs.sim.run_until_idle();
        fork.progress.unfinished(&fork.rec, &fork.cs.sim)
    }

    fn finish(self: Box<Self>) -> EngineReport {
        self.finish_traced().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_model::presets;
    use seesaw_workload::WorkloadGen;

    fn small_requests(n: usize) -> Vec<Request> {
        WorkloadGen::constant(512, 32).generate(n)
    }

    #[test]
    fn completes_all_requests() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        let reqs = small_requests(32);
        let report = eng.run(&reqs);
        assert_eq!(report.stats.requests, 32);
        assert!(report.throughput_rps() > 0.0);
        assert!(report.prefill_wall_s > 0.0);
        assert!(report.decode_wall_s > 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_fills_buckets() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        let reqs = small_requests(12);
        let (report, summary) = eng.run_traced(&reqs);
        assert_eq!(report, eng.run(&reqs), "tracing only observes");
        assert!(summary.compute > 0.0, "forward passes land in compute");
        assert!(summary.total() > 0.0);
    }

    #[test]
    fn decode_prioritized_also_completes() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::tp(4),
            SchedulingPolicy::DecodePrioritized,
        )
        .unwrap();
        let report = eng.run(&small_requests(24));
        assert_eq!(report.stats.requests, 24);
    }

    #[test]
    fn chunked_prefill_completes_and_uses_mixed_batches() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::ChunkedPrefill { chunk_tokens: 512 },
        )
        .unwrap();
        let report = eng.run(&small_requests(24));
        assert_eq!(report.stats.requests, 24);
        assert!(report.mixed_wall_s > 0.0, "chunked runs mixed batches");
    }

    #[test]
    fn single_token_outputs_finish_at_prefill() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        let reqs: Vec<Request> = (0..8).map(|i| Request::new(i, 800, 1)).collect();
        let report = eng.run(&reqs);
        assert_eq!(report.stats.requests, 8);
        assert_eq!(report.decode_wall_s, 0.0);
    }

    #[test]
    fn dp_replicas_share_load() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(2, 2, 1),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        let report = eng.run(&small_requests(32));
        assert_eq!(report.stats.requests, 32);
    }

    #[test]
    fn rejects_config_not_matching_cluster() {
        let err = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::tp(8),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap_err();
        assert!(matches!(err, FitError::NotEnoughGpus { .. }));
    }

    #[test]
    #[should_panic(expected = "KV tokens")]
    fn oversized_request_panics_with_context() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        // One request larger than the whole KV space.
        let reqs = vec![Request::new(0, 2_000_000, 10)];
        eng.run(&reqs);
    }

    #[test]
    fn throughput_improves_with_more_requests_amortizing_ramp() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        let small = eng.run(&small_requests(8));
        let large = eng.run(&small_requests(64));
        assert!(large.throughput_rps() >= small.throughput_rps() * 0.9);
    }
}
