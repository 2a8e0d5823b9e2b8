//! Spatial prefill/decode disaggregation (DistServe/Mooncake-style),
//! used for the paper's §3.2 analysis and Figure 4.
//!
//! The node is split into a prefill instance of `n_p` GPUs and a
//! decode instance of `n_d = N - n_p` GPUs, each with its own static
//! parallelization. Prefilled KV flows from prefill to decode GPUs.
//! In steady state the two instances form a two-stage pipeline, so
//! sustained throughput is the *minimum* of the two instance rates —
//! exactly the mismatch argument of Figure 4. Instance rates are
//! measured with the analytic model at each instance's best feasible
//! configuration; KV transfer between instances rides the host links
//! and is accounted as a decode-side overhead.

use crate::autotune;
use crate::online::{EngineRun, OnlineEngine, Progress, ServiceRates, Unfinished};
use crate::report::EngineReport;
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_parallel::{FitError, ParallelConfig};
use seesaw_roofline::{Roofline, ThroughputModel};
use seesaw_workload::{LatencyStats, Request, RequestTiming, RunStats, SloSpec};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// One evaluated disaggregation split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggReport {
    /// GPUs assigned to prefill.
    pub prefill_gpus: usize,
    /// GPUs assigned to decode.
    pub decode_gpus: usize,
    /// Best prefill-instance configuration.
    pub prefill_config: ParallelConfig,
    /// Best decode-instance configuration.
    pub decode_config: ParallelConfig,
    /// Prefill instance rate, requests/s.
    pub prefill_rps: f64,
    /// Decode instance rate, requests/s (including inter-instance KV
    /// transfer overhead).
    pub decode_rps: f64,
    /// Analytic steady-state TTFT estimate: one prompt's prefill time
    /// plus the prefill→decode KV handoff, seconds. (Excludes
    /// queueing — an unloaded-system floor, the disaggregated
    /// counterpart of the simulated engines' measured TTFT.)
    pub est_ttft_s: f64,
    /// Analytic steady-state time-per-output-token estimate, seconds.
    pub est_tpot_s: f64,
}

impl DisaggReport {
    /// Steady-state pipeline throughput: the slower stage.
    pub fn combined_rps(&self) -> f64 {
        self.prefill_rps.min(self.decode_rps)
    }

    /// Ratio of the faster stage to the slower (the "mismatch" the
    /// paper highlights; 1.0 = perfectly balanced).
    pub fn mismatch(&self) -> f64 {
        let hi = self.prefill_rps.max(self.decode_rps);
        hi / self.combined_rps()
    }

    /// Whether the analytic latency floor meets `slo`. A split
    /// failing this misses the SLO at *any* offered load; passing it
    /// only says the unloaded system complies.
    pub fn meets_slo_floor(&self, slo: SloSpec) -> bool {
        self.est_ttft_s <= slo.ttft_s && self.est_tpot_s <= slo.tpot_s
    }
}

/// The disaggregated-deployment analyzer. `Clone` shares the spec
/// handles and the split cache.
#[derive(Debug, Clone)]
pub struct DisaggEngine {
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    /// Last [`DisaggEngine::best_split`] result keyed by its
    /// `(avg_in, avg_out)` — the split search walks every GPU split ×
    /// feasible config through the roofline, and fleet runs ask for
    /// the same workload's split once per replica plus once for
    /// service rates (`Mutex`, not `RefCell`: engines run `&self`
    /// across sweep threads).
    split_cache: Arc<Mutex<Option<((usize, usize), DisaggReport)>>>,
}

impl DisaggEngine {
    /// Build the analyzer for a cluster/model pair (owned specs or
    /// `Arc` handles).
    pub fn new(
        cluster: impl Into<Arc<ClusterSpec>>,
        model: impl Into<Arc<ModelConfig>>,
    ) -> Self {
        DisaggEngine {
            cluster: cluster.into(),
            model: model.into(),
            split_cache: Arc::new(Mutex::new(None)),
        }
    }

    /// Evaluate a specific split (`n_p` prefill GPUs, rest decode) for
    /// a workload of `avg_in`/`avg_out` tokens.
    pub fn evaluate_split(
        &self,
        n_p: usize,
        avg_in: usize,
        avg_out: usize,
    ) -> Result<DisaggReport, FitError> {
        let n = self.cluster.num_gpus;
        if n_p == 0 || n_p >= n {
            return Err(FitError::Invalid(format!(
                "split {n_p}/{} leaves an empty instance",
                n - n_p
            )));
        }
        let n_d = n - n_p;
        let pre_cluster = self.cluster.subset(n_p);
        let dec_cluster = self.cluster.subset(n_d);

        // Best config per instance: prefill instance optimizes prompt
        // rate, decode instance optimizes generation rate.
        let (pcfg, _) = best_prefill_config(&pre_cluster, &self.model, avg_in)?;
        let (dcfg, _) = best_decode_config(&dec_cluster, &self.model, avg_in + avg_out / 2)?;

        let tm_p = ThroughputModel::new(Roofline::new(pre_cluster, self.model.clone()));
        let prefill_tok_rate = tm_p.prefill_tokens_per_sec(pcfg, avg_in.max(1), 4);
        let prefill_rps = prefill_tok_rate / avg_in as f64;

        let tm_d = ThroughputModel::new(Roofline::new(dec_cluster.clone(), self.model.clone()));
        let step_rate = tm_d.decode_seq_steps_per_sec_max_batch(dcfg, avg_in + avg_out / 2)?;
        // KV must cross from prefill to decode GPUs: one D2H + one H2D
        // of the prompt KV per request, spread across the decode
        // instance's host links.
        let kv_bytes = self.model.kv_bytes_per_token() as f64 * avg_in as f64;
        let xfer = 2.0 * dec_cluster.host_link.pinned_copy_time(kv_bytes) / n_d as f64;
        let t_dec = avg_out as f64 / step_rate + xfer;
        let decode_rps = 1.0 / t_dec;

        Ok(DisaggReport {
            prefill_gpus: n_p,
            decode_gpus: n_d,
            prefill_config: pcfg,
            decode_config: dcfg,
            prefill_rps,
            decode_rps,
            est_ttft_s: avg_in as f64 / prefill_tok_rate + xfer,
            est_tpot_s: 1.0 / step_rate,
        })
    }

    /// Evaluate every feasible split, best-combined first. Splits
    /// where either instance cannot fit the model are skipped — the
    /// Figure 4 constraint.
    pub fn evaluate_all_splits(&self, avg_in: usize, avg_out: usize) -> Vec<DisaggReport> {
        let mut out: Vec<DisaggReport> = (1..self.cluster.num_gpus)
            .filter_map(|n_p| self.evaluate_split(n_p, avg_in, avg_out).ok())
            .collect();
        out.sort_by(|a, b| {
            b.combined_rps()
                .partial_cmp(&a.combined_rps())
                .expect("finite rates")
        });
        out
    }

    /// The best feasible split for a workload averaging
    /// `avg_in`/`avg_out` tokens, or why no split fits. Memoized on
    /// the workload averages (pure function of them), so a fleet
    /// cell's N replica runs + service-rate estimate search once.
    pub fn best_split(&self, avg_in: usize, avg_out: usize) -> Result<DisaggReport, FitError> {
        if let Some((key, split)) = &*self.split_cache.lock().expect("split cache poisoned") {
            if *key == (avg_in, avg_out) {
                return Ok(split.clone());
            }
        }
        let split = self
            .evaluate_all_splits(avg_in, avg_out)
            .into_iter()
            .next()
            .ok_or_else(|| {
                FitError::Invalid(format!(
                    "no feasible disagg split of {} GPUs for this model",
                    self.cluster.num_gpus
                ))
            })?;
        *self.split_cache.lock().expect("split cache poisoned") =
            Some(((avg_in, avg_out), split.clone()));
        Ok(split)
    }

    /// Serve an arrival-sorted request stream through the best
    /// feasible split, replayed as a two-stage tandem queue (the
    /// online counterpart of the simulated engines' `run`).
    ///
    /// The analytic model is the same one [`DisaggEngine::evaluate_split`]
    /// rates instances with: a request occupies the prefill instance
    /// for `input / prefill_token_rate` seconds (FIFO), its KV then
    /// crosses the host links (`xfer`), and it occupies the decode
    /// instance for `xfer + output / step_rate` seconds — so sustained
    /// throughput converges to `combined_rps` and per-token latency to
    /// `est_tpot_s`, while queueing under load emerges from the two
    /// FIFO stages. Deterministic; panics when no split is feasible
    /// (the disaggregation counterpart of an engine that cannot fit
    /// the model).
    ///
    /// The split is sized from the mean lengths of the *whole* stream,
    /// so this engine is not causal: a prefix of the stream can run
    /// under a different split than the full stream. Its resumable
    /// run ([`OnlineEngine::begin`]) answers state queries by prefix
    /// evaluation instead — see [`crate::stepper`].
    pub fn run(&self, requests: &[Request]) -> EngineReport {
        crate::driver::assert_arrivals_sorted(requests);
        let mut run = DisaggRun::new(self.clone());
        for req in requests {
            run.push(*req);
        }
        Box::new(run).finish()
    }
}

/// The tandem queue evaluated over a stream prefix under one split.
#[derive(Debug, Clone)]
struct Tandem {
    /// Mean lengths the split was sized for.
    key: (usize, usize),
    label: String,
    split: DisaggReport,
    prefill_tok_rate: f64,
    step_rate: f64,
    xfer: f64,
    prefill_free: f64,
    decode_free: f64,
    prefill_busy: f64,
    decode_busy: f64,
    kv_bytes_total: u64,
    /// Per-request timings in arrival order. First-token and
    /// completion times are nondecreasing along it (both stages are
    /// FIFO), so counts at `t` are binary searches.
    timeline: Vec<RequestTiming>,
}

/// The disaggregated engine's resumable run. State queries use
/// *prefix evaluation*: the tandem queue over everything pushed so
/// far, with the split sized from that prefix's mean lengths —
/// exactly what a replay of the prefix computes. While the rounded
/// means stay put (they settle quickly) each push extends the queue
/// in O(1); a shift re-evaluates the prefix under the new split.
#[derive(Debug, Clone)]
struct DisaggRun {
    eng: DisaggEngine,
    pushed: Vec<Request>,
    sums: (u64, u64),
    horizon: f64,
    last_query: f64,
    tandem: Option<Tandem>,
}

impl DisaggRun {
    fn new(eng: DisaggEngine) -> Self {
        DisaggRun {
            eng,
            pushed: Vec::new(),
            sums: (0, 0),
            horizon: f64::NEG_INFINITY,
            last_query: f64::NEG_INFINITY,
            tandem: None,
        }
    }

    /// [`crate::online::mean_lengths`] of the pushed prefix, from
    /// running sums.
    fn key(&self) -> (usize, usize) {
        if self.pushed.is_empty() {
            return (1, 1);
        }
        let n = self.pushed.len() as f64;
        let (avg_in, avg_out) = (self.sums.0 as f64 / n, self.sums.1 as f64 / n);
        (
            (avg_in.round() as usize).max(1),
            (avg_out.round() as usize).max(1),
        )
    }

    /// Bring the tandem queue up to date with the pushed prefix.
    fn evaluate(&mut self) -> &Tandem {
        let key = self.key();
        if self.tandem.as_ref().is_none_or(|t| t.key != key) {
            let (avg_in, avg_out) = key;
            let split = self
                .eng
                .best_split(avg_in, avg_out)
                .unwrap_or_else(|e| panic!("disagg run impossible: {e:?}"));
            // Recover the per-token rates behind the split's rps figures.
            let prefill_tok_rate = split.prefill_rps * avg_in as f64;
            let step_rate = 1.0 / split.est_tpot_s;
            let xfer = (split.est_ttft_s - avg_in as f64 / prefill_tok_rate).max(0.0);
            self.tandem = Some(Tandem {
                key,
                label: format!(
                    "disagg {}p{}+{}d{}",
                    split.prefill_gpus,
                    split.prefill_config,
                    split.decode_gpus,
                    split.decode_config
                ),
                split,
                prefill_tok_rate,
                step_rate,
                xfer,
                prefill_free: 0.0,
                decode_free: 0.0,
                prefill_busy: 0.0,
                decode_busy: 0.0,
                kv_bytes_total: 0,
                timeline: Vec::with_capacity(self.pushed.len()),
            });
        }
        let kv_bytes_per_token = self.eng.model.kv_bytes_per_token();
        let q = self.tandem.as_mut().expect("tandem just built");
        for r in &self.pushed[q.timeline.len()..] {
            let t_p = r.input_len as f64 / q.prefill_tok_rate;
            let p_start = r.arrival_s.max(q.prefill_free);
            let p_done = p_start + t_p;
            q.prefill_free = p_done;
            q.prefill_busy += t_p;

            // The decode slot includes the KV handoff (exactly how
            // `decode_rps` accounts it); the first token lands one
            // decode step after the handoff completes.
            let t_d = q.xfer + r.output_len as f64 / q.step_rate;
            let d_start = p_done.max(q.decode_free);
            q.decode_free = d_start + t_d;
            q.decode_busy += t_d;
            q.kv_bytes_total += kv_bytes_per_token * r.input_len as u64;
            q.timeline.push(RequestTiming {
                id: r.id,
                arrival_s: r.arrival_s,
                first_token_s: d_start + q.xfer + 1.0 / q.step_rate,
                completion_s: d_start + t_d,
                output_len: r.output_len,
                attempts: 1,
            });
        }
        q
    }
}

impl EngineRun for DisaggRun {
    fn push(&mut self, req: Request) {
        assert!(
            req.arrival_s >= self.horizon,
            "push at {} precedes the run's horizon {}",
            req.arrival_s,
            self.horizon
        );
        self.horizon = req.arrival_s;
        self.sums.0 += req.input_len as u64;
        self.sums.1 += req.output_len as u64;
        self.pushed.push(req);
    }

    /// Closed-form: nothing to execute ahead of a query.
    fn advance_to(&mut self, t: f64) {
        self.horizon = self.horizon.max(t);
    }

    fn progress_at(&mut self, t: f64) -> Progress {
        self.advance_to(t);
        self.last_query = t;
        let q = self.evaluate();
        // A single-token request's first token and completion are the
        // same instant up to rounding; counting a completion as a
        // first token keeps `completed <= first_tokens`.
        Progress {
            first_tokens: q
                .timeline
                .partition_point(|e| e.first_token_s.min(e.completion_s) <= t),
            completed: q.timeline.partition_point(|e| e.completion_s <= t),
        }
    }

    fn drain_unfinished(&self) -> Vec<Unfinished> {
        let mut fork = self.clone();
        let t = self.last_query;
        let q = fork.evaluate();
        let from = q.timeline.partition_point(|e| e.completion_s <= t);
        q.timeline[from..]
            .iter()
            .map(|e| Unfinished {
                id: e.id,
                first_token_s: e.first_token_s,
                completion_s: e.completion_s,
            })
            .collect()
    }

    fn finish(mut self: Box<Self>) -> EngineReport {
        self.evaluate();
        let q = self.tandem.take().expect("evaluated");
        if self.pushed.is_empty() {
            return EngineReport {
                label: q.label,
                stats: RunStats::from_requests(&self.pushed, 0.0),
                prefill_wall_s: 0.0,
                decode_wall_s: 0.0,
                mixed_wall_s: 0.0,
                reshard_wall_s: 0.0,
                transitions: 0,
                swap_out_bytes: 0,
                swap_in_bytes: 0,
                phases: Vec::new(),
                gpu_utilization: 0.0,
                timeline: Vec::new(),
                latency: None,
            };
        }
        let mut timeline = q.timeline;
        timeline.sort_by_key(|t| t.id);
        let duration = timeline
            .iter()
            .map(|t| t.completion_s)
            .fold(0.0_f64, f64::max);
        let n = self.eng.cluster.num_gpus as f64;
        let gpu_utilization = if duration > 0.0 {
            (q.prefill_busy * q.split.prefill_gpus as f64
                + q.decode_busy * q.split.decode_gpus as f64)
                / (duration * n)
        } else {
            0.0
        };
        let latency = LatencyStats::from_timeline(&timeline);
        EngineReport {
            label: q.label,
            stats: RunStats::from_requests(&self.pushed, duration),
            prefill_wall_s: q.prefill_busy,
            decode_wall_s: q.decode_busy,
            mixed_wall_s: 0.0,
            reshard_wall_s: 0.0,
            transitions: 0,
            swap_out_bytes: q.kv_bytes_total,
            swap_in_bytes: q.kv_bytes_total,
            phases: Vec::new(),
            gpu_utilization: gpu_utilization.min(1.0),
            timeline,
            latency,
        }
    }
}

impl OnlineEngine for DisaggEngine {
    fn label(&self) -> String {
        "disagg(auto-split)".into()
    }

    fn begin(&self) -> Box<dyn EngineRun> {
        Box::new(DisaggRun::new(self.clone()))
    }

    fn run(&self, requests: &[Request]) -> EngineReport {
        DisaggEngine::run(self, requests)
    }

    fn service_rates(&self, avg_in: usize, avg_out: usize) -> ServiceRates {
        let split = self
            .best_split(avg_in, avg_out)
            .unwrap_or_else(|e| panic!("disagg service rates impossible: {e:?}"));
        ServiceRates {
            prefill_tokens_per_sec: split.prefill_rps * avg_in.max(1) as f64,
            decode_tokens_per_sec: split.decode_rps * avg_out.max(1) as f64,
        }
    }
}

/// Best feasible config of a sub-cluster for prefill throughput.
fn best_prefill_config(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    avg_in: usize,
) -> Result<(ParallelConfig, f64), FitError> {
    let tm = ThroughputModel::new(Roofline::new(cluster.clone(), model.clone()));
    seesaw_parallel::feasible::feasible_configs(model, cluster)
        .into_iter()
        .map(|c| (c, tm.prefill_tokens_per_sec(c, avg_in.max(1), 4)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .ok_or(FitError::Invalid("no feasible prefill config".into()))
}

/// Best feasible config of a sub-cluster for decode throughput.
fn best_decode_config(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    avg_ctx: usize,
) -> Result<(ParallelConfig, f64), FitError> {
    let tm = ThroughputModel::new(Roofline::new(cluster.clone(), model.clone()));
    seesaw_parallel::feasible::feasible_configs(model, cluster)
        .into_iter()
        .filter_map(|c| {
            tm.decode_seq_steps_per_sec_max_batch(c, avg_ctx)
                .ok()
                .map(|r| (c, r))
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .ok_or(FitError::Invalid("no feasible decode config".into()))
}

/// Decode rate of the whole (un-split) cluster — Figure 4's
/// "Decode (8 GPUs)" reference bar.
pub fn whole_cluster_decode_rps(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    avg_in: usize,
    avg_out: usize,
) -> Result<f64, FitError> {
    let (cfg, step_rate) = best_decode_config(cluster, model, avg_in + avg_out / 2)?;
    let _ = autotune::best_static_config(cluster, model, avg_in, avg_out)?; // sanity: model fits
    let _ = cfg;
    Ok(step_rate / avg_out as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_model::presets;

    /// Figure 4: 70B on 8x 40GiB admits exactly one split (4+4).
    #[test]
    fn seventy_b_admits_only_the_even_split() {
        let eng = DisaggEngine::new(ClusterSpec::a100x8_pcie(), presets::llama2_70b());
        let splits = eng.evaluate_all_splits(3000, 250);
        assert_eq!(splits.len(), 1, "only 4+4 should be feasible");
        assert_eq!(splits[0].prefill_gpus, 4);
        assert_eq!(splits[0].decode_gpus, 4);
    }

    /// Figure 4: the feasible split is mismatched, with decode as the
    /// bottleneck. (The paper measures a ~6x gap on real hardware; our
    /// analytic model reproduces the direction and a >1.2x gap — see
    /// EXPERIMENTS.md for the comparison.)
    #[test]
    fn even_split_is_mismatched_with_decode_bottleneck() {
        let eng = DisaggEngine::new(ClusterSpec::a100x8_pcie(), presets::llama2_70b());
        let r = eng.evaluate_split(4, 3000, 250).unwrap();
        assert!(
            r.prefill_rps > 1.2 * r.decode_rps,
            "prefill {:.3} rps vs decode {:.3} rps",
            r.prefill_rps,
            r.decode_rps
        );
        assert!(r.mismatch() > 1.2);
        assert!((r.combined_rps() - r.decode_rps).abs() < 1e-12);
    }

    /// Figure 4: 4-GPU decode is a small fraction of 8-GPU decode
    /// (the paper reports ~15%).
    #[test]
    fn half_cluster_decode_is_small_fraction_of_whole() {
        let cluster = ClusterSpec::a100x8_pcie();
        let m = presets::llama2_70b();
        let eng = DisaggEngine::new(cluster.clone(), m.clone());
        let split = eng.evaluate_split(4, 3000, 250).unwrap();
        let whole = whole_cluster_decode_rps(&cluster, &m, 3000, 250).unwrap();
        let frac = split.decode_rps / whole;
        assert!(
            frac < 0.4,
            "4-GPU decode should be a small fraction of 8-GPU, got {frac:.2}"
        );
    }

    #[test]
    fn smaller_models_admit_more_splits() {
        let eng = DisaggEngine::new(ClusterSpec::a10x8(), presets::llama3_15b());
        let splits = eng.evaluate_all_splits(500, 250);
        assert!(splits.len() > 1);
        // Sorted by combined throughput.
        for w in splits.windows(2) {
            assert!(w[0].combined_rps() >= w[1].combined_rps());
        }
    }

    #[test]
    fn latency_floor_is_positive_and_slo_gateable() {
        let eng = DisaggEngine::new(ClusterSpec::a100x8_pcie(), presets::llama2_70b());
        let r = eng.evaluate_split(4, 3000, 250).unwrap();
        assert!(r.est_ttft_s > 0.0 && r.est_ttft_s.is_finite());
        assert!(r.est_tpot_s > 0.0 && r.est_tpot_s.is_finite());
        // A generous SLO passes the floor; an impossible one fails.
        assert!(r.meets_slo_floor(SloSpec { ttft_s: 1e6, tpot_s: 1e6 }));
        assert!(!r.meets_slo_floor(SloSpec { ttft_s: 0.0, tpot_s: 0.0 }));
    }

    #[test]
    fn degenerate_splits_rejected() {
        let eng = DisaggEngine::new(ClusterSpec::a10x8(), presets::llama3_15b());
        assert!(eng.evaluate_split(0, 500, 250).is_err());
        assert!(eng.evaluate_split(8, 500, 250).is_err());
    }

    #[test]
    fn tandem_run_completes_with_consistent_timeline() {
        use seesaw_workload::Request;
        let eng = DisaggEngine::new(ClusterSpec::a10x4(), presets::llama2_13b());
        let reqs: Vec<Request> = (0..12)
            .map(|i| Request::new(i, 700, 48).with_arrival(0.5 * i as f64))
            .collect();
        let report = eng.run(&reqs);
        assert_eq!(report.stats.requests, 12);
        assert_eq!(report.timeline.len(), 12);
        assert!(report.label.starts_with("disagg "), "got {}", report.label);
        for w in report.timeline.windows(2) {
            assert!(w[0].id < w[1].id, "timeline must be id-sorted");
        }
        for t in &report.timeline {
            assert!(t.first_token_s > t.arrival_s);
            assert!(t.completion_s > t.first_token_s);
        }
        assert!(report.stats.duration_s >= 5.5, "must span the arrival horizon");
        assert!(report.latency.unwrap().count == 12);
        assert!(report.gpu_utilization > 0.0 && report.gpu_utilization <= 1.0);
        assert!(report.swap_out_bytes > 0, "KV handoff must be accounted");
    }

    /// An unloaded request's latency matches the split's analytic
    /// floor (TTFT within one decode step, TPOT exactly).
    #[test]
    fn tandem_unloaded_latency_matches_analytic_floor() {
        use seesaw_workload::Request;
        let eng = DisaggEngine::new(ClusterSpec::a10x4(), presets::llama2_13b());
        let split = eng.best_split(700, 48).unwrap();
        let reqs = vec![Request::new(0, 700, 48)];
        let report = eng.run(&reqs);
        let t = report.timeline[0];
        let step = split.est_tpot_s;
        assert!(
            (t.first_token_s - (split.est_ttft_s + step)).abs() < 1e-9,
            "TTFT {} vs floor {}",
            t.first_token_s,
            split.est_ttft_s + step
        );
        let tpot = (t.completion_s - t.first_token_s) / 47.0;
        assert!((tpot - step).abs() < 1e-9, "TPOT {tpot} vs est {step}");
    }

    /// Saturating the tandem pipeline converges to the split's
    /// combined (bottleneck) rate.
    #[test]
    fn tandem_saturated_throughput_approaches_combined_rps() {
        use seesaw_workload::Request;
        let eng = DisaggEngine::new(ClusterSpec::a10x4(), presets::llama2_13b());
        let split = eng.best_split(700, 48).unwrap();
        let reqs: Vec<Request> = (0..200).map(|i| Request::new(i, 700, 48)).collect();
        let report = eng.run(&reqs);
        let ratio = report.throughput_rps() / split.combined_rps();
        assert!(
            (0.85..=1.05).contains(&ratio),
            "saturated tandem at {:.3} rps vs combined {:.3} (ratio {ratio:.3})",
            report.throughput_rps(),
            split.combined_rps()
        );
    }

    /// Disagg is not causal: a decode-heavy head sizes a different
    /// split than the whole stream once a prefill-heavy tail joins.
    /// Its run answers state queries by prefix evaluation, so the
    /// stepper still matches the prefix replay at the head, and the
    /// finished run matches the full-stream run.
    #[test]
    fn state_queries_evaluate_the_prefix_when_the_split_shifts() {
        use crate::online::OnlineEngine;
        use crate::stepper::live_state;
        let eng = DisaggEngine::new(ClusterSpec::a100x8_nvlink(), presets::llama2_13b());
        let reqs: Vec<Request> = (0..12u64)
            .map(|i| {
                let (input, output) = if i < 4 { (64, 1024) } else { (6000, 8) };
                Request::new(i, input, output).with_arrival(i as f64 * 0.5)
            })
            .collect();
        let head = &reqs[..4];
        let (prefix_run, full_run) = (eng.run(head), eng.run(&reqs));
        assert_ne!(
            prefix_run.label, full_run.label,
            "the head sizes a different split"
        );
        let mut stepper = eng.start(0.0);
        for r in head {
            stepper.push(*r);
        }
        let t = head[3].arrival_s;
        assert_eq!(stepper.state_at(t), live_state(&prefix_run, t));
        for r in &reqs[4..] {
            stepper.push(*r);
        }
        assert_eq!(stepper.finish(), full_run);
    }

    #[test]
    fn tandem_empty_run_reports_zeros() {
        let eng = DisaggEngine::new(ClusterSpec::a10x4(), presets::llama2_13b());
        let report = eng.run(&[]);
        assert_eq!(report.stats.requests, 0);
        assert_eq!(report.throughput_rps(), 0.0);
        assert!(report.latency.is_none());
    }

    #[test]
    fn online_trait_rates_are_positive_for_all_engines() {
        use crate::online::OnlineEngine;
        let eng = DisaggEngine::new(ClusterSpec::a10x4(), presets::llama2_13b());
        let rates = eng.service_rates(700, 48);
        assert!(rates.prefill_tokens_per_sec > 0.0 && rates.prefill_tokens_per_sec.is_finite());
        assert!(rates.decode_tokens_per_sec > 0.0 && rates.decode_tokens_per_sec.is_finite());
        assert_eq!(OnlineEngine::label(&eng), "disagg(auto-split)");
    }
}
