//! The three workloads. Each one is set up (inputs generated from the
//! seed, specs built, capacity probed) and then run; the benchmark
//! times the two parts separately and checks the outputs.
//!
//! Every call into a layer's public API goes through [`Tracer::span`],
//! which records a host-time span only on traced repetitions.

use crate::calib::{Stopwatch, Timing};
use crate::spans::Tracer;
use seesaw_autoscale::{AutoscaleConfig, ElasticFleetReport, ScalingPolicy};
use seesaw_bench::autoscale::{
    default_diurnal_envelope, CAPACITY_PROBE_REQUESTS, DEFAULT_PEAK_MULT, DEFAULT_TROUGH_MULT,
};
use seesaw_bench::chaos::ChaosSpec;
use seesaw_bench::fleet::{DEFAULT_HETERO_LOAD, HETERO_REPLICAS};
use seesaw_bench::harness::baseline_policies;
use seesaw_bench::serving::{default_engine_of, default_specs, EngineKind, DEFAULT_SLO};
use seesaw_bench::{ARXIV_REQUESTS, SHAREGPT_REQUESTS};
use seesaw_chaos::{ChaosController, RecoverySpec};
use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{EngineReport, OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_fleet::{hetero_offline_capacity, offline_capacity, Fleet, FleetReport, RouterPolicy};
use seesaw_hw::ClusterSpec;
use seesaw_model::{presets, ModelConfig};
use seesaw_parallel::{feasible, ParallelConfig};
use seesaw_roofline::Roofline;
use seesaw_sim::TraceSummary;
use seesaw_telemetry::{Instrument, Recorder};
use seesaw_workload::metrics::geo_mean;
use seesaw_workload::{
    split_stream, ArrivalDist, LatencyStats, Request, RequestTiming, WorkloadGen, ARRIVAL_SEED_SALT,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Length of the elastic day, simulated seconds. The default diurnal
/// shape (0.25x-5x of per-replica capacity, sharpened peak) squeezed
/// into eight hours: about 118k requests, so one replay takes about
/// six host seconds and a 35-second run holds five. Five-minute
/// windows and the 60 s warm-up stay as they are; attainment (0.98)
/// stays within two points of the full day's, and peak memory is a
/// third of the full day's 1.7 GB.
pub const ELASTIC_DAY_S: f64 = 28800.0;

/// The bins' default seed. The online workloads measure capacity on
/// requests drawn from it whatever the run's seed: capacity is a
/// property of the deployment, and probing with the run's seed moved
/// the offered load, and with it the elastic day's request count, by
/// +-15% from seed to seed.
const DEFAULT_SEED: u64 = seesaw_bench::SEED;

/// Requests offered to the live-routing fleet (at least 1000, so the
/// p99 has ten samples beyond it).
pub const LIVE_REQUESTS: usize = 1000;

/// Every value a repetition produces besides its timings.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Time of the measured phase.
    pub measured: Timing,
    /// Requests offered, counted once per cell.
    pub offered: usize,
    /// Requests that completed.
    pub succeeded: usize,
    /// Requests the modelled system failed (retries exhausted).
    pub failed: usize,
    /// `model.*` values: simulated time, deterministic per seed.
    pub model: Vec<(&'static str, f64)>,
    /// Per-layer counters read from reports and the program's own
    /// counters and profile.
    pub layer: Vec<(&'static str, f64)>,
    /// Output checks that failed, with the requests each one covers.
    pub check_failures: Vec<(String, usize)>,
}

impl Outcome {
    fn check(&mut self, ok: bool, requests: usize, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push((what(), requests));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineTune,
    ElasticDay,
    LiveRoute,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "offline-tune" => Some(Workload::OfflineTune),
            "elastic-day" => Some(Workload::ElasticDay),
            "live-route" => Some(Workload::LiveRoute),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineTune => "offline-tune",
            Workload::ElasticDay => "elastic-day",
            Workload::LiveRoute => "live-route",
        }
    }

    /// Build the workload's inputs: everything before the first
    /// measured engine call.
    pub fn prepare(self, seed: u64, tr: &mut Tracer) -> Box<dyn Prepared> {
        match self {
            Workload::OfflineTune => Box::new(OfflineTune::prepare(seed, tr)),
            Workload::ElasticDay => Box::new(ElasticDay::prepare(seed, tr)),
            Workload::LiveRoute => Box::new(LiveRoute::prepare(seed, tr)),
        }
    }
}

pub trait Prepared {
    /// Run the measured phase, timed by `clock` from its previous lap,
    /// then check its outputs. Work done only for the traced
    /// repetition (re-runs that read the simulator's own trace)
    /// happens after the lap.
    fn run(&self, tr: &mut Tracer, clock: &mut Stopwatch) -> Outcome;
}

/// TTFT p50/p99 and TPOT p99 of a timeline, every latency counted
/// from the request's scheduled arrival, with the sample count behind
/// each.
fn latency_model(timeline: &[RequestTiming]) -> Vec<(&'static str, f64)> {
    let Some(l) = LatencyStats::from_timeline(timeline) else {
        return Vec::new();
    };
    let tpot_samples = timeline.iter().filter(|t| t.output_len > 1).count();
    vec![
        ("model.ttft_p50_s", l.ttft.p50),
        ("model.ttft_p99_s", l.ttft.p99),
        ("model.ttft_samples", l.count as f64),
        ("model.tpot_p99_s", l.tpot.p99),
        ("model.tpot_samples", tpot_samples as f64),
    ]
}

/// `timeline` holds each id of `offered` exactly once and no other.
fn timeline_covers(timeline: &[RequestTiming], offered: &[Request]) -> bool {
    let ids: BTreeSet<u64> = timeline.iter().map(|t| t.id).collect();
    ids.len() == timeline.len()
        && ids.len() == offered.len()
        && offered.iter().all(|r| ids.contains(&r.id))
}

/// Cost-cache entries the thread's roofline pool holds for one
/// cluster/model pair (building a roofline revives the pooled cache).
fn roofline_entries(cluster: &Arc<ClusterSpec>, model: &Arc<ModelConfig>) -> f64 {
    Roofline::new(Arc::clone(cluster), Arc::clone(model)).cost_cache_len() as f64
}

// ---------------------------------------------------------------- offline-tune

struct OfflineCell {
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    reqs: Vec<Request>,
}

/// Figure 10's A10 panel at the paper's request counts.
struct OfflineTune {
    cells: Vec<OfflineCell>,
}

struct CellResult {
    configs: usize,
    vllm: Vec<EngineReport>,
    best: usize,
    seesaw: EngineReport,
    spec: SeesawSpec,
}

impl OfflineTune {
    fn prepare(seed: u64, tr: &mut Tracer) -> Self {
        let grid = [
            (presets::llama3_15b(), ClusterSpec::a10x4()),
            (presets::codellama_34b(), ClusterSpec::a10x8()),
            (presets::llama2_70b(), ClusterSpec::a10x8()),
        ];
        let mut cells = Vec::new();
        for (model, cluster) in grid {
            let (model, cluster) = (Arc::new(model), Arc::new(cluster));
            let arxiv = tr.span("workload.generate", |_| {
                WorkloadGen::arxiv_summarization(seed).generate(ARXIV_REQUESTS)
            });
            let sharegpt = tr.span("workload.generate", |_| {
                WorkloadGen::sharegpt(seed).generate(SHAREGPT_REQUESTS)
            });
            for reqs in [arxiv, sharegpt] {
                cells.push(OfflineCell {
                    cluster: Arc::clone(&cluster),
                    model: Arc::clone(&model),
                    reqs,
                });
            }
        }
        OfflineTune { cells }
    }

    /// The tuned-vLLM sweep (every feasible config x baseline policy)
    /// and the auto-probed Seesaw run, as `harness::best_vllm_with`
    /// and `harness::seesaw_auto_with` do them on a serial runner.
    fn run_cell(cell: &OfflineCell, tr: &mut Tracer) -> CellResult {
        let runner = SweepRunner::serial();
        let configs = tr.span("parallel.feasible_configs", |_| {
            feasible::feasible_configs(&cell.model, &cell.cluster)
        });
        let mut vllm: Vec<EngineReport> = Vec::new();
        for &cfg in &configs {
            for policy in baseline_policies() {
                let Ok(engine) = VllmEngine::new(
                    Arc::clone(&cell.cluster),
                    Arc::clone(&cell.model),
                    cfg,
                    policy,
                ) else {
                    continue;
                };
                vllm.push(tr.span("engine.vllm.run", |_| engine.run(&cell.reqs)));
            }
        }
        // `Iterator::max_by` keeps the last of equal maxima.
        let best = (0..vllm.len())
            .max_by(|&a, &b| {
                vllm[a]
                    .throughput_rps()
                    .partial_cmp(&vllm[b].throughput_rps())
                    .expect("finite throughput")
            })
            .expect("at least one feasible configuration");
        let probe = &cell.reqs[..cell.reqs.len().min(32)];
        let spec = tr
            .span("engine.autotune", |_| {
                SeesawSpec::auto_probed_with(&runner, &cell.cluster, &cell.model, probe)
            })
            .expect("feasible Seesaw pair");
        let engine = SeesawEngine::new(
            Arc::clone(&cell.cluster),
            Arc::clone(&cell.model),
            spec.clone(),
        )
        .expect("valid spec");
        let seesaw = tr.span("engine.seesaw.run", |_| engine.run(&cell.reqs));
        CellResult {
            configs: configs.len(),
            vllm,
            best,
            seesaw,
            spec,
        }
    }
}

impl Prepared for OfflineTune {
    fn run(&self, tr: &mut Tracer, clock: &mut Stopwatch) -> Outcome {
        let mut results = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                clock.split();
            }
            tr.set_cell(i as u32);
            results.push(Self::run_cell(cell, tr));
        }
        let mut out = Outcome {
            measured: clock.lap(),
            ..Outcome::default()
        };

        let mut speedups = Vec::new();
        let mut pooled: Vec<RequestTiming> = Vec::new();
        let (mut configs, mut vllm_reqs, mut seesaw_reqs) = (0usize, 0usize, 0usize);
        let (mut reshard_s, mut decode_s, mut duration_s) = (0.0, 0.0, 0.0);
        let (mut swap_bytes, mut transitions) = (0u64, 0usize);
        for (cell, res) in self.cells.iter().zip(&results) {
            let n = cell.reqs.len();
            out.offered += n;
            for rep in res.vllm.iter().chain([&res.seesaw]) {
                out.check(
                    rep.stats.requests == n && timeline_covers(&rep.timeline, &cell.reqs),
                    n,
                    || {
                        format!(
                            "{} on {}: completed {} of {n} offered",
                            rep.label, cell.model.name, rep.stats.requests
                        )
                    },
                );
            }
            out.succeeded += res.seesaw.timeline.len();
            speedups.push(res.seesaw.throughput_rps() / res.vllm[res.best].throughput_rps());
            pooled.extend_from_slice(&res.seesaw.timeline);
            configs += res.configs;
            vllm_reqs += n * res.vllm.len();
            seesaw_reqs += n;
            reshard_s += res.seesaw.reshard_wall_s;
            decode_s += res.seesaw.decode_wall_s;
            duration_s += res.seesaw.stats.duration_s;
            swap_bytes += res.seesaw.swap_out_bytes + res.seesaw.swap_in_bytes;
            transitions += res.seesaw.transitions;
        }
        let speedup = geo_mean(&speedups).unwrap_or(f64::NAN);
        out.check(speedup.is_finite() && speedup > 0.0, 0, || {
            format!("seesaw speedup {speedup}")
        });
        out.model.push(("model.seesaw_speedup", speedup));
        out.model.extend(latency_model(&pooled));

        if tr.is_on() {
            let (vllm_s, vllm_runs) = tr.total("engine.vllm.run");
            let (seesaw_s, seesaw_runs) = tr.total("engine.seesaw.run");
            // The simulator's own busy-time trace of the tuned Seesaw
            // runs; the traced report must equal the untraced one.
            let mut busy = TraceSummary::default();
            for (cell, res) in self.cells.iter().zip(&results) {
                let engine = SeesawEngine::new(
                    Arc::clone(&cell.cluster),
                    Arc::clone(&cell.model),
                    res.spec.clone(),
                )
                .expect("valid spec");
                let (rep, summary) = tr.span("sim.run_traced", |_| engine.run_traced(&cell.reqs));
                out.check(rep == res.seesaw, cell.reqs.len(), || {
                    format!("traced Seesaw report differs on {}", cell.model.name)
                });
                busy.compute += summary.compute;
                busy.communication += summary.communication;
                busy.weight_transfer += summary.weight_transfer;
                busy.reshard += summary.reshard;
                busy.kv_swap += summary.kv_swap;
                busy.other += summary.other;
            }
            let total = busy.total().max(f64::MIN_POSITIVE);
            // Cells come in (arxiv, sharegpt) pairs per cluster/model.
            let roofline: f64 = self
                .cells
                .iter()
                .step_by(2)
                .map(|c| roofline_entries(&c.cluster, &c.model))
                .sum();
            out.layer = vec![
                ("parallel.configs", configs as f64),
                ("parallel.reshard_frac", reshard_s / duration_s),
                ("kv.swap_gb", swap_bytes as f64 / 1e9),
                ("roofline.cache_entries", roofline),
                ("engine.vllm.run_s", vllm_s),
                ("engine.vllm.runs", vllm_runs as f64),
                ("engine.vllm.req_per_s", vllm_reqs as f64 / vllm_s),
                ("engine.seesaw.run_s", seesaw_s),
                ("engine.seesaw.runs", seesaw_runs as f64),
                ("engine.seesaw.req_per_s", seesaw_reqs as f64 / seesaw_s),
                ("engine.autotune_s", tr.total("engine.autotune").0),
                ("engine.seesaw.transitions", transitions as f64),
                ("engine.decode_frac", decode_s / duration_s),
                ("sim.compute_frac", busy.compute / total),
                ("sim.comm_frac", busy.communication / total),
                ("sim.weight_frac", busy.weight_transfer / total),
                ("sim.reshard_frac", busy.reshard / total),
                ("sim.kv_swap_frac", busy.kv_swap / total),
            ];
        }
        out
    }
}

// ---------------------------------------------------------------- elastic-day

/// The chaos bin's `kills-8/day x reactive+replace` cell on the default
/// sharpened diurnal day.
struct ElasticDay {
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    capacity_rps: f64,
    reqs: Vec<Request>,
}

impl ElasticDay {
    fn prepare(seed: u64, tr: &mut Tracer) -> Self {
        let (cluster, model) = default_specs();
        let build = |_: usize| default_engine_of(EngineKind::Vllm, &cluster, &model);
        let probe = tr.span("workload.generate", |_| {
            WorkloadGen::sharegpt(DEFAULT_SEED).generate(CAPACITY_PROBE_REQUESTS)
        });
        let (capacity_rps, _) =
            tr.span("fleet.capacity_probe", |_| offline_capacity(&build, &probe));
        let envelope = default_diurnal_envelope(
            DEFAULT_TROUGH_MULT * capacity_rps,
            DEFAULT_PEAK_MULT * capacity_rps,
            ELASTIC_DAY_S,
        );
        let times = tr
            .span("workload.sample_trace", |_| {
                envelope.sample_trace(ELASTIC_DAY_S, seed ^ ARRIVAL_SEED_SALT)
            })
            .expect("valid envelope");
        let base = tr.span("workload.generate", |_| {
            WorkloadGen::sharegpt(seed).generate(times.len())
        });
        let reqs = tr
            .span("workload.attach", |_| {
                ArrivalDist::Trace(times).attach(&base, 0)
            })
            .expect("trace arrivals are valid");
        ElasticDay {
            cluster,
            model,
            capacity_rps,
            reqs,
        }
    }

    fn controller(&self) -> ChaosController {
        let chaos = ChaosSpec::default();
        let config = AutoscaleConfig {
            capacity_rps: self.capacity_rps,
            ..AutoscaleConfig::default()
        };
        let recovery = RecoverySpec {
            policy: ScalingPolicy::reactive_default(),
            replace_failures: true,
            retry: chaos.retry,
        };
        ChaosController::new(config, chaos.plan(ELASTIC_DAY_S, false), recovery)
    }
}

impl Prepared for ElasticDay {
    fn run(&self, tr: &mut Tracer, clock: &mut Stopwatch) -> Outcome {
        let build = |_: usize| default_engine_of(EngineKind::Vllm, &self.cluster, &self.model);
        let ctl = self.controller();
        let runner = SweepRunner::serial();
        // Caps sized to the trace, so the traced run drops nothing.
        let cap = 16 * self.reqs.len() + 100_000;
        let mut instr = if tr.is_on() {
            Instrument {
                recorder: Recorder::with_caps(cap, cap),
                profiling: true,
                ..Instrument::off()
            }
        } else {
            Instrument::off()
        };
        let report: ElasticFleetReport = tr.span("autoscale.chaos_run", |_| {
            ctl.run_instrumented_with(&runner, &build, &self.reqs, &mut instr)
        });
        let mut out = Outcome {
            measured: clock.lap(),
            ..Outcome::default()
        };

        let n = self.reqs.len();
        let a = &report.availability;
        out.offered = n;
        out.succeeded = a.completed;
        out.failed = a.failed;
        out.check(a.offered == n && a.completed + a.failed == n, n, || {
            format!(
                "completed {} + failed {} != offered {n}",
                a.completed, a.failed
            )
        });
        let ids: BTreeSet<u64> = report.fleet.timeline.iter().map(|t| t.id).collect();
        let offered_ids: BTreeSet<u64> = self.reqs.iter().map(|r| r.id).collect();
        out.check(
            ids.len() == report.fleet.timeline.len()
                && ids.len() == a.completed
                && ids.is_subset(&offered_ids),
            n,
            || {
                format!(
                    "timeline holds {} entries, {} distinct, for {} completed",
                    report.fleet.timeline.len(),
                    ids.len(),
                    a.completed
                )
            },
        );
        out.model = latency_model(&report.fleet.timeline);
        out.model.push(("model.attainment", report.attainment()));
        out.model
            .push(("model.failed_frac", a.failed as f64 / n as f64));
        out.model
            .push(("model.replica_h", report.replica_seconds / 3600.0));

        if tr.is_on() {
            instr.snapshot_drops();
            let p = instr.profile;
            let m = &instr.metrics;
            let dropped = m.counter("telemetry.dropped_spans");
            out.check(dropped == 0, 0, || {
                format!("the recorder dropped {dropped} spans")
            });
            out.check(p.coverage() >= 0.9, 0, || {
                format!(
                    "autoscale phases explain only {:.1}% of total_s",
                    100.0 * p.coverage()
                )
            });
            let roofline = roofline_entries(&self.cluster, &self.model);
            out.layer = vec![
                ("roofline.cache_entries", roofline),
                ("autoscale.total_s", p.total_s),
                ("autoscale.routing_s", p.routing_s),
                ("autoscale.replay_s", p.replay_s),
                ("autoscale.engine_s", p.engine_s),
                ("autoscale.metrics_s", p.metrics_s),
                ("autoscale.coverage", p.coverage()),
                ("autoscale.windows", p.windows as f64),
                ("autoscale.windows_per_s", p.windows as f64 / p.total_s),
                ("autoscale.dispatches", p.dispatches as f64),
                (
                    "autoscale.scale_events",
                    m.counter("autoscale.scale_events") as f64,
                ),
                ("autoscale.retries", m.counter("autoscale.retries") as f64),
                (
                    "autoscale.lost_attempts",
                    m.counter("autoscale.lost_attempts") as f64,
                ),
                ("chaos.kills", report.failures.len() as f64),
                (
                    "telemetry.dropped_spans",
                    m.counter("telemetry.dropped_spans") as f64,
                ),
            ];
        }
        out
    }
}

// ---------------------------------------------------------------- live-route

/// Arrival draws the live-routing fleet serves per repetition. One
/// draw's peak memory and latency tails move 10-20% from seed to seed
/// (the queue a Poisson clump builds at 1.2x load); over three draws
/// they settle.
const LIVE_DRAWS: u64 = 3;

/// The fleet bin's heterogeneous head-to-head under `jsq-live`, at
/// 1.2x the fleet's aggregate offline capacity with Poisson arrivals.
struct LiveRoute {
    cluster: Arc<ClusterSpec>,
    weak: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    /// One request stream per arrival draw.
    draws: Vec<Vec<Request>>,
}

impl LiveRoute {
    fn prepare(seed: u64, tr: &mut Tracer) -> Self {
        let (cluster, model) = default_specs();
        let weak = Arc::new(ClusterSpec::l4x4());
        // The fleet bin's request set; the seed draws the arrivals.
        // Replay cost grows with the square of the queue, so seeds that
        // also redrew the lengths moved the host time by +-10%.
        let base = tr.span("workload.generate", |_| {
            WorkloadGen::sharegpt(DEFAULT_SEED).generate(LIVE_REQUESTS)
        });
        let setup = LiveRoute {
            cluster,
            weak,
            model,
            draws: Vec::new(),
        };
        let build = |i: usize| setup.replica(i);
        let (capacity_rps, _) = tr.span("fleet.capacity_probe", |_| {
            hetero_offline_capacity(&build, HETERO_REPLICAS, &base)
        });
        let rate = DEFAULT_HETERO_LOAD * capacity_rps;
        let draws = (0..LIVE_DRAWS)
            .map(|k| {
                let arrival_seed =
                    seed.wrapping_mul(LIVE_DRAWS).wrapping_add(k) ^ ARRIVAL_SEED_SALT;
                let unit = tr
                    .span("workload.sample_times", |_| {
                        ArrivalDist::Poisson { rate: 1.0 }.sample_times(base.len(), arrival_seed)
                    })
                    .expect("unit-rate Poisson is valid");
                base.iter()
                    .zip(&unit)
                    .map(|(r, &t)| r.with_arrival(t / rate))
                    .collect()
            })
            .collect();
        LiveRoute { draws, ..setup }
    }

    /// Replicas 0..HETERO_REPLICAS/2 are the default A10 vLLM T2P2
    /// replica; the rest are L4 vLLM P4.
    fn replica(&self, i: usize) -> Box<dyn OnlineEngine> {
        if i < HETERO_REPLICAS / 2 {
            default_engine_of(EngineKind::Vllm, &self.cluster, &self.model)
        } else {
            Box::new(
                VllmEngine::new(
                    Arc::clone(&self.weak),
                    Arc::clone(&self.model),
                    ParallelConfig::new(1, 1, 4),
                    SchedulingPolicy::PrefillPrioritized,
                )
                .expect("weak replica config fits"),
            )
        }
    }
}

impl Prepared for LiveRoute {
    fn run(&self, tr: &mut Tracer, clock: &mut Stopwatch) -> Outcome {
        let fleet = Fleet::new((0..HETERO_REPLICAS).map(|i| self.replica(i)).collect());
        let runner = SweepRunner::serial();
        let policy = RouterPolicy::JoinShortestQueueLive;
        let mut reports: Vec<FleetReport> = Vec::new();
        let mut instrs: Vec<Instrument> = Vec::new();
        for (k, reqs) in self.draws.iter().enumerate() {
            if k > 0 {
                clock.split();
            }
            tr.set_cell(k as u32);
            // Caps sized to the stream, so the traced run drops nothing.
            let cap = 16 * reqs.len() + 100_000;
            let mut instr = if tr.is_on() {
                Instrument {
                    recorder: Recorder::with_caps(cap, cap),
                    ..Instrument::off()
                }
            } else {
                Instrument::off()
            };
            reports.push(tr.span("fleet.run", |_| {
                fleet.run_instrumented_with(&runner, policy, reqs, &mut instr)
            }));
            instrs.push(instr);
        }
        let mut out = Outcome {
            measured: clock.lap(),
            ..Outcome::default()
        };

        let mut pooled: Vec<RequestTiming> = Vec::new();
        let mut met = 0usize;
        for (reqs, report) in self.draws.iter().zip(&reports) {
            let n = reqs.len();
            out.offered += n;
            out.succeeded += report.timeline.len();
            let per_replica: usize = report.replicas.iter().map(|r| r.stats.requests).sum();
            out.check(
                report.assignment.len() == n
                    && per_replica == n
                    && timeline_covers(&report.timeline, reqs),
                n,
                || {
                    format!(
                        "fleet served {per_replica} of {n} offered ({} in timeline)",
                        report.timeline.len()
                    )
                },
            );
            met += report
                .timeline
                .iter()
                .filter(|t| DEFAULT_SLO.met_by(t))
                .count();
            pooled.extend_from_slice(&report.timeline);
        }
        out.model = latency_model(&pooled);
        out.model
            .push(("model.attainment", met as f64 / out.offered as f64));

        if tr.is_on() {
            let (mut events, mut replays, mut replayed, mut dropped_spans) = (0, 0, 0, 0);
            for ((k, reqs), (report, instr)) in self
                .draws
                .iter()
                .enumerate()
                .zip(reports.iter().zip(&mut instrs))
            {
                tr.set_cell(k as u32);
                instr.snapshot_drops();
                let m = &instr.metrics;
                let dropped = m.counter("telemetry.dropped_spans");
                out.check(dropped == 0, 0, || {
                    format!("the recorder dropped {dropped} spans")
                });
                dropped_spans += dropped;
                events += m.counter("fleet.events.popped");
                replays += m.counter("fleet.replay.count");
                replayed += m.counter("fleet.replay.requests");
                // The floor live routing cannot beat: one plain engine
                // run per replica on its final sub-stream.
                let streams = split_stream(reqs, &report.assignment, HETERO_REPLICAS);
                for (i, stream) in streams.iter().enumerate() {
                    let engine = self.replica(i);
                    let rep = tr.span("engine.final_run", |_| engine.run(stream));
                    out.check(rep == report.replicas[i], stream.len(), || {
                        format!("draw {k}, replica {i}: final run differs from the fleet's report")
                    });
                }
            }
            let n = out.offered as f64;
            let run_s = tr.total("fleet.run").0;
            out.layer = vec![
                (
                    "roofline.cache_entries",
                    roofline_entries(&self.cluster, &self.model)
                        + roofline_entries(&self.weak, &self.model),
                ),
                ("engine.final_s", tr.total("engine.final_run").0),
                ("fleet.run_s", run_s),
                ("fleet.route_per_s", n / run_s),
                ("fleet.events", events as f64),
                ("fleet.replay.count", replays as f64),
                ("fleet.replay.requests", replayed as f64),
                ("fleet.replay_amp", replayed as f64 / n),
                ("telemetry.dropped_spans", dropped_spans as f64),
            ];
        }
        out
    }
}
