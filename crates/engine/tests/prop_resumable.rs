//! Oracle property test for the resumable engine runs: the stepper's
//! incremental state equals a from-scratch replay of the assigned
//! prefix at every query, and its final report equals the batch run.

use proptest::prelude::*;
use seesaw_engine::disagg::DisaggEngine;
use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{live_state, OnlineEngine, SchedulingPolicy};
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_workload::Request;
use std::sync::Arc;

/// vLLM under all three policies, Seesaw, and disagg.
fn engines() -> Vec<Box<dyn OnlineEngine>> {
    let cluster = Arc::new(ClusterSpec::a10x4());
    let model = Arc::new(presets::llama2_13b());
    let vllm = |policy| {
        Box::new(
            VllmEngine::new(
                Arc::clone(&cluster),
                Arc::clone(&model),
                ParallelConfig::new(1, 2, 2),
                policy,
            )
            .expect("valid config"),
        ) as Box<dyn OnlineEngine>
    };
    vec![
        vllm(SchedulingPolicy::PrefillPrioritized),
        vllm(SchedulingPolicy::DecodePrioritized),
        vllm(SchedulingPolicy::ChunkedPrefill { chunk_tokens: 256 }),
        Box::new(
            SeesawEngine::new(
                Arc::clone(&cluster),
                Arc::clone(&model),
                SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
            )
            .expect("valid spec"),
        ),
        // Eight A100s admit several splits, so random prefixes shift
        // the split the whole stream would get.
        Box::new(DisaggEngine::new(
            ClusterSpec::a100x8_nvlink(),
            Arc::clone(&model),
        )),
    ]
}

/// An arrival-sorted stream; a zero gap ties two arrivals.
fn stream(shapes: &[(usize, usize, usize)]) -> Vec<Request> {
    let mut t = 0.0;
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(input, output, gap))| {
            // Gaps in tenths of a second, a third of them zero.
            t += if gap % 3 == 0 { 0.0 } else { gap as f64 * 0.1 };
            Request::new(i as u64, input, output).with_arrival(t)
        })
        .collect()
}

/// Query instants while request `k` is the last one pushed: its
/// arrival, then every first-token and completion time of the full
/// run up to the next arrival (exact ties included).
fn query_times(full: &seesaw_engine::EngineReport, from: f64, until: f64) -> Vec<f64> {
    let mut ts: Vec<f64> = full
        .timeline
        .iter()
        .flat_map(|e| [e.first_token_s, e.completion_s])
        .filter(|&e| e >= from && e <= until)
        .collect();
    ts.push(from);
    ts.sort_by(f64::total_cmp);
    ts.dedup();
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resumed_state_equals_prefix_replay(
        shapes in prop::collection::vec(
            (16usize..700, prop::sample::select(vec![1usize, 1, 2, 9, 39]), 0usize..12),
            1..10,
        ),
        ready_tenths in prop::sample::select(vec![0usize, 0, 3, 15]),
    ) {
        let reqs = stream(&shapes);
        let ready_s = ready_tenths as f64 * 0.1;
        for engine in engines() {
            let label = engine.label();
            let full = engine.run_ready(&reqs, ready_s);
            let mut stepper = engine.start(ready_s);
            for (k, req) in reqs.iter().enumerate() {
                stepper.push(*req);
                let oracle_run = engine.run_ready(&reqs[..=k], ready_s);
                let until = reqs.get(k + 1).map_or(f64::INFINITY, |r| r.arrival_s);
                for t in query_times(&full, req.arrival_s, until) {
                    let oracle = live_state(&oracle_run, t);
                    let counts = stepper.counts_at(t);
                    prop_assert_eq!(
                        (counts.waiting, counts.running, counts.queue_depth),
                        (oracle.waiting, oracle.running, oracle.queue_depth),
                        "{} counts at t={} after {} pushes", label, t, k + 1
                    );
                    let state = stepper.state_at(t);
                    prop_assert_eq!(
                        state.work_s.to_bits(),
                        oracle.work_s.to_bits(),
                        "{} work_s at t={} after {} pushes", label, t, k + 1
                    );
                    prop_assert_eq!(state, oracle, "{} state at t={}", label, t);
                }
            }
            prop_assert_eq!(stepper.finish(), full, "{} final report", label);
        }
    }
}
