//! `seesaw-perfbench` — one measured run of one workload.
//!
//! ```text
//! seesaw-perfbench --workload offline-tune|elastic-day|live-route
//!                  --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! The run repeats the workload until `--seconds` have passed. Each
//! repetition runs on a fresh thread, so the thread-local roofline cost
//! cache starts cold, as it does in a fresh process of the bins; only
//! one thread works at a time. A repetition sets the workload up
//! (timed as `setup_s`), runs it (timed as the measured phase), and
//! checks its outputs. Host times are reported as medians over the
//! repetitions.
//!
//! With `--trace 1` the repetitions alternate untraced and traced: the
//! traced ones record the benchmark's spans and switch the program's
//! own counters and profile on; their ratio of measured time gives
//! the tracing overhead, and their `model.*` values must equal the
//! untraced ones.
//!
//! The last line of stdout is one JSON object with the raw metric
//! values; `run.py` attaches units and prints the benchmark result.

mod calib;
mod spans;
mod workloads;

use calib::{Stopwatch, Timing};
use spans::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{Outcome, Workload};

/// Repetitions a run makes even when `--seconds` is shorter.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
    })
}

struct Rep {
    traced: bool,
    setup: Timing,
    outcome: Outcome,
    tracer: Tracer,
}

fn run_rep(workload: Workload, seed: u64, traced: bool, index: usize) -> Rep {
    let mut tracer = Tracer::new(traced);
    tracer.set_rep(index as u32);
    let mut clock = Stopwatch::start();
    let prepared = tracer.span("bench.setup", |tr| workload.prepare(seed, tr));
    let setup = clock.lap();
    let outcome = tracer.span("bench.run", |tr| prepared.run(tr, &mut clock));
    Rep {
        traced,
        setup,
        outcome,
        tracer,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable line {line:?}"))?;
    Ok(kb / 1024.0)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("seesaw-perfbench: {e}");
        std::process::exit(2);
    });
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Wall time of the latest repetitions; a repetition that would end
    // past `--seconds` is not started.
    let mut recent = [0.0f64; 2];
    while reps.len() < MIN_REPS
        || start.elapsed().as_secs_f64() + recent[0].max(recent[1]) <= args.seconds
    {
        let (workload, seed, index) = (args.workload, args.seed, reps.len());
        let rep_start = Instant::now();
        let traced = args.trace && index % 2 == 1;
        let rep = std::thread::spawn(move || run_rep(workload, seed, traced, index))
            .join()
            .unwrap_or_else(|_| {
                eprintln!("seesaw-perfbench: repetition {index} panicked");
                std::process::exit(1);
            });
        eprintln!(
            "repetition {index}{}: set-up {:.4} s ({:.4} nominal), measured {:.4} s ({:.4} nominal)",
            if traced { " (traced)" } else { "" },
            rep.setup.host_s,
            rep.setup.nominal_s,
            rep.outcome.measured.host_s,
            rep.outcome.measured.nominal_s
        );
        recent[index % 2] = rep_start.elapsed().as_secs_f64();
        reps.push(rep);
    }

    let n_reps = reps.len();
    let mut checks: Vec<String> = Vec::new();
    let mut failed_ops = 0usize;
    let mut attempted = 0usize;
    for (i, rep) in reps.iter().enumerate() {
        attempted += rep.outcome.offered;
        for (what, requests) in &rep.outcome.check_failures {
            checks.push(format!("repetition {i}: {what}"));
            failed_ops += (*requests).max(1);
        }
    }
    // Modelled outputs are deterministic: every repetition, traced or
    // not, must reproduce them bit for bit.
    let model = &reps[0].outcome.model;
    for (i, rep) in reps.iter().enumerate().skip(1) {
        let same = rep.outcome.model.len() == model.len()
            && rep
                .outcome
                .model
                .iter()
                .zip(model)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !same {
            checks.push(format!(
                "repetition {i}: model values differ from repetition 0"
            ));
            failed_ops += rep.outcome.offered.max(1);
        }
    }

    let last = &reps[n_reps - 1].outcome;
    let requests = (last.offered, last.succeeded, last.failed);
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let of = |rs: &[&Rep], f: &dyn Fn(&Rep) -> f64| median(rs.iter().map(|r| f(r)).collect());

    // End-to-end values come from the untraced repetitions.
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    metrics.insert("setup_s".into(), of(&untraced, &|r| r.setup.nominal_s));
    metrics.insert(
        "sim_req_per_s".into(),
        of(&untraced, &|r| {
            r.outcome.succeeded as f64 / r.outcome.measured.nominal_s
        }),
    );
    metrics.insert("host.setup_s".into(), of(&untraced, &|r| r.setup.host_s));
    metrics.insert(
        "host.sim_req_per_s".into(),
        of(&untraced, &|r| {
            r.outcome.succeeded as f64 / r.outcome.measured.host_s
        }),
    );
    match peak_rss_mb() {
        Ok(mb) => {
            metrics.insert("peak_rss_mb".into(), mb);
        }
        Err(e) => {
            checks.push(e);
            failed_ops += 1;
        }
    }
    for (name, v) in model {
        metrics.insert((*name).into(), *v);
    }
    metrics.insert("requests.offered".into(), requests.0 as f64);
    metrics.insert("requests.succeeded".into(), requests.1 as f64);
    metrics.insert("requests.failed".into(), requests.2 as f64);

    // Per-layer values come from the traced repetitions.
    if !traced.is_empty() {
        let mut per_layer: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for rep in &traced {
            let mut add = |name: String, v: f64| per_layer.entry(name).or_default().push(v);
            for (name, v) in &rep.outcome.layer {
                add((*name).into(), *v);
            }
            let tr = &rep.tracer;
            let gen_s: f64 = tr
                .spans()
                .iter()
                .filter(|s| s.layer() == "workload")
                .map(|s| s.duration())
                .sum();
            add("workload.gen_s".into(), gen_s);
            add(
                "fleet.capacity_probe_s".into(),
                tr.total("fleet.capacity_probe").0,
            );
            for (layer, own) in tr.self_by_layer() {
                add(format!("self_s.{layer}"), own);
            }
        }
        for (name, vs) in per_layer {
            metrics.insert(name, median(vs));
        }
        let measured = |rs: &[&Rep]| of(rs, &|r| r.outcome.measured.nominal_s);
        metrics.insert(
            "telemetry.overhead_ratio".into(),
            measured(&traced) / measured(&untraced),
        );
    }
    if let Some(path) = &args.trace_out {
        let mut all = Tracer::new(true);
        for rep in reps {
            all.absorb(rep.tracer);
        }
        if let Err(e) = std::fs::write(path, all.to_json(args.workload.name(), args.seed)) {
            checks.push(format!("writing {path}: {e}"));
            failed_ops += 1;
        }
    }

    let m: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let c: Vec<String> = checks.iter().map(|s| json_str(s)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"repetitions\": {}, \
         \"requests\": {{\"offered\": {}, \"succeeded\": {}, \"failed\": {}}}, \
         \"attempted\": {}, \"failed\": {}, \"checks\": [{}], \"metrics\": {{{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        n_reps,
        requests.0,
        requests.1,
        requests.2,
        attempted,
        failed_ops,
        c.join(", "),
        m.join(", ")
    );
}
