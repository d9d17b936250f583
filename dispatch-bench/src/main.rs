//! The repository benchmark: drives the dispatch stack through its public
//! API on one of three workloads, checks the outputs, and prints every
//! metric by name and unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! dispatch-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--size full|small] [--inject <violation>]
//! ```
//!
//! With `--trace 0` the run repeats whole passes (set-up, every window,
//! recovery drill) while the next pass still fits in `--seconds`, and
//! reports the end-to-end metrics. With `--trace 1` it makes one untraced
//! pass, installs the telemetry recorder, makes one traced pass, reports the
//! per-layer metrics and writes the Chrome trace under `.bench_run/`.
//! Exit codes: 0 correct, 1 a check failed or an operation failed, 2 usage.
//! See `README.md` next to this file for the workloads and metrics.

mod checks;
mod drive;
mod probe;
mod spans;
mod workloads;

use checks::Violation;
use drive::{Pass, PassOptions};
use foodmatch_telemetry::{Recorder, SpanTrace, Telemetry, TelemetrySnapshot};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Inputs, Shape, Size, Workload};

const USAGE: &str =
    "usage: dispatch-bench --workload <city-b-day|metro-4zone|city-b-rain-durable> \
--seed <n> --seconds <s> --trace <0|1> [--size full|small] [--inject <violation>]";

/// Where runs keep their WAL, checkpoints and traces, relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".bench_run";

/// Span ring capacity for the traced pass: far above the spans one pass
/// records, so none is evicted.
const TRACE_CAPACITY: usize = 1 << 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    inject: Option<Violation>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut size, mut inject) = (Size::Full, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    _ => return Err(bad()),
                }
            }
            "--inject" => inject = Some(Violation::parse(&value).ok_or_else(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        inject,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            print_outcome(&outcome);
            if outcome.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
    }
}

/// One metric as printed.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Outcome {
    workload: Workload,
    seed: u64,
    rounds: usize,
    days: usize,
    windows: usize,
    orders: usize,
    digest: u64,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// A run's demand days: `days` independent days over the workload's city,
/// day `d` drawn with demand seed `seed × days + d` so no two run seeds
/// share a day.
fn generate_days(args: &Args) -> Vec<Inputs> {
    let days = match args.size {
        Size::Full => Workload::DAYS,
        Size::Small => 1,
    };
    (0..days as u64)
        .map(|d| {
            let seed = args.seed.wrapping_mul(days as u64).wrapping_add(d);
            Inputs::generate(args.workload, seed, args.size)
        })
        .collect()
}

fn pass_options(args: &Args, inputs: &Inputs) -> PassOptions {
    // Full size: hourly checkpoints, each followed five windows later by a
    // recovery drill, so the drills sample the whole day; the small size
    // scales both down to fit an hour.
    let (checkpoint_every, drill_every, drill_lag) = match args.size {
        Size::Full => (20, 20, 5),
        Size::Small => (5, 5, 2),
    };
    PassOptions {
        checkpoint_every,
        drill_every,
        drill_lag,
        horizon_windows: inputs.horizon_windows(),
        inject: args.inject,
    }
}

/// One round: a pass over every day of the run.
fn run_round(args: &Args, days: &[Inputs], dir: &Path) -> Result<Vec<Pass>, String> {
    let shape = args.workload.shape();
    days.iter()
        .map(|inputs| drive::run_pass(inputs, shape, dir, pass_options(args, inputs)))
        .collect()
}

fn run(args: &Args) -> Result<Outcome, String> {
    let days = generate_days(args);
    let root = PathBuf::from(WORK_DIR);
    let dir = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let mut notes = Vec::new();
    let result = (|| -> Result<(Vec<Vec<Pass>>, Vec<Metric>), String> {
        if args.trace {
            let plain = run_round(args, &days, &dir)?;
            let recorder = Recorder {
                telemetry: Telemetry::new(),
                trace: SpanTrace::with_capacity(TRACE_CAPACITY),
            };
            foodmatch_telemetry::install(recorder.clone());
            let traced = run_round(args, &days, &dir);
            foodmatch_telemetry::uninstall();
            let traced = traced?;
            if recorder.trace.dropped() > 0 {
                return Err(format!(
                    "{} spans evicted from the trace ring",
                    recorder.trace.dropped()
                ));
            }
            let path = root.join(format!("{}-seed{}.trace.json", args.workload.name(), args.seed));
            std::fs::write(&path, recorder.trace.chrome_trace_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            notes.push(format!("chrome trace: {}", path.display()));
            let metrics = per_layer(&days[0], args.workload.shape(), &plain, &traced, &recorder);
            Ok((vec![plain, traced], metrics))
        } else {
            // Whole rounds while the next one still fits in the budget.
            let begin = Instant::now();
            let mut rounds = Vec::new();
            loop {
                let started = Instant::now();
                rounds.push(run_round(args, &days, &dir)?);
                let last = started.elapsed().as_secs_f64();
                if begin.elapsed().as_secs_f64() + last > args.seconds {
                    break;
                }
            }
            let metrics = end_to_end(&rounds)?;
            Ok((rounds, metrics))
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let (rounds, metrics) = result?;

    let first = &rounds[0];
    let mut violations: Vec<String> =
        rounds.iter().flatten().flat_map(|p| p.violations.clone()).collect();
    violations.dedup();
    if rounds.iter().any(|r| r.iter().zip(first).any(|(p, q)| p.digest != q.digest)) {
        violations.push("passes over the same inputs produced different output streams".into());
    }
    // One digest for the run: FNV-1a over the days' digests.
    let bytes: Vec<u8> = first.iter().flat_map(|pass| pass.digest.to_le_bytes()).collect();
    let digest = checks::fnv1a(checks::FNV_OFFSET, &bytes);
    Ok(Outcome {
        workload: args.workload,
        seed: args.seed,
        rounds: rounds.len(),
        days: days.len(),
        windows: first.iter().map(|p| p.window_ns.len()).sum(),
        orders: days.iter().map(|d| d.orders.len()).sum(),
        digest,
        attempted: rounds.iter().flatten().map(|p| p.attempted).sum(),
        failed: rounds.iter().flatten().map(|p| p.failed).sum(),
        violations,
        metrics,
        notes,
    })
}

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile (`q` in `[0, 100]`); sorts `values`.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return 0.0;
    }
    let rank = q / 100.0 * (values.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// Simulated seconds dispatched per wall second of `advance_to`.
fn realtime_x<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> f64 {
    let (mut simulated, mut wall_ns) = (0.0, 0u64);
    for pass in passes {
        simulated += pass.simulated_secs;
        wall_ns += pass.window_ns.iter().sum::<u64>();
    }
    simulated / (wall_ns as f64 / 1e9)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn end_to_end(rounds: &[Vec<Pass>]) -> Result<Vec<Metric>, String> {
    let all = || rounds.iter().flatten();
    let mut setups: Vec<f64> = all().flat_map(|p| p.setup_secs.clone()).collect();
    let mut windows_ms: Vec<f64> =
        all().flat_map(|p| p.window_ns.iter().map(|&n| n as f64 / 1e6)).collect();
    let drills: Vec<f64> = all().flat_map(|p| p.recovery_secs.clone()).collect();

    // Quality over every order of the run's days (one round: every round
    // repeats it exactly).
    let (mut xdt_secs, mut delivered, mut offered) = (0.0, 0usize, 0usize);
    let (mut wait_secs, mut pickups, mut carried_m, mut driven_m) = (0.0, 0usize, 0.0, 0.0);
    for pass in &rounds[0] {
        let report = &pass.report;
        xdt_secs += report.delivered.iter().map(|d| d.xdt.as_secs_f64()).sum::<f64>();
        delivered += report.delivered.len();
        offered += report.total_orders;
        wait_secs += report.waiting_hours() * 3_600.0;
        pickups += pass
            .stream
            .iter()
            .filter(|e| matches!(e.output, foodmatch_sim::DispatchOutput::PickedUp { .. }))
            .count();
        for (load, meters) in
            report.distance_by_load_m.iter().flat_map(|slot| slot.iter().enumerate())
        {
            carried_m += load as f64 * meters;
            driven_m += meters;
        }
    }
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        metric("setup_s", median(&mut setups), "s"),
        metric("window_p50_ms", percentile(&mut windows_ms, 50.0), "ms"),
        metric("window_p95_ms", percentile(&mut windows_ms, 95.0), "ms"),
        metric("realtime_x", realtime_x(all()), "x"),
        metric("xdt_min", xdt_secs / 60.0 / delivered.max(1) as f64, "min"),
        metric("wait_min", wait_secs / 60.0 / pickups.max(1) as f64, "min"),
        metric("orders_per_km", carried_m / driven_m.max(f64::MIN_POSITIVE), "1/km"),
        metric("delivered_pct", ratio_pct(delivered as f64, offered as f64), "%"),
        metric("recovery_s", drills.iter().sum::<f64>() / drills.len().max(1) as f64, "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

fn ratio_pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

fn mean_ns_as_ms(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e6
    }
}

fn histogram_mean(snapshot: &TelemetrySnapshot, name: &str) -> f64 {
    snapshot.histogram(name).and_then(|h| h.mean()).unwrap_or(0.0)
}

fn per_layer(
    inputs: &Inputs,
    shape: Shape,
    plain: &[Pass],
    traced: &[Pass],
    recorder: &Recorder,
) -> Vec<Metric> {
    let snap = recorder.telemetry.snapshot();
    let sums = spans::sum(&recorder.trace.events());
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let total = |f: fn(&Pass) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let concat = |f: fn(&Pass) -> &Vec<u64>| -> Vec<u64> {
        traced.iter().flat_map(|p| f(p).iter().copied()).collect()
    };

    let windows = total(|p| p.window_ns.len() as u64);
    let per_window_ms = |us: f64| us / 1e3 / windows;
    let assign_us = total(|p| p.probe.assign_ns) / 1e3;
    let foodgraph_us = sums.foodgraph_us as f64;
    let solve_us = sums.solve_us as f64;
    let batching_us = assign_us - foodgraph_us - solve_us;
    let busy_us = sums.window_us as f64;
    let memo_hits = snap.counter_sum("engine.memo.hits.") as f64;
    let memo_lookups = memo_hits + snap.counter_sum("engine.memo.misses.") as f64;
    let overlay_hits = counter("engine.overlay_memo.hits");
    let overlay_lookups = overlay_hits + counter("engine.overlay_memo.misses");
    let index_build_ns = snap.histogram("engine.index.build_ns").map_or(0, |h| h.sum);
    let engine_build_ms =
        traced.iter().map(|p| p.engine_build_secs).sum::<f64>() * 1e3 / traced.len() as f64;
    let parallel_eff = match (&inputs.zones, shape) {
        (Some(zones), Shape::Router) => {
            let threads = inputs.config.effective_threads().min(zones.zone_count());
            sums.shard_us as f64 / (threads as f64 * sums.advance_us as f64)
        }
        _ => 0.0,
    };
    let disrupted = traced.iter().flat_map(|p| &p.report.windows).filter(|w| w.disrupted).count();
    let reported_windows: usize = traced.iter().map(|p| p.report.windows.len()).sum();
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("bench.windows", windows, "count"),
        metric("roadnet.queries", total(|p| p.queries), "count"),
        metric("roadnet.fallback_searches", counter("engine.backend.dijkstra.queries"), "count"),
        metric("roadnet.memo_hit_pct", ratio_pct(memo_hits, memo_lookups), "%"),
        metric("roadnet.overlay_hit_pct", ratio_pct(overlay_hits, overlay_lookups), "%"),
        metric("roadnet.index_build_ms", engine_build_ms + index_build_ns as f64 / 1e6, "ms"),
        metric("core.assign_ms", per_window_ms(assign_us), "ms"),
        metric("core.foodgraph_ms", per_window_ms(foodgraph_us), "ms"),
        metric("core.batching_ms", per_window_ms(batching_us), "ms"),
        metric("core.foodgraph_pct", ratio_pct(foodgraph_us, busy_us), "%"),
        metric("core.batching_pct", ratio_pct(batching_us, busy_us), "%"),
        metric("core.batches", total(|p| p.probe.batches), "count"),
        metric("core.foodgraph_evaluations", total(|p| p.probe.evaluations), "count"),
        metric(
            "core.window_orders",
            total(|p| p.probe.orders) / total(|p| p.probe.calls).max(1.0),
            "count",
        ),
        metric("matching.solve_ms", per_window_ms(solve_us), "ms"),
        metric("matching.solve_pct", ratio_pct(solve_us, busy_us), "%"),
        metric("matching.components", histogram_mean(&snap, "matching.components"), "count"),
        metric("service.self_ms", per_window_ms(busy_us - assign_us), "ms"),
        metric(
            "service.submit_us",
            total(|p| p.submit_ns) / 1e3 / total(|p| p.submits).max(1.0),
            "us",
        ),
        metric("router.imbalance_ms", mean_ns_as_ms(&concat(|p| &p.imbalance_ns)), "ms"),
        metric("router.parallel_eff", parallel_eff, "ratio"),
        metric("wal.fsync_ms", histogram_mean(&snap, "wal.fsync_ns") / 1e6, "ms"),
        metric("wal.flush_records", histogram_mean(&snap, "wal.flush_records"), "count"),
        metric("wal.bytes", counter("wal.bytes"), "bytes"),
        metric("checkpoint.capture_ms", mean_ns_as_ms(&concat(|p| &p.capture_ns)), "ms"),
        metric("checkpoint.persist_ms", histogram_mean(&snap, "checkpoint.persist_ns") / 1e6, "ms"),
        metric("wal.compact_ms", mean_ns_as_ms(&concat(|p| &p.compact_ns)), "ms"),
        metric("recovery.replay_records", total(|p| p.replay_records as u64), "count"),
        metric("events.ingested", total(|p| p.ingested), "count"),
        metric(
            "events.disrupted_window_pct",
            ratio_pct(disrupted as f64, reported_windows as f64),
            "%",
        ),
        metric("trace.overhead_pct", (realtime_x(plain) / realtime_x(traced) - 1.0) * 100.0, "%"),
        metric(
            "trace.residual_pct",
            ratio_pct(sums.uncovered_us as f64, sums.advance_us as f64),
            "%",
        ),
    ]
}

fn print_outcome(outcome: &Outcome) {
    println!(
        "workload {} seed {}: {} round(s) of {} day(s), {} windows and {} orders per round, \
         output digest {:016x}",
        outcome.workload.name(),
        outcome.seed,
        outcome.rounds,
        outcome.days,
        outcome.windows,
        outcome.orders,
        outcome.digest
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if outcome.violations.is_empty() {
        println!("checks: all passed");
    } else {
        for v in &outcome.violations {
            println!("VIOLATION: {v}");
        }
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
