//! One pass of a workload: set the dispatcher up, drive it window by window
//! through its public API, run the recovery drill, and check the outputs.
//!
//! Load model: a closed loop with one client on the simulated clock. For
//! each window the client submits the orders placed up to the next close,
//! ingests the events due by then, and calls `advance_to(close)`; only that
//! call is timed.

use crate::checks::{self, Emitted, Violation};
use crate::probe::{Probe, ProbeSink, ProbeTotals};
use crate::workloads::{Inputs, Shape};
use foodmatch_core::Order;
use foodmatch_events::DisruptionEvent;
use foodmatch_roadnet::{ShortestPathEngine, TimePoint};
use foodmatch_sim::{
    load_checkpoint, read_wal_file, replay_wal, AdvanceOutcome, AdvanceStatus,
    BackgroundCheckpointer, DispatchOutput, DispatchRouter, DispatchService, DurableDispatch,
    FlushPolicy, RoutedOutput, RouterCheckpoint, ServiceCheckpoint, SimulationReport, WalRecord,
    WriteAheadLog,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per pass; `setup_s` is the median over every set-up of a run.
pub const SETUP_REPEATS: usize = 50;

/// A dispatcher under test.
enum Target {
    Service(Box<DispatchService<Probe>>),
    Router(Box<DispatchRouter<Probe>>),
    Durable(Box<Durable>),
}

struct Durable {
    dispatch: DurableDispatch<DispatchService<Probe>>,
    checkpointer: BackgroundCheckpointer<ServiceCheckpoint>,
    wal_path: PathBuf,
    checkpoint_path: PathBuf,
}

/// An in-memory checkpoint for the recovery drill of the in-memory shapes.
enum Snapshot {
    Service(Box<ServiceCheckpoint>),
    Router(RouterCheckpoint),
}

fn zone_count(inputs: &Inputs) -> usize {
    inputs.zones.as_ref().map_or(1, |z| z.zone_count())
}

fn service(inputs: &Inputs, engine: ShortestPathEngine, policy: Probe) -> DispatchService<Probe> {
    DispatchService::new(
        engine,
        inputs.vehicle_starts.clone(),
        policy,
        inputs.config.clone(),
        inputs.start,
        inputs.end,
        inputs.drain_limit,
    )
}

fn untagged(outputs: Vec<DispatchOutput>, close: TimePoint) -> Vec<Emitted> {
    outputs.into_iter().map(|output| Emitted { zone: 0, output, close }).collect()
}

fn service_outputs(outcome: AdvanceOutcome, close: TimePoint) -> (Vec<Emitted>, AdvanceStatus) {
    let status = outcome.status;
    (untagged(outcome.into_outputs(), close), status)
}

fn tagged(outputs: Vec<RoutedOutput>, close: TimePoint) -> Vec<Emitted> {
    outputs
        .into_iter()
        .map(|routed| Emitted { zone: routed.zone.0, output: routed.output, close })
        .collect()
}

impl Target {
    /// Engine, index and dispatcher construction (plus the WAL and the
    /// checkpoint worker for the durable shape): what `setup_s` times.
    fn setup(
        inputs: &Inputs,
        shape: Shape,
        sink: &Arc<ProbeSink>,
        dir: &Path,
    ) -> Result<Self, String> {
        Ok(match shape {
            Shape::Service => {
                let engine = ShortestPathEngine::cached(inputs.network.clone());
                Target::Service(Box::new(service(inputs, engine, Probe::new(Arc::clone(sink), 0))))
            }
            Shape::Router => {
                let zones = inputs.zones.clone().expect("router workloads have a zone map");
                Target::Router(Box::new(DispatchRouter::new(
                    &inputs.network,
                    zones,
                    inputs.vehicle_starts.clone(),
                    |zone| Probe::new(Arc::clone(sink), zone.index()),
                    inputs.config.clone(),
                    inputs.start,
                    inputs.end,
                    inputs.drain_limit,
                )))
            }
            Shape::Durable => {
                let engine = ShortestPathEngine::cached(inputs.network.clone());
                let inner = service(inputs, engine, Probe::new(Arc::clone(sink), 0));
                let wal_path = dir.join("dispatch.wal");
                let checkpoint_path = dir.join("service.ckpt");
                let log = WriteAheadLog::create_with(&wal_path, FlushPolicy::Window)
                    .map_err(|e| format!("creating the WAL: {e}"))?;
                let checkpointer = BackgroundCheckpointer::service(&checkpoint_path)
                    .map_err(|e| format!("starting the checkpointer: {e}"))?;
                Target::Durable(Box::new(Durable {
                    dispatch: DurableDispatch::new(inner, log),
                    checkpointer,
                    wal_path,
                    checkpoint_path,
                }))
            }
        })
    }

    fn now(&self) -> TimePoint {
        match self {
            Target::Service(s) => s.now(),
            Target::Router(r) => r.now(),
            Target::Durable(d) => d.dispatch.target().now(),
        }
    }

    fn finished(&self) -> bool {
        match self {
            Target::Service(s) => s.is_finished(),
            Target::Router(r) => r.is_finished(),
            Target::Durable(d) => d.dispatch.target().is_finished(),
        }
    }

    fn submit(&mut self, order: Order) -> Result<bool, String> {
        Ok(match self {
            Target::Service(s) => s.submit_order(order),
            Target::Router(r) => r.submit_order(order),
            Target::Durable(d) => d.dispatch.submit_order(order).map_err(|e| e.to_string())?,
        }
        .is_accepted())
    }

    fn ingest(&mut self, event: DisruptionEvent) -> Result<bool, String> {
        Ok(match self {
            Target::Service(s) => s.ingest_event(event),
            Target::Router(r) => r.ingest_event(event),
            Target::Durable(d) => d.dispatch.ingest_event(event).map_err(|e| e.to_string())?,
        }
        .is_accepted())
    }

    fn advance(&mut self, close: TimePoint) -> Result<(Vec<Emitted>, AdvanceStatus), String> {
        Ok(match self {
            Target::Service(s) => service_outputs(s.advance_to(close), close),
            Target::Router(r) => {
                let outcome = r.advance_to(close);
                let status = outcome.status;
                (tagged(outcome.into_outputs(), close), status)
            }
            Target::Durable(d) => {
                service_outputs(d.dispatch.advance_to(close).map_err(|e| e.to_string())?, close)
            }
        })
    }

    fn report(&self) -> SimulationReport {
        match self {
            Target::Service(s) => s.report(),
            Target::Router(r) => r.report().aggregate,
            Target::Durable(d) => d.dispatch.target().report(),
        }
    }
}

/// What to do in a pass besides the measured loop.
#[derive(Clone, Copy, Debug)]
pub struct PassOptions {
    /// The durable shape seals a background checkpoint every this many
    /// windows, then compacts the log below the newest sealed checkpoint.
    pub checkpoint_every: usize,
    /// A recovery drill checkpoints every this many windows (a multiple of
    /// `checkpoint_every`) ...
    pub drill_every: usize,
    /// ... and restores and replays this many windows later (fewer than
    /// `checkpoint_every`, so the drill's checkpoint is the newest sealed).
    pub drill_lag: usize,
    /// Windows in the workload horizon; drills end inside it.
    pub horizon_windows: usize,
    /// Corrupt the recorded outputs before checking them.
    pub inject: Option<Violation>,
}

impl PassOptions {
    /// True when a recovery drill's checkpoint is taken after `window`.
    fn drill_checkpoint(&self, window: usize) -> bool {
        window.is_multiple_of(self.drill_every) && window + self.drill_lag <= self.horizon_windows
    }
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct Pass {
    pub setup_secs: Vec<f64>,
    /// One engine build over the workload network (clone + construct).
    pub engine_build_secs: f64,
    /// Wall time of each `advance_to` call.
    pub window_ns: Vec<u64>,
    /// Simulated seconds the timed calls dispatched.
    pub simulated_secs: f64,
    pub stream: Vec<Emitted>,
    pub report: SimulationReport,
    pub attempted: u64,
    pub failed: u64,
    pub submits: u64,
    pub submit_ns: u64,
    pub ingested: u64,
    /// Wall time of each recovery drill.
    pub recovery_secs: Vec<f64>,
    /// WAL records replayed, summed over the drills.
    pub replay_records: usize,
    pub capture_ns: Vec<u64>,
    pub compact_ns: Vec<u64>,
    /// Per window with policy work: slowest zone's assign time minus the
    /// zone mean.
    pub imbalance_ns: Vec<u64>,
    pub probe: ProbeTotals,
    pub queries: u64,
    pub violations: Vec<String>,
    pub digest: u64,
}

/// Runs one pass. `Err` is an operation failure (I/O, a refused call the
/// workload never makes); check failures land in `Pass::violations`.
pub fn run_pass(
    inputs: &Inputs,
    shape: Shape,
    dir: &Path,
    options: PassOptions,
) -> Result<Pass, String> {
    let zones = zone_count(inputs);
    let sink = ProbeSink::new(zones);

    let started = Instant::now();
    drop(std::hint::black_box(ShortestPathEngine::cached(inputs.network.clone())));
    let engine_build_secs = started.elapsed().as_secs_f64();

    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut target = None;
    for _ in 0..SETUP_REPEATS {
        drop(target.take());
        let started = Instant::now();
        let built = Target::setup(inputs, shape, &sink, dir)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        target = Some(built);
    }
    let mut target = target.expect("SETUP_REPEATS is positive");

    let delta = inputs.delta();
    let (mut next_order, mut next_event) = (0usize, 0usize);
    let mut window_ns = Vec::new();
    let mut stream: Vec<Emitted> = Vec::new();
    let mut accepted: Vec<Order> = Vec::with_capacity(inputs.orders.len());
    let (mut attempted, mut failed, mut submits, mut submit_ns, mut ingested) = (0, 0, 0, 0, 0);
    let (mut capture_ns, mut compact_ns, mut imbalance_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut compacted = 0u64;
    let mut violations = Vec::new();
    // Recovery drill state: the checkpoint, where the live stream stood
    // when it was taken, and (in memory) the inputs logged since.
    let mut snapshot: Option<Snapshot> = None;
    let mut sealed_at: Option<u64> = None;
    let mut mark = 0usize;
    let mut log: Option<Vec<WalRecord>> = None;
    let (mut recovery_secs, mut replay_records) = (Vec::new(), 0usize);

    while !target.finished() {
        let close = target.now() + delta;
        while next_order < inputs.orders.len() && inputs.orders[next_order].placed_at <= close {
            let order = inputs.orders[next_order];
            next_order += 1;
            attempted += 1;
            let started = Instant::now();
            let ok = target.submit(order)?;
            submit_ns += started.elapsed().as_nanos() as u64;
            submits += 1;
            if ok {
                accepted.push(order);
            } else {
                failed += 1;
            }
            if let Some(log) = log.as_mut() {
                log.push(WalRecord::SubmitOrder(order));
            }
        }
        while next_event < inputs.events.len() && inputs.events[next_event].at <= close {
            let event = inputs.events[next_event];
            next_event += 1;
            attempted += 1;
            if target.ingest(event)? {
                ingested += 1;
            } else {
                failed += 1;
            }
            if let Some(log) = log.as_mut() {
                log.push(WalRecord::IngestEvent(event));
            }
        }

        attempted += 1;
        let (emitted, status) = {
            let _span = foodmatch_telemetry::span("bench", "advance_to");
            let started = Instant::now();
            let result = target.advance(close)?;
            window_ns.push(started.elapsed().as_nanos() as u64);
            result
        };
        if matches!(status, AdvanceStatus::OutOfOrder { .. } | AdvanceStatus::Finished) {
            failed += 1;
        }
        stream.extend(emitted);
        if let Some(log) = log.as_mut() {
            log.push(WalRecord::AdvanceTo(close));
        }
        let zone_ns = sink.take_zone_ns();
        if zones > 1 && zone_ns.iter().any(|&n| n > 0) {
            let max = zone_ns.iter().copied().max().unwrap_or(0);
            let mean = zone_ns.iter().sum::<u64>() / zones as u64;
            imbalance_ns.push(max - mean);
        }
        let window = window_ns.len();

        if let Target::Durable(d) = &mut target {
            if window.is_multiple_of(options.checkpoint_every) && !d.dispatch.target().is_finished()
            {
                let started = Instant::now();
                let checkpoint = d.dispatch.checkpoint().map_err(|e| e.to_string())?;
                capture_ns.push(started.elapsed().as_nanos() as u64);
                let seq = checkpoint.wal_seq;
                d.checkpointer.save(seq, checkpoint);
                if options.drill_checkpoint(window) {
                    sealed_at = Some(seq);
                    mark = stream.len();
                }
                let sealed = d.checkpointer.sealed_seq();
                if sealed > compacted {
                    let started = Instant::now();
                    d.dispatch.compact_log(sealed).map_err(|e| e.to_string())?;
                    compact_ns.push(started.elapsed().as_nanos() as u64);
                    compacted = sealed;
                }
            }
        } else if options.drill_checkpoint(window) && !target.finished() {
            snapshot = Some(match &target {
                Target::Service(s) => Snapshot::Service(Box::new(s.checkpoint())),
                Target::Router(r) => Snapshot::Router(r.checkpoint()),
                Target::Durable(_) => unreachable!("durable targets checkpoint on cadence"),
            });
            mark = stream.len();
            log = Some(Vec::new());
        }

        if window > options.drill_lag && options.drill_checkpoint(window - options.drill_lag) {
            let drill =
                recovery_drill(inputs, &target, snapshot.take(), sealed_at.take(), log.take())?;
            recovery_secs.push(drill.secs);
            replay_records += drill.records;
            violations.extend(drill.violations);
            let mut replayed = drill.replayed;
            if let Some(v) = options.inject {
                v.corrupt_replay(&mut replayed);
            }
            violations.extend(checks::check_replay(&stream[mark..], &replayed));
        }
    }
    if recovery_secs.is_empty() {
        violations.push("the run ended before its first recovery drill".to_string());
    }

    let report = target.report();
    if let Target::Durable(d) = &target {
        if let Err(e) = d.checkpointer.drain() {
            violations.push(format!("background checkpointer: {e}"));
        }
    }
    drop(target);

    if let Some(v) = options.inject {
        v.corrupt_stream(&mut stream);
    }
    violations.extend(checks::check_stream(&accepted, &stream, &report, inputs.zones.as_ref()));
    let simulated_secs = window_ns.len() as f64 * delta.as_secs_f64();
    Ok(Pass {
        setup_secs,
        engine_build_secs,
        window_ns,
        simulated_secs,
        digest: checks::digest(&stream),
        stream,
        report,
        attempted,
        failed,
        submits,
        submit_ns,
        ingested,
        recovery_secs,
        replay_records,
        capture_ns,
        compact_ns,
        imbalance_ns,
        probe: sink.totals(),
        queries: sink.engine_queries(),
        violations,
    })
}

struct Drill {
    secs: f64,
    records: usize,
    replayed: Vec<Emitted>,
    violations: Vec<String>,
}

/// Restores the latest checkpoint into a fresh engine and dispatcher and
/// replays the inputs logged since; returns the replayed outputs for
/// comparison with the live ones. The global recorder is parked while the
/// drill runs, so the drill's own engine does not feed the traced figures.
fn recovery_drill(
    inputs: &Inputs,
    target: &Target,
    snapshot: Option<Snapshot>,
    sealed_at: Option<u64>,
    log: Option<Vec<WalRecord>>,
) -> Result<Drill, String> {
    let scratch = ProbeSink::new(zone_count(inputs));
    let mut violations = Vec::new();
    if let Target::Durable(d) = target {
        match d.checkpointer.drain() {
            Ok(sealed) if Some(sealed) == sealed_at => {}
            Ok(sealed) => violations.push(format!(
                "checkpointer sealed seq {sealed}, the drill expected {sealed_at:?}"
            )),
            Err(e) => violations.push(format!("background checkpointer: {e}")),
        }
    }
    let recorder = foodmatch_telemetry::uninstall();
    let started = Instant::now();
    let result = (|| -> Result<(usize, Vec<Emitted>), String> {
        let engine = || ShortestPathEngine::cached(inputs.network.clone());
        let replay_err = |e: foodmatch_sim::ReplayError| e.to_string();
        Ok(match (target, snapshot) {
            (Target::Durable(d), _) => {
                let checkpoint: ServiceCheckpoint = load_checkpoint(&d.checkpoint_path)
                    .map_err(|e| format!("loading the checkpoint: {e}"))?;
                let wal =
                    read_wal_file(&d.wal_path).map_err(|e| format!("reading the WAL: {e}"))?;
                let suffix = wal.suffix_from(checkpoint.wal_seq).map_err(|e| e.to_string())?;
                let mut restored = DispatchService::restore(
                    engine(),
                    Probe::new(Arc::clone(&scratch), 0),
                    &checkpoint,
                );
                let outputs = replay_wal(&mut restored, suffix).map_err(replay_err)?;
                (suffix.len(), untagged(outputs, restored.now()))
            }
            (Target::Service(_), Some(Snapshot::Service(checkpoint))) => {
                let records = log.expect("the drill logs inputs after its checkpoint");
                let mut restored = DispatchService::restore(
                    engine(),
                    Probe::new(Arc::clone(&scratch), 0),
                    &checkpoint,
                );
                let outputs = replay_wal(&mut restored, &records).map_err(replay_err)?;
                (records.len(), untagged(outputs, restored.now()))
            }
            (Target::Router(_), Some(Snapshot::Router(checkpoint))) => {
                let records = log.expect("the drill logs inputs after its checkpoint");
                let zones = inputs.zones.clone().expect("router workloads have a zone map");
                let mut restored = DispatchRouter::restore(
                    &inputs.network,
                    zones,
                    |zone| Probe::new(Arc::clone(&scratch), zone.index()),
                    &checkpoint,
                )
                .map_err(|e| e.to_string())?;
                let outputs = replay_wal(&mut restored, &records).map_err(replay_err)?;
                (records.len(), tagged(outputs, restored.now()))
            }
            _ => return Err("the recovery drill found no checkpoint".to_string()),
        })
    })();
    let secs = started.elapsed().as_secs_f64();
    if let Some(recorder) = recorder {
        foodmatch_telemetry::install(recorder);
    }
    let (records, replayed) = result?;
    Ok(Drill { secs, records, replayed, violations })
}
