//! A measuring [`DispatchPolicy`]: delegates every call to
//! [`FoodMatchPolicy`] and records, from outside the policy, how long each
//! `assign` took and what [`FoodMatchPolicy::last_stats`] reported.
//!
//! Router zones call their policies from worker threads, so the figures go
//! into a shared [`ProbeSink`] of atomics rather than thread-locals.

use foodmatch_core::{
    AssignmentOutcome, DispatchConfig, DispatchPolicy, FoodMatchPolicy, WindowSnapshot,
};
use foodmatch_roadnet::ShortestPathEngine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Totals accumulated by every [`Probe`] of one dispatcher. All counters are
/// statistics that publish no other data, hence `Relaxed`.
#[derive(Debug)]
pub struct ProbeSink {
    /// Wall time spent inside `FoodMatchPolicy::assign`, all zones.
    pub assign_ns: AtomicU64,
    /// Policy calls.
    pub calls: AtomicU64,
    /// Orders presented to the policy, summed over calls.
    pub orders: AtomicU64,
    /// `FoodMatchStats::batches`, summed over calls.
    pub batches: AtomicU64,
    /// `FoodMatchStats::foodgraph_evaluations`, summed over calls.
    pub evaluations: AtomicU64,
    /// Per-zone assign time since the last [`ProbeSink::take_zone_ns`].
    zone_ns: Vec<AtomicU64>,
    /// One engine handle per zone, captured on the zone's first policy call
    /// (the router builds its engines internally; clones share counters).
    engines: Mutex<Vec<Option<ShortestPathEngine>>>,
}

impl ProbeSink {
    /// A sink for a dispatcher with `zones` zones (1 for a bare service).
    pub fn new(zones: usize) -> Arc<Self> {
        Arc::new(ProbeSink {
            assign_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            orders: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            evaluations: AtomicU64::new(0),
            zone_ns: (0..zones).map(|_| AtomicU64::new(0)).collect(),
            engines: Mutex::new(vec![None; zones]),
        })
    }

    /// Per-zone assign nanoseconds since the previous call, resetting them.
    pub fn take_zone_ns(&self) -> Vec<u64> {
        self.zone_ns.iter().map(|z| z.swap(0, Ordering::Relaxed)).collect()
    }

    /// Engine queries answered so far by every captured zone engine.
    pub fn engine_queries(&self) -> u64 {
        self.engines
            .lock()
            .expect("probe engine list poisoned")
            .iter()
            .flatten()
            .map(ShortestPathEngine::query_count)
            .sum()
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// A copy of the totals.
    pub fn totals(&self) -> ProbeTotals {
        ProbeTotals {
            assign_ns: Self::get(&self.assign_ns),
            calls: Self::get(&self.calls),
            orders: Self::get(&self.orders),
            batches: Self::get(&self.batches),
            evaluations: Self::get(&self.evaluations),
        }
    }
}

/// A point-in-time copy of a [`ProbeSink`]'s totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeTotals {
    pub assign_ns: u64,
    pub calls: u64,
    pub orders: u64,
    pub batches: u64,
    pub evaluations: u64,
}

/// The wrapping policy; one per zone.
#[derive(Debug)]
pub struct Probe {
    inner: FoodMatchPolicy,
    sink: Arc<ProbeSink>,
    zone: usize,
    engine_captured: bool,
}

impl Probe {
    pub fn new(sink: Arc<ProbeSink>, zone: usize) -> Self {
        Probe { inner: FoodMatchPolicy::new(), sink, zone, engine_captured: false }
    }
}

impl DispatchPolicy for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn uses_reshuffling(&self, config: &DispatchConfig) -> bool {
        self.inner.uses_reshuffling(config)
    }

    fn assign(
        &mut self,
        window: &WindowSnapshot,
        engine: &ShortestPathEngine,
        config: &DispatchConfig,
    ) -> AssignmentOutcome {
        if !self.engine_captured {
            self.engine_captured = true;
            let mut engines = self.sink.engines.lock().expect("probe engine list poisoned");
            engines[self.zone] = Some(engine.clone());
        }
        let outcome = {
            let _span = foodmatch_telemetry::span("bench", "assign");
            let started = Instant::now();
            let outcome = self.inner.assign(window, engine, config);
            let nanos = started.elapsed().as_nanos() as u64;
            self.sink.assign_ns.fetch_add(nanos, Ordering::Relaxed);
            self.sink.zone_ns[self.zone].fetch_add(nanos, Ordering::Relaxed);
            outcome
        };
        let stats = self.inner.last_stats();
        self.sink.calls.fetch_add(1, Ordering::Relaxed);
        self.sink.orders.fetch_add(window.orders.len() as u64, Ordering::Relaxed);
        self.sink.batches.fetch_add(stats.batches as u64, Ordering::Relaxed);
        self.sink.evaluations.fetch_add(stats.foodgraph_evaluations as u64, Ordering::Relaxed);
        outcome
    }
}
