//! Correctness checks over a run's output stream, and the stream digest.
//!
//! Every check reads only what the public API returned: the orders the
//! dispatcher accepted, the typed outputs of each `advance_to` call, and the
//! final `report()`. A violation is a human-readable line; any violation
//! makes the benchmark exit non-zero.

use foodmatch_core::{Order, OrderId, VehicleId};
use foodmatch_roadnet::{Duration, TimePoint};
use foodmatch_sim::{DispatchOutput, SimulationReport, ZoneMap};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One output as the benchmark saw it: the zone that emitted it (0 for a
/// bare service) and the target of the `advance_to` call that returned it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Emitted {
    pub zone: u32,
    pub output: DispatchOutput,
    pub close: TimePoint,
}

/// The output with its wall-clock fields (`compute_secs`, `overflown`)
/// cleared: what must repeat bit for bit between runs of one seed.
pub fn canonical(output: DispatchOutput) -> DispatchOutput {
    match output {
        DispatchOutput::WindowClosed { mut stats } => {
            stats.compute_secs = 0.0;
            stats.overflown = false;
            DispatchOutput::WindowClosed { stats }
        }
        other => other,
    }
}

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash over `bytes`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over the canonical form of every output, zone tag included.
pub fn digest(stream: &[Emitted]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut feed = |bytes: &[u8]| hash = fnv1a(hash, bytes);
    for e in stream {
        feed(&e.zone.to_le_bytes());
        match canonical(e.output) {
            DispatchOutput::Assigned { order, vehicle, at } => {
                feed(&[0]);
                feed(&order.0.to_le_bytes());
                feed(&vehicle.0.to_le_bytes());
                feed(&at.as_secs_f64().to_bits().to_le_bytes());
            }
            DispatchOutput::PickedUp { order, vehicle, at, waited } => {
                feed(&[1]);
                feed(&order.0.to_le_bytes());
                feed(&vehicle.0.to_le_bytes());
                feed(&at.as_secs_f64().to_bits().to_le_bytes());
                feed(&waited.as_secs_f64().to_bits().to_le_bytes());
            }
            DispatchOutput::Delivered { order, vehicle, at, xdt } => {
                feed(&[2]);
                feed(&order.0.to_le_bytes());
                feed(&vehicle.0.to_le_bytes());
                feed(&at.as_secs_f64().to_bits().to_le_bytes());
                feed(&xdt.as_secs_f64().to_bits().to_le_bytes());
            }
            DispatchOutput::Rejected { order, at } => {
                feed(&[3]);
                feed(&order.0.to_le_bytes());
                feed(&at.as_secs_f64().to_bits().to_le_bytes());
            }
            DispatchOutput::Cancelled { order, at } => {
                feed(&[4]);
                feed(&order.0.to_le_bytes());
                feed(&at.as_secs_f64().to_bits().to_le_bytes());
            }
            DispatchOutput::WindowClosed { stats } => {
                feed(&[5]);
                feed(&stats.closed_at.as_secs_f64().to_bits().to_le_bytes());
                for n in [stats.orders, stats.vehicles, stats.assigned] {
                    feed(&(n as u64).to_le_bytes());
                }
                feed(&[u8::from(stats.disrupted)]);
            }
        }
    }
    hash
}

/// The order an output is about, if any.
fn order_of(output: &DispatchOutput) -> Option<OrderId> {
    match *output {
        DispatchOutput::Assigned { order, .. }
        | DispatchOutput::PickedUp { order, .. }
        | DispatchOutput::Delivered { order, .. }
        | DispatchOutput::Rejected { order, .. }
        | DispatchOutput::Cancelled { order, .. } => Some(order),
        DispatchOutput::WindowClosed { .. } => None,
    }
}

/// The output's own timestamp.
fn time_of(output: &DispatchOutput) -> TimePoint {
    match *output {
        DispatchOutput::Assigned { at, .. }
        | DispatchOutput::PickedUp { at, .. }
        | DispatchOutput::Delivered { at, .. }
        | DispatchOutput::Rejected { at, .. }
        | DispatchOutput::Cancelled { at, .. } => at,
        DispatchOutput::WindowClosed { stats } => stats.closed_at,
    }
}

#[derive(Default)]
struct OrderTrail {
    assigned: Option<(VehicleId, TimePoint)>,
    picked: Option<(VehicleId, TimePoint)>,
    terminal: u32,
}

/// Checks the stream against the accepted orders and the final report.
/// `zones` is the router's zone map (the zone check applies to routers only).
pub fn check_stream(
    accepted: &[Order],
    stream: &[Emitted],
    report: &SimulationReport,
    zones: Option<&ZoneMap>,
) -> Vec<String> {
    let mut violations = Vec::new();
    let orders: HashMap<OrderId, &Order> = accepted.iter().map(|o| (o.id, o)).collect();
    let mut trails: BTreeMap<OrderId, OrderTrail> =
        accepted.iter().map(|o| (o.id, OrderTrail::default())).collect();
    let mut vehicle_clock: HashMap<VehicleId, TimePoint> = HashMap::new();
    let mut zone_clock: HashMap<u32, TimePoint> = HashMap::new();
    let (mut delivered, mut rejected, mut cancelled) = (Vec::new(), Vec::new(), Vec::new());
    let (mut windows, mut waited_secs) = (0usize, 0.0f64);

    for (i, e) in stream.iter().enumerate() {
        let at = time_of(&e.output);
        if at > e.close {
            violations.push(format!("output {i} at {at:?} is later than its window close"));
        }
        if let Some(order) = order_of(&e.output) {
            let Some(trail) = trails.get_mut(&order) else {
                violations.push(format!("output {i} names order {} never accepted", order.0));
                continue;
            };
            if let Some(map) = zones {
                let owner = map.zone_of(orders[&order].restaurant).map(|z| z.0);
                if owner != Some(e.zone) {
                    violations.push(format!(
                        "order {} output tagged zone {} but zone {owner:?} owns it",
                        order.0, e.zone
                    ));
                }
            }
            if trail.terminal > 0 {
                violations.push(format!("order {} has an output after its terminal one", order.0));
            }
            match e.output {
                DispatchOutput::Assigned { vehicle, at, .. } => {
                    trail.assigned = Some((vehicle, at));
                }
                DispatchOutput::PickedUp { vehicle, at, waited, .. } => {
                    waited_secs += waited.as_secs_f64();
                    match trail.assigned {
                        Some((v, t)) if v == vehicle && t <= at => {}
                        other => violations.push(format!(
                            "order {} picked up by vehicle {} at {at:?}; last assignment {other:?}",
                            order.0, vehicle.0
                        )),
                    }
                    if trail.picked.replace((vehicle, at)).is_some() {
                        violations.push(format!("order {} picked up twice", order.0));
                    }
                    advance_clock(&mut vehicle_clock, vehicle, at, &mut violations);
                }
                DispatchOutput::Delivered { vehicle, at, xdt, .. } => {
                    match trail.picked {
                        Some((v, t)) if v == vehicle && t <= at => {}
                        other => violations.push(format!(
                            "order {} delivered by vehicle {} at {at:?}; pickup {other:?}",
                            order.0, vehicle.0
                        )),
                    }
                    advance_clock(&mut vehicle_clock, vehicle, at, &mut violations);
                    trail.terminal += 1;
                    delivered.push((order, xdt));
                }
                DispatchOutput::Rejected { .. } => {
                    trail.terminal += 1;
                    rejected.push(order);
                }
                DispatchOutput::Cancelled { .. } => {
                    trail.terminal += 1;
                    cancelled.push(order);
                }
                DispatchOutput::WindowClosed { .. } => unreachable!("window outputs name no order"),
            }
        } else if let DispatchOutput::WindowClosed { stats } = e.output {
            windows += 1;
            if let Some(previous) = zone_clock.insert(e.zone, stats.closed_at) {
                if previous >= stats.closed_at {
                    violations.push(format!("zone {} window clock went backwards", e.zone));
                }
            }
        }
    }

    // Every accepted order ends exactly once, or is reported undelivered.
    let undelivered: BTreeSet<OrderId> = report.undelivered.iter().copied().collect();
    for (order, trail) in &trails {
        let ends = trail.terminal + u32::from(undelivered.contains(order));
        if ends != 1 {
            violations.push(format!("order {} ended {ends} times", order.0));
        }
    }

    // The benchmark's own tallies equal the report.
    if report.total_orders != accepted.len() {
        violations.push(format!(
            "report counts {} orders, {} were accepted",
            report.total_orders,
            accepted.len()
        ));
    }
    delivered.sort_by_key(|&(order, _)| order);
    let mut reported: Vec<(OrderId, Duration)> =
        report.delivered.iter().map(|d| (d.id, d.xdt)).collect();
    reported.sort_by_key(|&(order, _)| order);
    if delivered != reported {
        violations.push(format!(
            "stream delivers {} orders, report {} (or their XDTs differ)",
            delivered.len(),
            reported.len()
        ));
    }
    for (name, mut ours, theirs) in
        [("rejected", rejected, &report.rejected), ("cancelled", cancelled, &report.cancelled)]
    {
        let mut theirs = theirs.clone();
        ours.sort();
        theirs.sort();
        if ours != theirs {
            violations.push(format!(
                "stream has {} {name} orders, report {}",
                ours.len(),
                theirs.len()
            ));
        }
    }
    if windows != report.windows.len() {
        violations
            .push(format!("stream closed {windows} windows, report {}", report.windows.len()));
    }
    let reported_wait = report.waiting_hours() * 3_600.0;
    if (waited_secs - reported_wait).abs() > 1e-6 * reported_wait.max(1.0) {
        violations.push(format!(
            "stream waits {waited_secs:.3} s at restaurants, report {reported_wait:.3} s"
        ));
    }
    violations
}

fn advance_clock(
    clocks: &mut HashMap<VehicleId, TimePoint>,
    vehicle: VehicleId,
    at: TimePoint,
    violations: &mut Vec<String>,
) {
    let clock = clocks.entry(vehicle).or_insert(at);
    if at < *clock {
        violations.push(format!("vehicle {} went back in time to {at:?}", vehicle.0));
    }
    *clock = at;
}

/// Compares the outputs a recovery replay produced with the live outputs
/// over the same span.
pub fn check_replay(live: &[Emitted], replayed: &[Emitted]) -> Vec<String> {
    let strip = |s: &[Emitted]| -> Vec<(u32, DispatchOutput)> {
        s.iter().map(|e| (e.zone, canonical(e.output))).collect()
    };
    let (live, replayed) = (strip(live), strip(replayed));
    if live == replayed {
        return Vec::new();
    }
    let first = live.iter().zip(&replayed).position(|(a, b)| a != b).unwrap_or(live.len());
    vec![format!(
        "recovery replay diverges from the live run at output {first} ({} live, {} replayed)",
        live.len(),
        replayed.len()
    )]
}

/// Deliberate corruptions of a recorded stream, so the self-tests can show
/// that each check fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Drop one `Delivered` output: an order no longer ends.
    LostOrder,
    /// Credit one delivery to another vehicle than the one that picked up.
    VehicleSwap,
    /// Move one output past its window close.
    ClockSkew,
    /// Tag one output with a zone that does not own its order.
    WrongZone,
    /// Drop one `Delivered` output from the replayed stream.
    ReplayMismatch,
}

impl Violation {
    pub const ALL: [Violation; 5] = [
        Violation::LostOrder,
        Violation::VehicleSwap,
        Violation::ClockSkew,
        Violation::WrongZone,
        Violation::ReplayMismatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Violation::LostOrder => "lost-order",
            Violation::VehicleSwap => "vehicle-swap",
            Violation::ClockSkew => "clock-skew",
            Violation::WrongZone => "wrong-zone",
            Violation::ReplayMismatch => "replay-mismatch",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.name() == name)
    }

    /// Applies the corruption to the live stream (all but `ReplayMismatch`).
    pub fn corrupt_stream(self, stream: &mut Vec<Emitted>) {
        let delivery = stream
            .iter()
            .position(|e| matches!(e.output, DispatchOutput::Delivered { .. }))
            .expect("every workload delivers at least one order");
        match self {
            Violation::LostOrder => {
                stream.remove(delivery);
            }
            Violation::VehicleSwap => {
                if let DispatchOutput::Delivered { vehicle, .. } = &mut stream[delivery].output {
                    vehicle.0 = vehicle.0.wrapping_add(1);
                }
            }
            Violation::ClockSkew => {
                stream[delivery].close = stream[delivery].close - Duration::from_hours(1.0);
            }
            Violation::WrongZone => stream[delivery].zone += 1,
            Violation::ReplayMismatch => {}
        }
    }

    /// Applies the corruption to a replayed stream (`ReplayMismatch` only).
    pub fn corrupt_replay(self, replayed: &mut Vec<Emitted>) {
        if self == Violation::ReplayMismatch {
            if let Some(i) =
                replayed.iter().position(|e| matches!(e.output, DispatchOutput::Delivered { .. }))
            {
                replayed.remove(i);
            } else {
                replayed.pop();
            }
        }
    }
}
