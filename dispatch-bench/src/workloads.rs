//! The three workloads and their inputs. Everything here is derived from
//! the seed; the dispatcher only ever sees the generated orders and events.

use foodmatch_core::{DispatchConfig, Order, VehicleId};
use foodmatch_events::{DisruptionEvent, EventKind};
use foodmatch_roadnet::{Duration, NodeId, RoadNetwork, TimePoint};
use foodmatch_sim::ZoneMap;
use foodmatch_workload::{
    CityId, DisruptionPreset, MetroOptions, MetroScenario, OrderSource, PoissonOrderSource,
    Scenario, ScenarioOptions,
};

/// Which dispatcher shape a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `DispatchService`, in memory.
    Service,
    /// `DispatchRouter` over a zone map, in memory.
    Router,
    /// `DurableDispatch<DispatchService>` with a WAL and background
    /// checkpoints on disk.
    Durable,
}

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CityBDay,
    Metro4Zone,
    CityBRainDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::CityBDay, Workload::Metro4Zone, Workload::CityBRainDurable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CityBDay => "city-b-day",
            Workload::Metro4Zone => "metro-4zone",
            Workload::CityBRainDurable => "city-b-rain-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Demand days per full-size run: two independent days, so each run's
    /// figures average over twice the orders of one day.
    pub const DAYS: usize = 2;

    pub fn shape(self) -> Shape {
        match self {
            Workload::CityBDay => Shape::Service,
            Workload::Metro4Zone => Shape::Router,
            Workload::CityBRainDurable => Shape::Durable,
        }
    }
}

/// Run size: the full benchmark, or a few-window version for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// Metro demand: the committed lunch-peak shape is 300 orders over one hour
/// for 250 vehicles; the benchmark keeps the city and fleet and stretches the
/// horizon to `METRO_HOURS` at this many orders per hour.
const METRO_ORDERS_PER_HOUR: usize = 400;
const METRO_HOURS: f64 = 12.0;

/// Everything a run needs, generated from the seed.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub network: RoadNetwork,
    pub vehicle_starts: Vec<(VehicleId, NodeId)>,
    /// Sorted by `(placed_at, id)`.
    pub orders: Vec<Order>,
    /// Sorted by `at` (stable, so generation order breaks ties).
    pub events: Vec<DisruptionEvent>,
    pub config: DispatchConfig,
    pub start: TimePoint,
    pub end: TimePoint,
    pub drain_limit: Duration,
    /// The router's zone map; `None` for the single-service shapes.
    pub zones: Option<ZoneMap>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, size: Size) -> Self {
        let small = size == Size::Small;
        let hms = TimePoint::from_hms;
        match workload {
            Workload::CityBDay => {
                let (start, end) = if small {
                    (hms(10, 0, 0), hms(11, 0, 0))
                } else {
                    (hms(10, 0, 0), hms(22, 0, 0))
                };
                city_b(half_scale(seed, start, end), Vec::new())
            }
            Workload::CityBRainDurable => {
                let start = hms(18, 0, 0);
                let end = if small { hms(19, 0, 0) } else { hms(23, 59, 59) };
                let mut scenario = half_scale(seed, start, end);
                // The weather spans noon to midnight, so the rain (from
                // 30% of that span, 15:36) has set in before the horizon
                // opens and every window is wet. Rain and incidents are
                // drawn first from the builder's generator, so the fixed
                // weather seed gives every run the same evening;
                // cancellations and prep delays follow the run's orders.
                scenario.options.start = hms(12, 0, 0);
                let events = DisruptionPreset::RainyEvening.builder(WEATHER_SEED).build(&scenario);
                scenario.options.start = start;
                let events = events
                    .into_iter()
                    .filter(|e| match e.kind {
                        EventKind::Traffic(traffic) => traffic.until > start,
                        _ => e.at >= start,
                    })
                    .collect();
                city_b(scenario, events)
            }
            Workload::Metro4Zone => {
                let hours = if small { 1.0 } else { METRO_HOURS };
                let base = MetroOptions::lunch_peak(seed);
                let options = MetroOptions {
                    orders: (METRO_ORDERS_PER_HOUR as f64 * hours).round() as usize,
                    end: base.start + Duration::from_hours(hours),
                    ..base
                };
                let metro = MetroScenario::generate(options);
                let zones = metro.grouped_zone_map(4);
                Inputs {
                    config: metro.config(),
                    network: metro.network,
                    vehicle_starts: metro.vehicle_starts,
                    orders: metro.orders,
                    events: Vec::new(),
                    start: options.start,
                    end: options.end,
                    drain_limit: Duration::from_hours(2.0),
                    zones: Some(zones),
                }
            }
        }
    }

    pub fn delta(&self) -> Duration {
        self.config.accumulation_window
    }

    /// Windows inside the workload horizon (the drain phase adds a few more).
    pub fn horizon_windows(&self) -> usize {
        ((self.end - self.start).as_secs_f64() / self.delta().as_secs_f64()).ceil() as usize
    }
}

/// The seed of the City B instance every City B workload runs on: its road
/// network, restaurants and vehicle start positions. The run's `--seed`
/// picks the demand day over this fixed city, as the paper's evaluation
/// replays several days of one city.
const CITY_B_SEED: u64 = 1;

/// The seed of the rainy evening the durable workload replays.
const WEATHER_SEED: u64 = 1;

/// City B at half scale: the preset's network and restaurants, half the
/// fleet, and a demand day of half the preset's daily volume drawn from
/// `seed`, so the order-to-vehicle ratio (what makes a City B window hard)
/// is the preset's.
fn half_scale(seed: u64, start: TimePoint, end: TimePoint) -> Scenario {
    let options = ScenarioOptions { start, end, ..ScenarioOptions::full_day(CITY_B_SEED) }
        .with_vehicle_fraction(0.5);
    let mut scenario = Scenario::generate(CityId::B, options);
    let per_day = scenario.city.preset.orders_per_day / 2;
    scenario.orders =
        PoissonOrderSource::new(&scenario, seed).with_orders_per_day(per_day).poll(end);
    scenario
}

fn city_b(scenario: Scenario, mut events: Vec<DisruptionEvent>) -> Inputs {
    events.sort_by_key(|e| e.at);
    Inputs {
        config: scenario.default_config(),
        network: scenario.city.network,
        vehicle_starts: scenario.vehicle_starts,
        orders: scenario.orders,
        events,
        start: scenario.options.start,
        end: scenario.options.end,
        // The drain limit batch runs use (`Simulation::drain_limit`).
        drain_limit: Duration::from_hours(3.0),
        zones: None,
    }
}
