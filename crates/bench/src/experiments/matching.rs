//! Assignment-solver benchmark: the dispatch solver against its dense
//! reference × window pressure on real FoodGraphs.
//!
//! Not a figure of the paper — this experiment measures the matching stage
//! across the two regimes a dispatcher actually sees:
//!
//! * **City tier** (`city-b-*`): the genuine pipeline — Algorithm 1
//!   batching, then the sparsified FoodGraph of Algorithm 2 — on slices of
//!   the City B lunch-peak order stream. The preset cities are compact
//!   (every vehicle reaches every restaurant inside the first-mile bound),
//!   so these graphs are nearly dense single components: the regime where
//!   the serial dense Kuhn–Munkres baseline is hard to beat, reported
//!   honestly as such.
//! * **Metro tier** (`metro-*`): the high-pressure windows. The same
//!   FoodGraph construction runs on a generated metro-scale grid whose
//!   restaurant hotspots sit farther apart than the first-mile bound
//!   reaches, as in a real multi-zone city. Algorithm 2 then leaves most
//!   (batch, vehicle) pairs at Ω, the bipartite graph splits into
//!   per-zone connected components, and the component-sharded sparse
//!   solver pulls ahead of the dense baseline.
//!
//! Reported per pressure level: the connected-component structure of the
//! bipartite graph (count histogram, largest shard), solve-time percentiles
//! of the dispatch solver (`decomposed-sparse-km`) and the serial dense
//! reference (`dense-km`), the worst per-instance total-cost deviation from
//! the reference (0: both are exact), and the dispatch solver's speedup.
//!
//! With `--bench-out FILE` the results are additionally written as JSON
//! (`BENCH_matching.json` in CI) so successive commits can compare solve
//! times.

use crate::harness::{header, percentile, ExperimentContext};
use foodmatch_core::{
    batch_orders, build_food_graph, singleton_batches, DispatchConfig, Order, OrderId, VehicleId,
    VehicleSnapshot,
};
use foodmatch_matching::{decompose, instrumented, AssignmentSolver, DenseKm, SparseCostMatrix};
use foodmatch_roadnet::generators::GridCityBuilder;
use foodmatch_roadnet::{Duration, NodeId, ShortestPathEngine, TimePoint};
use foodmatch_workload::{CityId, Scenario, ScenarioOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timing rounds per (solver, instance); the best round is kept.
const ROUNDS: usize = 3;

/// One window instance at a pressure level.
struct Instance {
    costs: SparseCostMatrix,
    batches: usize,
}

/// Aggregated per-solver timings at one pressure level.
struct SolverResult {
    name: &'static str,
    mean_us: f64,
    p50_us: f64,
    p90_us: f64,
    max_us: f64,
    /// Worst |total − dense total| across instances.
    max_cost_delta: f64,
}

/// Component structure of one pressure level's instances.
struct ComponentStats {
    count_min: usize,
    count_max: usize,
    count_mean: f64,
    largest_rows: usize,
    largest_cols: usize,
    /// component count → number of instances with that count.
    histogram: BTreeMap<usize, usize>,
}

struct PressureResult {
    label: String,
    orders: usize,
    instances: usize,
    vehicles: usize,
    batches_mean: f64,
    explicit_entries_mean: f64,
    components: ComponentStats,
    solvers: Vec<SolverResult>,
    speedup_decomposed_sparse_vs_dense: f64,
}

/// Runs the benchmark, prints the tables, and writes `ctx.bench_out` when
/// set.
pub fn run(ctx: &ExperimentContext) {
    header("Assignment solvers — component sharding and solve times");

    let threads = DispatchConfig::default().effective_threads();
    let mut results: Vec<PressureResult> = Vec::new();

    // City tier: real batched City B lunch-peak windows (near-dense).
    let scenario = Scenario::generate(CityId::B, options(ctx));
    let engine = ShortestPathEngine::cached(scenario.city.network.clone());
    let t = TimePoint::from_hms(13, 0, 0);
    let config = scenario.default_config();
    let vehicles: Vec<VehicleSnapshot> =
        scenario.vehicle_starts.iter().map(|&(id, node)| VehicleSnapshot::idle(id, node)).collect();
    let city_pressures: &[usize] = if ctx.quick { &[40, 120] } else { &[60, 150, 300] };
    let instance_count = if ctx.quick { 3 } else { 5 };
    println!(
        "city tier: {} orders in stream, {} vehicles, {} instances per pressure; \
         {} solver thread(s)",
        scenario.orders.len(),
        vehicles.len(),
        instance_count,
        threads
    );
    for &pressure in city_pressures {
        let instances = build_city_instances(
            &scenario,
            &vehicles,
            &engine,
            t,
            &config,
            pressure,
            instance_count,
        );
        let result =
            bench_pressure(format!("city-b-{pressure}"), pressure, vehicles.len(), &instances);
        print_pressure(&result);
        results.push(result);
    }

    // Metro tier: multi-zone metro grid where the first-mile bound bites —
    // the high-pressure, sparse, decomposing regime.
    let metro = if ctx.quick {
        MetroShape { grid: 50, spacing_m: 1_300.0, zones: 4, orders: 300, vehicles: 250 }
    } else {
        MetroShape { grid: 70, spacing_m: 1_300.0, zones: 6, orders: 600, vehicles: 480 }
    };
    let metro_instances = if ctx.quick { 2 } else { 3 };
    println!();
    println!(
        "metro tier: {}x{} grid at {:.0} m spacing, {} restaurant zones, {} orders x {} vehicles",
        metro.grid, metro.grid, metro.spacing_m, metro.zones, metro.orders, metro.vehicles
    );
    let instances = build_metro_instances(&metro, ctx.seed, metro_instances);
    let result =
        bench_pressure(format!("metro-{}", metro.orders), metro.orders, metro.vehicles, &instances);
    print_pressure(&result);
    results.push(result);

    let headline = results.last().map(|r| r.speedup_decomposed_sparse_vs_dense).unwrap_or(f64::NAN);
    println!();
    println!(
        "decomposed-sparse-km speedup over serial dense KM on the metro windows: {headline:.2}x"
    );

    if let Some(path) = &ctx.bench_out {
        let json = to_json(ctx, threads, &results);
        match std::fs::write(path, json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("failed to write {}: {err}", path.display()),
        }
    }
}

fn options(ctx: &ExperimentContext) -> ScenarioOptions {
    let mut options = ScenarioOptions::lunch_peak(ctx.seed);
    if ctx.quick {
        options.start = TimePoint::from_hms(12, 0, 0);
        options.end = TimePoint::from_hms(13, 30, 0);
    }
    options
}

/// Builds `count` window instances of `pressure` orders each by running the
/// batching + FoodGraph pipeline over consecutive (wrapping) slices of the
/// scenario's order stream.
fn build_city_instances(
    scenario: &Scenario,
    vehicles: &[VehicleSnapshot],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
    pressure: usize,
    count: usize,
) -> Vec<Instance> {
    let stream = &scenario.orders;
    (0..count)
        .map(|i| {
            let window_orders: Vec<_> =
                (0..pressure).map(|k| stream[(i * pressure + k) % stream.len()]).collect();
            let batches = batch_orders(&window_orders, engine, t, config).batches;
            let graph = build_food_graph(&batches, vehicles, engine, t, config);
            Instance { costs: graph.costs, batches: batches.len() }
        })
        .collect()
}

/// Shape of the generated metro-scale city.
struct MetroShape {
    grid: usize,
    spacing_m: f64,
    zones: usize,
    orders: usize,
    vehicles: usize,
}

/// Builds metro-tier window instances: restaurant hotspots in well-separated
/// zones, customers a short hop away, vehicles scattered city-wide, and a
/// 15-minute first-mile bound (a metro dispatcher never sends a courier
/// across town). Everything downstream is the real pipeline: singleton
/// batches plus Algorithm 2's sparsified FoodGraph construction.
fn build_metro_instances(shape: &MetroShape, seed: u64, count: usize) -> Vec<Instance> {
    let builder = GridCityBuilder::new(shape.grid, shape.grid).spacing_m(shape.spacing_m);
    let engine = ShortestPathEngine::cached(builder.build());
    let t = TimePoint::from_hms(13, 0, 0);
    let config =
        DispatchConfig { max_first_mile: Duration::from_mins(15.0), ..DispatchConfig::default() };
    // Zone centres on a 2×⌈zones/2⌉ grid spread to the city edges, far
    // enough apart that no vehicle reaches two zones inside the first-mile
    // bound (which is what keeps the zones separate components).
    let per_row = shape.zones.div_ceil(2);
    let col_step = if per_row > 1 { (shape.grid * 3 / 5) / (per_row - 1) } else { 0 };
    let hotspots: Vec<(usize, usize)> = (0..shape.zones)
        .map(|z| {
            let row = if z < per_row { shape.grid / 5 } else { shape.grid * 4 / 5 };
            let col = shape.grid / 5 + (z % per_row) * col_step;
            (row, col)
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(71));
    (0..count)
        .map(|_| {
            let orders: Vec<Order> = (0..shape.orders)
                .map(|i| {
                    let (hr, hc) = hotspots[rng.random_range(0..hotspots.len())];
                    let mut jitter = |v: usize, span: i64| {
                        (v as i64 + rng.random_range(-span..=span)).clamp(0, shape.grid as i64 - 1)
                            as usize
                    };
                    let (rr, rc) = (jitter(hr, 2), jitter(hc, 2));
                    let (cr, cc) = (jitter(hr, 6), jitter(hc, 6));
                    let restaurant = builder.node_at(rr, rc);
                    let customer = builder.node_at(cr, cc);
                    Order::new(
                        OrderId(i as u64),
                        restaurant,
                        customer,
                        t,
                        1 + (i % 2) as u32,
                        Duration::from_mins(6.0),
                    )
                })
                .collect();
            let vehicles: Vec<VehicleSnapshot> = (0..shape.vehicles)
                .map(|i| {
                    let node = NodeId(rng.random_range(0..(shape.grid * shape.grid) as u32));
                    VehicleSnapshot::idle(VehicleId(i as u32), node)
                })
                .collect();
            let batches = singleton_batches(&orders, &engine, t).batches;
            let graph = build_food_graph(&batches, &vehicles, &engine, t, &config);
            Instance { costs: graph.costs, batches: batches.len() }
        })
        .collect()
}

fn bench_pressure(
    label: String,
    pressure: usize,
    vehicles: usize,
    instances: &[Instance],
) -> PressureResult {
    // Component structure (solver-independent).
    let mut histogram: BTreeMap<usize, usize> = BTreeMap::new();
    let (mut count_min, mut count_max, mut count_sum) = (usize::MAX, 0usize, 0usize);
    let (mut largest_rows, mut largest_cols) = (0usize, 0usize);
    for instance in instances {
        let components = decompose(&instance.costs);
        let count = components.len();
        *histogram.entry(count).or_insert(0) += 1;
        count_min = count_min.min(count);
        count_max = count_max.max(count);
        count_sum += count;
        for component in &components {
            largest_rows = largest_rows.max(component.rows.len());
            largest_cols = largest_cols.max(component.cols.len());
        }
    }

    // Reference totals from the serial dense solver.
    let dense_totals: Vec<f64> =
        instances.iter().map(|i| DenseKm.solve(&i.costs).total_cost).collect();

    let mut solvers: Vec<SolverResult> = Vec::new();
    for solver in [instrumented(DenseKm), DispatchConfig::default().build_solver()] {
        let mut best_us: Vec<f64> = Vec::with_capacity(instances.len());
        let mut max_cost_delta = 0.0_f64;
        for (instance, &dense_total) in instances.iter().zip(&dense_totals) {
            let mut best = f64::INFINITY;
            let mut total = f64::NAN;
            for _ in 0..ROUNDS {
                let started = Instant::now();
                let assignment = solver.solve(&instance.costs);
                best = best.min(started.elapsed().as_secs_f64() * 1e6);
                total = assignment.total_cost;
            }
            best_us.push(best);
            max_cost_delta = max_cost_delta.max((total - dense_total).abs());
        }
        let mut sorted = best_us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        solvers.push(SolverResult {
            name: solver.name(),
            mean_us: best_us.iter().sum::<f64>() / best_us.len().max(1) as f64,
            p50_us: percentile(&sorted, 50.0),
            p90_us: percentile(&sorted, 90.0),
            max_us: sorted.last().copied().unwrap_or(0.0),
            max_cost_delta,
        });
    }

    let mean_of =
        |name: &str| solvers.iter().find(|s| s.name == name).map(|s| s.mean_us).unwrap_or(f64::NAN);
    let speedup = mean_of("dense-km") / mean_of("decomposed-sparse-km");

    PressureResult {
        label,
        orders: pressure,
        instances: instances.len(),
        vehicles,
        batches_mean: instances.iter().map(|i| i.batches as f64).sum::<f64>()
            / instances.len().max(1) as f64,
        explicit_entries_mean: instances
            .iter()
            .map(|i| i.costs.explicit_entries() as f64)
            .sum::<f64>()
            / instances.len().max(1) as f64,
        components: ComponentStats {
            count_min: if count_min == usize::MAX { 0 } else { count_min },
            count_max,
            count_mean: count_sum as f64 / instances.len().max(1) as f64,
            largest_rows,
            largest_cols,
            histogram,
        },
        solvers,
        speedup_decomposed_sparse_vs_dense: speedup,
    }
}

fn print_pressure(result: &PressureResult) {
    println!();
    println!(
        "{}: {} orders -> {:.1} batches x {} vehicles, {:.0} explicit edges, \
         components {}..{} (mean {:.1}), largest shard {}x{}",
        result.label,
        result.orders,
        result.batches_mean,
        result.vehicles,
        result.explicit_entries_mean,
        result.components.count_min,
        result.components.count_max,
        result.components.count_mean,
        result.components.largest_rows,
        result.components.largest_cols
    );
    println!(
        "  {:<22} {:>10} {:>10} {:>10} {:>10} {:>14}",
        "solver", "mean (us)", "p50", "p90", "max", "cost dev"
    );
    for solver in &result.solvers {
        println!(
            "  {:<22} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>14.6}",
            solver.name,
            solver.mean_us,
            solver.p50_us,
            solver.p90_us,
            solver.max_us,
            solver.max_cost_delta
        );
    }
    println!(
        "  speedup decomposed-sparse-km vs dense-km: {:.2}x",
        result.speedup_decomposed_sparse_vs_dense
    );
}

/// Serialises the results by hand (the vendored serde is an offline stub);
/// flat, stable keys — CI diffs them.
fn to_json(ctx: &ExperimentContext, threads: usize, results: &[PressureResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"scenario\": \"city-B lunch-peak windows\",\n");
    out.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    out.push_str(&format!("  \"quick\": {},\n", ctx.quick));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    ));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"pressures\": [\n");
    for (i, p) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"orders\": {}, \"instances\": {}, \"vehicles\": {}, \
             \"batches_mean\": {:.1}, \"explicit_entries_mean\": {:.1},\n",
            p.label, p.orders, p.instances, p.vehicles, p.batches_mean, p.explicit_entries_mean
        ));
        let histogram = p
            .components
            .histogram
            .iter()
            .map(|(count, instances)| format!("[{count}, {instances}]"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "     \"components\": {{\"count_min\": {}, \"count_max\": {}, \
             \"count_mean\": {:.2}, \"largest_rows\": {}, \"largest_cols\": {}, \
             \"histogram\": [{}]}},\n",
            p.components.count_min,
            p.components.count_max,
            p.components.count_mean,
            p.components.largest_rows,
            p.components.largest_cols,
            histogram
        ));
        out.push_str("     \"solvers\": [\n");
        for (j, s) in p.solvers.iter().enumerate() {
            out.push_str(&format!(
                "       {{\"name\": \"{}\", \"mean_us\": {:.1}, \"p50_us\": {:.1}, \
                 \"p90_us\": {:.1}, \"max_us\": {:.1}, \"max_cost_delta_vs_dense\": {:.6}}}{}\n",
                s.name,
                s.mean_us,
                s.p50_us,
                s.p90_us,
                s.max_us,
                s.max_cost_delta,
                if j + 1 < p.solvers.len() { "," } else { "" }
            ));
        }
        out.push_str("     ],\n");
        out.push_str(&format!(
            "     \"speedup_decomposed_sparse_vs_dense\": {:.3}}}{}\n",
            p.speedup_decomposed_sparse_vs_dense,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_layout_is_wellformed() {
        let ctx = ExperimentContext::default();
        let mut histogram = BTreeMap::new();
        histogram.insert(3, 2);
        let results = vec![PressureResult {
            label: "city-b-60".to_string(),
            orders: 60,
            instances: 2,
            vehicles: 90,
            batches_mean: 41.0,
            explicit_entries_mean: 800.0,
            components: ComponentStats {
                count_min: 3,
                count_max: 3,
                count_mean: 3.0,
                largest_rows: 20,
                largest_cols: 30,
                histogram,
            },
            solvers: vec![SolverResult {
                name: "dense-km",
                mean_us: 100.0,
                p50_us: 90.0,
                p90_us: 120.0,
                max_us: 130.0,
                max_cost_delta: 0.0,
            }],
            speedup_decomposed_sparse_vs_dense: 2.5,
        }];
        let json = to_json(&ctx, 4, &results);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in ["speedup_decomposed_sparse_vs_dense", "histogram", "max_cost_delta_vs_dense"] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
