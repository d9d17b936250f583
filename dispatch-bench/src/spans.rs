//! Sums over the span trace of a traced pass.
//!
//! The benchmark opens a `bench/advance_to` span around every timed call and
//! a `bench/assign` span around every policy call; the program contributes
//! its own spans (`service/window`, `shard/zoneN`, `engine/foodgraph.build`,
//! `solver/*`, `wal/append`, ...).

use foodmatch_telemetry::SpanEvent;

/// Span totals of one traced pass, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanSums {
    /// `bench/advance_to`: the timed calls.
    pub advance_us: u64,
    /// `service/window`: every window of every service (all zones).
    pub window_us: u64,
    /// `shard/*`: each router zone's advance within a lockstep step.
    pub shard_us: u64,
    /// `engine/foodgraph.build`: Alg. 2.
    pub foodgraph_us: u64,
    /// `solver/*`: the assignment solver.
    pub solve_us: u64,
    /// `wal/append`: framing and group-commit flushes.
    pub wal_append_us: u64,
    /// Time inside `bench/advance_to` covered by no program span
    /// (`service/window`, `shard/*`, `wal/append`) and no policy call.
    pub uncovered_us: u64,
}

fn is_cover(event: &SpanEvent) -> bool {
    matches!(
        (event.cat, event.name.as_ref()),
        ("service", "window") | ("shard", _) | ("wal", "append") | ("bench", "assign")
    )
}

/// Sums the spans and measures how much of each `bench/advance_to` span no
/// covering span accounts for.
pub fn sum(events: &[SpanEvent]) -> SpanSums {
    let mut sums = SpanSums::default();
    let mut advances: Vec<(u64, u64)> = Vec::new();
    let mut covers: Vec<(u64, u64)> = Vec::new();
    for e in events {
        let total = match (e.cat, e.name.as_ref()) {
            ("bench", "advance_to") => {
                advances.push((e.start_us, e.start_us + e.dur_us));
                &mut sums.advance_us
            }
            ("service", "window") => &mut sums.window_us,
            ("shard", _) => &mut sums.shard_us,
            ("engine", "foodgraph.build") => &mut sums.foodgraph_us,
            ("solver", _) => &mut sums.solve_us,
            ("wal", "append") => &mut sums.wal_append_us,
            _ => continue,
        };
        *total += e.dur_us;
    }
    for e in events.iter().filter(|e| is_cover(e)) {
        covers.push((e.start_us, e.start_us + e.dur_us));
    }
    advances.sort_unstable();
    covers.sort_unstable();

    // Advance spans never overlap (one client); assign each cover interval
    // to the advance span it starts in, clipped to it, then measure the
    // union per advance span.
    let mut per_advance: Vec<Vec<(u64, u64)>> = vec![Vec::new(); advances.len()];
    for &(start, end) in &covers {
        let i = advances.partition_point(|&(s, _)| s <= start);
        if i == 0 {
            continue;
        }
        let (a_start, a_end) = advances[i - 1];
        let (start, end) = (start.max(a_start), end.min(a_end));
        if start < end {
            per_advance[i - 1].push((start, end));
        }
    }
    for (&(a_start, a_end), intervals) in advances.iter().zip(&per_advance) {
        let (mut covered, mut reach) = (0u64, a_start);
        for &(start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        sums.uncovered_us += (a_end - a_start).saturating_sub(covered);
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(cat: &'static str, name: &'static str, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent { cat, name: Cow::Borrowed(name), start_us, dur_us, tid: 1 }
    }

    #[test]
    fn uncovered_time_is_advance_time_outside_the_union_of_covers() {
        let events = vec![
            span("bench", "advance_to", 0, 100),
            span("service", "window", 10, 50),
            span("bench", "assign", 20, 10),
            span("shard", "zone1", 40, 40),
            span("bench", "advance_to", 200, 50),
            span("wal", "append", 190, 20),
            span("engine", "foodgraph.build", 25, 5),
        ];
        let sums = sum(&events);
        assert_eq!(sums.advance_us, 150);
        // First call: covered [10, 80) of [0, 100); second: nothing starts
        // inside it (the append started before the call).
        assert_eq!(sums.uncovered_us, 30 + 50);
        assert_eq!(sums.foodgraph_us, 5);
        assert_eq!(sums.window_us, 50);
        assert_eq!(sums.shard_us, 40);
        assert_eq!(sums.wal_append_us, 20);
    }
}
