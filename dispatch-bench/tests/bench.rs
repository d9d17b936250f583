//! Tests of the benchmark itself, run on the small size: the output schema
//! matches `BENCHMARK.json`, the deterministic figures repeat for a seed and
//! change with it, and every injected violation fails the run.
//!
//! ```text
//! cargo test --release --manifest-path dispatch-bench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A parsed JSON value (the benchmark's output and `BENCHMARK.json` only use
/// objects, arrays, strings, numbers and booleans).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(map) => map.keys().map(String::as_str).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { bytes: text.as_bytes(), at: 0 };
        let value = p.value();
        p.ws();
        assert_eq!(p.at, p.bytes.len(), "trailing bytes after JSON value");
        value
    }
    fn ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.bytes.get(self.at), Some(&c), "expected {:?} at {}", c as char, self.at);
        self.at += 1;
    }
    fn value(&mut self) -> Json {
        self.ws();
        match self.bytes[self.at] {
            b'{' => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.bytes[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(map);
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value() else { panic!("object key is not a string") };
                    self.eat(b':');
                    let value = self.value();
                    assert!(map.insert(key, value).is_none(), "duplicate key");
                    self.ws();
                    self.at += 1;
                    match self.bytes[self.at - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(map),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.bytes[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.at += 1;
                    match self.bytes[self.at - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.at += 1;
                let start = self.at;
                while self.bytes[self.at] != b'"' {
                    assert_ne!(self.bytes[self.at], b'\\', "escapes are not expected here");
                    self.at += 1;
                }
                self.at += 1;
                Json::Str(String::from_utf8(self.bytes[start..self.at - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, value) in
                    [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
                {
                    if self.bytes[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return value;
                    }
                }
                panic!("bad literal at {}", self.at)
            }
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(self.bytes[self.at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }
}

/// The repository root: `BENCHMARK.json` lives there and runs start there.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark dir has a parent").into()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Parser::parse(&text)
}

struct Run {
    code: i32,
    stdout: String,
    result: Option<Json>,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.result.as_ref().expect("a result line").get("metrics").get(name).get("value").num()
    }
    fn digest(&self) -> &str {
        let line = self.stdout.lines().next().expect("a summary line");
        line.rsplit(' ').next().expect("digest at the end of the summary")
    }
}

fn run(args: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_dispatch-bench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let result = stdout.lines().last().filter(|l| l.starts_with('{')).map(Parser::parse);
    Run { code: output.status.code().unwrap_or(-1), stdout, result }
}

fn small(workload: &str, seed: u64, trace: u8) -> Run {
    let (seed, trace) = (seed.to_string(), trace.to_string());
    run(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "1",
        "--trace",
        &trace,
        "--size",
        "small",
    ])
}

fn workload_names() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect()
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let mut metrics: Vec<(String, String)> = benchmark_json()
        .get(list)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect();
    metrics.sort();
    metrics
}

fn printed(run: &Run) -> Vec<(String, String)> {
    let result = run.result.as_ref().expect("a result line");
    let metrics = result.get("metrics");
    let mut printed: Vec<(String, String)> = metrics
        .keys()
        .into_iter()
        .map(|name| {
            let m = metrics.get(name);
            assert_eq!(m.keys(), ["unit", "value"], "metric {name}");
            assert!(m.get("value").num().is_finite());
            (name.to_string(), m.get("unit").str().to_string())
        })
        .collect();
    printed.sort();
    printed
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in workload_names() {
        for (trace, expected) in [(0, &end_to_end), (1, &per_layer)] {
            let run = small(&workload, 1, trace);
            assert_eq!(run.code, 0, "{workload} trace {trace}:\n{}", run.stdout);
            let result = run.result.as_ref().expect("a result line");
            assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert!(result.get("attempted").num() >= 1.0);
            assert_eq!(result.get("failed").num(), 0.0);
            assert_eq!(&printed(&run), expected, "{workload} trace {trace}");
        }
    }
}

#[test]
fn deterministic_figures_repeat_for_a_seed_and_change_with_it() {
    let workload = "city-b-day";
    let (a, b, other) = (small(workload, 1, 0), small(workload, 1, 0), small(workload, 2, 0));
    for run in [&a, &b, &other] {
        assert_eq!(run.code, 0, "{}", run.stdout);
    }
    assert_eq!(a.digest(), b.digest());
    assert_ne!(a.digest(), other.digest());
    for quality in ["xdt_min", "wait_min", "orders_per_km", "delivered_pct"] {
        assert_eq!(a.metric(quality).to_bits(), b.metric(quality).to_bits(), "{quality}");
    }
    assert_ne!(a.metric("xdt_min"), other.metric("xdt_min"));

    let (a, b, other) = (small(workload, 1, 1), small(workload, 1, 1), small(workload, 2, 1));
    for exact in ["roadnet.queries", "core.batches", "core.foodgraph_evaluations"] {
        assert_eq!(a.metric(exact), b.metric(exact), "{exact}");
        assert_ne!(a.metric(exact), other.metric(exact), "{exact}");
    }
    // Memo hits and misses vary slightly with thread timing (two workers
    // can miss the same key at once), so they are compared as ratios only.
    let (ra, rb) = (a.metric("roadnet.memo_hit_pct"), b.metric("roadnet.memo_hit_pct"));
    assert!((ra - rb).abs() < 0.5, "memo hit ratio {ra} vs {rb}");
}

#[test]
fn each_injected_violation_fails_the_run() {
    for (violation, workload) in [
        ("lost-order", "city-b-day"),
        ("vehicle-swap", "city-b-day"),
        ("clock-skew", "city-b-day"),
        ("wrong-zone", "metro-4zone"),
        ("replay-mismatch", "city-b-rain-durable"),
    ] {
        let run = run(&[
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--size",
            "small",
            "--inject",
            violation,
        ]);
        assert_eq!(run.code, 1, "{violation} on {workload}:\n{}", run.stdout);
        let result = run.result.as_ref().expect("a result line even when a check fails");
        assert_eq!(result.get("correct"), &Json::Bool(false), "{violation}");
        assert!(run.stdout.contains("VIOLATION"), "{violation}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &[][..],
        &["--workload", "city-b-night", "--seed", "1", "--seconds", "1", "--trace", "0"],
        &["--workload", "city-b-day", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "city-b-day", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--workload", "city-b-day", "--seed", "1", "--seconds", "1"],
    ] {
        let run = run(args);
        assert_eq!(run.code, 2, "{args:?}");
        assert!(run.result.is_none(), "{args:?}");
    }
}
