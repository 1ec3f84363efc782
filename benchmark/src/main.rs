//! The repo benchmark. One command sets up each workload, drives it through
//! the TCP server in a closed loop, checks the outputs against a model that
//! never asks the engine, and prints every metric by name with its unit.
//! See `README.md` beside this crate for why each workload exists and how
//! the layer metrics are expected to move the end-to-end ones.

mod drive;
mod gen;
mod rng;
mod runs;
mod spec;
mod stats;
mod trace;
mod workload;

use spec::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Res, CLIENTS};

/// Seed used when `--seed` is absent. `README.md` names a second one for
/// held-out checks.
const DEFAULT_SEED: u64 = 1992;
/// Measured seconds when `--seconds` is absent; `BENCHMARK.json` says the same.
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Where the durable workload's log, the walk's log and the trace files go.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_MANIFEST_DIR").map_or("benchmark".into(), PathBuf::from);
    base.join("out")
}

/// One run's result, in the shape the last line of output carries.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// One value per entry of [`END_TO_END`] or [`PER_LAYER`], in order.
    pub values: Vec<f64>,
}

impl RunResult {
    fn json(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .zip(&self.values)
            .map(|(m, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    self_check: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        self_check: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(spec::workload(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1`; a bare `--trace` means 1
                args.trace = Some(match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--self-check" => args.self_check = true,
            other => {
                return Err(format!(
                    "unknown argument `{other}`\nusage: [--workload NAME] [--seed N] \
                     [--seconds S] [--trace 0|1] [--self-check]"
                ))
            }
        }
    }
    Ok(args)
}

fn run_one(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Res<RunResult> {
    if trace {
        runs::per_layer_run(w, seed, seconds)
    } else {
        runs::end_to_end_run(w, seed, seconds)
    }
}

/// Every workload, end to end and traced. Returns the results in
/// [`WORKLOADS`] order, `(end_to_end, per_layer)` each.
fn suite(seed: u64, seconds: f64) -> Res<Vec<(RunResult, RunResult)>> {
    WORKLOADS
        .iter()
        .map(|w| {
            let e2e = run_one(w, seed, seconds, false)?;
            println!("{} end_to_end {}", w.name, e2e.json(&END_TO_END));
            let traced = run_one(w, seed, seconds, true)?;
            println!("{} per_layer {}", w.name, traced.json(&PER_LAYER));
            Ok((e2e, traced))
        })
        .collect()
}

fn all_correct(results: &[(RunResult, RunResult)]) -> bool {
    results.iter().all(|(a, b)| a.correct && b.correct)
}

/// The whole suite twice on this build: every end-to-end median pair must
/// agree within the metric's bound, and every count taken on the traced
/// walk must repeat exactly.
fn self_check(seed: u64, seconds: f64) -> Res<bool> {
    println!("# self-check: first suite");
    let first = suite(seed, seconds)?;
    println!("# self-check: second suite");
    let second = suite(seed, seconds)?;
    let mut ok = all_correct(&first) && all_correct(&second);
    println!("# workload metric first second relative_difference bound verdict");
    for (w, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(&second)) {
        for (i, m) in END_TO_END.iter().enumerate() {
            let (x, y) = (a.0.values[i], b.0.values[i]);
            // worsening of the second over the first, as a share of the first
            let diff = if m.higher_is_better { x - y } else { y - x } / x;
            let agrees = diff.abs() <= m.bound;
            ok &= agrees;
            println!(
                "{} {} {x} {y} {diff:+.4} {} {}",
                w.name,
                m.name,
                m.bound,
                if agrees { "agree" } else { "DISAGREE" }
            );
        }
        for (i, m) in PER_LAYER.iter().enumerate().filter(|(_, m)| m.exact) {
            let (x, y) = (a.1.values[i], b.1.values[i]);
            if x != y {
                ok = false;
                println!("{} {} {x} {y} traced count DIFFERS", w.name, m.name);
            }
        }
    }
    println!(
        "# self-check {}: traced counts {}",
        if ok { "passed" } else { "FAILED" },
        if ok {
            "repeat exactly"
        } else {
            "or medians disagree, see above"
        }
    );
    Ok(ok)
}

fn main_inner() -> Res<bool> {
    let args = parse_args()?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("creating {:?}: {e}", out_dir()))?;
    println!(
        "# seed={} nproc={} clients={CLIENTS} seconds={} setups={SETUPS} windows<={}",
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seconds,
        stats::WINDOWS,
    );
    if args.self_check {
        return self_check(args.seed, args.seconds);
    }
    match args.workload {
        Some(w) => {
            let trace = args.trace.unwrap_or(false);
            let r = run_one(w, args.seed, args.seconds, trace)?;
            println!(
                "{}",
                r.json(if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                })
            );
            Ok(r.correct)
        }
        None => {
            let results = suite(args.seed, args.seconds)?;
            let ok = all_correct(&results);
            let rows: Vec<String> = WORKLOADS
                .iter()
                .zip(&results)
                .map(|(w, (a, b))| {
                    format!(
                        "\"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
                        w.name,
                        a.json(&END_TO_END),
                        b.json(&PER_LAYER)
                    )
                })
                .collect();
            println!(
                "{{\"seed\": {}, \"clients\": {CLIENTS}, \"seconds\": {}, \"correct\": {ok}, \
                 \"workloads\": {{{}}}, \"claim\": null}}",
                args.seed,
                args.seconds,
                rows.join(", ")
            );
            Ok(ok)
        }
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables in `spec.rs` name the same
    /// workloads and metrics, with the same units, directions and bounds,
    /// and a run prints exactly those names.
    #[test]
    fn benchmark_json_names_what_a_run_prints() {
        let json = include_str!("../../BENCHMARK.json");
        let strings_after = |key: &str| -> Vec<String> {
            json.match_indices(key)
                .map(|(at, _)| {
                    let rest = &json[at + key.len()..];
                    let open = rest.find('"').unwrap() + 1;
                    rest[open..open + rest[open..].find('"').unwrap()].to_string()
                })
                .collect()
        };
        let names = strings_after("\"name\":");
        let expected: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names, expected);
        assert_eq!(
            strings_after("\"why\":"),
            WORKLOADS.iter().map(|w| w.why).collect::<Vec<_>>()
        );
        let metrics = || END_TO_END.iter().chain(&PER_LAYER);
        assert_eq!(
            strings_after("\"unit\":"),
            metrics().map(|m| m.unit).collect::<Vec<_>>()
        );
        assert_eq!(
            strings_after("\"better\":"),
            metrics()
                .map(|m| if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                })
                .collect::<Vec<_>>()
        );
        let bounds: Vec<f64> = json
            .match_indices("\"bound\":")
            .map(|(at, _)| {
                let rest = json[at + 8..].trim_start();
                let end = rest
                    .find(|c: char| c != '.' && !c.is_ascii_digit())
                    .unwrap();
                rest[..end].parse().unwrap()
            })
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
        );

        // the result line carries one entry per metric, under those names
        let r = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            values: vec![1.5; PER_LAYER.len()],
        };
        let line = r.json(&PER_LAYER);
        for m in &PER_LAYER {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)),
                "{line}"
            );
        }
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
    }
}
