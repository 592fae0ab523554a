//! The command line: one run of one workload for the driver, or the
//! whole report for a person.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one pass over one
//! workload in this process and prints the result as one JSON line, last
//! on standard output (this is what `BENCHMARK.json`'s command is given).
//! Without `--trace` the binary re-runs itself once per workload and
//! pass, each in a child process so that peak memory is the workload's
//! own, and prints every metric by name with unit, clock, direction and
//! bound.

use crate::json::RunResult;
use crate::metric::{self, Clock, Def};
use crate::report::{peak_rss_mib, Outcome};
use crate::{cloud, field, plant};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// The workloads, in report order.
pub const WORKLOADS: [&str; 4] = ["plant", "field_dense", "field_sharded", "cloud_stream"];

/// Host seconds one pass measures unless `--seconds` says otherwise;
/// `BENCHMARK.json`'s `run_seconds` is the same number.
pub const RUN_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 0.5;

const USAGE: &str = "usage: benchmark/run.sh [--seed N] [--workload W] [--quick] [--repeat-check]
       benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--quick]
workloads: plant field_dense field_sharded cloud_stream";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeat_check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        repeat_check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--quick" => a.quick = true,
            "--repeat-check" => a.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.trace.is_some() && a.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(a)
}

/// Runs one pass over one workload in this process.
pub fn run_pass(workload: &str, seed: u64, seconds: f64, traced: bool, quick: bool) -> Outcome {
    let mut out = match (workload, traced) {
        ("plant", false) => plant::run_e2e(plant::PlantSpec::new(quick), seed, seconds),
        ("plant", true) => plant::run_traced(plant::PlantSpec::new(quick), seed, seconds),
        ("cloud_stream", false) => cloud::run_e2e(cloud::CloudSpec::new(quick), seed, seconds),
        ("cloud_stream", true) => cloud::run_traced(cloud::CloudSpec::new(quick), seed, seconds),
        (name, traced) => {
            let shards = if name == "field_sharded" { 2 } else { 1 };
            let spec = field::FieldSpec::new(shards, quick);
            if traced {
                field::run_traced(name, spec, seed, seconds)
            } else {
                field::run_e2e(name, spec, seed, seconds)
            }
        }
    };
    let rss = if traced {
        "trace.peak_rss_mib"
    } else {
        "peak_rss_mib"
    };
    out.set(rss, peak_rss_mib());
    out
}

/// The result line of a pass: every end-to-end metric (untraced) or
/// every per-layer metric (traced), in `BENCHMARK.json` order.
///
/// # Panics
///
/// Panics when an untraced pass left an end-to-end metric unset or 0:
/// the driver divides by these.
pub fn result_line(out: &Outcome, traced: bool) -> RunResult {
    let defs: &[Def] = if traced {
        &metric::PER_LAYER
    } else {
        &metric::END_TO_END
    };
    let metrics = defs
        .iter()
        .map(|d| {
            let v = out.values.get(d.name).copied();
            assert!(
                traced || v.is_some_and(|v| v != 0.0),
                "end-to-end metric {} is unset or 0",
                d.name
            );
            (d.name.to_owned(), v.unwrap_or(0.0), d.unit.to_owned())
        })
        .collect();
    RunResult {
        correct: out.failures.is_empty(),
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
    }
}

fn write_trace(workload: &str, out: &Outcome) -> std::io::Result<()> {
    let Some(tracer) = &out.tracer else {
        return Ok(());
    };
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}.trace.jsonl"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let aggregates: Vec<_> = out
        .aggregates
        .iter()
        .map(|(n, s)| (n.as_str(), *s))
        .collect();
    tracer.write_jsonl(&mut w, &aggregates)?;
    w.flush()?;
    eprintln!("{workload}: trace written to {}", path.display());
    Ok(())
}

fn driver(a: &Args, workload: &str, traced: bool) -> ExitCode {
    let seconds = a
        .seconds
        .unwrap_or(if a.quick { QUICK_SECONDS } else { RUN_SECONDS });
    let out = run_pass(workload, a.seed, seconds, traced, a.quick);
    for n in &out.notes {
        eprintln!("{n}");
    }
    for f in &out.failures {
        eprintln!("FAILED {f}");
    }
    if let Err(e) = write_trace(workload, &out) {
        eprintln!("{workload}: cannot write the trace file: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&out, traced).to_json());
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one pass in a child process and parses its result line. The
/// child's notes go straight to this process's standard error.
fn child_pass(a: &Args, workload: &str, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if a.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().next_back().ok_or(format!(
        "{workload}: no result line (exit {})",
        output.status
    ))?;
    let result = RunResult::from_json(line)?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload}: a correctness check failed (see FAILED lines above)"
        ));
    }
    Ok(result)
}

fn bound_text(d: &Def) -> String {
    d.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0))
}

fn clock_text(d: &Def) -> &'static str {
    match d.clock {
        Clock::Host => "host",
        Clock::Virtual => "virtual",
    }
}

fn print_pass(title: &str, defs: &[Def], r: &RunResult) {
    println!("  {title}: attempted {}, failed {}", r.attempted, r.failed);
    println!(
        "    {:<30} {:>18} {:<9} {:<8} {:<7} bound",
        "metric", "value", "unit", "clock", "better"
    );
    let mut idle = Vec::new();
    for (d, (name, value, unit)) in defs.iter().zip(&r.metrics) {
        if *value == 0.0 {
            idle.push(name.as_str());
            continue;
        }
        println!(
            "    {:<30} {:>18.6} {:<9} {:<8} {:<7} {}",
            name,
            value,
            unit,
            clock_text(d),
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            bound_text(d)
        );
    }
    if !idle.is_empty() {
        println!(
            "    read 0 (nothing of the kind happened on this workload): {}",
            idle.join(" ")
        );
    }
}

/// One full set: both passes over every selected workload.
fn full_set(a: &Args, print: bool) -> Result<Vec<(String, RunResult, RunResult)>, String> {
    let mut set = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| a.workload.as_deref().is_none_or(|x| x == **w))
    {
        let e2e = child_pass(a, w, false)?;
        let layers = child_pass(a, w, true)?;
        if print {
            println!("== {w} (seed {}) ==", a.seed);
            print_pass("end to end, tracing off", &metric::END_TO_END, &e2e);
            print_pass("per layer, traced", &metric::PER_LAYER, &layers);
        }
        set.push((w.to_string(), e2e, layers));
    }
    Ok(set)
}

/// Compares two full sets of one commit: virtual-clock metrics and
/// counts must repeat exactly, host-clock end-to-end metrics within
/// their bound. Returns whether they did.
fn repeat_check(a: &Args) -> Result<bool, String> {
    let first = full_set(a, false)?;
    let second = full_set(a, false)?;
    let mut ok = true;
    println!(
        "{:<14} {:<30} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((w, e1, l1), (_, e2, l2)) in first.iter().zip(&second) {
        let rows = metric::END_TO_END
            .iter()
            .zip(e1.metrics.iter().zip(&e2.metrics))
            .chain(
                metric::PER_LAYER
                    .iter()
                    .zip(l1.metrics.iter().zip(&l2.metrics)),
            );
        for (d, ((name, x, _), (_, y, _))) in rows {
            let worse = if d.higher_is_better { x - y } else { y - x };
            let diff = if *x == 0.0 {
                0.0
            } else {
                (x - y).abs() / x.abs()
            };
            let verdict = match (d.clock, d.bound) {
                (Clock::Virtual, _) if x == y => "exact",
                (Clock::Virtual, _) => "DIFFERS",
                (Clock::Host, Some(b)) if worse / x.abs() <= b => "within",
                (Clock::Host, Some(_)) => "OUTSIDE",
                (Clock::Host, None) => "info",
            };
            ok &= !matches!(verdict, "DIFFERS" | "OUTSIDE");
            println!(
                "{w:<14} {name:<30} {x:>16.6} {y:>16.6} {:>8.2}% {:>6}  {verdict}",
                diff * 100.0,
                bound_text(d)
            );
        }
    }
    Ok(ok)
}

/// The binary's `main`.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let (Some(traced), Some(workload)) = (a.trace, &a.workload) {
        return driver(&a, workload, traced);
    }
    let done = if a.repeat_check {
        repeat_check(&a)
    } else {
        full_set(&a, true).map(|_| true)
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("repeat check: at least one metric differs or lies outside its bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_report_command_lines_parse() {
        let a = args("--workload plant --seed 7 --seconds 10 --trace 1").expect("driver form");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("plant"), 7, Some(10.0), Some(true))
        );
        let a = args("--quick --repeat-check").expect("report form");
        assert!(a.quick && a.repeat_check && a.trace.is_none() && a.seed == 1);
        for bad in [
            "--workload nope",
            "--trace 1",
            "--seconds 0",
            "--seconds 61",
            "--seed x",
            "--frobnicate",
            "--trace 2 --workload plant",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_its_pass_in_order() {
        let mut out = Outcome::default();
        for d in &metric::END_TO_END {
            out.set(d.name, 1.5);
        }
        out.attempted = 3;
        let r = result_line(&out, false);
        let names: Vec<_> = r.metrics.iter().map(|m| m.0.as_str()).collect();
        let want: Vec<_> = metric::END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        assert!(r.correct && r.attempted == 3);
        out.fail("x: broke".into());
        let traced = result_line(&out, true);
        assert!(!traced.correct);
        assert_eq!(traced.metrics.len(), metric::PER_LAYER.len());
        assert!(
            traced.metrics.iter().all(|m| m.1 == 0.0),
            "unset layer metrics read 0"
        );
    }
}
