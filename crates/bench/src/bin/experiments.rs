//! Regenerates every experiment table of DESIGN.md §2.
//!
//! Usage:
//!   cargo run -p iiot-bench --release --bin experiments             # all
//!   cargo run -p iiot-bench --release --bin experiments -- e2 e10   # some
//!   cargo run -p iiot-bench --release --bin experiments -- --markdown
//!   cargo run -p iiot-bench --release --bin experiments -- --jobs 4
//!   cargo run -p iiot-bench --release --bin experiments -- --trials 5
//!   cargo run -p iiot-bench --release --bin experiments -- --json out.json
//!   cargo run -p iiot-bench --release --bin experiments -- e5 --trace e5.jsonl
//!   cargo run -p iiot-bench --release --bin experiments -- e14 --quick
//!
//! `--jobs N` sizes the trial worker pool (default: available cores;
//! tables are byte-identical for any N). `--trials N` replicates every
//! trial N times over split seeds and reports `mean (p95 x)` cells.
//! `--json [PATH]` additionally writes the selected tables as a JSON
//! array (default path `BENCH_experiments.json`). `--trace PATH` turns
//! on structured event capture ([`iiot_sim::obs`]) and dumps every
//! simulated world's events as JSONL — byte-identical for any `--jobs`
//! — which `trace_report` summarizes. `--quick` runs the heavyweight
//! experiments at the reduced axes [`iiot_bench::all_experiments`]
//! lists beside their full ones — what CI's smoke script traces.
//!
//! An unknown experiment id prints the usage and the known ids and
//! exits 2.

use iiot_bench::{all_experiments, RunConfig, Runner};
use iiot_sim::obs;

fn usage() -> ! {
    let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
    eprintln!(
        "usage: experiments [ID]... [--markdown] [--quick] [--jobs N] [--trials N] \
         [--json [PATH]] [--trace PATH]\nIDs: {}",
        ids.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut markdown = false;
    let mut quick = false;
    let mut jobs: Option<usize> = None;
    let mut trials: u32 = 1;
    let mut json: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();

    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--markdown" => markdown = true,
            "--quick" => quick = true,
            "--jobs" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                jobs = Some(n);
            }
            "--trials" => {
                trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if trials == 0 {
                    usage();
                }
            }
            "--json" => {
                // Optional path operand: the next token, unless it is
                // another flag or an experiment id.
                let path = match it.peek() {
                    Some(p)
                        if !p.starts_with("--")
                            && !all_experiments().iter().any(|(id, _)| *id == p.as_str()) =>
                    {
                        it.next().unwrap()
                    }
                    _ => "BENCH_experiments.json".to_string(),
                };
                json = Some(path);
            }
            "--trace" => {
                let path = it.next().unwrap_or_else(|| usage());
                if path.starts_with("--") {
                    usage();
                }
                trace = Some(path);
            }
            a if a.starts_with("--") => usage(),
            _ => selected.push(arg),
        }
    }

    let registry = all_experiments();
    if let Some(bad) = selected
        .iter()
        .find(|s| !registry.iter().any(|(id, _)| id == s))
    {
        eprintln!("unknown experiment '{bad}'");
        usage();
    }

    let rc = RunConfig {
        runner: jobs
            .map(Runner::new)
            .unwrap_or_else(Runner::available_parallelism),
        trials,
    };
    eprintln!("[jobs={} trials={}]", rc.runner.jobs(), rc.trials);
    if trace.is_some() {
        obs::enable_tracing();
    }

    let mut json_tables: Vec<String> = Vec::new();
    let total = std::time::Instant::now();
    for (id, run) in registry {
        if !selected.is_empty() && !selected.iter().any(|s| s == id) {
            continue;
        }
        eprintln!("[running {id} ...]");
        let t0 = std::time::Instant::now();
        for table in run(&rc, quick) {
            if markdown {
                println!("{}", table.to_markdown());
            } else {
                println!("{table}");
            }
            if json.is_some() {
                json_tables.push(table.to_json());
            }
        }
        eprintln!("[{id} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    eprintln!("[all done in {:.1}s]", total.elapsed().as_secs_f64());

    if let Some(path) = json {
        let body = format!("[{}]\n", json_tables.join(","));
        std::fs::write(&path, body).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[wrote {path}]");
    }

    if let Some(path) = trace {
        let traces = obs::drain_traces();
        let events: usize = traces.iter().map(|t| t.events.len()).sum();
        // Full-scale dumps run to gigabytes: stream, never materialize.
        std::fs::File::create(&path)
            .map(std::io::BufWriter::new)
            .and_then(|mut w| {
                obs::write_traces_jsonl(&mut w, &traces)?;
                std::io::Write::flush(&mut w)
            })
            .unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
        eprintln!("[wrote {path}: {} traces, {events} events]", traces.len());
    }
}
