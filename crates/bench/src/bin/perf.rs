//! The kernel perf harness: what the simulator does per event on growing
//! bcast/CSMA/LPL grids, up to 102,400 nodes, and under a DODAG over LPL
//! (see [`iiot_bench::exp_perf`]).
//!
//! Usage:
//!   cargo run -p iiot-bench --release --bin perf                    # print the table (~15 s)
//!   cargo run -p iiot-bench --release --bin perf -- --json          # also write BENCH_perf.json
//!   cargo run -p iiot-bench --release --bin perf -- --json PATH --markdown
//!
//! The workloads are fixed, so the JSON — event, air-visit and
//! queue-push counts per row, no wall clock — is a pure function of the
//! source tree: `scripts/perf_gate.sh` regenerates it and `cmp`s it with
//! the committed copy. The printed table adds this host's timings.

use iiot_bench::exp_perf;

/// Grid sides of the workload x MAC matrix (100 to 1,600 nodes).
const SIDES: [u32; 3] = [10, 20, 40];
/// Grid sides of the scaling curve (400 to 102,400 nodes).
const SCALE_SIDES: [u32; 5] = [20, 40, 80, 160, 320];
/// Simulated seconds per point.
const SECS: u64 = 5;
/// Grid sides of the collection rows (100 and 400 nodes).
const COLLECT_SIDES: [u32; 2] = [10, 20];
/// Simulated seconds per collection row: past the traffic's 60 s start.
const COLLECT_SECS: u64 = 90;

fn usage() -> ! {
    eprintln!("usage: perf [--json [PATH]] [--markdown]");
    std::process::exit(2);
}

fn main() {
    let mut markdown = false;
    let mut json: Option<String> = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--markdown" => markdown = true,
            "--json" => {
                let path = match it.peek() {
                    Some(p) if !p.starts_with("--") => it.next().unwrap(),
                    _ => "BENCH_perf.json".to_string(),
                };
                json = Some(path);
            }
            _ => usage(),
        }
    }

    let t0 = std::time::Instant::now();
    let mut points = exp_perf::perf_matrix(&SIDES, SECS);
    points.extend(exp_perf::scaling_curve(&SCALE_SIDES, SECS));
    points.extend(exp_perf::collection_rows(&COLLECT_SIDES, COLLECT_SECS));
    eprintln!(
        "[measured {} points in {:.1}s]",
        points.len(),
        t0.elapsed().as_secs_f64()
    );

    let table = exp_perf::table(&points);
    if markdown {
        println!("{}", table.to_markdown());
    } else {
        println!("{table}");
    }

    if let Err(e) = exp_perf::check(&points) {
        eprintln!("perf check failed: {e}");
        std::process::exit(1);
    }
    if let Some(path) = json {
        std::fs::write(&path, exp_perf::to_json(&points)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[wrote {path}]");
    }
}
