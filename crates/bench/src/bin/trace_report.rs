//! Summarizes a `--trace` JSONL dump from the `experiments` binary.
//!
//! Usage:
//!   cargo run -p iiot-bench --release --bin experiments -- e5 --trace e5.jsonl
//!   cargo run -p iiot-bench --release --bin trace_report -- e5.jsonl
//!   ... | cargo run -p iiot-bench --release --bin trace_report -- -
//!
//! Prints the [`iiot_bench::report`] summary: per-kind event counts,
//! top talkers, drop causes, packet-span latency/hops, queue depths, a
//! section per plane and the repair timeline (Trickle resets, rank
//! changes, RNFD verdicts, injected faults). The dump is read line by
//! line and never held, so its size does not matter. The output is
//! deterministic: the same dump always yields the same report.

use iiot_bench::report::summarize;
use std::io::BufReader;

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("usage: trace_report TRACE.jsonl   (`-` reads standard input)");
        std::process::exit(2);
    };
    let summary = if path == "-" {
        summarize(std::io::stdin().lock())
    } else {
        let file = std::fs::File::open(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        summarize(BufReader::new(file))
    };
    match summary {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}
