//! The kernel perf harness: kernel throughput on growing bcast/CSMA/LPL
//! grids, the sharded-kernel scaling curves, the
//! cloud ingest load curves, and the named-data star (see
//! [`iiot_bench::exp_perf`], [`iiot_bench::exp_cloud`] and
//! [`iiot_bench::exp_icn`]).
//!
//! Usage:
//!   cargo run -p iiot-bench --release --bin perf                    # full matrices
//!   cargo run -p iiot-bench --release --bin perf -- --quick         # small grids, for CI smoke
//!   cargo run -p iiot-bench --release --bin perf -- --json          # also write BENCH_perf.json
//!   cargo run -p iiot-bench --release --bin perf -- --jobs 2 --sides 10,20 --secs 5
//!   cargo run -p iiot-bench --release --bin perf -- --shards 1,2,4 --scale-sides 20,40,80,160
//!   cargo run -p iiot-bench --release --bin perf -- --cloud-devices 6250,25000,62500
//!   cargo run -p iiot-bench --release --bin perf -- --stream-devices 6250,25000
//!   cargo run -p iiot-bench --release --bin perf -- --icn-consumers 2,8,16
//!
//! The printed tables and the JSON's `timing` blocks vary run to run;
//! the JSON's `deterministic` blocks (workload shape, dispatched event
//! counts, transmission records examined, event-heap pushes) are
//! byte-stable across worker counts and machines — that subset is what
//! `scripts/perf_gate.sh` gates on. Scaling-point counts are stable
//! *per shard count* (each shard count is its own deterministic model).

use iiot_bench::{exp_cloud, exp_icn, exp_perf, exp_stream, RunConfig, Runner};

fn usage() -> ! {
    eprintln!(
        "usage: perf [--quick] [--sides S1,S2,...] [--scale-sides S1,S2,...] \
         [--shards K1,K2,...] [--cloud-devices D1,D2,...] [--stream-devices D1,D2,...] \
         [--icn-consumers C1,C2,...] [--secs N] [--jobs N] [--json [PATH]] [--markdown]"
    );
    std::process::exit(2);
}

fn parse_list(spec: &str) -> Option<Vec<u32>> {
    spec.split(',')
        .map(|s| s.parse().ok().filter(|&n| n > 0))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut markdown = false;
    let mut quick = false;
    let mut jobs: Option<usize> = None;
    let mut sides: Option<Vec<u32>> = None;
    let mut scale_sides: Option<Vec<u32>> = None;
    let mut shards: Option<Vec<u32>> = None;
    let mut cloud_devices: Option<Vec<u32>> = None;
    let mut stream_devices: Option<Vec<u32>> = None;
    let mut icn_consumers: Option<Vec<u32>> = None;
    let mut secs: Option<u64> = None;
    let mut json: Option<String> = None;

    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--markdown" => markdown = true,
            "--quick" => quick = true,
            "--jobs" => {
                jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--secs" => {
                secs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--sides" => {
                let spec = it.next().unwrap_or_else(|| usage());
                sides = Some(parse_list(&spec).unwrap_or_else(|| usage()));
            }
            "--scale-sides" => {
                let spec = it.next().unwrap_or_else(|| usage());
                scale_sides = Some(parse_list(&spec).unwrap_or_else(|| usage()));
            }
            "--shards" => {
                let spec = it.next().unwrap_or_else(|| usage());
                shards = Some(parse_list(&spec).unwrap_or_else(|| usage()));
            }
            "--cloud-devices" => {
                let spec = it.next().unwrap_or_else(|| usage());
                cloud_devices = Some(parse_list(&spec).unwrap_or_else(|| usage()));
            }
            "--stream-devices" => {
                let spec = it.next().unwrap_or_else(|| usage());
                stream_devices = Some(parse_list(&spec).unwrap_or_else(|| usage()));
            }
            "--icn-consumers" => {
                let spec = it.next().unwrap_or_else(|| usage());
                icn_consumers = Some(parse_list(&spec).unwrap_or_else(|| usage()));
            }
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

    // Full mode is the committed-artifact run: throughput matrix on
    // 10x10 to 40x40 grids, scaling curves at N in {400, 1600, 6400,
    // 25600}, cloud load points at 25k/100k/250k sessions (devices x 4
    // tenants); --quick bounds CI smoke to a few seconds.
    let sides = sides.unwrap_or_else(|| if quick { vec![4, 8] } else { vec![10, 20, 40] });
    let scale_sides = scale_sides.unwrap_or_else(|| {
        if quick {
            vec![8]
        } else {
            vec![20, 40, 80, 160]
        }
    });
    let shards = shards.unwrap_or_else(|| vec![1, 2, 4]);
    let cloud_devices = cloud_devices.unwrap_or_else(|| {
        if quick {
            vec![250, 1_000]
        } else {
            vec![6_250, 25_000, 62_500]
        }
    });
    let stream_devices = stream_devices.unwrap_or_else(|| {
        if quick {
            vec![250, 1_000]
        } else {
            vec![6_250, 25_000]
        }
    });
    let icn_consumers =
        icn_consumers.unwrap_or_else(|| if quick { vec![2] } else { vec![2, 8, 16] });
    let secs = secs.unwrap_or(if quick { 2 } else { 5 });
    // One worker unless told otherwise: points that race their siblings
    // for cores time each other, not the kernel. `--jobs N` is for
    // comparing counts (`scripts/perf_gate.sh`), never timings.
    let rc = RunConfig {
        runner: jobs.map_or_else(Runner::sequential, Runner::new),
        trials: 1,
    };
    eprintln!(
        "[jobs={} sides={sides:?} scale_sides={scale_sides:?} shards={shards:?} \
         cloud_devices={cloud_devices:?} stream_devices={stream_devices:?} \
         icn_consumers={icn_consumers:?} secs={secs}]",
        rc.runner.jobs()
    );

    let t0 = std::time::Instant::now();
    let points = exp_perf::perf_matrix(&rc, &sides, secs);
    eprintln!(
        "[measured {} throughput points in {:.1}s]",
        points.len(),
        t0.elapsed().as_secs_f64()
    );

    let t1 = std::time::Instant::now();
    let scaling = exp_perf::scaling_curves(&scale_sides, secs, &shards);
    eprintln!(
        "[measured {} scaling points in {:.1}s]",
        scaling.len(),
        t1.elapsed().as_secs_f64()
    );

    let t2 = std::time::Instant::now();
    let cloud = exp_cloud::cloud_matrix(&cloud_devices);
    eprintln!(
        "[measured {} cloud points in {:.1}s]",
        cloud.len(),
        t2.elapsed().as_secs_f64()
    );

    let t3 = std::time::Instant::now();
    let stream = exp_stream::stream_matrix(&stream_devices);
    eprintln!(
        "[measured {} stream points (replay asserted) in {:.1}s]",
        stream.len(),
        t3.elapsed().as_secs_f64()
    );

    let t4 = std::time::Instant::now();
    let icn_axis: Vec<usize> = icn_consumers.iter().map(|&c| c as usize).collect();
    let icn = exp_icn::icn_matrix(&icn_axis);
    eprintln!(
        "[measured {} icn points (convergence asserted) in {:.1}s]",
        icn.len(),
        t4.elapsed().as_secs_f64()
    );

    let table = exp_perf::table(&points);
    let stable = exp_perf::scaling_table(&scaling);
    let ctable = exp_cloud::cloud_table(&cloud);
    let wtable = exp_stream::stream_table(&stream);
    let itable = exp_icn::icn_table(&icn);
    if markdown {
        println!("{}", table.to_markdown());
        println!();
        println!("{}", stable.to_markdown());
        println!();
        println!("{}", ctable.to_markdown());
        println!();
        println!("{}", wtable.to_markdown());
        println!();
        println!("{}", itable.to_markdown());
    } else {
        println!("{table}");
        println!();
        println!("{stable}");
        println!();
        println!("{ctable}");
        println!();
        println!("{wtable}");
        println!();
        println!("{itable}");
    }

    if let Some(path) = json {
        std::fs::write(
            &path,
            exp_perf::to_json(&points, &scaling, &cloud, &stream, &icn),
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[wrote {path}]");
    }
}
