//! The energy/latency frontier of §IV-B, live.
//!
//! The same 6-hop line deployment is run under four MACs. Duty-cycled
//! MACs (LPL, RI-MAC) push per-hop latency toward the wake interval —
//! "a packet may take seconds to be transmitted over few wireless
//! hops" — while the synchronous pipelined TDMA schedule collapses it
//! to milliseconds per hop at a tiny duty cycle, and always-on CSMA
//! buys low latency with two orders of magnitude more energy.
//!
//! Run with: `cargo run --release --example energy_latency`

use iiot::sim::{SimDuration, Topology};
use iiot::{Deployment, MacChoice};

fn main() {
    let macs = [
        MacChoice::Csma,
        MacChoice::Lpl(SimDuration::from_millis(512)),
        MacChoice::Rimac(SimDuration::from_millis(512)),
        MacChoice::Tdma(SimDuration::from_millis(20)),
    ];
    let battery_mah = 2600.0; // AA pair

    println!(
        "{:>6} | {:>9} | {:>11} | {:>11} | {:>10} | {:>13}",
        "mac", "delivery", "mean lat", "p95 lat", "duty", "est lifetime"
    );
    println!("{}", "-".repeat(74));
    for mac in macs {
        let mut d = Deployment::builder(Topology::line(7, 20.0))
            .mac(mac)
            .seed(11)
            .traffic(SimDuration::from_secs(20), 10, SimDuration::from_secs(30))
            .build();
        d.run_for(SimDuration::from_secs(600));
        let r = d.report();

        // Project lifetime from the median non-root node.
        let mid = d.nodes[d.nodes.len() / 2];
        let lifetime = d.sim.energy(mid).lifetime_days(battery_mah);

        println!(
            "{:>6} | {:>8.1}% | {:>9.3} s | {:>9.3} s | {:>9.2}% | {:>9.0} days",
            mac.name(),
            r.delivery_ratio * 100.0,
            r.latency.mean,
            r.latency.p95,
            r.mean_duty_cycle * 100.0,
            lifetime
        );
        assert!(
            r.delivery_ratio > 0.7,
            "{} delivery collapsed: {}",
            mac.name(),
            r.delivery_ratio
        );
    }
    println!(
        "\nReading: CSMA = fast but days of battery; LPL/RI-MAC = months of battery\n\
         but ~wake-interval latency per hop; pipelined TDMA = both, at the price\n\
         of a static schedule (see `Deployment::extend`'s panic for TDMA)."
    );
}
