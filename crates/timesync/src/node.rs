//! A standalone FTSP node: the engine paced by its own jittered beacon
//! timer over an always-on radio. This is synchronization *alone* —
//! use it to measure sync quality (e.g. error vs hop distance) without
//! a MAC or routing stack in the way; duty-cycled stacks embed the
//! [`FtspEngine`] into their own schedules instead.

use crate::ftsp::{FtspConfig, FtspEngine};
use crate::SyncedClock;
use iiot_sim::{Ctx, Dst, Frame, Proto, RxInfo, SimDuration, Timer};
use rand::Rng;

/// Radio demux port of standalone sync beacons.
pub const FTSP_PORT: u8 = 9;

/// Beat timer tag (below the MAC-reserved tag space).
const TAG_BEAT: u64 = 0x157;

/// A [`Proto`] running only FTSP synchronization.
///
/// Every node keeps its radio listening and broadcasts one sync beacon
/// per (jittered) beacon period once it has something to say: the
/// elected reference floods its own clock, synced nodes re-flood their
/// estimate one hop further out.
#[derive(Debug)]
pub struct FtspNode {
    engine: FtspEngine,
}

impl FtspNode {
    /// Creates a node with the given engine configuration.
    pub fn new(cfg: FtspConfig) -> Self {
        FtspNode {
            engine: FtspEngine::new(cfg),
        }
    }

    /// The underlying engine (e.g. to inspect depth or sync state).
    pub fn engine(&self) -> &FtspEngine {
        &self.engine
    }

    /// A handle to this node's synchronized clock.
    pub fn clock(&self) -> SyncedClock {
        self.engine.clock()
    }

    fn arm_beat(&mut self, ctx: &mut Ctx<'_>, first: bool) {
        let p = self.engine.config().beacon_period;
        let delay = if first {
            // Desynchronize boot: a uniform phase over one period.
            SimDuration::from_micros(ctx.rng().gen_range(0..p.as_micros().max(1)))
        } else {
            // 0.9p..1.1p jitter keeps neighbours from beaconing in
            // lockstep (persistent collisions).
            p.mul_frac(9, 10) + SimDuration::from_micros(ctx.rng().gen_range(0..=p.as_micros() / 5))
        };
        ctx.set_timer_local(delay, TAG_BEAT);
    }
}

impl Proto for FtspNode {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.radio_on().expect("ftsp: radio on");
        self.engine.start(ctx.id());
        self.arm_beat(ctx, true);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        if timer.tag == TAG_BEAT {
            if let Some(payload) = self.engine.beat(ctx) {
                // A busy radio (our previous tx still on air) only
                // happens with absurdly short periods; drop the round.
                let _ = ctx.transmit(Dst::Broadcast, FTSP_PORT, payload);
            }
            self.arm_beat(ctx, false);
        }
    }

    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
        if frame.port == FTSP_PORT {
            self.engine
                .on_beacon(ctx, &frame.payload, frame.payload.len());
        }
    }

    fn crashed(&mut self) {
        self.engine.crashed();
    }
}
