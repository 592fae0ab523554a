//! Trace analysis: the streaming fold behind the `trace_report` binary
//! (paper §V-D, diagnosability).
//!
//! `iiot-sim` emits typed events and knows nothing of what they mean
//! together; this module, which links every plane, explains them. A
//! [`Report`] is fed a `--trace` dump in order — [`Report::trace`] per
//! header, [`Report::event`] per event — and [`Report::finish`] renders
//! the summary. Only the accumulators are held, so memory does not grow
//! with the dump, and a plane's section prints if and only if one of its
//! kinds was seen. The same dump always yields the same text.
//!
//! Packet spans are stitched *per trace*: every trial reuses the same
//! `SpanId::packet(origin, seq)` ids, so an origin still open when its
//! trace ends is a lost packet, never the start of a later trace's
//! delivery.

use iiot_sim::obs::{DumpLine, Event, EventKind, Histogram, ScopeTrace};
use iiot_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt::{Arguments, Write as _};
use std::io::BufRead;

/// Repair-timeline entries rendered in full; the rest are only counted.
const TIMELINE_CAP: u64 = 40;

/// Summarizes the JSONL dump read from `dump`, one line at a time.
///
/// # Errors
///
/// Names the first unreadable or malformed line.
pub fn summarize(mut dump: impl BufRead) -> Result<String, String> {
    let (mut report, mut line) = (Report::default(), String::new());
    for n in 1u64.. {
        line.clear();
        let at = |e: String| format!("line {n}: {e}");
        if dump.read_line(&mut line).map_err(|e| at(e.to_string()))? == 0 {
            break;
        }
        match DumpLine::parse(&line).map_err(at)? {
            None => {}
            Some(DumpLine::Trace(header)) => report.trace(&header),
            Some(DumpLine::Event(_)) if report.traces == 0 => {
                return Err(at("event before any trace header".into()));
            }
            Some(DumpLine::Event(ev)) => report.event(&ev),
        }
    }
    Ok(report.finish())
}

/// The fold: what every section of the summary needs, and no event.
#[derive(Default)]
pub struct Report {
    traces: u64,
    events: u64,
    /// Label of the trace being folded; timeline lines quote it.
    label: String,
    /// Events per kind name: a section of its own, and where the plane
    /// sections read their plain counts.
    kinds: BTreeMap<&'static str, u64>,
    talkers: BTreeMap<u32, u64>,
    drops: BTreeMap<&'static str, u64>,
    spans: Spans,
    queues: BTreeMap<&'static str, Histogram>,
    dissem: Dissem,
    cloud: Cloud,
    stream: Stream,
    fleet: Fleet,
    icn: Icn,
    repair: Repair,
}

/// `DataOrigin` → `DataArrive` on one span id, within one trace.
#[derive(Default)]
struct Spans {
    /// Origin time of each span the current trace has not closed yet.
    open: BTreeMap<u64, SimTime>,
    delivered: u64,
    lost: u64,
    /// Origin → sink latency of delivered spans, in seconds.
    latency: Histogram,
    hops: Histogram,
}

#[derive(Default)]
struct Dissem {
    /// version -> (nodes complete, nodes rejected, first completion,
    /// latest completion), in dump order.
    images: BTreeMap<u32, (u64, u64, SimTime, SimTime)>,
    /// The rollout-stage lines, rendered as they arrive.
    rollout: String,
}

#[derive(Default)]
struct Tenant {
    accepted: u64,
    shed: u64,
    /// Commands acknowledged, commands failed.
    commands: [u64; 2],
    max_depth: u32,
}

#[derive(Default)]
struct Cloud {
    tenants: BTreeMap<u32, Tenant>,
    shed_causes: BTreeMap<&'static str, u64>,
}

#[derive(Default)]
struct Stream {
    ratelimited: BTreeMap<u32, u64>,
    sealed_records: u64,
    /// tenant -> (windows closed, observations windowed)
    windows: BTreeMap<u32, (u64, u64)>,
}

#[derive(Default)]
struct Fleet {
    drift_keys: u64,
    /// Remediations acknowledged, remediations failed.
    remediations: [u64; 2],
    /// The campaign-phase lines, rendered as they arrive.
    campaign: String,
}

#[derive(Default)]
struct Icn {
    /// name hash -> [interests, data, cache hits]
    names: BTreeMap<u32, [u64; 3]>,
    verify_fails: BTreeMap<&'static str, u64>,
}

#[derive(Default)]
struct Repair {
    entries: u64,
    /// The first [`TIMELINE_CAP`] entries, rendered as they arrive.
    shown: String,
}

/// Appends `  [label] t=…s what`, the shape of every per-event line.
fn stamp(out: &mut String, label: &str, t: SimTime, what: Arguments<'_>) {
    let _ = writeln!(out, "  [{label}] t={:.3}s {what}", t.as_secs_f64());
}

fn bump<K: Ord>(counts: &mut BTreeMap<K, u64>, key: K) {
    *counts.entry(key).or_default() += 1;
}

impl Report {
    /// Starts the next trace (`header.events` is not read: the events
    /// follow through [`Report::event`]).
    pub fn trace(&mut self, header: &ScopeTrace) {
        self.end_trace();
        self.traces += 1;
        self.label.clone_from(&header.label);
    }

    /// Whatever the ending trace left open is lost.
    fn end_trace(&mut self) {
        self.spans.lost += self.spans.open.len() as u64;
        self.spans.open.clear();
    }

    /// Folds in the next event of the current trace (events arrive in
    /// simulation order, as recorders deliver them).
    pub fn event(&mut self, ev: &Event) {
        self.events += 1;
        bump(&mut self.kinds, ev.kind.name());
        match ev.kind {
            EventKind::TxStart { .. } => bump(&mut self.talkers, ev.node.0),
            EventKind::RxDrop { cause, .. } => bump(&mut self.drops, cause),
            EventKind::DataDrop { cause } => bump(&mut self.drops, cause),
            EventKind::DataOrigin { .. } => {
                self.spans.open.insert(ev.span.0, ev.t);
            }
            EventKind::DataArrive { hops } => {
                if let Some(t0) = self.spans.open.remove(&ev.span.0) {
                    let latency = ev.t.duration_since(t0).as_secs_f64();
                    self.spans.latency.observe(latency);
                    self.spans.hops.observe(f64::from(hops));
                    self.spans.delivered += 1;
                }
            }
            EventKind::QueueDepth { queue, depth } => {
                let q = self.queues.entry(queue).or_default();
                q.observe(f64::from(depth));
            }

            EventKind::DissemComplete { version, ok } => {
                let (complete, rejected, first, last) =
                    self.dissem.images.entry(version).or_default();
                if !ok {
                    *rejected += 1;
                } else {
                    if *complete == 0 {
                        *first = ev.t;
                    }
                    *complete += 1;
                    *last = ev.t;
                }
            }
            EventKind::RolloutStage { stage, cohort } => {
                let what = format_args!("rollout: {stage} (cohort {cohort})");
                stamp(&mut self.dissem.rollout, &self.label, ev.t, what);
            }

            EventKind::CloudIngest { tenant, depth } => {
                let t = self.cloud.tenants.entry(tenant).or_default();
                t.accepted += 1;
                t.max_depth = t.max_depth.max(depth);
            }
            EventKind::CloudShed { tenant, cause } => {
                self.cloud.tenants.entry(tenant).or_default().shed += 1;
                bump(&mut self.cloud.shed_causes, cause);
            }
            EventKind::CloudCommand { tenant, ok } => {
                let t = self.cloud.tenants.entry(tenant).or_default();
                t.commands[usize::from(!ok)] += 1;
            }

            EventKind::CloudRateLimit { tenant } => bump(&mut self.stream.ratelimited, tenant),
            EventKind::StreamSeal { records, .. } => {
                self.stream.sealed_records += u64::from(records);
            }
            EventKind::StreamWindow { tenant, count, .. } => {
                let (closed, observations) = self.stream.windows.entry(tenant).or_default();
                *closed += 1;
                *observations += u64::from(count);
            }

            EventKind::FleetDrift { keys, .. } => self.fleet.drift_keys += u64::from(keys),
            EventKind::FleetRemediate { ok, .. } => {
                self.fleet.remediations[usize::from(!ok)] += 1;
            }
            EventKind::FleetPhase { stage, networks } => {
                let what = format_args!("campaign: {stage} (networks {networks})");
                stamp(&mut self.fleet.campaign, &self.label, ev.t, what);
            }

            EventKind::IcnInterest { name, .. } => self.icn.names.entry(name).or_default()[0] += 1,
            EventKind::IcnData { name, .. } => self.icn.names.entry(name).or_default()[1] += 1,
            EventKind::IcnCacheHit { name, .. } => self.icn.names.entry(name).or_default()[2] += 1,
            EventKind::IcnVerifyFail { cause, .. } => bump(&mut self.icn.verify_fails, cause),

            EventKind::TrickleReset { cause } => {
                self.timeline(ev, format_args!("trickle reset ({cause})"));
            }
            EventKind::RankChange { old, new, parent } => {
                let parent = parent.map_or(-1, |p| i64::from(p.0));
                self.timeline(ev, format_args!("rank {old} -> {new} (parent {parent})"));
            }
            EventKind::RnfdVerdict { target, verdict } => {
                self.timeline(ev, format_args!("rnfd: node {} judged {verdict}", target.0));
            }
            EventKind::Fault { kind, peer } => match peer {
                Some(p) => self.timeline(ev, format_args!("fault: {kind} (peer {})", p.0)),
                None => self.timeline(ev, format_args!("fault: {kind}")),
            },
            _ => {}
        }
    }

    /// One repair-timeline entry: always counted, rendered while under
    /// the cap.
    fn timeline(&mut self, ev: &Event, what: Arguments<'_>) {
        self.repair.entries += 1;
        if self.repair.entries <= TIMELINE_CAP {
            let what = format_args!("node {}: {what}", ev.node.0);
            stamp(&mut self.repair.shown, &self.label, ev.t, what);
        }
    }

    /// Renders the summary.
    pub fn finish(mut self) -> String {
        self.end_trace();
        let mut out = String::new();
        self.render(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn render(&self, f: &mut String) -> std::fmt::Result {
        let n = |kind: &str| self.kinds.get(kind).copied().unwrap_or(0);
        let saw = |kinds: &[&str]| kinds.iter().any(|k| n(k) > 0);
        writeln!(f, "traces: {}   events: {}", self.traces, self.events)?;

        writeln!(f, "\n== event kinds ==")?;
        for (k, n) in &self.kinds {
            writeln!(f, "  {k:<14} {n}")?;
        }

        writeln!(f, "\n== top talkers (tx_start per node) ==")?;
        let mut talkers: Vec<(u32, u64)> = self.talkers.iter().map(|(n, c)| (*n, *c)).collect();
        talkers.sort_by_key(|&(n, c)| (std::cmp::Reverse(c), n));
        for (n, c) in talkers.iter().take(10) {
            writeln!(f, "  node {n:<5} {c}")?;
        }

        writeln!(f, "\n== drop causes ==")?;
        if self.drops.is_empty() {
            writeln!(f, "  (none)")?;
        }
        for (cause, n) in &self.drops {
            writeln!(f, "  {cause:<14} {n}")?;
        }

        let s = &self.spans;
        writeln!(f, "\n== packet spans ==")?;
        let (mean, p95, max) = (s.latency.mean(), s.latency.quantile(0.95), s.latency.max());
        writeln!(
                f,
                "  delivered {}   lost {}   latency mean {mean:.3}s p95 {p95:.3}s max {max:.3}s   hops mean {:.1}",
                s.delivered,
                s.lost,
                s.hops.mean()
            )?;
        for (q, h) in &self.queues {
            let (samples, mean, max) = (h.count(), h.mean(), h.max());
            writeln!(
                f,
                "  queue '{q}': {samples} samples, mean depth {mean:.2}, max {max:.0}"
            )?;
        }

        let dissem = ["dissem_adv", "dissem_req", "dissem_page"];
        if saw(&dissem) || saw(&["dissem_complete", "rollout_stage"]) {
            writeln!(f, "\n== dissemination campaign ==")?;
            let [adv, req, pages] = dissem.map(n);
            writeln!(f, "  adv {adv}   req {req}   pages {pages}")?;
            for (v, (ok, bad, first, last)) in &self.dissem.images {
                let (first, last) = (first.as_secs_f64(), last.as_secs_f64());
                writeln!(
                        f,
                        "  image v{v}: {ok} nodes complete, {bad} rejected (bad CRC), first {first:.3}s last {last:.3}s"
                    )?;
            }
            f.write_str(&self.dissem.rollout)?;
        }

        if saw(&["cloud_ingest", "cloud_shed", "cloud_command"]) {
            writeln!(f, "\n== cloud tier ==")?;
            let (accepted, shed) = (n("cloud_ingest"), n("cloud_shed"));
            writeln!(f, "  ingest accepted {accepted}   shed {shed}")?;
            for (id, t) in &self.cloud.tenants {
                let (accepted, shed, [ok, failed]) = (t.accepted, t.shed, t.commands);
                writeln!(
                        f,
                        "  tenant {id}: accepted {accepted}, shed {shed}, commands {ok} ok / {failed} failed, max depth {}",
                        t.max_depth
                    )?;
            }
            for (cause, n) in &self.cloud.shed_causes {
                writeln!(f, "  shed cause {cause}: {n}")?;
            }
        }

        // Admission-control sheds, event-log seals and closed windows:
        // the cloud pipeline ran with a stream attachment.
        if saw(&["cloud_ratelimit", "stream_seal", "stream_window"]) {
            writeln!(f, "\n== stream ==")?;
            let [seals, ratelimited] = ["stream_seal", "cloud_ratelimit"].map(n);
            let records = self.stream.sealed_records;
            writeln!(
                f,
                "  log seals {seals} ({records} records)   admission shed {ratelimited}"
            )?;
            for (tenant, n) in &self.stream.ratelimited {
                writeln!(f, "  tenant {tenant}: ratelimited {n}")?;
            }
            for (tenant, (w, obs)) in &self.stream.windows {
                writeln!(
                    f,
                    "  tenant {tenant}: {w} windows closed ({obs} observations)"
                )?;
            }
        }

        if saw(&["fleet_phase", "fleet_drift", "fleet_remediate"]) {
            writeln!(f, "\n== fleet ==")?;
            let (drifts, keys) = (n("fleet_drift"), self.fleet.drift_keys);
            let [ok, failed] = self.fleet.remediations;
            writeln!(
                    f,
                    "  drift detections {drifts} ({keys} keys)   remediations {ok} ok / {failed} failed"
                )?;
            f.write_str(&self.fleet.campaign)?;
        }

        let icn = ["icn_interest", "icn_data", "icn_cache_hit"];
        if saw(&icn) || saw(&["icn_verify_fail"]) {
            writeln!(f, "\n== icn ==")?;
            let [interests, data, hits] = icn.map(n);
            let ratio = if interests > 0 {
                hits as f64 / interests as f64 * 100.0
            } else {
                0.0
            };
            writeln!(
                    f,
                    "  interests {interests}   data {data}   cache hits {hits} ({ratio:.1}% of interests)"
                )?;
            for (name, [i, d, h]) in &self.icn.names {
                writeln!(
                    f,
                    "  name {name:#010x}: interests {i}, data {d}, cache hits {h}"
                )?;
            }
            for (cause, n) in &self.icn.verify_fails {
                writeln!(f, "  verify fail {cause}: {n}")?;
            }
        }

        writeln!(f, "\n== repair timeline ==")?;
        f.write_str(&self.repair.shown)?;
        if self.repair.entries == 0 {
            writeln!(f, "  (no repair activity)")?;
        } else if self.repair.entries > TIMELINE_CAP {
            let more = self.repair.entries - TIMELINE_CAP;
            writeln!(f, "  ... {more} more repair events")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_sim::obs::{traces_to_jsonl, SpanId};
    use iiot_sim::NodeId;

    fn ev(t_us: u64, node: u32, span: SpanId, kind: EventKind) -> Event {
        Event {
            t: SimTime::from_micros(t_us),
            node: NodeId(node),
            span,
            kind,
        }
    }

    fn trace(label: &str, events: Vec<Event>) -> ScopeTrace {
        ScopeTrace {
            section: 0,
            trial: 0,
            replica: 0,
            world: 0,
            label: label.into(),
            seed: 99,
            events,
        }
    }

    fn fold(traces: &[ScopeTrace]) -> String {
        let mut r = Report::default();
        for t in traces {
            r.trace(t);
            t.events.iter().for_each(|e| r.event(e));
        }
        r.finish()
    }

    /// Trial 0 delivers node 4's packet over two hops and leaves node
    /// 5's open; trial 1 reuses node 5's span id and delivers it.
    fn two_trials() -> [ScopeTrace; 2] {
        let (s4, s5) = (SpanId::packet(NodeId(4), 1), SpanId::packet(NodeId(5), 1));
        let origin = EventKind::DataOrigin { seq: 1 };
        let hop = EventKind::DataHop {
            from: NodeId(4),
            hops: 1,
        };
        let trial0 = vec![
            ev(1_000_000, 4, s4, origin),
            ev(1_000_000, 5, s5, origin),
            ev(1_500_000, 2, s4, hop),
            ev(2_000_000, 0, s4, EventKind::DataArrive { hops: 2 }),
        ];
        let trial1 = vec![
            ev(1_000_000, 5, s5, origin),
            ev(1_500_000, 0, s5, EventKind::DataArrive { hops: 1 }),
        ];
        [trace("trial 0", trial0), trace("trial 1", trial1)]
    }

    /// Stitched over the concatenation, trial 1's origin overwrote the
    /// one trial 0 left open and the dump read `lost 0`.
    #[test]
    fn packet_spans_are_stitched_within_each_trace() {
        let traces = two_trials();
        let spans =
            "  delivered 1   lost 1   latency mean 1.000s p95 1.000s max 1.000s   hops mean 2.0\n";
        assert!(fold(&traces[..1]).contains(spans));
        let spans =
            "  delivered 2   lost 1   latency mean 0.750s p95 1.000s max 1.000s   hops mean 1.5\n";
        assert!(fold(&traces).contains(spans));
    }

    #[test]
    fn a_dump_read_back_reports_like_the_traces_it_was_written_from() {
        let traces = two_trials();
        let read_back = summarize(traces_to_jsonl(&traces).as_bytes());
        assert_eq!(read_back, Ok(fold(&traces)));
    }

    /// Four traces with at least one event for every section, rendered
    /// by the `obs::report` this fold replaced.
    #[test]
    fn report_text_matches_the_golden() {
        let dump = include_str!("../tests/golden/report.jsonl");
        let text = summarize(dump.as_bytes()).expect("report");
        assert_eq!(text, include_str!("../tests/golden/report.txt"));
    }

    #[test]
    fn plane_sections_need_an_event_and_the_timeline_is_capped() {
        let reset = EventKind::TrickleReset { cause: "periodic" };
        let events = (0..45).map(|i| ev(i, 0, SpanId::NONE, reset)).collect();
        let text = fold(&[trace("t", events)]);
        assert_eq!(text.matches("\n== ").count(), 5, "{text}");
        assert_eq!(text.matches("trickle reset").count(), 40);
        assert!(text.ends_with("  ... 5 more repair events\n"), "{text}");
        assert!(fold(&[]).ends_with("  (no repair activity)\n"));
    }

    #[test]
    fn bad_lines_are_errors_naming_the_line() {
        let dump = traces_to_jsonl(&two_trials());
        let (header, events) = dump.split_once('\n').expect("two lines");
        for (dump, needle) in [
            (events.to_owned(), "line 1: event before any trace header"),
            (format!("{header}\n\ngarbage\n"), "line 3: "),
            (
                dump.replace("data_hop", "nope"),
                "line 4: unknown event kind",
            ),
            (dump.replace("\"seed\":99", ""), "line 1: header: missing"),
        ] {
            let err = summarize(dump.as_bytes()).expect_err(&dump);
            assert!(err.contains(needle), "{err}");
        }
        let err = summarize(&b"\xff\xfe\n"[..]).expect_err("not UTF-8");
        assert!(err.starts_with("line 1: "), "{err}");
    }

    /// The medium's and the data plane's losses share one section, and
    /// no data-plane cause is named like a medium one.
    #[test]
    fn data_plane_drops_are_drop_causes_apart_from_the_medium() {
        use iiot_sim::radio::DropReason::*;
        let medium = [Prr, Collision, RadioMoved, Filtered, Dead, Expired].map(|r| r.name());
        let data = ["queue", "size", "retries", "ttl", "malformed", "dup"];
        let span = SpanId::packet(NodeId(3), 7);
        let rx = medium.map(|cause| EventKind::RxDrop { cause, src: None });
        let events = rx
            .into_iter()
            .chain(data.map(|cause| EventKind::DataDrop { cause }));
        let text = fold(&[trace("t", events.map(|k| ev(1, 3, span, k)).collect())]);
        let section = text.split("\n== drop causes ==\n").nth(1).expect("section");
        let lines: Vec<&str> = section.lines().take_while(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), medium.len() + data.len(), "{text}");
        for cause in medium.iter().chain(&data) {
            assert!(
                lines.contains(&format!("  {cause:<14} 1").as_str()),
                "{cause}"
            );
        }
    }
}
