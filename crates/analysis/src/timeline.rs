//! Detection timelines from flight-recorder traces.
//!
//! A raw trace is a flat JSONL stream of [`TraceEvent`]s. What the paper's
//! figures (and an operator doing a post-mortem) actually care about is the
//! *causal chain* of a failure episode:
//!
//! ```text
//! onset ──▶ first suspicion ──▶ detection ──▶ reroute
//! (first    (first zoom step     (detector     (first packet on
//!  gray      or counter           fired)        the backup port)
//!  drop)     mismatch signal)
//! ```
//!
//! [`TimelineReport::from_events`] extracts that chain plus per-flow loss
//! episodes from any event stream, and renders it either as a summary
//! ([`TimelineReport::render`]) or as a chronological event log
//! ([`render_timeline`]). The latencies it computes are the measured
//! counterparts of the closed forms in [`crate::speed`], so experiments can
//! print model and measurement side by side.

use std::collections::HashMap;

use fancy_trace::{DropCause, TraceEvent};

/// Gap between gray drops of one flow beyond which a new loss episode
/// starts (1 s — far larger than any retransmission burst, far smaller
/// than distinct injected failures in the experiments).
const EPISODE_GAP_NS: u64 = 1_000_000_000;

/// A contiguous run of gray drops suffered by one flow on one link.
/// Keyed per `(flow, link)`: overlapping failures on different links
/// produce distinct episodes even when they hit the same flow, so a
/// post-mortem can attribute each loss run to its failed link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossEpisode {
    /// Flow id.
    pub flow: u64,
    /// Link the drops happened on (`None` for node-local drops).
    pub link: Option<u64>,
    /// First drop of the episode.
    pub start_ns: u64,
    /// Last drop of the episode.
    pub end_ns: u64,
    /// Packets lost in the episode.
    pub drops: u64,
}

/// One detector firing, as seen in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineDetection {
    /// Detection time.
    pub t_ns: u64,
    /// Reporting switch.
    pub node: u64,
    /// Suffering port.
    pub port: u64,
    /// Detector name (`"dedicated"`, `"tree"`, ...).
    pub detector: String,
    /// Scope name (`"entry"`, `"path"`, ...).
    pub scope: String,
}

/// The extracted causal chain of a failure episode, plus stream-wide
/// accounting.
#[derive(Debug, Clone, Default)]
pub struct TimelineReport {
    /// First gray drop — the observable failure onset.
    pub onset_ns: Option<u64>,
    /// First zoom step or post-onset FSM/counter signal that the detector
    /// pipeline noticed *something* (earliest zoom step at or after onset).
    pub first_suspicion_ns: Option<u64>,
    /// Every detector firing, in time order.
    pub detections: Vec<TimelineDetection>,
    /// First reroute decision.
    pub first_reroute_ns: Option<u64>,
    /// Per-flow gray-loss episodes, gap-coalesced, in start order.
    pub loss_episodes: Vec<LossEpisode>,
    /// Total drops by cause name.
    pub drops_by_cause: Vec<(String, u64)>,
    /// Event counts by `ev` discriminator, sorted by name.
    pub event_counts: Vec<(String, u64)>,
    /// Total events consumed.
    pub total_events: u64,
    /// Sweep cells served from the result cache instead of executing
    /// (count of [`TraceEvent::CacheHit`] stubs in the stream).
    pub cached_cells: u64,
}

impl TimelineReport {
    /// Extract a timeline from an event stream. Events need not be sorted;
    /// the pass sorts a copy by time (stable, so equal-time order is
    /// preserved from the stream).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut sorted: Vec<&TraceEvent> = events.iter().collect();
        sorted.sort_by_key(|e| e.time_ns());

        let mut report = TimelineReport {
            total_events: events.len() as u64,
            ..TimelineReport::default()
        };
        let mut drops: HashMap<&'static str, u64> = HashMap::new();
        let mut counts: HashMap<&'static str, u64> = HashMap::new();
        // Open episode per (flow, link): (start, end, drops). Keying on
        // the link too keeps overlapping failures on different links from
        // coalescing into one episode.
        let mut open: HashMap<(u64, Option<u64>), (u64, u64, u64)> = HashMap::new();

        for ev in sorted {
            *counts.entry(ev.kind()).or_insert(0) += 1;
            match ev {
                TraceEvent::PacketDrop {
                    t,
                    cause,
                    flow,
                    link,
                    ..
                } => {
                    *drops.entry(cause.name()).or_insert(0) += 1;
                    if *cause == DropCause::Gray {
                        report.onset_ns.get_or_insert(*t);
                        if let Some(flow) = flow {
                            let ep = open.entry((*flow, *link)).or_insert((*t, *t, 0));
                            if t.saturating_sub(ep.1) > EPISODE_GAP_NS {
                                report.loss_episodes.push(LossEpisode {
                                    flow: *flow,
                                    link: *link,
                                    start_ns: ep.0,
                                    end_ns: ep.1,
                                    drops: ep.2,
                                });
                                *ep = (*t, *t, 0);
                            }
                            ep.1 = *t;
                            ep.2 += 1;
                        }
                    }
                }
                TraceEvent::ZoomStep { t, .. }
                    if report.onset_ns.is_some_and(|onset| *t >= onset) =>
                {
                    report.first_suspicion_ns.get_or_insert(*t);
                }
                TraceEvent::Detection {
                    t,
                    node,
                    port,
                    detector,
                    scope,
                    ..
                } => {
                    report.detections.push(TimelineDetection {
                        t_ns: *t,
                        node: *node,
                        port: *port,
                        detector: detector.to_string(),
                        scope: scope.to_string(),
                    });
                }
                TraceEvent::Reroute { t, .. } => {
                    report.first_reroute_ns.get_or_insert(*t);
                }
                TraceEvent::CacheHit { .. } => {
                    report.cached_cells += 1;
                }
                _ => {}
            }
        }
        let mut episodes: Vec<LossEpisode> = open
            .into_iter()
            .map(|((flow, link), (start_ns, end_ns, drops))| LossEpisode {
                flow,
                link,
                start_ns,
                end_ns,
                drops,
            })
            .collect();
        report.loss_episodes.append(&mut episodes);
        report
            .loss_episodes
            .sort_by_key(|e| (e.start_ns, e.flow, e.link));

        report.drops_by_cause = drops.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        report.drops_by_cause.sort();
        report.event_counts = counts.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        report.event_counts.sort();
        report
    }

    /// First detection time, if any detector fired.
    pub fn first_detection_ns(&self) -> Option<u64> {
        self.detections.first().map(|d| d.t_ns)
    }

    /// Onset → first detection, in seconds. The measured counterpart of
    /// [`crate::speed::dedicated_secs`] / [`crate::speed::tree_secs`].
    pub fn detection_latency_secs(&self) -> Option<f64> {
        latency_secs(self.onset_ns, self.first_detection_ns())
    }

    /// Onset → first zoom activity, in seconds.
    pub fn suspicion_latency_secs(&self) -> Option<f64> {
        latency_secs(self.onset_ns, self.first_suspicion_ns)
    }

    /// Onset → first rerouted packet, in seconds (§6.1's "connections
    /// recover within ~1 s" claim is about this number plus TCP recovery).
    pub fn reroute_latency_secs(&self) -> Option<f64> {
        latency_secs(self.onset_ns, self.first_reroute_ns)
    }

    /// Total gray drops attributed to flows, across episodes.
    pub fn flow_gray_drops(&self) -> u64 {
        self.loss_episodes.iter().map(|e| e.drops).sum()
    }

    /// Render the summary block (stable, plain text).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("events            {}\n", self.total_events));
        for (kind, n) in &self.event_counts {
            out.push_str(&format!("  {kind:<15} {n}\n"));
        }
        if !self.drops_by_cause.is_empty() {
            out.push_str("drops by cause\n");
            for (cause, n) in &self.drops_by_cause {
                out.push_str(&format!("  {cause:<15} {n}\n"));
            }
        }
        match self.onset_ns {
            Some(t) => out.push_str(&format!("failure onset     {}\n", fmt_t(t))),
            None => out.push_str("failure onset     (no gray drops)\n"),
        }
        if let Some(s) = self.suspicion_latency_secs() {
            out.push_str(&format!("first suspicion   +{s:.6}s\n"));
        }
        if let Some(s) = self.detection_latency_secs() {
            let d = &self.detections[0];
            out.push_str(&format!(
                "detection         +{s:.6}s ({} via {})\n",
                d.scope, d.detector
            ));
        }
        out.push_str(&format!("detections        {}\n", self.detections.len()));
        if let Some(s) = self.reroute_latency_secs() {
            out.push_str(&format!("reroute           +{s:.6}s\n"));
        }
        if !self.loss_episodes.is_empty() {
            out.push_str(&format!(
                "loss episodes     {} ({} flow packets lost)\n",
                self.loss_episodes.len(),
                self.flow_gray_drops()
            ));
        }
        if self.cached_cells > 0 {
            out.push_str(&format!("cached cells      {}\n", self.cached_cells));
        }
        out
    }
}

fn latency_secs(from: Option<u64>, to: Option<u64>) -> Option<f64> {
    match (from, to) {
        (Some(a), Some(b)) if b >= a => Some((b - a) as f64 / 1e9),
        _ => None,
    }
}

fn fmt_t(ns: u64) -> String {
    format!("{:.6}s", ns as f64 / 1e9)
}

fn fmt_path(path: &[u64]) -> String {
    if path.is_empty() {
        "·".to_owned()
    } else {
        path.iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("/")
    }
}

/// One human-readable line per event (no timestamp; [`render_timeline`]
/// prefixes the offset column).
pub fn describe(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::PacketForward {
            link,
            dir,
            entry,
            size,
            ..
        } => {
            format!("fwd    link {link}.{dir} entry {entry} ({size} B)")
        }
        TraceEvent::PacketDrop {
            cause,
            node,
            link,
            entry,
            flow,
            ..
        } => {
            let at = match link {
                Some(l) => format!("link {l}"),
                None => format!("node {node}"),
            };
            let flow = flow.map_or(String::new(), |f| format!(" flow {f}"));
            format!("drop   {} at {at} entry {entry}{flow}", cause.name())
        }
        TraceEvent::FsmTransition {
            node,
            port,
            role,
            unit,
            from,
            to,
            ..
        } => {
            format!("fsm    n{node}:p{port} {role} unit {unit}: {from} → {to}")
        }
        TraceEvent::CounterExchange {
            node,
            port,
            unit,
            session,
            body,
            dir,
            len,
            ..
        } => {
            format!("ctrl   n{node}:p{port} {dir} {body} unit {unit} session {session} ({len} B)")
        }
        TraceEvent::ZoomStep {
            node,
            port,
            step,
            path,
            lost,
            ..
        } => {
            let lost = if *lost > 0 {
                format!(" (lost {lost})")
            } else {
                String::new()
            };
            format!("zoom   n{node}:p{port} {step} {}{lost}", fmt_path(path))
        }
        TraceEvent::Detection {
            node,
            port,
            detector,
            scope,
            entry,
            path,
            ..
        } => {
            let what = match entry {
                Some(e) => format!(" entry {e}"),
                None if !path.is_empty() => format!(" path {}", fmt_path(path)),
                None => String::new(),
            };
            format!("DETECT n{node}:p{port} {scope}{what} via {detector}")
        }
        TraceEvent::Reroute {
            node,
            entry,
            primary,
            backup,
            ..
        } => {
            format!("REROUTE n{node} entry {entry}: port {primary} → {backup}")
        }
        TraceEvent::Failover {
            node,
            entry,
            primary,
            from,
            to,
            rank,
            ..
        } => {
            format!("FAILOVER n{node} entry {entry} (primary {primary}): port {from} → {to} (rank {rank})")
        }
        TraceEvent::RerouteDamp {
            node,
            entry,
            primary,
            action,
            ..
        } => {
            format!("damp   n{node} entry {entry} port {primary}: {action}")
        }
        TraceEvent::BackupAlarm {
            node,
            entry,
            primary,
            ..
        } => {
            format!("ALARM  n{node} entry {entry} port {primary}: backup chain exhausted")
        }
        TraceEvent::TcpRto {
            node,
            flow,
            seq,
            rto_ns,
            cwnd_mpkt,
            ..
        } => {
            format!(
                "rto    n{node} flow {flow} seq {seq} (rto {:.3}s, cwnd {:.3} pkt)",
                *rto_ns as f64 / 1e9,
                *cwnd_mpkt as f64 / 1e3
            )
        }
        TraceEvent::TcpFastRetx {
            node, flow, seq, ..
        } => {
            format!("retx   n{node} flow {flow} seq {seq} (fast retransmit)")
        }
        TraceEvent::TcpCwnd {
            node,
            flow,
            from_mpkt,
            to_mpkt,
            ..
        } => {
            format!(
                "cwnd   n{node} flow {flow}: {:.3} → {:.3} pkt",
                *from_mpkt as f64 / 1e3,
                *to_mpkt as f64 / 1e3
            )
        }
        TraceEvent::IncidentOpen {
            node,
            port,
            severity,
            ..
        } => {
            format!("INCIDENT n{node}:p{port} opened ({severity})")
        }
        TraceEvent::IncidentClear {
            node,
            port,
            detections,
            ..
        } => {
            format!("incident n{node}:p{port} cleared ({detections} detections)")
        }
        TraceEvent::ChaosInject {
            link,
            dir,
            action,
            uid,
            control,
            ..
        } => {
            let what = if *control > 0 { "ctrl" } else { "data" };
            format!("chaos  link {link}.{dir} {action} {what} uid {uid}")
        }
        TraceEvent::DegradedMode { node, port, on, .. } => {
            if *on > 0 {
                format!("DEGRADED n{node}:p{port} entering port-level counting")
            } else {
                format!("degraded n{node}:p{port} cleared (session completed)")
            }
        }
        TraceEvent::CacheHit {
            cell,
            key_hi,
            key_lo,
            saved_events,
            ..
        } => {
            format!(
                "cached cell {cell:04} key {key_hi:016x}{key_lo:016x} ({saved_events} events reused)"
            )
        }
        TraceEvent::Scrape { seq, samples, .. } => {
            format!("scrape #{seq} ({samples} metric samples)")
        }
    }
}

/// Render a chronological event log: one line per event, prefixed with the
/// offset from the first event (`+x.xxxxxxs`). Wire-level forward events
/// are skipped unless `verbose` (they dominate any real trace).
pub fn render_timeline(events: &[TraceEvent], verbose: bool) -> String {
    let mut sorted: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| verbose || !matches!(e, TraceEvent::PacketForward { .. }))
        .collect();
    sorted.sort_by_key(|e| e.time_ns());
    let t0 = sorted.first().map_or(0, |e| e.time_ns());
    let mut out = String::new();
    for ev in sorted {
        let dt = (ev.time_ns() - t0) as f64 / 1e9;
        out.push_str(&format!("+{dt:>10.6}s  {}\n", describe(ev)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gray_drop(t: u64, flow: Option<u64>) -> TraceEvent {
        TraceEvent::PacketDrop {
            t,
            cause: DropCause::Gray,
            node: 1,
            link: Some(1),
            dir: Some(0),
            uid: t,
            entry: 7,
            flow,
            size: 1500,
        }
    }

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PacketForward {
                t: 500,
                link: 1,
                dir: 0,
                uid: 1,
                entry: 7,
                flow: Some(3),
                size: 1500,
            },
            gray_drop(1_000, Some(3)),
            gray_drop(2_000, Some(3)),
            // > 1 s later: second episode for the same flow.
            gray_drop(2_500_000_000, Some(3)),
            TraceEvent::ZoomStep {
                t: 50_000,
                node: 1,
                port: 1,
                step: "descend".into(),
                path: vec![3],
                lost: 9,
            },
            TraceEvent::Detection {
                t: 70_000,
                node: 1,
                port: 1,
                detector: "tree".into(),
                scope: "path".into(),
                entry: None,
                path: vec![3, 0, 12],
            },
            TraceEvent::Reroute {
                t: 90_000,
                node: 1,
                entry: 7,
                primary: 1,
                backup: 2,
            },
        ]
    }

    #[test]
    fn extracts_the_causal_chain() {
        let r = TimelineReport::from_events(&sample());
        assert_eq!(r.onset_ns, Some(1_000));
        assert_eq!(r.first_suspicion_ns, Some(50_000));
        assert_eq!(r.first_detection_ns(), Some(70_000));
        assert_eq!(r.first_reroute_ns, Some(90_000));
        assert_eq!(r.detection_latency_secs(), Some(69_000.0 / 1e9));
        assert_eq!(r.reroute_latency_secs(), Some(89_000.0 / 1e9));
        assert_eq!(r.total_events, 7);
    }

    #[test]
    fn coalesces_loss_episodes_by_gap() {
        let r = TimelineReport::from_events(&sample());
        assert_eq!(r.loss_episodes.len(), 2);
        assert_eq!(r.loss_episodes[0].drops, 2);
        assert_eq!(r.loss_episodes[0].start_ns, 1_000);
        assert_eq!(r.loss_episodes[0].end_ns, 2_000);
        assert_eq!(r.loss_episodes[1].drops, 1);
        assert_eq!(r.flow_gray_drops(), 3);
    }

    #[test]
    fn empty_trace_yields_an_empty_report() {
        let r = TimelineReport::from_events(&[]);
        assert_eq!(r.total_events, 0);
        assert_eq!(r.onset_ns, None);
        assert_eq!(r.first_suspicion_ns, None);
        assert_eq!(r.first_detection_ns(), None);
        assert_eq!(r.first_reroute_ns, None);
        assert!(r.loss_episodes.is_empty());
        assert!(r.drops_by_cause.is_empty());
        assert!(r.event_counts.is_empty());
        assert_eq!(r.detection_latency_secs(), None);
        assert!(r.render().contains("(no gray drops)"));
        assert_eq!(render_timeline(&[], false), "");
    }

    #[test]
    fn single_drop_makes_a_zero_length_episode() {
        // One gray drop is a complete episode: start == end, one packet.
        let r = TimelineReport::from_events(&[gray_drop(5_000, Some(9))]);
        assert_eq!(
            r.loss_episodes,
            vec![LossEpisode {
                flow: 9,
                link: Some(1),
                start_ns: 5_000,
                end_ns: 5_000,
                drops: 1,
            }]
        );
        assert_eq!(r.flow_gray_drops(), 1);
    }

    #[test]
    fn gap_boundary_is_exclusive() {
        // Two drops exactly EPISODE_GAP_NS apart coalesce (the split
        // condition is strictly-greater); one more nanosecond splits.
        let t0 = 1_000;
        let abut = TimelineReport::from_events(&[
            gray_drop(t0, Some(1)),
            gray_drop(t0 + EPISODE_GAP_NS, Some(1)),
        ]);
        assert_eq!(abut.loss_episodes.len(), 1);
        assert_eq!(abut.loss_episodes[0].start_ns, t0);
        assert_eq!(abut.loss_episodes[0].end_ns, t0 + EPISODE_GAP_NS);
        assert_eq!(abut.loss_episodes[0].drops, 2);

        let split = TimelineReport::from_events(&[
            gray_drop(t0, Some(1)),
            gray_drop(t0 + EPISODE_GAP_NS + 1, Some(1)),
        ]);
        assert_eq!(split.loss_episodes.len(), 2);
        assert_eq!(split.loss_episodes[0].drops, 1);
        assert_eq!(
            split.loss_episodes[0].start_ns,
            split.loss_episodes[0].end_ns
        );
        assert_eq!(split.loss_episodes[1].start_ns, t0 + EPISODE_GAP_NS + 1);
    }

    #[test]
    fn gap_is_measured_per_flow() {
        // Interleaved flows each keep their own episode clock: flow 2's
        // drop between flow 1's drops must not reset flow 1's gap.
        let r = TimelineReport::from_events(&[
            gray_drop(0, Some(1)),
            gray_drop(500_000_000, Some(2)),
            gray_drop(2_000_000_000, Some(1)),
        ]);
        assert_eq!(r.loss_episodes.len(), 3);
        let flow1: Vec<_> = r.loss_episodes.iter().filter(|e| e.flow == 1).collect();
        assert_eq!(flow1.len(), 2, "flow 1 split despite flow 2's drop");
    }

    #[test]
    fn overlapping_episodes_on_different_links_do_not_coalesce() {
        // One flow suffering two *simultaneous* gray failures on two
        // different links (overlapping failure scenario): the drops
        // interleave within the gap window, but must stay two episodes —
        // one per failed link — not merge into a single blur.
        let drop_on = |t: u64, link: u64| TraceEvent::PacketDrop {
            t,
            cause: DropCause::Gray,
            node: 1,
            link: Some(link),
            dir: Some(0),
            uid: t,
            entry: 7,
            flow: Some(3),
            size: 1500,
        };
        let r = TimelineReport::from_events(&[
            drop_on(1_000, 10),
            drop_on(2_000, 20),
            drop_on(3_000, 10),
            drop_on(4_000, 20),
        ]);
        assert_eq!(r.loss_episodes.len(), 2, "{:?}", r.loss_episodes);
        let by_link = |l: u64| {
            r.loss_episodes
                .iter()
                .find(|e| e.link == Some(l))
                .expect("episode per link")
        };
        assert_eq!(by_link(10).drops, 2);
        assert_eq!(by_link(10).start_ns, 1_000);
        assert_eq!(by_link(10).end_ns, 3_000);
        assert_eq!(by_link(20).drops, 2);
        assert_eq!(by_link(20).start_ns, 2_000);
        assert_eq!(r.flow_gray_drops(), 4);
    }

    #[test]
    fn damping_and_failover_events_render_in_timelines() {
        let events = vec![
            TraceEvent::RerouteDamp {
                t: 1_000,
                node: 4,
                entry: 7,
                primary: 1,
                action: "engage".into(),
            },
            TraceEvent::Failover {
                t: 2_000,
                node: 4,
                entry: 7,
                primary: 1,
                from: 2,
                to: 3,
                rank: 1,
            },
            TraceEvent::RerouteDamp {
                t: 3_000,
                node: 4,
                entry: 7,
                primary: 1,
                action: "restore".into(),
            },
            TraceEvent::BackupAlarm {
                t: 4_000,
                node: 4,
                entry: 7,
                primary: 1,
            },
        ];
        let line = render_timeline(&events, false);
        // Revert-to-primary ("restore") and the rest of the damping
        // lifecycle are visible, as are cascade steps and alarms.
        assert!(line.contains("damp   n4 entry 7 port 1: engage"), "{line}");
        assert!(line.contains("damp   n4 entry 7 port 1: restore"), "{line}");
        assert!(
            line.contains("FAILOVER n4 entry 7 (primary 1): port 2 → 3 (rank 1)"),
            "{line}"
        );
        assert!(line.contains("backup chain exhausted"), "{line}");
        // And the summary's event counts see the new kinds.
        let r = TimelineReport::from_events(&events);
        let kinds: Vec<&str> = r.event_counts.iter().map(|(k, _)| k.as_str()).collect();
        assert!(kinds.contains(&"damp"), "{kinds:?}");
        assert!(kinds.contains(&"failover"), "{kinds:?}");
        assert!(kinds.contains(&"alarm"), "{kinds:?}");
    }

    #[test]
    fn suspicion_requires_onset_first() {
        // A zoom step before any gray drop is routine session-end
        // housekeeping, not suspicion of this failure.
        let events = vec![
            TraceEvent::ZoomStep {
                t: 10,
                node: 1,
                port: 1,
                step: "uniform".into(),
                path: Vec::new(),
                lost: 0,
            },
            gray_drop(1_000, None),
        ];
        let r = TimelineReport::from_events(&events);
        assert_eq!(r.first_suspicion_ns, None);
    }

    #[test]
    fn render_mentions_every_stage() {
        let r = TimelineReport::from_events(&sample());
        let s = r.render();
        assert!(s.contains("failure onset"), "{s}");
        assert!(s.contains("first suspicion"), "{s}");
        assert!(s.contains("detection"), "{s}");
        assert!(s.contains("reroute"), "{s}");
        assert!(s.contains("loss episodes"), "{s}");
    }

    #[test]
    fn cache_hits_are_counted_and_rendered() {
        let mut events = sample();
        events.push(TraceEvent::CacheHit {
            t: 1,
            cell: 12,
            key_hi: 0xAB,
            key_lo: 0xCD,
            saved_events: 9_000,
        });
        let r = TimelineReport::from_events(&events);
        assert_eq!(r.cached_cells, 1);
        let s = r.render();
        assert!(s.contains("cached cells      1"), "{s}");
        let line = render_timeline(&events, false);
        assert!(line.contains("cached cell 0012"), "{line}");
        assert!(line.contains("9000 events reused"), "{line}");

        // Streams without hits don't grow a noise line.
        let quiet = TimelineReport::from_events(&sample());
        assert_eq!(quiet.cached_cells, 0);
        assert!(!quiet.render().contains("cached cells"));
    }

    #[test]
    fn timeline_skips_forwards_unless_verbose() {
        let events = sample();
        let quiet = render_timeline(&events, false);
        let verbose = render_timeline(&events, true);
        assert!(!quiet.contains("fwd"), "{quiet}");
        assert!(verbose.contains("fwd"), "{verbose}");
        assert!(quiet.contains("DETECT"), "{quiet}");
        assert!(quiet.lines().all(|l| l.starts_with('+')), "{quiet}");
    }
}
