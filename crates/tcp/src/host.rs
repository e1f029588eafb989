//! Host nodes: TCP senders, the universal receiver, and a UDP source.
//!
//! A [`SenderHost`] runs many concurrent [`TcpFlow`]s with application-rate
//! pacing; a [`ReceiverHost`] stands in for *all* destination hosts (it
//! accepts any destination address, ACKs every data segment, and keeps
//! per-entry byte counts and optional throughput time series). This keeps
//! node counts small even when experiments span hundreds of thousands of
//! destination prefixes.

use std::any::Any;
use std::collections::BTreeSet;

use fancy_net::{FastMap, Prefix};
use fancy_sim::metrics::Labels;
use fancy_sim::{
    FlowId, Kernel, Node, PacketBuilder, PacketKind, PacketRef, PortId, SimDuration, SimTime,
    TimerToken, TraceEvent,
};

use crate::flow::{FlowAction, FlowConfig, TcpFlow};

/// Size of a pure ACK on the wire.
pub const ACK_SIZE: u32 = 64;

const KIND_START: u64 = 0;
const KIND_PACE: u64 = 1;
const KIND_RTO: u64 = 2;
const KIND_UDP: u64 = 3;

fn token(kind: u64, flow: FlowId) -> TimerToken {
    (flow << 2) | kind
}

/// Congestion windows are floats internally; trace events carry them in
/// milli-packets so the JSONL schema stays integer-only (exact round trips).
fn mpkt(cwnd: f64) -> u64 {
    (cwnd * 1000.0) as u64
}

fn split_token(t: TimerToken) -> (u64, FlowId) {
    (t & 3, t >> 2)
}

/// A flow waiting to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFlow {
    /// Absolute start time.
    pub start: SimTime,
    /// Destination address (its /24 is the monitored entry).
    pub dst: u32,
    /// Flow parameters.
    pub cfg: FlowConfig,
}

/// Aggregate sender-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Data packets transmitted (including retransmissions).
    pub data_packets: u64,
    /// Retransmitted packets.
    pub retransmissions: u64,
    /// Flows that delivered all their data.
    pub completed_flows: u64,
    /// Congestion (TM) drops observed at the host's own uplink.
    pub local_congestion_drops: u64,
}

/// A started flow: its TCP state, where it sends, and whether its pace
/// timer is armed.
struct ActiveFlow {
    flow: TcpFlow,
    dst: u32,
    pacing: bool,
}

/// A host that originates TCP flows on port 0.
pub struct SenderHost {
    /// This host's source address.
    pub addr: u32,
    /// The flow schedule; a flow's id is its index here.
    pub scheduled: Vec<ScheduledFlow>,
    /// Started flows, indexed by [`FlowId`], so per-packet state is one
    /// bounds-checked index away.
    active: Vec<Option<ActiveFlow>>,
    ip_id: u16,
    /// Aggregate statistics.
    pub stats: SenderStats,
}

/// Arm a flow's RTO timer at its current deadline, if any.
fn arm_rto(ctx: &mut Kernel, flow: FlowId, deadline: Option<SimTime>) {
    if let Some(deadline) = deadline {
        let delay = deadline.saturating_since(ctx.now());
        ctx.schedule_timer(delay, token(KIND_RTO, flow));
    }
}

impl SenderHost {
    /// A sender with a list of scheduled flows.
    pub fn new(addr: u32, scheduled: Vec<ScheduledFlow>) -> Self {
        SenderHost {
            addr,
            scheduled,
            active: Vec::new(),
            ip_id: 0,
            stats: SenderStats::default(),
        }
    }

    /// The started flow `id`, if any; ids never started or out of range
    /// (e.g. from a stray ACK) give `None`.
    fn active_mut(&mut self, id: FlowId) -> Option<&mut ActiveFlow> {
        self.active.get_mut(usize::try_from(id).ok()?)?.as_mut()
    }

    fn transmit(
        &mut self,
        ctx: &mut Kernel,
        flow: FlowId,
        dst: u32,
        size: u32,
        seq: u64,
        retx: bool,
    ) {
        self.ip_id = self.ip_id.wrapping_add(1);
        let pkt = PacketBuilder::new(
            self.addr,
            dst,
            size,
            PacketKind::TcpData { flow, seq, retx },
        )
        .ip_id(self.ip_id)
        .build();
        self.stats.data_packets += 1;
        if retx {
            self.stats.retransmissions += 1;
        }
        if !ctx.send(0, pkt) {
            self.stats.local_congestion_drops += 1;
        }
    }

    /// Send one paced packet if the window allows, and keep pacing armed
    /// while there is new data to send.
    fn pace(&mut self, ctx: &mut Kernel, id: FlowId) {
        let Some(a) = self.active_mut(id) else {
            return;
        };
        if a.flow.done() || !a.flow.can_send_new() {
            // Done, or window-limited: pacing resumes from the ACK path.
            a.pacing = false;
            return;
        }
        let FlowAction::Send { seq, retx } = a.flow.send_new(ctx.now()) else {
            return;
        };
        let f = &a.flow;
        let interval = f.cfg.pace_interval();
        let more = f.next_seq < f.cfg.total_packets;
        let (dst, size, deadline) = (a.dst, f.cfg.pkt_size, f.rto_deadline);
        a.pacing = more;
        self.transmit(ctx, id, dst, size, seq, retx);
        arm_rto(ctx, id, deadline);
        if more {
            ctx.schedule_timer(interval, token(KIND_PACE, id));
        }
    }

    /// Number of flows that have been started.
    pub fn started_flows(&self) -> usize {
        self.active.iter().flatten().count()
    }

    /// Iterate over started flows in ascending id order (post-run
    /// inspection).
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &TcpFlow)> {
        self.active
            .iter()
            .enumerate()
            .filter_map(|(id, a)| Some((id as FlowId, &a.as_ref()?.flow)))
    }
}

impl Node for SenderHost {
    fn on_start(&mut self, ctx: &mut Kernel) {
        self.active.resize_with(self.scheduled.len(), || None);
        for (i, s) in self.scheduled.iter().enumerate() {
            let delay = s.start.saturating_since(ctx.now());
            ctx.schedule_timer(delay, token(KIND_START, i as u64));
        }
    }

    fn on_packet(&mut self, ctx: &mut Kernel, _port: PortId, pkt: PacketRef) {
        let (flow, ack) = match &ctx.pkt(pkt).kind {
            PacketKind::TcpAck { flow, ack } => (*flow, *ack),
            _ => return, // hosts ignore anything that is not an ACK
        };
        let Some(a) = self.active_mut(flow) else {
            return;
        };
        let f = &mut a.flow;
        let was_done = f.done();
        let cwnd_before = f.cwnd;
        let action = f.on_ack(ack, ctx.now());
        let cwnd_after = f.cwnd;
        let (done, can_send, deadline) = (f.done(), f.can_send_new(), f.rto_deadline);
        let (dst, size, pacing) = (a.dst, f.cfg.pkt_size, a.pacing);
        if let FlowAction::Send { seq, retx } = action {
            if retx {
                ctx.metrics(|r| r.inc("fancy_tcp_fast_retx_total", Labels::new()));
            }
            if retx && ctx.trace_enabled() {
                let node = ctx.self_id() as u64;
                ctx.trace(|t| TraceEvent::TcpFastRetx { t, node, flow, seq });
                if cwnd_after < cwnd_before {
                    ctx.trace(|t| TraceEvent::TcpCwnd {
                        t,
                        node,
                        flow,
                        from_mpkt: mpkt(cwnd_before),
                        to_mpkt: mpkt(cwnd_after),
                    });
                }
            }
            self.transmit(ctx, flow, dst, size, seq, retx);
        }
        if done {
            if !was_done {
                self.stats.completed_flows += 1;
            }
            return;
        }
        arm_rto(ctx, flow, deadline);
        // Window opened: resume pacing if it went idle.
        if can_send && !pacing {
            self.pace(ctx, flow);
        }
    }

    fn on_timer(&mut self, ctx: &mut Kernel, t: TimerToken) {
        let (kind, flow) = split_token(t);
        match kind {
            KIND_START => {
                let s = &self.scheduled[flow as usize];
                self.active[flow as usize] = Some(ActiveFlow {
                    flow: TcpFlow::new(s.cfg),
                    dst: s.dst,
                    pacing: false,
                });
                self.pace(ctx, flow);
            }
            KIND_PACE => self.pace(ctx, flow),
            KIND_RTO => {
                let Some(a) = self.active_mut(flow) else {
                    return;
                };
                let f = &mut a.flow;
                let cwnd_before = f.cwnd;
                let action = f.on_rto(ctx.now());
                let (cwnd_after, rto_ns) = (f.cwnd, f.rto.as_nanos());
                let (dst, size, deadline) = (a.dst, f.cfg.pkt_size, f.rto_deadline);
                if let FlowAction::Send { seq, retx } = action {
                    ctx.metrics(|r| r.inc("fancy_tcp_rto_total", Labels::new()));
                    if ctx.trace_enabled() {
                        let node = ctx.self_id() as u64;
                        ctx.trace(|t| TraceEvent::TcpRto {
                            t,
                            node,
                            flow,
                            seq,
                            rto_ns,
                            cwnd_mpkt: mpkt(cwnd_after),
                        });
                        if cwnd_after < cwnd_before {
                            ctx.trace(|t| TraceEvent::TcpCwnd {
                                t,
                                node,
                                flow,
                                from_mpkt: mpkt(cwnd_before),
                                to_mpkt: mpkt(cwnd_after),
                            });
                        }
                    }
                    self.transmit(ctx, flow, dst, size, seq, retx);
                    arm_rto(ctx, flow, deadline);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[derive(Debug, Default)]
struct RecvFlow {
    rcv_next: u64,
    out_of_order: BTreeSet<u64>,
}

/// A throughput probe: byte counts per fixed time bucket for a set of
/// entries (or all traffic).
#[derive(Debug, Clone)]
pub struct ThroughputProbe {
    /// Human-readable label (printed by experiment harnesses).
    pub label: String,
    /// Entries to match; `None` matches every entry.
    pub entries: Option<Vec<Prefix>>,
    /// Bucket length.
    pub bucket: SimDuration,
    /// Bytes received per bucket.
    pub series: Vec<u64>,
}

impl ThroughputProbe {
    /// A probe over specific entries.
    pub fn for_entries(label: &str, entries: Vec<Prefix>, bucket: SimDuration) -> Self {
        ThroughputProbe {
            label: label.to_string(),
            entries: Some(entries),
            bucket,
            series: Vec::new(),
        }
    }

    /// A probe over all traffic.
    pub fn all(label: &str, bucket: SimDuration) -> Self {
        ThroughputProbe {
            label: label.to_string(),
            entries: None,
            bucket,
            series: Vec::new(),
        }
    }

    fn observe(&mut self, now: SimTime, entry: Prefix, bytes: u64) {
        if let Some(set) = &self.entries {
            if !set.contains(&entry) {
                return;
            }
        }
        let idx = (now.as_nanos() / self.bucket.as_nanos()) as usize;
        if self.series.len() <= idx {
            self.series.resize(idx + 1, 0);
        }
        self.series[idx] += bytes;
    }

    /// The series converted to bits per second.
    pub fn bps_series(&self) -> Vec<f64> {
        let secs = self.bucket.as_secs_f64();
        self.series.iter().map(|&b| b as f64 * 8.0 / secs).collect()
    }
}

/// The universal receiver: accepts data for any destination address, sends
/// cumulative ACKs back toward the packet's source, and tracks per-entry
/// byte counts.
#[derive(Default)]
pub struct ReceiverHost {
    /// Keyed by `(source address, flow id)`: flow ids are only unique per
    /// sender, and a receiver can serve many senders at once.
    recv: FastMap<(u32, FlowId), RecvFlow>,
    /// `(bytes, packets)` received per entry.
    entries: FastMap<Prefix, (u64, u64)>,
    /// Optional throughput probes.
    pub probes: Vec<ThroughputProbe>,
    /// Total data packets received.
    pub data_packets: u64,
}

impl ReceiverHost {
    /// A receiver with no probes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a throughput probe.
    pub fn with_probe(mut self, probe: ThroughputProbe) -> Self {
        self.probes.push(probe);
        self
    }

    /// Bytes received for `entry`.
    pub fn entry_bytes(&self, entry: Prefix) -> u64 {
        self.entries.get(&entry).map_or(0, |&(bytes, _)| bytes)
    }

    /// Data packets received for `entry`.
    pub fn entry_packets(&self, entry: Prefix) -> u64 {
        self.entries.get(&entry).map_or(0, |&(_, packets)| packets)
    }

    fn note(&mut self, now: SimTime, entry: Prefix, bytes: u64) {
        let e = self.entries.entry(entry).or_insert((0, 0));
        e.0 += bytes;
        e.1 += 1;
        self.data_packets += 1;
        for p in &mut self.probes {
            p.observe(now, entry, bytes);
        }
    }
}

impl Node for ReceiverHost {
    fn on_packet(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
        let p = ctx.pkt(pkt);
        let (entry, size, src, dst) = (p.entry(), u64::from(p.size), p.src, p.dst);
        let data = match p.kind {
            PacketKind::TcpData { flow, seq, .. } => Some((flow, seq)),
            PacketKind::Udp { .. } => None,
            _ => return,
        };
        self.note(ctx.now(), entry, size);
        let Some((flow, seq)) = data else {
            return;
        };
        let st = self.recv.entry((src, flow)).or_default();
        if seq == st.rcv_next {
            st.rcv_next += 1;
            while st.out_of_order.remove(&st.rcv_next) {
                st.rcv_next += 1;
            }
        } else if seq > st.rcv_next {
            st.out_of_order.insert(seq);
        }
        let ack = PacketBuilder::new(
            dst,
            src,
            ACK_SIZE,
            PacketKind::TcpAck {
                flow,
                ack: st.rcv_next,
            },
        )
        .build();
        ctx.send(port, ack);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An open-loop constant-rate UDP source (the Tofino case study mixes
/// 50 Mbps of UDP into its workload, §6.1).
pub struct UdpSource {
    /// Source address.
    pub addr: u32,
    /// Destination address.
    pub dst: u32,
    /// Send rate in bits per second.
    pub rate_bps: u64,
    /// Datagram size in bytes.
    pub pkt_size: u32,
    /// Stop time.
    pub until: SimTime,
    seq: u64,
    sent: u64,
}

impl UdpSource {
    /// A UDP source running until `until`.
    pub fn new(addr: u32, dst: u32, rate_bps: u64, pkt_size: u32, until: SimTime) -> Self {
        UdpSource {
            addr,
            dst,
            rate_bps,
            pkt_size,
            until,
            seq: 0,
            sent: 0,
        }
    }

    /// Datagrams sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(self.pkt_size) * 8.0 / self.rate_bps as f64)
    }
}

impl Node for UdpSource {
    fn on_start(&mut self, ctx: &mut Kernel) {
        ctx.schedule_timer(SimDuration::ZERO, token(KIND_UDP, 0));
    }

    fn on_packet(&mut self, _ctx: &mut Kernel, _port: PortId, _pkt: PacketRef) {}

    fn on_timer(&mut self, ctx: &mut Kernel, _t: TimerToken) {
        if ctx.now() >= self.until {
            return;
        }
        let pkt = PacketBuilder::new(
            self.addr,
            self.dst,
            self.pkt_size,
            PacketKind::Udp {
                flow: u64::MAX,
                seq: self.seq,
            },
        )
        .build();
        self.seq += 1;
        self.sent += 1;
        ctx.send(0, pkt);
        ctx.schedule_timer(self.interval(), token(KIND_UDP, 0));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fancy_sim::{GrayFailure, LinkConfig, Network};

    fn flow_cfg(rate: u64, pkts: u64) -> FlowConfig {
        FlowConfig {
            rate_bps: rate,
            total_packets: pkts,
            pkt_size: 1500,
            initial_rto: crate::flow::DEFAULT_RTO,
        }
    }

    /// host A ── link ── receiver, optional failure on the forward direction.
    fn setup(flows: Vec<ScheduledFlow>, failure: Option<GrayFailure>) -> (Network, usize, usize) {
        let mut net = Network::new(3);
        let a = net.add_node(Box::new(SenderHost::new(0x01000001, flows)));
        let b = net.add_node(Box::new(ReceiverHost::new()));
        let link = net.connect(
            a,
            b,
            LinkConfig::new(1_000_000_000, SimDuration::from_millis(5)),
        );
        if let Some(f) = failure {
            net.kernel.add_failure(link, a, f);
        }
        (net, a, b)
    }

    #[test]
    fn lossless_flow_completes_without_retx() {
        let flows = vec![ScheduledFlow {
            start: SimTime::ZERO,
            dst: 0x0A000005,
            cfg: flow_cfg(10_000_000, 50),
        }];
        let (mut net, a, b) = setup(flows, None);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let tx: &SenderHost = net.node(a);
        assert_eq!(tx.stats.completed_flows, 1);
        assert_eq!(tx.stats.retransmissions, 0);
        let rx: &ReceiverHost = net.node(b);
        assert_eq!(rx.entry_packets(Prefix::from_addr(0x0A000005)), 50);
    }

    #[test]
    fn blackhole_triggers_backoff_retransmissions() {
        let entry = Prefix::from_addr(0x0A000005);
        let flows = vec![ScheduledFlow {
            start: SimTime::ZERO,
            dst: 0x0A000005,
            cfg: flow_cfg(10_000_000, 50),
        }];
        let (mut net, a, _b) = setup(
            flows,
            Some(GrayFailure::single_entry(entry, 1.0, SimTime::ZERO)),
        );
        net.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let tx: &SenderHost = net.node(a);
        assert_eq!(tx.stats.completed_flows, 0);
        // RTO at 200,400,800,1600,3200,6400 ms → ~6 retransmissions in 10 s.
        assert!(
            tx.stats.retransmissions >= 4 && tx.stats.retransmissions <= 8,
            "retx = {}",
            tx.stats.retransmissions
        );
    }

    #[test]
    fn partial_loss_still_completes_via_recovery() {
        let entry = Prefix::from_addr(0x0A000005);
        let flows = vec![ScheduledFlow {
            start: SimTime::ZERO,
            dst: 0x0A000005,
            cfg: flow_cfg(10_000_000, 200),
        }];
        let (mut net, a, _b) = setup(
            flows,
            Some(GrayFailure::single_entry(entry, 0.05, SimTime::ZERO)),
        );
        net.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let tx: &SenderHost = net.node(a);
        assert_eq!(
            tx.stats.completed_flows, 1,
            "flow should recover from 5% loss"
        );
        assert!(tx.stats.retransmissions > 0);
    }

    #[test]
    fn sender_paces_at_the_configured_rate() {
        // 12 Mbps, 1500 B packets → 1 ms spacing → ~100 packets in 100 ms.
        let flows = vec![ScheduledFlow {
            start: SimTime::ZERO,
            dst: 0x0A000001,
            cfg: flow_cfg(12_000_000, 1000),
        }];
        let (mut net, a, _b) = setup(flows, None);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(100));
        let sent = net.node::<SenderHost>(a).stats.data_packets;
        assert!((80..=110).contains(&sent), "sent = {sent}");
    }

    #[test]
    fn acks_and_rtos_for_unknown_flow_ids_are_ignored() {
        // Flow 0 starts at 1 s: before that it is scheduled but never
        // started; ids 1 and up are out of range.
        let flows = vec![ScheduledFlow {
            start: SimTime(1_000_000_000),
            dst: 0x0A000005,
            cfg: flow_cfg(10_000_000, 50),
        }];
        let (mut net, a, _b) = setup(flows, None);
        for (i, id) in [0, 1, 7, u64::MAX >> 2].into_iter().enumerate() {
            let at = SimTime(1_000_000 * (i as u64 + 1));
            let ack = PacketBuilder::new(
                0x0A000005,
                0x01000001,
                ACK_SIZE,
                PacketKind::TcpAck { flow: id, ack: 3 },
            )
            .build();
            net.kernel.inject(a, 0, ack, at);
            net.kernel.schedule_timer_for(a, at, token(KIND_RTO, id));
        }
        net.run_until(SimTime(500_000_000));
        let tx: &SenderHost = net.node(a);
        assert_eq!(tx.stats.data_packets, 0);
        assert_eq!(tx.started_flows(), 0);
        assert_eq!(tx.flows().count(), 0);
    }

    #[test]
    fn flows_iterate_in_id_order_and_count_only_started_ones() {
        // Flow i starts at (5 - i) × 100 ms: ids start in descending order.
        let flows = (0..5u64)
            .map(|i| ScheduledFlow {
                start: SimTime((5 - i) * 100_000_000),
                dst: 0x0A000005,
                cfg: flow_cfg(10_000_000, 50),
            })
            .collect();
        let (mut net, a, _b) = setup(flows, None);
        net.run_until(SimTime(250_000_000));
        let tx: &SenderHost = net.node(a);
        assert_eq!(tx.started_flows(), 2);
        let ids: Vec<FlowId> = tx.flows().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn probe_buckets_throughput() {
        let mut probe = ThroughputProbe::all("all", SimDuration::from_millis(100));
        probe.observe(SimTime(50_000_000), Prefix(1), 1000);
        probe.observe(SimTime(150_000_000), Prefix(1), 500);
        probe.observe(SimTime(160_000_000), Prefix(2), 500);
        assert_eq!(probe.series, vec![1000, 1000]);
        assert_eq!(probe.bps_series(), vec![80_000.0, 80_000.0]);
    }

    #[test]
    fn entry_probe_filters() {
        let mut probe =
            ThroughputProbe::for_entries("one", vec![Prefix(1)], SimDuration::from_millis(100));
        probe.observe(SimTime(0), Prefix(1), 100);
        probe.observe(SimTime(0), Prefix(2), 100);
        assert_eq!(probe.series, vec![100]);
    }

    #[test]
    fn udp_source_hits_target_rate() {
        let mut net = Network::new(9);
        let until = SimTime::ZERO + SimDuration::from_secs(1);
        let src = net.add_node(Box::new(UdpSource::new(
            1, 0x0B000001, 12_000_000, 1500, until,
        )));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        net.connect(
            src,
            rx,
            LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)),
        );
        net.run_until(until + SimDuration::from_secs(1));
        // 12 Mbps / (1500 B) = 1000 pps for 1 s.
        let got = net.node::<ReceiverHost>(rx).data_packets;
        assert!((995..=1005).contains(&got), "got {got}");
    }
}
