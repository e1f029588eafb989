//! The FANcY switch: a `fancy_sim::Node` wiring everything together.
//!
//! Per monitored egress port the switch runs, as *upstream*: one sender FSM
//! and counter per dedicated entry, plus one sender FSM and [`ZoomEngine`]
//! for the hash-based tree, plus the output structures (flag array and
//! Bloom filter). As *downstream* (created lazily when a Start arrives on a
//! port) it runs the matching receiver FSMs and counter blocks.
//!
//! The data path follows the paper's counter placement exactly:
//!
//! 1. ingress: count tagged packets (before this switch's TM), strip tag;
//! 2. FIB lookup (+ optional fast-reroute consultation, §6.1);
//! 3. TM admission — congestion drops happen here, *uncounted*;
//! 4. egress: count + tag admitted packets if the session is counting;
//! 5. wire — where gray failures live.

use std::any::Any;
use std::borrow::Cow;

use fancy_net::{ControlBody, ControlMessage, FancyTag, FastMap, FastSet, Prefix, SessionKind};
use fancy_sim::metrics::{HubIds, Kind, Labels, MetricId, Registry};
use fancy_sim::{
    DetectionScope, DetectorKind, DropCause, Kernel, Node, PacketKind, PacketRef, PortId,
    TimerToken, TraceEvent, UNIT_TREE,
};

use crate::config::FancyLayout;
use crate::fsm::{
    ReceiverAction, ReceiverFsm, ReceiverState, SenderAction, SenderFsm, SenderState,
};
use crate::output::{FlagArray, OutputBloom};
use crate::tree::TreeHasher;
use crate::zoom::{ZoomEngine, ZoomOutcome, ZoomStep};

/// `kind` value marking the tree session in timer tokens and dispatch.
const KIND_TREE: u16 = u16::MAX;
/// `kind` value marking the per-port congestion-guard poll timer.
const KIND_GUARD: u16 = u16::MAX - 1;

const ROLE_SENDER: u64 = 0;
const ROLE_RECEIVER: u64 = 1;

fn make_token(role: u64, port: PortId, kind: u16, epoch: u64) -> TimerToken {
    debug_assert!(port < 1024);
    role | ((port as u64) << 1) | (u64::from(kind) << 11) | (epoch << 27)
}

fn split_token(t: TimerToken) -> (u64, PortId, u16, u64) {
    (
        t & 1,
        ((t >> 1) & 0x3ff) as PortId,
        ((t >> 11) & 0xffff) as u16,
        t >> 27,
    )
}

/// Trace-event `unit` for a session kind given as the internal `kind` id.
fn unit_of(kind: u16) -> u64 {
    if kind == KIND_TREE {
        UNIT_TREE
    } else {
        u64::from(kind)
    }
}

fn unit_of_session(kind: SessionKind) -> u64 {
    match kind {
        SessionKind::Tree => UNIT_TREE,
        SessionKind::Dedicated { counter_id } => u64::from(counter_id),
    }
}

fn body_label(body: &ControlBody) -> &'static str {
    match body {
        ControlBody::Start => "start",
        ControlBody::StartAck => "start_ack",
        ControlBody::Stop => "stop",
        ControlBody::Report(_) => "report",
    }
}

/// `role` label / trace value of each counting FSM, indexed by
/// [`FsmState::ROW`].
const FSM_ROLES: [&str; 2] = ["tx", "rx"];

/// A counting-FSM state as [`trace_fsm`] needs it: its static name and
/// its cell in [`HotIds::fsm`].
trait FsmState: Copy + Eq {
    /// Row in [`HotIds::fsm`]: the FSM's index in [`FSM_ROLES`].
    const ROW: usize;
    /// Every state, in [`FsmState::slot`] order.
    const ALL: [Self; 4];
    /// Stable lowercase name.
    fn label(self) -> &'static str;
    /// Column in [`HotIds::fsm`].
    fn slot(self) -> usize;
}

impl FsmState for SenderState {
    const ROW: usize = 0;
    const ALL: [Self; 4] = [
        SenderState::Idle,
        SenderState::WaitAck,
        SenderState::Counting,
        SenderState::WaitReport,
    ];
    fn label(self) -> &'static str {
        self.name()
    }
    fn slot(self) -> usize {
        self as usize
    }
}

impl FsmState for ReceiverState {
    const ROW: usize = 1;
    const ALL: [Self; 4] = [
        ReceiverState::Idle,
        ReceiverState::Ready,
        ReceiverState::Counting,
        ReceiverState::WaitToSend,
    ];
    fn label(self) -> &'static str {
        self.name()
    }
    fn slot(self) -> usize {
        self as usize
    }
}

/// `step` values of zoom-tree trace events; the first four also label
/// `fancy_zoom_depth` (in [`HotIds::zoom_depth`] order).
const ZOOM_STEPS: [&str; 5] = ["adopt", "descend", "abandon", "leaf", "uniform"];
/// Index of `"uniform"` in [`ZOOM_STEPS`] (no depth to observe).
const ZOOM_UNIFORM: usize = 4;

/// `action` values of `fancy_reroute_transitions`; the discriminant is
/// the column in [`HotIds::reroute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RerouteAction {
    /// Damping: the suspicion window tripped, traffic leaves the primary.
    Engage,
    /// Damping: hold-down served, traffic probes the primary.
    Probe,
    /// Damping: lossy during probation (a flap).
    Retrip,
    /// Damping: probation served clean, reroute torn down.
    Restore,
    /// Every ranked alternate is unhealthy (drop-and-alarm).
    Alarm,
    /// The active alternate changed (cascade step).
    Failover,
}

impl RerouteAction {
    const ALL: [RerouteAction; 6] = [
        RerouteAction::Engage,
        RerouteAction::Probe,
        RerouteAction::Retrip,
        RerouteAction::Restore,
        RerouteAction::Alarm,
        RerouteAction::Failover,
    ];

    fn name(self) -> &'static str {
        match self {
            RerouteAction::Engage => "engage",
            RerouteAction::Probe => "probe",
            RerouteAction::Retrip => "retrip",
            RerouteAction::Restore => "restore",
            RerouteAction::Alarm => "alarm",
            RerouteAction::Failover => "failover",
        }
    }
}

/// Metric ids of the switch's per-session families, resolved against
/// one hub.
struct HotIds {
    /// `fancy_fsm_transitions_total{role,subsystem="fsm",to}`, by
    /// [`FsmState::ROW`] and [`FsmState::slot`].
    fsm: [[MetricId; 4]; 2],
    /// `fancy_zoom_depth{step}`, by index into [`ZOOM_STEPS`].
    zoom_depth: [MetricId; 4],
    /// `fancy_reroute_transitions{action}`, by [`RerouteAction`].
    reroute: [MetricId; 6],
}

impl HotIds {
    fn resolve(r: &mut Registry) -> Self {
        fn fsm_row<S: FsmState>(r: &mut Registry) -> [MetricId; 4] {
            S::ALL.map(|to| {
                let labels = Labels::new()
                    .with("subsystem", "fsm")
                    .with("role", FSM_ROLES[S::ROW])
                    .with("to", to.label());
                r.id("fancy_fsm_transitions_total", &labels, Kind::Counter)
            })
        }
        HotIds {
            fsm: [fsm_row::<SenderState>(r), fsm_row::<ReceiverState>(r)],
            zoom_depth: std::array::from_fn(|i| {
                let labels = Labels::new().with("step", ZOOM_STEPS[i]);
                r.id("fancy_zoom_depth", &labels, Kind::Histogram)
            }),
            reroute: RerouteAction::ALL.map(|a| {
                let labels = Labels::new().with("action", a.name());
                r.id("fancy_reroute_transitions", &labels, Kind::Counter)
            }),
        }
    }
}

/// The switch's hot metric families: ids resolved once per attached hub,
/// then updated with an indexed add. Every method is one branch when no
/// hub is attached.
#[derive(Default)]
struct HotMetrics(HubIds<HotIds>);

impl HotMetrics {
    fn ids(&mut self, ctx: &Kernel) -> Option<&HotIds> {
        self.0.get(ctx.metrics_hub(), HotIds::resolve)
    }

    fn fsm<S: FsmState>(&mut self, ctx: &mut Kernel, to: S) {
        if let Some(ids) = self.ids(ctx) {
            let id = ids.fsm[S::ROW][to.slot()];
            ctx.metric_add(id, 1);
        }
    }

    fn zoom_depth(&mut self, ctx: &mut Kernel, step: usize, depth: u64) {
        if let Some(ids) = self.ids(ctx) {
            let id = ids.zoom_depth[step];
            ctx.metric_observe(id, depth);
        }
    }

    fn reroute(&mut self, ctx: &mut Kernel, action: RerouteAction) {
        if let Some(ids) = self.ids(ctx) {
            let id = ids.reroute[action as usize];
            ctx.metric_add(id, 1);
        }
    }
}

/// Emit an FSM-transition trace event (and bump the transition counter)
/// if the state actually changed. Cheap enough to call unconditionally:
/// the counter is one indexed add through an id resolved once per hub,
/// the event borrows the static state names, so neither path allocates,
/// and each is a single branch when its plane is off.
fn trace_fsm<S: FsmState>(
    hot: &mut HotMetrics,
    ctx: &mut Kernel,
    port: PortId,
    kind: u16,
    from: S,
    to: S,
) {
    if from == to {
        return;
    }
    hot.fsm(ctx, to);
    if ctx.trace_enabled() {
        let node = ctx.self_id() as u64;
        ctx.trace(|t| TraceEvent::FsmTransition {
            t,
            node,
            port: port as u64,
            role: Cow::Borrowed(FSM_ROLES[S::ROW]),
            unit: unit_of(kind),
            from: Cow::Borrowed(from.label()),
            to: Cow::Borrowed(to.label()),
        });
    }
}

/// Fast-reroute configuration (§6.1): per primary port, the backup port to
/// use for traffic whose entry/hash path has been flagged.
///
/// Two granularities compose, per the SPIDER-style pre-provisioned plans
/// the topology layer computes:
///
/// * [`Reroute::backup`] — one port-level default per protected primary
///   port (the original §6.1 case-study shape);
/// * [`Reroute::entry_backup`] — per `(primary port, entry)` *ranked
///   chains* of alternates (best first), letting different destinations
///   behind one protected link detour via different loop-free alternates
///   and letting the switch cascade to the next alternate when the active
///   one turns gray itself. Overrides win over the port default.
#[derive(Debug, Clone, Default)]
pub struct Reroute {
    /// `primary egress port → backup egress port`.
    pub backup: FastMap<PortId, PortId>,
    /// `(primary egress port, entry) → ranked backup ports` (best first),
    /// consulted before the port-level default.
    pub entry_backup: FastMap<(PortId, Prefix), Vec<PortId>>,
}

impl Reroute {
    /// A port-level-only table (the §6.1 case-study shape).
    pub fn port_level(backup: FastMap<PortId, PortId>) -> Self {
        Reroute {
            backup,
            entry_backup: FastMap::default(),
        }
    }

    /// Does any backup exist for traffic leaving `primary`?
    pub fn protects(&self, primary: PortId) -> bool {
        self.backup.contains_key(&primary) || self.entry_backup.keys().any(|&(p, _)| p == primary)
    }

    /// The ranked backup chain for `entry` on `primary`: the per-entry
    /// override if installed, else the port-level default as a
    /// single-alternate chain.
    pub fn backup_chain(&self, primary: PortId, entry: Prefix) -> &[PortId] {
        match self.entry_backup.get(&(primary, entry)) {
            Some(chain) => chain,
            None => self
                .backup
                .get(&primary)
                .map(std::slice::from_ref)
                .unwrap_or(&[]),
        }
    }

    /// The top-ranked backup port for `entry` on `primary`: the per-entry
    /// override if installed, else the port-level default.
    pub fn backup_for(&self, primary: PortId, entry: Prefix) -> Option<PortId> {
        self.backup_chain(primary, entry).first().copied()
    }
}

/// Congestion guard for partial deployments (the paper's footnote 2):
/// "systematic failures can be distinguished from congestion even in
/// partial deployments of FANcY by monitoring queue sizes on all devices,
/// and discarding all measurements collected during periods where queue
/// sizes were excessively long." The guard periodically polls queue-depth
/// telemetry of the watched links (what real deployments get from
/// SNMP/INT) and suppresses comparisons while — and shortly after —
/// any watched queue ran long.
#[derive(Debug, Clone)]
pub struct CongestionGuard {
    /// A watched queue counts as congested above this backlog (bytes).
    pub threshold_bytes: u64,
    /// Telemetry polling period; measurements within 2 windows of a
    /// congested poll are discarded.
    pub window: fancy_sim::SimDuration,
    /// Links to watch: `(link, transmitting node)` pairs along the
    /// monitored path.
    pub watched: Vec<(fancy_sim::LinkId, fancy_sim::NodeId)>,
}

/// Aggregate switch statistics (overhead accounting, §5.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Control messages sent.
    pub control_sent: u64,
    /// Control bytes sent (with minimum-frame padding).
    pub control_bytes: u64,
    /// Data packets tagged on egress.
    pub tagged_packets: u64,
    /// Data packets rerouted to a backup port.
    pub rerouted_packets: u64,
    /// Data packets dropped for lack of a route.
    pub no_route_drops: u64,
    /// Session comparisons discarded by the congestion guard.
    pub discarded_sessions: u64,
    /// Cascaded failovers: the active backup of a rerouted entry changed
    /// because an earlier alternate turned unhealthy.
    pub failovers: u64,
    /// Data packets dropped because every ranked alternate was unhealthy
    /// (drop-and-alarm).
    pub alarm_drops: u64,
}

struct DedicatedUp {
    entry: Prefix,
    fsm: SenderFsm,
    count: u32,
}

/// Phase of the per-entry reroute damping state machine.
#[derive(Debug, Clone, Copy)]
enum DampPhase {
    /// Traffic on the primary; completed sessions feed the K-of-N
    /// suspicion window.
    Watch,
    /// Reroute engaged; the timestamp anchors the hold-down (last lossy
    /// session, or the engagement itself).
    Held(fancy_sim::SimTime),
    /// Traffic probing the primary again after the hold-down; the
    /// timestamp is the probation start.
    Probation(fancy_sim::SimTime),
}

/// Damping state for one dedicated entry on one upstream port. The
/// paper's output register is a pure rising-edge latch; the damped
/// machine generalizes it with a K-of-N suspicion window before
/// engaging and an optional hold-down + probation cycle that reverts
/// traffic to the primary once the link proves clean again. With the
/// default 1-of-1 window and zero probation it degenerates to the
/// original latch exactly.
struct DampState {
    /// Bitset of recent session outcomes (bit 0 = latest; 1 = lossy).
    history: u32,
    phase: DampPhase,
}

impl DampState {
    fn new() -> Self {
        DampState {
            history: 0,
            phase: DampPhase::Watch,
        }
    }
}

struct UpstreamPort {
    dedicated: Vec<DedicatedUp>,
    /// Reroute damping state, parallel to `dedicated`.
    damp: Vec<DampState>,
    tree_fsm: SenderFsm,
    zoom: ZoomEngine,
    flags: FlagArray,
    bloom: OutputBloom,
    /// Last time a watched queue was seen congested (congestion guard).
    last_congested: Option<fancy_sim::SimTime>,
    /// Session comparisons on this port discarded by the congestion guard.
    discarded: u64,
    /// Latched link-down state: set on the first protocol timeout, cleared
    /// when any session on the port completes again. Keeps LinkDown
    /// reports rising-edge like the other output registers.
    link_down: bool,
    /// Degraded port-level counting: entered when a sender FSM exhausts
    /// its retries (the control plane across this link is unusable), left
    /// when any session completes again. While degraded the switch stops
    /// tagging and instead keeps one aggregate egress counter for the
    /// port — the coarsest signal that still notices a blackhole.
    degraded: bool,
    /// Egress packets counted while in degraded mode.
    port_level_count: u64,
}

struct DedicatedDown {
    fsm: ReceiverFsm,
    count: u32,
    cached: Vec<u32>,
}

struct TreeDown {
    fsm: ReceiverFsm,
    counters: Vec<u32>,
    cached: Vec<u32>,
}

#[derive(Default)]
struct DownstreamPort {
    dedicated: Vec<DedicatedDown>,
    tree: Option<TreeDown>,
    /// Where to address replies (the upstream's control source address).
    reply_to: u32,
}

/// A FANcY-capable switch.
pub struct FancySwitch {
    /// Forwarding table.
    pub fib: fancy_sim::Fib,
    layout: FancyLayout,
    dedicated_index: FastMap<Prefix, u16>,
    seed: u64,
    monitored: Vec<PortId>,
    upstream: FastMap<PortId, UpstreamPort>,
    downstream: FastMap<PortId, DownstreamPort>,
    /// Fast-reroute table; `None` disables rerouting.
    pub reroute: Option<Reroute>,
    /// Congestion guards per monitored port (footnote 2; partial
    /// deployments).
    pub guards: FastMap<PortId, CongestionGuard>,
    /// This switch's own address, used as the source of control messages
    /// so they can be routed back across legacy hops (partial deployment,
    /// §4.3). 0 works for adjacent deployments.
    pub addr: u32,
    /// Destination address for control messages per monitored port. For
    /// adjacent switches the default 0 is consumed at the next hop; for
    /// remote (partial) deployment set it to the peer FANcY switch's
    /// address so legacy switches in between can route it.
    pub control_dst: FastMap<PortId, u32>,
    /// Aggregate statistics.
    pub stats: SwitchStats,
    /// `(primary port, entry)` pairs whose reroute has been traced, so
    /// the flight recorder sees one rising-edge event per reroute, not
    /// one per packet. Only populated while tracing is enabled.
    traced_reroutes: FastSet<(PortId, Prefix)>,
    /// `(primary port, entry) → backup port currently in use` — the
    /// active alternate of the failover cascade, tracked so a cascade
    /// step is visible as one explicit Failover event (a state change),
    /// not per-packet noise. Always maintained: `stats.failovers` must
    /// not depend on whether tracing or metrics are on.
    active_backup: FastMap<(PortId, Prefix), PortId>,
    /// `(primary port, entry)` pairs whose exhausted-cascade alarm has
    /// been traced (rising edge). Only populated while tracing or
    /// metrics are enabled.
    alarmed: FastSet<(PortId, Prefix)>,
    /// Per-session metric ids for the attached hub.
    hot: HotMetrics,
}

impl FancySwitch {
    /// Build a switch from a translated layout. `monitored` lists the
    /// egress ports on which this switch acts as the counting upstream
    /// (FANcY is "deployed at every switch, so that it can monitor all
    /// links, one by one" in full deployments, §4.3).
    pub fn new(
        fib: fancy_sim::Fib,
        layout: FancyLayout,
        monitored: Vec<PortId>,
        seed: u64,
    ) -> Self {
        let dedicated_index = layout
            .high_priority
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i as u16))
            .collect();
        let mut sw = FancySwitch {
            fib,
            layout,
            dedicated_index,
            seed,
            monitored: monitored.clone(),
            upstream: FastMap::default(),
            downstream: FastMap::default(),
            reroute: None,
            guards: FastMap::default(),
            addr: 0,
            control_dst: FastMap::default(),
            stats: SwitchStats::default(),
            traced_reroutes: FastSet::default(),
            active_backup: FastMap::default(),
            alarmed: FastSet::default(),
            hot: HotMetrics::default(),
        };
        for port in monitored {
            sw.upstream.insert(port, sw.make_upstream(port));
        }
        sw
    }

    fn make_upstream(&self, port: PortId) -> UpstreamPort {
        let t = self.layout.timers;
        UpstreamPort {
            dedicated: self
                .layout
                .high_priority
                .iter()
                .map(|&entry| DedicatedUp {
                    entry,
                    fsm: SenderFsm::new(t.dedicated_interval, t),
                    count: 0,
                })
                .collect(),
            damp: self
                .layout
                .high_priority
                .iter()
                .map(|_| DampState::new())
                .collect(),
            tree_fsm: SenderFsm::new(t.zooming_interval, t),
            zoom: ZoomEngine::new(self.layout.tree, self.seed ^ ((port as u64) << 32)),
            flags: FlagArray::new(self.layout.high_priority.len()),
            bloom: OutputBloom::tofino_default(self.seed ^ 0xB100),
            last_congested: None,
            discarded: 0,
            link_down: false,
            degraded: false,
            port_level_count: 0,
        }
    }

    /// The hash functions used on `port`'s tree (experiments resolve
    /// reported hash paths against the entry universe with this).
    pub fn tree_hasher(&self, port: PortId) -> &TreeHasher {
        self.upstream[&port].zoom.hasher()
    }

    /// Dedicated entries currently flagged on `port`.
    pub fn flagged_entries(&self, port: PortId) -> Vec<Prefix> {
        let up = &self.upstream[&port];
        up.flags
            .flagged()
            .into_iter()
            .map(|id| up.dedicated[usize::from(id)].entry)
            .collect()
    }

    /// Does `port`'s output Bloom filter flag this entry's hash path?
    pub fn tree_flags_entry(&self, port: PortId, entry: Prefix) -> bool {
        let up = &self.upstream[&port];
        up.bloom.contains_entry(up.zoom.hasher(), entry)
    }

    /// Completed counting sessions on `port` (dedicated, tree).
    pub fn sessions_completed(&self, port: PortId) -> (u64, u64) {
        let up = &self.upstream[&port];
        (
            up.dedicated.iter().map(|d| d.fsm.sessions_completed).sum(),
            up.tree_fsm.sessions_completed,
        )
    }

    /// Session comparisons on `port` discarded by its congestion guard.
    pub fn discarded_sessions(&self, port: PortId) -> u64 {
        self.upstream.get(&port).map_or(0, |u| u.discarded)
    }

    /// Is the port currently latched link-down (protocol timeouts and no
    /// completed session since)?
    pub fn is_link_down(&self, port: PortId) -> bool {
        self.upstream.get(&port).is_some_and(|u| u.link_down)
    }

    /// Is the port in degraded port-level counting (protocol retries
    /// exhausted, no completed session since)?
    pub fn is_degraded(&self, port: PortId) -> bool {
        self.upstream.get(&port).is_some_and(|u| u.degraded)
    }

    /// Egress packets counted at port level while `port` was degraded.
    pub fn port_level_count(&self, port: PortId) -> u64 {
        self.upstream.get(&port).map_or(0, |u| u.port_level_count)
    }

    /// Would this packet be steered to a backup port? (Outcome of the
    /// fast-reroute consultation for `entry` on `primary`.)
    pub fn is_rerouted(&self, primary: PortId, entry: Prefix) -> bool {
        let Some(rr) = &self.reroute else {
            return false;
        };
        if rr.backup_for(primary, entry).is_none() {
            return false;
        }
        let Some(up) = self.upstream.get(&primary) else {
            return false;
        };
        if let Some(&id) = self.dedicated_index.get(&entry) {
            up.flags.get(id)
        } else {
            up.bloom.contains_entry(up.zoom.hasher(), entry)
        }
    }

    /// Is `port` a usable detour for `entry` right now? Unmonitored ports
    /// are assumed healthy (there is no signal about them); monitored
    /// ports are unhealthy while latched link-down, degraded, or while
    /// their own FANcY output structures flag this entry.
    fn port_healthy_for(&self, port: PortId, entry: Prefix) -> bool {
        let Some(up) = self.upstream.get(&port) else {
            return true;
        };
        if up.link_down || up.degraded {
            return false;
        }
        if let Some(&id) = self.dedicated_index.get(&entry) {
            !up.flags.get(id)
        } else {
            !up.bloom.contains_entry(up.zoom.hasher(), entry)
        }
    }

    /// Walk the ranked backup chain for (`primary`, `entry`) and return
    /// the first alternate whose own monitor is healthy, with its rank in
    /// the chain. `None` means the cascade is exhausted: every alternate
    /// is known-gray, and forwarding would push traffic into a failure.
    fn pick_backup(&self, primary: PortId, entry: Prefix) -> Option<(PortId, usize)> {
        let rr = self.reroute.as_ref()?;
        rr.backup_chain(primary, entry)
            .iter()
            .enumerate()
            .find(|&(_, &b)| self.port_healthy_for(b, entry))
            .map(|(rank, &b)| (b, rank))
    }

    // ------------------------------------------------------------------
    // Sender-side machinery.
    // ------------------------------------------------------------------

    fn send_control(
        &mut self,
        ctx: &mut Kernel,
        port: PortId,
        dst: u32,
        kind: SessionKind,
        session_id: u32,
        body: ControlBody,
    ) {
        let msg = ControlMessage {
            kind,
            session_id,
            body,
        };
        let size = msg.frame_len() as u32;
        self.stats.control_sent += 1;
        self.stats.control_bytes += u64::from(size);
        if ctx.trace_enabled() {
            let node = ctx.self_id() as u64;
            let body = body_label(&msg.body);
            ctx.trace(|t| TraceEvent::CounterExchange {
                t,
                node,
                port: port as u64,
                unit: unit_of_session(kind),
                session: u64::from(session_id),
                body: Cow::Borrowed(body),
                dir: Cow::Borrowed("tx"),
                len: u64::from(size),
            });
        }
        let pkt =
            fancy_sim::PacketBuilder::new(self.addr, dst, size, PacketKind::FancyControl(msg))
                .build();
        ctx.send(port, pkt);
    }

    /// Execute the actions emitted by the sender FSM of (`port`, `kind`).
    fn drive_sender(
        &mut self,
        ctx: &mut Kernel,
        port: PortId,
        kind: u16,
        actions: Vec<SenderAction>,
    ) {
        let mut queue: std::collections::VecDeque<SenderAction> = actions.into();
        while let Some(action) = queue.pop_front() {
            match action {
                SenderAction::Send(body) => {
                    let (sid, skind) = {
                        let up = self.upstream.get(&port).expect("unknown upstream port");
                        if kind == KIND_TREE {
                            (up.tree_fsm.session_id, SessionKind::Tree)
                        } else {
                            (
                                up.dedicated[usize::from(kind)].fsm.session_id,
                                SessionKind::Dedicated { counter_id: kind },
                            )
                        }
                    };
                    let dst = self.control_dst.get(&port).copied().unwrap_or(0);
                    self.send_control(ctx, port, dst, skind, sid, body);
                }
                SenderAction::ResetCounters => {
                    let up = self.upstream.get_mut(&port).unwrap();
                    if kind == KIND_TREE {
                        up.zoom.begin_session();
                    } else {
                        up.dedicated[usize::from(kind)].count = 0;
                    }
                }
                SenderAction::BeginCounting | SenderAction::EndCounting => {}
                SenderAction::Deliver(counters) => {
                    // A completed session proves the link answers again.
                    if let Some(up) = self.upstream.get_mut(&port) {
                        up.link_down = false;
                        if up.degraded {
                            up.degraded = false;
                            let node = ctx.self_id() as u64;
                            ctx.trace(|t| fancy_sim::TraceEvent::DegradedMode {
                                t,
                                node,
                                port: port as u64,
                                on: 0,
                            });
                        }
                    }
                    self.deliver_report(ctx, port, kind, &counters);
                    // "immediately after, starts a new session" (§3).
                    let (before, after, next) = {
                        let up = self.upstream.get_mut(&port).unwrap();
                        let fsm = if kind == KIND_TREE {
                            &mut up.tree_fsm
                        } else {
                            &mut up.dedicated[usize::from(kind)].fsm
                        };
                        let before = fsm.state;
                        let next = fsm.open();
                        (before, fsm.state, next)
                    };
                    trace_fsm(&mut self.hot, ctx, port, kind, before, after);
                    queue.extend(next);
                }
                SenderAction::LinkFailure => {
                    let up = self.upstream.get_mut(&port).unwrap();
                    if !up.link_down {
                        up.link_down = true;
                        ctx.report(
                            port,
                            DetectionScope::LinkDown,
                            DetectorKind::ProtocolTimeout,
                        );
                    }
                    if !up.degraded {
                        // Retry exhaustion: fall back to port-level
                        // counting until a session completes again.
                        up.degraded = true;
                        ctx.telemetry.degraded_entries += 1;
                        let node = ctx.self_id() as u64;
                        ctx.trace(|t| fancy_sim::TraceEvent::DegradedMode {
                            t,
                            node,
                            port: port as u64,
                            on: 1,
                        });
                    }
                }
                SenderAction::ArmTimer { delay, epoch } => {
                    ctx.schedule_timer(delay, make_token(ROLE_SENDER, port, kind, epoch));
                }
            }
        }
    }

    /// Should this port's measurements be discarded right now?
    fn congestion_tainted(&self, ctx: &Kernel, port: PortId) -> bool {
        let (Some(guard), Some(up)) = (self.guards.get(&port), self.upstream.get(&port)) else {
            return false;
        };
        up.last_congested.is_some_and(|t| {
            ctx.now().saturating_since(t).as_nanos() <= 2 * guard.window.as_nanos()
        })
    }

    fn deliver_report(&mut self, ctx: &mut Kernel, port: PortId, kind: u16, counters: &[u32]) {
        if self.congestion_tainted(ctx, port) {
            // Footnote 2: discard measurements taken while watched queues
            // were excessively long — a mismatch here could be congestion
            // on an unmonitored hop, not a gray failure.
            self.stats.discarded_sessions += 1;
            let up = self
                .upstream
                .get_mut(&port)
                .expect("only a monitored port can be tainted");
            up.discarded += 1;
            if kind == KIND_TREE {
                // Keep the zooming state consistent: treat as a clean
                // session so stale paths are abandoned, not advanced.
                let local = up.zoom.local_report();
                let _ = up.zoom.end_session(&local);
            }
            return;
        }
        if kind == KIND_TREE {
            let outcomes = {
                let up = self.upstream.get_mut(&port).unwrap();
                let expected = up.zoom.slot_count() * usize::from(up.zoom.params().width);
                if counters.len() != expected {
                    return; // malformed report; drop it, session just restarts
                }
                up.zoom.end_session(counters)
            };
            if ctx.trace_enabled() || ctx.metrics_enabled() {
                // Drain the zooming steps before emitting detections so a
                // timeline reader sees first-suspicion before detect at
                // equal timestamps.
                let steps = self
                    .upstream
                    .get_mut(&port)
                    .unwrap()
                    .zoom
                    .take_session_log();
                let node = ctx.self_id() as u64;
                for step in steps {
                    // `slot` indexes ZOOM_STEPS.
                    let (slot, path, lost): (usize, &[u8], u32) = match &step {
                        ZoomStep::Adopt { path } => (0, path, 0),
                        ZoomStep::Descend { path } => (1, path, 0),
                        ZoomStep::Abandon { path } => (2, path, 0),
                        ZoomStep::Leaf { path, lost } => (3, path, *lost),
                        ZoomStep::Uniform => (ZOOM_UNIFORM, &[], 0),
                    };
                    if slot != ZOOM_UNIFORM {
                        self.hot.zoom_depth(ctx, slot, path.len() as u64);
                    }
                    if ctx.trace_enabled() {
                        let path: Vec<u64> = path.iter().map(|&b| u64::from(b)).collect();
                        ctx.trace(|t| TraceEvent::ZoomStep {
                            t,
                            node,
                            port: port as u64,
                            step: Cow::Borrowed(ZOOM_STEPS[slot]),
                            path,
                            lost: u64::from(lost),
                        });
                    }
                }
            }
            for outcome in outcomes {
                match outcome {
                    ZoomOutcome::Uniform => {
                        ctx.report(port, DetectionScope::Uniform, DetectorKind::UniformCheck);
                    }
                    ZoomOutcome::LeafFailure { path, .. } => {
                        let up = self.upstream.get_mut(&port).unwrap();
                        // Rising edge only: paths already in the output
                        // Bloom filter are already being acted upon.
                        if !up.bloom.contains(&path) {
                            up.bloom.insert(&path);
                            ctx.report(
                                port,
                                DetectionScope::HashPath(path),
                                DetectorKind::HashTree,
                            );
                        }
                    }
                }
            }
        } else {
            let lossy = {
                let up = self.upstream.get(&port).unwrap();
                let d = &up.dedicated[usize::from(kind)];
                let remote = counters.first().copied().unwrap_or(0);
                i64::from(d.count) > i64::from(remote)
            };
            self.drive_damp(ctx, port, kind, lossy);
        }
    }

    /// Advance the reroute damping state machine for dedicated entry
    /// `kind` on `port` after a completed counting session (`lossy` =
    /// the local egress count exceeded the remote ingress count). With
    /// the default 1-of-1 suspicion window and zero probation this is
    /// exactly the paper's rising-edge output-register latch (§4.3).
    /// The machine always runs — only event/metric emission is gated on
    /// tracing/metrics — so switch behavior stays bit-identical whether
    /// or not observability is on.
    fn drive_damp(&mut self, ctx: &mut Kernel, port: PortId, kind: u16, lossy: bool) {
        let timers = self.layout.timers;
        let now = ctx.now();
        let (action, entry) = {
            let up = self.upstream.get_mut(&port).unwrap();
            let entry = up.dedicated[usize::from(kind)].entry;
            let st = &mut up.damp[usize::from(kind)];
            let action = match st.phase {
                DampPhase::Watch => {
                    let n = timers.suspicion_n.clamp(1, 32);
                    let mask = u32::MAX >> (32 - n);
                    st.history = ((st.history << 1) | u32::from(lossy)) & mask;
                    if st.history.count_ones() >= timers.suspicion_k && !up.flags.get(kind) {
                        // K of the last N sessions lossy: engage the
                        // reroute (rising edge, as in the paper).
                        up.flags.set(kind);
                        st.phase = DampPhase::Held(now);
                        ctx.report(
                            port,
                            DetectionScope::Entry(entry),
                            DetectorKind::DedicatedCounter,
                        );
                        Some(RerouteAction::Engage)
                    } else {
                        None
                    }
                }
                DampPhase::Held(since) => {
                    if lossy {
                        // Still failing: restart the hold-down clock.
                        st.phase = DampPhase::Held(now);
                        None
                    } else if timers.probation > fancy_sim::SimDuration::ZERO
                        && now.saturating_since(since) >= timers.reroute_hold_down
                    {
                        // Hold-down served with clean sessions: probe the
                        // primary again by clearing the flag.
                        up.flags.clear(kind);
                        st.phase = DampPhase::Probation(now);
                        Some(RerouteAction::Probe)
                    } else {
                        None
                    }
                }
                DampPhase::Probation(since) => {
                    if lossy {
                        // Flap: the failure is still there — re-engage
                        // immediately and hold down again.
                        up.flags.set(kind);
                        st.phase = DampPhase::Held(now);
                        ctx.report(
                            port,
                            DetectionScope::Entry(entry),
                            DetectorKind::DedicatedCounter,
                        );
                        Some(RerouteAction::Retrip)
                    } else if now.saturating_since(since) >= timers.probation {
                        // Probation served clean: the primary is healthy
                        // again for good.
                        st.history = 0;
                        st.phase = DampPhase::Watch;
                        Some(RerouteAction::Restore)
                    } else {
                        None
                    }
                }
            };
            (action, entry)
        };
        let Some(action) = action else { return };
        self.hot.reroute(ctx, action);
        if ctx.trace_enabled() {
            let node = ctx.self_id() as u64;
            let entry = u64::from(entry.0);
            ctx.trace(|t| TraceEvent::RerouteDamp {
                t,
                node,
                entry,
                primary: port as u64,
                action: Cow::Borrowed(action.name()),
            });
        }
    }

    // ------------------------------------------------------------------
    // Receiver-side machinery.
    // ------------------------------------------------------------------

    fn drive_receiver(
        &mut self,
        ctx: &mut Kernel,
        port: PortId,
        kind: u16,
        actions: Vec<ReceiverAction>,
    ) {
        for action in actions {
            match action {
                ReceiverAction::Send(body) => {
                    let (sid, skind) = {
                        let down = self.downstream.get(&port).unwrap();
                        if kind == KIND_TREE {
                            (
                                down.tree.as_ref().unwrap().fsm.session_id,
                                SessionKind::Tree,
                            )
                        } else {
                            (
                                down.dedicated[usize::from(kind)].fsm.session_id,
                                SessionKind::Dedicated { counter_id: kind },
                            )
                        }
                    };
                    let dst = self.downstream.get(&port).map_or(0, |d| d.reply_to);
                    self.send_control(ctx, port, dst, skind, sid, body);
                }
                ReceiverAction::ResetCounters => {
                    let down = self.downstream.get_mut(&port).unwrap();
                    if kind == KIND_TREE {
                        let t = down.tree.as_mut().unwrap();
                        t.counters.iter_mut().for_each(|c| *c = 0);
                    } else {
                        down.dedicated[usize::from(kind)].count = 0;
                    }
                }
                ReceiverAction::EmitReport | ReceiverAction::ResendReport => {
                    let resend = matches!(action, ReceiverAction::ResendReport);
                    let (sid, skind, report) = {
                        let down = self.downstream.get_mut(&port).unwrap();
                        if kind == KIND_TREE {
                            let t = down.tree.as_mut().unwrap();
                            if !resend {
                                t.cached = t.counters.clone();
                            }
                            (t.fsm.session_id, SessionKind::Tree, t.cached.clone())
                        } else {
                            let d = &mut down.dedicated[usize::from(kind)];
                            if !resend {
                                d.cached = vec![d.count];
                            }
                            (
                                d.fsm.session_id,
                                SessionKind::Dedicated { counter_id: kind },
                                d.cached.clone(),
                            )
                        }
                    };
                    let dst = self.downstream.get(&port).map_or(0, |d| d.reply_to);
                    self.send_control(ctx, port, dst, skind, sid, ControlBody::Report(report));
                }
                ReceiverAction::ArmTimer { delay, epoch } => {
                    ctx.schedule_timer(delay, make_token(ROLE_RECEIVER, port, kind, epoch));
                }
            }
        }
    }

    fn ensure_downstream(&mut self, port: PortId, kind: u16) {
        let timers = self.layout.timers;
        let tree_len = self.layout.tree.slot_count() * usize::from(self.layout.tree.width);
        let down = self.downstream.entry(port).or_default();
        if kind == KIND_TREE {
            if down.tree.is_none() {
                down.tree = Some(TreeDown {
                    fsm: ReceiverFsm::new(timers),
                    counters: vec![0; tree_len],
                    cached: vec![0; tree_len],
                });
            }
        } else {
            while down.dedicated.len() <= usize::from(kind) {
                down.dedicated.push(DedicatedDown {
                    fsm: ReceiverFsm::new(timers),
                    count: 0,
                    cached: vec![0],
                });
            }
        }
    }

    fn on_control(&mut self, ctx: &mut Kernel, port: PortId, src: u32, msg: ControlMessage) {
        let kind = match msg.kind {
            SessionKind::Tree => KIND_TREE,
            SessionKind::Dedicated { counter_id } => counter_id,
        };
        if ctx.trace_enabled() {
            let node = ctx.self_id() as u64;
            let body = body_label(&msg.body);
            let len = msg.frame_len() as u64;
            let session = u64::from(msg.session_id);
            ctx.trace(|t| TraceEvent::CounterExchange {
                t,
                node,
                port: port as u64,
                unit: unit_of(kind),
                session,
                body: Cow::Borrowed(body),
                dir: Cow::Borrowed("rx"),
                len,
            });
        }
        match &msg.body {
            ControlBody::Start | ControlBody::Stop => {
                self.ensure_downstream(port, kind);
                let (before, after, actions) = {
                    let down = self.downstream.get_mut(&port).unwrap();
                    down.reply_to = src;
                    let fsm = if kind == KIND_TREE {
                        &mut down.tree.as_mut().unwrap().fsm
                    } else {
                        &mut down.dedicated[usize::from(kind)].fsm
                    };
                    let before = fsm.state;
                    let actions = fsm.on_message(msg.session_id, &msg.body);
                    (before, fsm.state, actions)
                };
                trace_fsm(&mut self.hot, ctx, port, kind, before, after);
                self.drive_receiver(ctx, port, kind, actions);
            }
            ControlBody::StartAck | ControlBody::Report(_) => {
                let Some(up) = self.upstream.get_mut(&port) else {
                    return; // reply on a port we do not monitor: ignore
                };
                let (before, after, actions) = if kind == KIND_TREE {
                    let before = up.tree_fsm.state;
                    let actions = up.tree_fsm.on_message(msg.session_id, &msg.body);
                    (before, up.tree_fsm.state, actions)
                } else if usize::from(kind) < up.dedicated.len() {
                    let fsm = &mut up.dedicated[usize::from(kind)].fsm;
                    let before = fsm.state;
                    let actions = fsm.on_message(msg.session_id, &msg.body);
                    (before, fsm.state, actions)
                } else {
                    (SenderState::Idle, SenderState::Idle, Vec::new())
                };
                trace_fsm(&mut self.hot, ctx, port, kind, before, after);
                self.drive_sender(ctx, port, kind, actions);
            }
        }
    }

    /// Ingress counting: tagged packets are counted before this switch's TM
    /// and the (hop-local) tag is stripped.
    fn ingress_count(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
        let Some(tag) = ctx.pkt_mut(pkt).tag.take() else {
            return;
        };
        let Some(down) = self.downstream.get_mut(&port) else {
            return;
        };
        match tag {
            FancyTag::Dedicated { counter_id } => {
                if let Some(d) = down.dedicated.get_mut(usize::from(counter_id)) {
                    if d.fsm.accepts_counts() {
                        d.count = d.count.wrapping_add(1);
                        let before = d.fsm.state;
                        d.fsm.on_tagged_packet();
                        let after = d.fsm.state;
                        trace_fsm(&mut self.hot, ctx, port, counter_id, before, after);
                    }
                }
            }
            FancyTag::Tree { slot, index } => {
                if let Some(t) = down.tree.as_mut() {
                    if t.fsm.accepts_counts() {
                        let w = usize::from(self.layout.tree.width);
                        let i = usize::from(slot) * w + usize::from(index);
                        if i < t.counters.len() {
                            t.counters[i] = t.counters[i].wrapping_add(1);
                        }
                        let before = t.fsm.state;
                        t.fsm.on_tagged_packet();
                        let after = t.fsm.state;
                        trace_fsm(&mut self.hot, ctx, port, KIND_TREE, before, after);
                    }
                }
            }
        }
    }

    /// Egress counting/tagging of an admitted packet.
    fn egress_count(&mut self, ctx: &mut Kernel, out: PortId, pkt: PacketRef) {
        let Some(up) = self.upstream.get_mut(&out) else {
            return;
        };
        if up.degraded {
            // Degraded mode: no tagging or per-entry state, just one
            // aggregate per-port count.
            up.port_level_count = up.port_level_count.wrapping_add(1);
            return;
        }
        let entry = ctx.pkt(pkt).entry();
        if let Some(&id) = self.dedicated_index.get(&entry) {
            let d = &mut up.dedicated[usize::from(id)];
            if d.fsm.is_counting() {
                d.count = d.count.wrapping_add(1);
                ctx.pkt_mut(pkt).tag = Some(FancyTag::Dedicated { counter_id: id });
                self.stats.tagged_packets += 1;
            }
        } else if up.tree_fsm.is_counting() {
            ctx.pkt_mut(pkt).tag = Some(up.zoom.tag_and_count(entry));
            self.stats.tagged_packets += 1;
        }
    }
}

impl Node for FancySwitch {
    fn on_start(&mut self, ctx: &mut Kernel) {
        // Congestion-guard telemetry polls, armed in ascending port order:
        // guards with equal windows fire at one instant, and the first to
        // poll a shared watched link takes (and resets) its backlog mark.
        let mut guards: Vec<_> = self.guards.iter().collect();
        guards.sort_unstable_by_key(|&(&port, _)| port);
        for (&port, guard) in guards {
            ctx.schedule_timer(guard.window, make_token(ROLE_SENDER, port, KIND_GUARD, 0));
        }
        // Open the first counting session on every monitored port, for every
        // dedicated entry and the tree.
        for port in self.monitored.clone() {
            let n = self.upstream[&port].dedicated.len();
            for id in 0..n {
                let (before, after, actions) = {
                    let fsm = &mut self.upstream.get_mut(&port).unwrap().dedicated[id].fsm;
                    let before = fsm.state;
                    let actions = fsm.open();
                    (before, fsm.state, actions)
                };
                trace_fsm(&mut self.hot, ctx, port, id as u16, before, after);
                self.drive_sender(ctx, port, id as u16, actions);
            }
            let (before, after, actions) = {
                let fsm = &mut self.upstream.get_mut(&port).unwrap().tree_fsm;
                let before = fsm.state;
                let actions = fsm.open();
                (before, fsm.state, actions)
            };
            trace_fsm(&mut self.hot, ctx, port, KIND_TREE, before, after);
            self.drive_sender(ctx, port, KIND_TREE, actions);
        }
    }

    fn on_packet(&mut self, ctx: &mut Kernel, port: PortId, pkt: PacketRef) {
        if matches!(ctx.pkt(pkt).kind, PacketKind::FancyControl(_)) {
            // A FANcY switch consumes control messages addressed to it (or
            // link-local ones, dst 0); anything else is in transit to a
            // remote peer and is forwarded like data.
            let (src, dst) = {
                let p = ctx.pkt(pkt);
                (p.src, p.dst)
            };
            if dst == 0 || dst == self.addr || self.fib.lookup(dst).is_none() {
                let owned = ctx.take_packet(pkt);
                let PacketKind::FancyControl(msg) = owned.kind else {
                    unreachable!("checked above");
                };
                self.on_control(ctx, port, src, msg);
                return;
            }
            let out = self.fib.lookup(dst).expect("checked above");
            ctx.forward(out, pkt);
            return;
        }
        // 1. Ingress (downstream) counting, before our TM.
        self.ingress_count(ctx, port, pkt);

        // 2. FIB lookup.
        let pkt_entry = ctx.pkt(pkt).entry();
        let Some(mut out) = self.fib.lookup(ctx.pkt(pkt).dst) else {
            self.stats.no_route_drops += 1;
            if ctx.trace_enabled() {
                let node = ctx.self_id() as u64;
                let (uid, flow, size) = {
                    let p = ctx.pkt(pkt);
                    (p.uid, p.flow(), u64::from(p.size))
                };
                let entry = u64::from(pkt_entry.0);
                ctx.trace(|t| TraceEvent::PacketDrop {
                    t,
                    cause: DropCause::NoRoute,
                    node,
                    link: None,
                    dir: None,
                    uid,
                    entry,
                    flow,
                    size,
                });
            }
            return;
        };

        // 3. Fast-reroute consultation (§6.1), cascaded: walk the ranked
        //    backup chain for the first alternate whose own monitor is
        //    healthy. An exhausted chain degrades to drop-and-alarm
        //    rather than forwarding into a known-gray detour.
        if self.is_rerouted(out, pkt_entry) {
            let Some((backup, rank)) = self.pick_backup(out, pkt_entry) else {
                self.stats.alarm_drops += 1;
                if (ctx.trace_enabled() || ctx.metrics_enabled())
                    && self.alarmed.insert((out, pkt_entry))
                {
                    let node = ctx.self_id() as u64;
                    let entry = u64::from(pkt_entry.0);
                    self.hot.reroute(ctx, RerouteAction::Alarm);
                    if ctx.trace_enabled() {
                        let primary = out as u64;
                        ctx.trace(|t| TraceEvent::BackupAlarm {
                            t,
                            node,
                            entry,
                            primary,
                        });
                    }
                }
                if ctx.trace_enabled() {
                    let node = ctx.self_id() as u64;
                    let (uid, flow, size) = {
                        let p = ctx.pkt(pkt);
                        (p.uid, p.flow(), u64::from(p.size))
                    };
                    let entry = u64::from(pkt_entry.0);
                    ctx.trace(|t| TraceEvent::PacketDrop {
                        t,
                        cause: DropCause::NoBackup,
                        node,
                        link: None,
                        dir: None,
                        uid,
                        entry,
                        flow,
                        size,
                    });
                }
                return;
            };
            // Track the active alternate so a cascade step surfaces as
            // one explicit Failover (state change), not per-packet noise.
            let prev = self.active_backup.insert((out, pkt_entry), backup);
            if let Some(from) = prev.filter(|&p| p != backup) {
                self.stats.failovers += 1;
                self.hot.reroute(ctx, RerouteAction::Failover);
                if ctx.trace_enabled() {
                    let node = ctx.self_id() as u64;
                    let entry = u64::from(pkt_entry.0);
                    let (primary, from, to) = (out as u64, from as u64, backup as u64);
                    let rank = rank as u64;
                    ctx.trace(|t| TraceEvent::Failover {
                        t,
                        node,
                        entry,
                        primary,
                        from,
                        to,
                        rank,
                    });
                }
            }
            if (ctx.trace_enabled() || ctx.metrics_enabled())
                && self.traced_reroutes.insert((out, pkt_entry))
            {
                let node = ctx.self_id() as u64;
                let entry = u64::from(pkt_entry.0);
                if ctx.metrics_enabled() {
                    // Rising-edge reroute latency against ground truth:
                    // from this entry's first gray drop to the first
                    // packet actually taking the backup port.
                    let now = ctx.now();
                    let onset = ctx.records.first_drop(pkt_entry);
                    ctx.metrics(|r| {
                        r.inc("fancy_reroutes_total", Labels::new());
                        if let Some(first) = onset.filter(|&f| f <= now) {
                            r.observe(
                                "fancy_reroute_latency_ns",
                                Labels::new(),
                                now.duration_since(first).as_nanos(),
                            );
                        }
                    });
                }
                if ctx.trace_enabled() {
                    ctx.trace(|t| TraceEvent::Reroute {
                        t,
                        node,
                        entry,
                        primary: out as u64,
                        backup: backup as u64,
                    });
                }
            }
            out = backup;
            self.stats.rerouted_packets += 1;
        }

        // 4. TM admission (congestion drops are not counted), then egress
        //    counting + tagging, then the wire. The packet never leaves the
        //    pool: it is re-tagged in place and rides the next arrival.
        if let Some(adm) = ctx.tm_admit_ref(out, pkt) {
            self.egress_count(ctx, out, pkt);
            ctx.wire_forward(pkt, adm);
        }
    }

    fn on_timer(&mut self, ctx: &mut Kernel, token: TimerToken) {
        let (role, port, kind, epoch) = split_token(token);
        if role == ROLE_SENDER && kind == KIND_GUARD {
            let Some(guard) = self.guards.get(&port).cloned() else {
                return;
            };
            let congested = guard
                .watched
                .iter()
                .any(|&(link, from)| ctx.take_link_max_backlog(link, from) > guard.threshold_bytes);
            if congested {
                if let Some(up) = self.upstream.get_mut(&port) {
                    up.last_congested = Some(ctx.now());
                }
            }
            ctx.schedule_timer(guard.window, make_token(ROLE_SENDER, port, KIND_GUARD, 0));
            return;
        }
        if role == ROLE_SENDER {
            let Some(up) = self.upstream.get_mut(&port) else {
                return;
            };
            let (before, after, actions) = {
                let fsm = if kind == KIND_TREE {
                    &mut up.tree_fsm
                } else {
                    &mut up.dedicated[usize::from(kind)].fsm
                };
                let before = fsm.state;
                let actions = fsm.on_timer(epoch);
                (before, fsm.state, actions)
            };
            trace_fsm(&mut self.hot, ctx, port, kind, before, after);
            self.drive_sender(ctx, port, kind, actions);
        } else {
            let Some(down) = self.downstream.get_mut(&port) else {
                return;
            };
            let (before, after, actions) = if kind == KIND_TREE {
                match down.tree.as_mut() {
                    Some(t) => {
                        let before = t.fsm.state;
                        let actions = t.fsm.on_timer(epoch);
                        (before, t.fsm.state, actions)
                    }
                    None => (ReceiverState::Idle, ReceiverState::Idle, Vec::new()),
                }
            } else {
                let fsm = &mut down.dedicated[usize::from(kind)].fsm;
                let before = fsm.state;
                let actions = fsm.on_timer(epoch);
                (before, fsm.state, actions)
            };
            trace_fsm(&mut self.hot, ctx, port, kind, before, after);
            self.drive_receiver(ctx, port, kind, actions);
        }
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
    use crate::config::{FancyInput, TimerConfig};
    use crate::tree::TreeParams;
    use fancy_sim::{
        DetectionScope, DetectorKind, GrayFailure, LinkConfig, Network, SimDuration, SimTime,
    };
    use fancy_tcp::{ReceiverHost, ScheduledFlow, SenderHost};

    fn token_roundtrip(role: u64, port: PortId, kind: u16, epoch: u64) {
        assert_eq!(
            split_token(make_token(role, port, kind, epoch)),
            (role, port, kind, epoch)
        );
    }

    #[test]
    fn timer_tokens_roundtrip() {
        token_roundtrip(ROLE_SENDER, 0, 0, 0);
        token_roundtrip(ROLE_RECEIVER, 1023, KIND_TREE, 1 << 30);
        token_roundtrip(ROLE_SENDER, 63, 499, 12345);
    }

    /// Build the §5 experiment topology:
    /// `sender host — S1 — S2 — receiver host`, FANcY on the S1→S2 link.
    /// Returns (network, s1, s2, link_id, receiver).
    fn fancy_pair(
        high_priority: Vec<Prefix>,
        tree: TreeParams,
        flows: Vec<ScheduledFlow>,
        seed: u64,
    ) -> (Network, usize, usize, usize, usize) {
        let mut input = FancyInput {
            high_priority,
            memory_bytes_per_port: 1 << 20,
            tree,
            timers: TimerConfig::paper_default(),
        };
        input.timers = input.timers.for_link_delay(SimDuration::from_millis(10));
        let layout = input.translate().expect("layout");

        let mut net = Network::new(seed);
        let host = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        // S1: port 0 → host, port 1 → S2 (monitored).
        let mut fib1 = fancy_sim::Fib::new();
        fib1.default_route(1);
        fib1.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s1 = net.add_node(Box::new(FancySwitch::new(
            fib1,
            layout.clone(),
            vec![1],
            seed,
        )));
        // S2: port 0 → S1, port 1 → receiver.
        let mut fib2 = fancy_sim::Fib::new();
        fib2.default_route(1);
        fib2.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s2 = net.add_node(Box::new(FancySwitch::new(
            fib2,
            layout,
            Vec::new(),
            seed + 1,
        )));
        let rx = net.add_node(Box::new(ReceiverHost::new()));

        let edge = LinkConfig::new(10_000_000_000, SimDuration::from_micros(10));
        let core = LinkConfig::new(10_000_000_000, SimDuration::from_millis(10));
        net.connect(host, s1, edge); // host port 0 / s1 port 0
        let link = net.connect(s1, s2, core); // s1 port 1 / s2 port 0
        net.connect(s2, rx, edge); // s2 port 1 / rx port 0
        (net, s1, s2, link, rx)
    }

    fn steady_flows(dst: u32, rate: u64, n: usize, spacing_ms: u64) -> Vec<ScheduledFlow> {
        (0..n)
            .map(|i| ScheduledFlow {
                start: SimTime(i as u64 * spacing_ms * 1_000_000),
                dst,
                cfg: fancy_tcp::FlowConfig::for_rate(rate, 1.0),
            })
            .collect()
    }

    #[test]
    fn dedicated_counter_detects_single_entry_blackhole() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 1_000_000, 20, 200);
        let (mut net, s1, _s2, link, _rx) =
            fancy_pair(vec![entry], TreeParams::paper_default(), flows, 11);
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(link, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));

        let det = net
            .kernel
            .records
            .first_entry_detection(entry)
            .expect("blackhole must be detected");
        assert_eq!(det.detector, DetectorKind::DedicatedCounter);
        let latency = det.time.duration_since(fail_at);
        // Expect ≈ exchange interval (50 ms) + session open/close RTTs.
        assert!(
            latency < SimDuration::from_millis(500),
            "detection took {latency}"
        );
        // The switch's own output structures agree.
        let sw: &FancySwitch = net.node(s1);
        assert_eq!(sw.flagged_entries(1), vec![entry]);
    }

    #[test]
    fn no_failure_no_detection_counters_stay_consistent() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 1_000_000, 10, 100);
        let (mut net, s1, _s2, _link, _rx) =
            fancy_pair(vec![entry], TreeParams::paper_default(), flows, 12);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(net.kernel.records.detections.is_empty());
        let sw: &FancySwitch = net.node(s1);
        let (ded_sessions, tree_sessions) = sw.sessions_completed(1);
        // 5 s / (50 ms + ~2 RTT) ≈ 50+ dedicated sessions; tree ≈ 20.
        assert!(ded_sessions > 30, "dedicated sessions: {ded_sessions}");
        assert!(tree_sessions > 10, "tree sessions: {tree_sessions}");
    }

    #[test]
    fn hash_tree_detects_best_effort_entry() {
        let entry = Prefix::from_addr(0x0B_00_00_07);
        // No high-priority entries: everything is best effort.
        let flows = steady_flows(0x0B_00_00_07, 2_000_000, 30, 150);
        let (mut net, s1, _s2, link, _rx) =
            fancy_pair(Vec::new(), TreeParams::paper_default(), flows, 13);
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(link, s1, GrayFailure::single_entry(entry, 0.5, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(8));

        let tree_dets: Vec<_> = net
            .kernel
            .records
            .detections_by(DetectorKind::HashTree)
            .collect();
        assert!(!tree_dets.is_empty(), "tree must detect the failed entry");
        let sw: &FancySwitch = net.node(s1);
        // The reported hash path resolves to the failed entry.
        let DetectionScope::HashPath(path) = &tree_dets[0].scope else {
            panic!("unexpected scope");
        };
        assert_eq!(path, &sw.tree_hasher(1).hash_path(entry));
        assert!(sw.tree_flags_entry(1, entry));
        // Detection latency ≈ depth × (zooming interval + 2 RTT).
        let latency = tree_dets[0].time.duration_since(fail_at);
        assert!(
            latency < SimDuration::from_millis(1500),
            "tree detection took {latency}"
        );
    }

    #[test]
    fn uniform_failure_flagged_as_uniform() {
        // Many entries so most root counters carry traffic.
        let mut flows = Vec::new();
        for i in 0..300u32 {
            flows.push(ScheduledFlow {
                start: SimTime((i as u64 % 10) * 20_000_000),
                dst: 0x0C_00_00_00 + i * 256 + 1,
                cfg: fancy_tcp::FlowConfig::for_rate(500_000, 30.0),
            });
        }
        let (mut net, _s1, _s2, link, _rx) =
            fancy_pair(Vec::new(), TreeParams::paper_default(), flows, 14);
        let s1 = 1;
        let fail_at = SimTime::ZERO + SimDuration::from_secs(2);
        net.kernel
            .add_failure(link, s1, GrayFailure::uniform(0.5, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let uni: Vec<_> = net
            .kernel
            .records
            .detections_by(DetectorKind::UniformCheck)
            .collect();
        assert!(!uni.is_empty(), "uniform failure must be flagged");
        let latency = uni[0].time.duration_since(fail_at);
        // ≈ one zooming interval (§5.1.3).
        assert!(latency < SimDuration::from_millis(600), "took {latency}");
    }

    #[test]
    fn congestion_is_not_reported_as_gray_failure() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 40_000_000, 10, 10);
        let mut input = FancyInput {
            high_priority: vec![entry],
            memory_bytes_per_port: 1 << 20,
            tree: TreeParams::paper_default(),
            timers: TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(10)),
        };
        input.timers.dedicated_interval = SimDuration::from_millis(50);
        let layout = input.translate().unwrap();

        let mut net = Network::new(15);
        let host = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        let mut fib1 = fancy_sim::Fib::new();
        fib1.default_route(1);
        fib1.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s1 = net.add_node(Box::new(FancySwitch::new(fib1, layout.clone(), vec![1], 1)));
        let mut fib2 = fancy_sim::Fib::new();
        fib2.default_route(1);
        fib2.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s2 = net.add_node(Box::new(FancySwitch::new(fib2, layout, Vec::new(), 2)));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        net.connect(
            host,
            s1,
            LinkConfig::new(1_000_000_000, SimDuration::from_micros(10)),
        );
        // Bottleneck: 10 Mbps with a tiny TM queue → heavy congestion.
        net.connect(
            s1,
            s2,
            LinkConfig::new(10_000_000, SimDuration::from_millis(10)).with_tm_capacity(10_000),
        );
        net.connect(
            s2,
            rx,
            LinkConfig::new(1_000_000_000, SimDuration::from_micros(10)),
        );
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));

        assert!(
            net.kernel.records.congestion_drops > 0,
            "test needs congestion"
        );
        // Congestion losses happen before FANcY's egress counters: the
        // counting protocol must NOT flag the entry.
        assert!(
            net.kernel
                .records
                .detections_by(DetectorKind::DedicatedCounter)
                .count()
                == 0,
            "congestion misreported as gray failure"
        );
    }

    #[test]
    fn counting_protocol_survives_lossy_reverse_path() {
        // Gray failure on the *reverse* direction (S2 → S1) drops 30 % of
        // everything, including StartAcks and Reports. The stop-and-wait
        // protocol must keep completing sessions and still detect the
        // forward failure.
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 1_000_000, 30, 150);
        let (mut net, s1, s2, link, _rx) =
            fancy_pair(vec![entry], TreeParams::paper_default(), flows, 16);
        net.kernel
            .add_failure(link, s2, GrayFailure::uniform(0.3, SimTime::ZERO));
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(link, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(6));

        let det = net.kernel.records.first_entry_detection(entry);
        assert!(det.is_some(), "must detect despite lossy reverse path");
        let sw: &FancySwitch = net.node(s1);
        let (sessions, _) = sw.sessions_completed(1);
        assert!(sessions > 10, "sessions kept completing: {sessions}");
    }

    #[test]
    fn hard_link_failure_reported_after_x_attempts() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 1_000_000, 5, 100);
        let (mut net, s1, _s2, link, _rx) =
            fancy_pair(vec![entry], TreeParams::paper_default(), flows, 17);
        // Kill the reverse path entirely: no ACKs/reports ever return.
        let s2 = 2;
        net.kernel
            .add_failure(link, s2, GrayFailure::uniform(1.0, SimTime::ZERO));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        let timeouts = net
            .kernel
            .records
            .detections_by(DetectorKind::ProtocolTimeout)
            .count();
        assert!(timeouts > 0, "link failure must be declared");
        let _ = s1;
    }

    #[test]
    fn reroute_moves_flagged_entry_to_backup() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let layout = FancyInput {
            high_priority: vec![entry],
            memory_bytes_per_port: 1 << 20,
            tree: TreeParams::paper_default(),
            timers: TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(1)),
        }
        .translate()
        .unwrap();

        let mut net = Network::new(18);
        let flows = steady_flows(0x0A_00_00_05, 2_000_000, 40, 100);
        let host = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        let mut fib1 = fancy_sim::Fib::new();
        fib1.default_route(1);
        fib1.route(Prefix::from_addr(0x01_00_00_01), 0);
        let mut s1_node = FancySwitch::new(fib1, layout.clone(), vec![1], 3);
        s1_node.reroute = Some(Reroute::port_level([(1, 2)].into_iter().collect()));
        let s1 = net.add_node(Box::new(s1_node));
        let mut fib2 = fancy_sim::Fib::new();
        fib2.default_route(2);
        fib2.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s2 = net.add_node(Box::new(FancySwitch::new(fib2, layout, Vec::new(), 4)));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        let fast = LinkConfig::new(1_000_000_000, SimDuration::from_millis(1));
        net.connect(host, s1, fast); // s1 port 0
        let primary = net.connect(s1, s2, fast); // s1 port 1, s2 port 0
        net.connect(s1, s2, fast); // backup: s1 port 2, s2 port 1
        net.connect(s2, rx, fast); // s2 port 2
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(primary, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));

        let sw: &FancySwitch = net.node(s1);
        assert!(sw.is_rerouted(1, entry));
        assert!(sw.stats.rerouted_packets > 0);
        // Traffic keeps flowing after the reroute: the receiver saw packets
        // well after the failure time.
        let rxh: &ReceiverHost = net.node(rx);
        assert!(rxh.entry_bytes(entry) > 0);
        let det = net.kernel.records.first_entry_detection(entry).unwrap();
        assert!(
            det.time.duration_since(fail_at) < SimDuration::from_millis(1000),
            "sub-second reroute"
        );
    }

    /// Build `host — S1 ═══ S2 — rx` with three parallel S1→S2 links
    /// (S1 ports 1, 2, 3) and a ranked per-entry backup chain on the
    /// primary. S1 monitors ports 1 and 2; port 3 is unmonitored.
    /// Returns (net, s1, primary_link, backup1_link, rx).
    fn cascade_net(
        entry: Prefix,
        chain: Vec<PortId>,
        seed: u64,
    ) -> (Network, usize, usize, usize, usize) {
        let layout = FancyInput {
            high_priority: vec![entry],
            memory_bytes_per_port: 1 << 20,
            tree: TreeParams::paper_default(),
            timers: TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(1)),
        }
        .translate()
        .unwrap();

        let mut net = Network::new(seed);
        let flows = steady_flows(0x0A_00_00_05, 2_000_000, 40, 100);
        let host = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        let mut fib1 = fancy_sim::Fib::new();
        fib1.default_route(1);
        fib1.route(Prefix::from_addr(0x01_00_00_01), 0);
        let mut s1_node = FancySwitch::new(fib1, layout.clone(), vec![1, 2], seed);
        let mut rr = Reroute::default();
        rr.entry_backup.insert((1, entry), chain);
        s1_node.reroute = Some(rr);
        let s1 = net.add_node(Box::new(s1_node));
        let mut fib2 = fancy_sim::Fib::new();
        fib2.default_route(3);
        fib2.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s2 = net.add_node(Box::new(FancySwitch::new(
            fib2,
            layout,
            Vec::new(),
            seed + 1,
        )));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        let fast = LinkConfig::new(1_000_000_000, SimDuration::from_millis(1));
        net.connect(host, s1, fast); // s1 port 0
        let primary = net.connect(s1, s2, fast); // s1 port 1, s2 port 0
        let backup1 = net.connect(s1, s2, fast); // s1 port 2, s2 port 1
        net.connect(s1, s2, fast); // s1 port 3, s2 port 2
        net.connect(s2, rx, fast); // s2 port 3
        (net, s1, primary, backup1, rx)
    }

    #[test]
    fn cascaded_failover_walks_backup_chain() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let (mut net, s1, primary, backup1, rx) = cascade_net(entry, vec![2, 3], 21);
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        // The primary blackholes the entry; once traffic detours over the
        // first alternate, that one turns out gray too.
        net.kernel
            .add_failure(primary, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.kernel
            .add_failure(backup1, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));

        let sw: &FancySwitch = net.node(s1);
        // Both monitored egresses flagged the entry independently…
        assert_eq!(sw.flagged_entries(1), vec![entry]);
        assert_eq!(sw.flagged_entries(2), vec![entry]);
        // …so the cascade walked past the gray first alternate onto the
        // unmonitored second one.
        assert_eq!(sw.pick_backup(1, entry), Some((3, 1)));
        assert!(sw.stats.failovers >= 1, "no failover recorded");
        assert_eq!(sw.stats.alarm_drops, 0);
        // Traffic survived the double failure end to end.
        let rxh: &ReceiverHost = net.node(rx);
        assert!(rxh.entry_bytes(entry) > 0);
    }

    #[test]
    fn exhausted_backup_chain_drops_and_alarms() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        // Chain holds only the (monitored) first alternate: once it turns
        // gray too, there is nowhere safe left to steer.
        let (mut net, s1, primary, backup1, _rx) = cascade_net(entry, vec![2], 22);
        let fail_at = SimTime::ZERO + SimDuration::from_secs(1);
        net.kernel
            .add_failure(primary, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.kernel
            .add_failure(backup1, s1, GrayFailure::single_entry(entry, 1.0, fail_at));
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));

        let sw: &FancySwitch = net.node(s1);
        assert_eq!(sw.pick_backup(1, entry), None);
        assert!(sw.stats.alarm_drops > 0, "exhausted chain must alarm-drop");
    }

    #[test]
    fn damped_reroute_reverts_after_probation_and_retrips_on_flap() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let layout = FancyInput {
            high_priority: vec![entry],
            memory_bytes_per_port: 1 << 20,
            tree: TreeParams::paper_default(),
            timers: TimerConfig::paper_default()
                .for_link_delay(SimDuration::from_millis(1))
                .damped(
                    1,
                    1,
                    SimDuration::from_millis(200),
                    SimDuration::from_millis(300),
                ),
        }
        .translate()
        .unwrap();

        let mut net = Network::new(23);
        let flows = steady_flows(0x0A_00_00_05, 2_000_000, 70, 100);
        let host = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        let mut fib1 = fancy_sim::Fib::new();
        fib1.default_route(1);
        fib1.route(Prefix::from_addr(0x01_00_00_01), 0);
        let mut s1_node = FancySwitch::new(fib1, layout.clone(), vec![1], 5);
        s1_node.reroute = Some(Reroute::port_level([(1, 2)].into_iter().collect()));
        let s1 = net.add_node(Box::new(s1_node));
        let mut fib2 = fancy_sim::Fib::new();
        fib2.default_route(2);
        fib2.route(Prefix::from_addr(0x01_00_00_01), 0);
        let s2 = net.add_node(Box::new(FancySwitch::new(fib2, layout, Vec::new(), 6)));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        let fast = LinkConfig::new(1_000_000_000, SimDuration::from_millis(1));
        net.connect(host, s1, fast);
        let primary = net.connect(s1, s2, fast); // s1 port 1
        net.connect(s1, s2, fast); // backup: s1 port 2
        net.connect(s2, rx, fast);

        // First failure window [1 s, 1.5 s]: engage, then (clean again)
        // serve the hold-down and probe. Second window [2.2 s, 2.7 s]
        // lands inside/after probation: the probe retrips, and detection
        // is re-reported. After 2.7 s the link stays clean for good.
        let mut f1 =
            GrayFailure::single_entry(entry, 1.0, SimTime::ZERO + SimDuration::from_secs(1));
        f1.end = SimTime::ZERO + SimDuration::from_millis(1500);
        net.kernel.add_failure(primary, s1, f1);
        let mut f2 =
            GrayFailure::single_entry(entry, 1.0, SimTime::ZERO + SimDuration::from_millis(2200));
        f2.end = SimTime::ZERO + SimDuration::from_millis(2700);
        net.kernel.add_failure(primary, s1, f2);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(8));

        let sw: &FancySwitch = net.node(s1);
        // The flap was re-reported: the damped machine produced (at least)
        // the engage and the retrip detection.
        let dets = net
            .kernel
            .records
            .detections_by(DetectorKind::DedicatedCounter)
            .count();
        assert!(dets >= 2, "expected engage + retrip detections, got {dets}");
        // After the last clean probation the entry reverted to the
        // primary: flag cleared, machine back in Watch.
        assert!(sw.flagged_entries(1).is_empty(), "flag must be cleared");
        assert!(!sw.is_rerouted(1, entry));
        let up = &sw.upstream[&1];
        assert!(matches!(up.damp[0].phase, DampPhase::Watch));
        assert!(sw.stats.rerouted_packets > 0);
        // And traffic flowed end to end throughout.
        let rxh: &ReceiverHost = net.node(rx);
        assert!(rxh.entry_bytes(entry) > 0);
    }

    #[test]
    fn overhead_tag_is_two_bytes_and_control_padded() {
        let entry = Prefix::from_addr(0x0A_00_00_05);
        let flows = steady_flows(0x0A_00_00_05, 1_000_000, 5, 100);
        let (mut net, s1, _s2, _link, _rx) =
            fancy_pair(vec![entry], TreeParams::paper_default(), flows, 19);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let sw: &FancySwitch = net.node(s1);
        assert!(sw.stats.control_sent > 0);
        // All dedicated-session messages are minimum-size frames except the
        // tree Report (5330 B); average must sit between those bounds.
        let avg = sw.stats.control_bytes as f64 / sw.stats.control_sent as f64;
        assert!((64.0..600.0).contains(&avg), "avg control frame {avg}");
        assert!(sw.stats.tagged_packets > 0);
    }
}
