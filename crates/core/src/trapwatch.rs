//! Trap-driven (event-driven) state dissemination.
//!
//! Polling the MIB (the [`crate::netstate`] path) costs a round trip
//! per sample. SNMP's other half is the asynchronous **trap**: the
//! paper's embedded extension agent can notify the management station
//! the moment a parameter crosses a threshold. [`EdgeWatcher`] turns a
//! sampled metric into edge-triggered SNMPv2 traps carrying the
//! offending variable; the session arms one per custody store
//! ([`StoreWatcher`]) and per shaping tree ([`PlanWatcher`]). And
//! [`decision_from_trap`] lets an inference engine react to a received
//! trap's payload directly — adaptation latency becomes one one-way
//! message instead of a poll interval.

use crate::inference::AdaptationDecision;
use crate::policy::AdaptationPolicy;
use crate::state::{Metric, StateVector};
use sempubsub::EvalStack;
use simnet::Network;
use snmp::oid::{arcs, Oid};
use snmp::pdu::{Message, VarBind};
use snmp::transport::AgentRuntime;
use snmp::SnmpValue;
use sysmon::HOST_METRICS;

/// Trap OID for a QoS alert from the host extension agent
/// (tasslQosAlert = 1.3.6.1.4.1.99999.10).
fn qos_alert_trap_oid() -> Oid {
    arcs::tassl().child(10)
}

/// Trap OID for a congestion alert from the traffic-control plane
/// (tasslQosCongestionAlert = 1.3.6.1.4.1.99999.11): ECN marking
/// crossed a threshold while loss may still be zero.
fn qos_congestion_alert_trap_oid() -> Oid {
    arcs::tassl().child(11)
}

/// Trap OID for a custody-store alert from a federated broker
/// (tasslQosStoreAlert = 1.3.6.1.4.1.99999.12): stored bytes crossed
/// the quota high watermark — the partition is outlasting the store's
/// capacity and eviction of unexpired bundles is imminent.
pub fn qos_store_alert_trap_oid() -> Oid {
    arcs::tassl().child(12)
}

/// Trap OID for a rate-plan alert from the hierarchical shaping tree
/// (tasslQosPlanAlert = 1.3.6.1.4.1.99999.13): a subscriber leaf has
/// been saturating its plan ceiling over a sustained window — the
/// subscriber is paying for less capacity than they are trying to use.
pub fn qos_plan_alert_trap_oid() -> Oid {
    arcs::tassl().child(13)
}

/// One armed threshold, fired when the metric rises to or above it.
#[derive(Debug, Clone)]
struct Watch {
    /// Variable OID included in the trap.
    oid: Oid,
    threshold: f64,
    armed: bool,
}

impl Watch {
    /// A rising watch on the variable `oid`.
    fn rising(oid: Oid, threshold: f64) -> Watch {
        Watch {
            oid,
            threshold,
            armed: true,
        }
    }

    /// Edge-triggered evaluation: fires at most once per crossing, and
    /// re-arms when the metric falls back below the threshold.
    fn evaluate(&mut self, value: f64) -> bool {
        let beyond = value >= self.threshold;
        if beyond && self.armed {
            self.armed = false;
            true
        } else {
            if !beyond {
                self.armed = true;
            }
            false
        }
    }
}

/// One armed threshold plus the trap it raises: the firing half every
/// watcher in this module shares. [`EdgeWatcher::observe`] takes the
/// freshly sampled value, fires at most once per crossing, and sends
/// an SNMPv2 trap carrying the watched variable (Gauge32, rounded and
/// clamped to the type's range).
///
/// [`EdgeWatcher::loss`] is the §5.1 thin layer feeding the §5.2
/// adaptation loop: sustained receiver-report loss, which the image
/// viewer counts but does not repair (`fraction_lost * 100`, see
/// [`ImageViewer::report`](crate::apps::ImageViewer::report)), becomes
/// a one-way `qosAlert` that lets the inference engine switch modality.
/// [`EdgeWatcher::congestion`] is the pre-loss half: a link's AQM
/// marks ECN-capable packets while it would still be queueing (not
/// dropping) anything else, the viewer's report echoes the marks
/// ([`simnet::rtp::ReceiverReport::fraction_ecn_ce`] `* 100`), and a
/// sustained mark rate becomes a `qosCongestionAlert` so policy can
/// shift modality (image → sketch → text) *before* the first packet
/// is lost.
pub struct EdgeWatcher {
    watch: Watch,
    trap_oid: Oid,
    /// Traps emitted so far.
    pub traps_sent: u64,
}

impl EdgeWatcher {
    /// Raise `trap_oid` on every fresh crossing of `watch`.
    fn new(watch: Watch, trap_oid: Oid) -> EdgeWatcher {
        EdgeWatcher {
            watch,
            trap_oid,
            traps_sent: 0,
        }
    }

    /// `qosAlert` when measured RTP loss rises to or above
    /// `threshold_pct` percent; re-arms when it falls back below.
    pub fn loss(threshold_pct: f64) -> EdgeWatcher {
        EdgeWatcher::new(
            Watch::rising(arcs::host_rtp_loss(), threshold_pct),
            qos_alert_trap_oid(),
        )
    }

    /// `qosCongestionAlert` when the echoed CE fraction rises to or
    /// above `threshold_pct` percent; re-arms when it falls back below.
    pub fn congestion(threshold_pct: f64) -> EdgeWatcher {
        EdgeWatcher::new(
            Watch::rising(arcs::host_congestion(), threshold_pct),
            qos_congestion_alert_trap_oid(),
        )
    }

    /// Evaluate `value` and emit a trap towards `sink_node` on a fresh
    /// crossing. Returns true when a trap was sent.
    pub fn observe(
        &mut self,
        net: &mut Network,
        agent_rt: &mut AgentRuntime,
        sink_node: simnet::NodeId,
        value: f64,
    ) -> bool {
        if !self.watch.evaluate(value) {
            return false;
        }
        agent_rt.send_trap(
            net,
            sink_node,
            self.trap_oid.clone(),
            vec![VarBind::bound(
                self.watch.oid.clone(),
                // `as` saturates at `u32::MAX`.
                SnmpValue::Gauge32(value.round().max(0.0) as u32),
            )],
        );
        self.traps_sent += 1;
        true
    }
}

/// Watches a broker's custody store and emits a `qosStoreAlert` trap
/// when stored bytes rise to the quota high watermark.
///
/// The disruption-tolerant store absorbs traffic for as long as a
/// partition lasts; this watcher is how the management station learns
/// the partition is outlasting the buffer *before* deterministic
/// eviction starts discarding unexpired bundles. Edge-triggered like
/// every other watch: one trap per crossing, re-armed when the store
/// drains back below the watermark.
pub struct StoreWatcher {
    stats: dtn::StoreStatsHandle,
    edge: EdgeWatcher,
}

impl StoreWatcher {
    /// Watch broker `broker`'s store, firing when `stats` reports
    /// stored bytes at or above `threshold_bytes` (typically
    /// [`dtn::StoreConfig::high_watermark_bytes`]).
    pub fn new(broker: u32, stats: dtn::StoreStatsHandle, threshold_bytes: u64) -> StoreWatcher {
        StoreWatcher {
            stats,
            edge: EdgeWatcher::new(
                Watch::rising(arcs::store_bytes(broker), threshold_bytes as f64),
                qos_store_alert_trap_oid(),
            ),
        }
    }

    /// Check the live gauge; emit a trap towards `sink_node` on a
    /// fresh crossing. Returns true when a trap was sent.
    pub fn service(
        &mut self,
        net: &mut Network,
        agent_rt: &mut AgentRuntime,
        sink_node: simnet::NodeId,
    ) -> bool {
        let bytes = self.stats.stored_bytes();
        self.edge.observe(net, agent_rt, sink_node, bytes as f64)
    }
}

/// Watches one subscriber leaf of a hierarchical shaping tree and
/// emits a `qosPlanAlert` trap when the leaf's measured throughput
/// saturates its plan ceiling over a sustained window.
///
/// Utilisation is computed from deltas of the leaf's `bits_sent`
/// counter between consecutive [`PlanWatcher::service`] calls, so the
/// polling cadence *is* the averaging window: call it once per
/// reporting interval. The first window starts when the watcher is
/// armed. Edge-triggered like every other watch — one trap per
/// crossing, re-armed when utilisation falls back below the threshold.
pub struct PlanWatcher {
    node: u32,
    stats: htb::TreeStatsHandle,
    edge: EdgeWatcher,
    last_bits: u64,
    last_us: u64,
}

impl PlanWatcher {
    /// Watch tree node `node` (a subscriber leaf index into `stats`),
    /// firing when its windowed ceiling utilisation rises to or above
    /// `threshold_pct` percent. `now_us` is the sim time of arming: the
    /// first window runs from there, over the bits the leaf sends from
    /// there.
    pub fn new(
        node: u32,
        stats: htb::TreeStatsHandle,
        threshold_pct: f64,
        now_us: u64,
    ) -> PlanWatcher {
        PlanWatcher {
            node,
            last_bits: stats.bits_sent(node as usize),
            stats,
            edge: EdgeWatcher::new(
                Watch::rising(arcs::htb_node_util(node), threshold_pct),
                qos_plan_alert_trap_oid(),
            ),
            last_us: now_us,
        }
    }

    /// The tree node this watcher observes.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Ceiling utilisation (percent) over the window ending at `now_us`
    /// and starting at the previous call; advances the window.
    fn utilization_pct(&mut self, now_us: u64) -> f64 {
        let bits = self.stats.bits_sent(self.node as usize);
        let delta_bits = bits.saturating_sub(self.last_bits);
        let dt_us = now_us.saturating_sub(self.last_us);
        self.last_bits = bits;
        self.last_us = now_us;
        let ceil = self.stats.ceil_bps(self.node as usize);
        if dt_us == 0 || ceil == 0 {
            return 0.0;
        }
        delta_bits as f64 * 1e6 * 100.0 / (ceil as f64 * dt_us as f64)
    }

    /// Measure the window ending now; emit a trap towards `sink_node`
    /// on a fresh crossing. Returns true when a trap was sent.
    pub fn service(
        &mut self,
        net: &mut Network,
        agent_rt: &mut AgentRuntime,
        sink_node: simnet::NodeId,
    ) -> bool {
        let pct = self.utilization_pct(net.now().as_micros());
        self.edge.observe(net, agent_rt, sink_node, pct)
    }
}

/// Expose a mounted traffic-control plane's live counters as MIB
/// variables on `agent`: `qdiscBacklog.{link}` (Gauge32, queued
/// bytes), `qdiscDrops.{link}` (Counter32, tail + AQM drops) and
/// `qdiscEcnMarks.{link}` (Counter32). The handle comes from
/// [`simnet::Network::attach_qdisc`]; the agent samples it at query
/// time, so GETs always see the current values.
pub fn install_qdisc_metrics(
    agent: &mut snmp::SnmpAgent,
    link: simnet::LinkId,
    stats: &simnet::qdisc::StatsHandle,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let mib = agent.mib_mut();
    let s = stats.clone();
    mib.register_gauge32(arcs::qdisc_backlog(link.0), move || {
        s.backlog_bytes.load(Relaxed)
    });
    let s = stats.clone();
    mib.register_counter32(arcs::qdisc_drops(link.0), move || s.drops.load(Relaxed));
    let s = stats.clone();
    mib.register_counter32(arcs::qdisc_ecn_marks(link.0), move || {
        s.ecn_marks.load(Relaxed)
    });
}

/// Expose a mounted shaping tree's per-node counters as MIB table rows
/// on `agent` (`tassl.24.<col>.<node>`): `htbNodeRate` / `htbNodeCeil`
/// (Gauge32, kbit/s so multi-gigabit uplinks fit, ifHighSpeed-style),
/// `htbNodeBacklog` (Gauge32, queued bytes in the subtree),
/// `htbNodeDrops`, `htbNodeEcnMarks` and `htbNodeBorrowedBits`
/// (Counter32). The handle comes from
/// [`simnet::Network::attach_tree`]; the agent samples it at query
/// time, so GETs always see the current values.
pub fn install_tree_metrics(agent: &mut snmp::SnmpAgent, stats: &htb::TreeStatsHandle) {
    let mib = agent.mib_mut();
    for node in 0..stats.node_count() {
        let n = node as u32;
        let s = stats.clone();
        mib.register_gauge32(arcs::htb_node_rate(n), move || s.rate_bps(node) / 1_000);
        let s = stats.clone();
        mib.register_gauge32(arcs::htb_node_ceil(n), move || s.ceil_bps(node) / 1_000);
        let s = stats.clone();
        mib.register_gauge32(arcs::htb_node_backlog(n), move || s.backlog_bytes(node));
        let s = stats.clone();
        mib.register_counter32(arcs::htb_node_drops(n), move || s.drops(node));
        let s = stats.clone();
        mib.register_counter32(arcs::htb_node_ecn_marks(n), move || s.ecn_marks(node));
        let s = stats.clone();
        mib.register_counter32(arcs::htb_node_borrowed_bits(n), move || {
            s.borrowed_bits(node)
        });
    }
}

/// Expose a bus endpoint's compiled-selector cache counters as MIB
/// scalars on `agent`: `cacheHits.0`, `cacheMisses.0`, and
/// `cacheEvictions.0` (all Counter32, `tassl.22.*`). The handle comes
/// from [`sempubsub::BusEndpoint::cache_stats`]; the agent samples it
/// at query time, so GETs always see the current values.
pub fn install_cache_metrics(agent: &mut snmp::SnmpAgent, stats: &sempubsub::CacheStatsHandle) {
    let mib = agent.mib_mut();
    let s = stats.clone();
    mib.register_counter32(arcs::cache_hits(), move || s.hits());
    let s = stats.clone();
    mib.register_counter32(arcs::cache_misses(), move || s.misses());
    let s = stats.clone();
    mib.register_counter32(arcs::cache_evictions(), move || s.evictions());
}

/// Interpret a received QoS-alert or congestion-alert trap: read the
/// known metrics of its varbinds into a [`StateVector`] and run the
/// engine on it. Returns `None` for traps that are neither alert kind
/// or carry no known metric.
pub fn decision_from_trap(
    engine: &dyn AdaptationPolicy,
    trap: &Message,
) -> Option<AdaptationDecision> {
    // varbind[1] is snmpTrapOID.0 per the SNMPv2 trap layout.
    let trap_oid = trap.pdu.varbinds.get(1)?;
    let known = trap_oid.value == SnmpValue::Oid(qos_alert_trap_oid())
        || trap_oid.value == SnmpValue::Oid(qos_congestion_alert_trap_oid())
        || trap_oid.value == SnmpValue::Oid(qos_plan_alert_trap_oid());
    if !known {
        return None;
    }
    let mut state = StateVector::new();
    for vb in &trap.pdu.varbinds[2..] {
        let metric = if let Some(m) = HOST_METRICS.iter().find(|m| vb.name == (m.1)()) {
            Metric::from_name(m.0).expect("host metrics are state metrics")
        } else if vb.name == arcs::host_rtp_loss() {
            Metric::LossPct
        } else if vb.name == arcs::host_congestion() {
            Metric::CongestionPct
        } else if vb.name.starts_with(&arcs::htb().child(7)) {
            // htbNodeUtil.<node>: plan-ceiling saturation feeds the
            // same congestion band as ECN-echo marking.
            Metric::CongestionPct
        } else {
            continue;
        };
        if let Some(v) = vb.value.as_f64() {
            state.set(metric, v);
        }
    }
    if state.is_empty() {
        return None;
    }
    Some(engine.decide_state(&state, &mut EvalStack::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::QosContract;
    use crate::inference::InferenceEngine;
    use crate::policy::PolicyDb;
    use simnet::{LinkSpec, Ticks};
    use snmp::transport::TrapSink;
    use snmp::SnmpAgent;
    use sysmon::SimHost;

    fn world() -> (Network, AgentRuntime, TrapSink, simnet::NodeId) {
        let mut net = Network::new(3);
        let (_sw, nodes) = net.lan(&["station", "host"], LinkSpec::lan());
        let host = SimHost::idle("host");
        let mut agent = SnmpAgent::new("host", "public", None);
        sysmon::install_host_agent(&host.shared(), &mut agent);
        let rt = AgentRuntime::bind(&mut net, nodes[1], agent).unwrap();
        let sink = TrapSink::bind(&mut net, nodes[0]).unwrap();
        (net, rt, sink, nodes[0])
    }

    /// A `qosAlert` watch on page faults rising past 80.
    fn page_fault_watcher() -> EdgeWatcher {
        EdgeWatcher::new(
            Watch::rising(arcs::host_page_faults(), 80.0),
            qos_alert_trap_oid(),
        )
    }

    #[test]
    fn crossing_fires_exactly_once() {
        let (mut net, mut rt, mut sink, station) = world();
        let mut watcher = page_fault_watcher();
        // Below threshold: nothing.
        assert!(!watcher.observe(&mut net, &mut rt, station, 10.0));
        // Cross: one trap, and only one even if checked repeatedly.
        assert!(watcher.observe(&mut net, &mut rt, station, 85.0));
        assert!(
            !watcher.observe(&mut net, &mut rt, station, 85.0),
            "edge-triggered"
        );
        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 1);
    }

    #[test]
    fn rearms_after_recovery() {
        let (mut net, mut rt, mut sink, station) = world();
        let mut watcher = page_fault_watcher();
        watcher.observe(&mut net, &mut rt, station, 95.0);
        watcher.observe(&mut net, &mut rt, station, 10.0);
        assert!(
            watcher.observe(&mut net, &mut rt, station, 95.0),
            "re-armed"
        );
        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 2);
        assert_eq!(watcher.traps_sent, 2);
    }

    #[test]
    fn trap_payload_drives_the_engine() {
        let (mut net, mut rt, mut sink, station) = world();
        page_fault_watcher().observe(&mut net, &mut rt, station, 90.0);
        net.run_for(Ticks::from_millis(5));
        sink.service(&mut net);
        let engine =
            InferenceEngine::new(PolicyDb::paper_page_fault_policy(), QosContract::default());
        let decision = decision_from_trap(&engine, &sink.traps[0]).expect("qos alert");
        assert_eq!(decision.max_packets, 1, "90 faults -> pf-extreme band");
    }

    #[test]
    fn foreign_traps_ignored() {
        let engine = InferenceEngine::new(PolicyDb::new(), QosContract::default());
        let mut agent = SnmpAgent::new("x", "public", None);
        let raw = agent.build_trap(0, arcs::tassl().child(77), vec![]);
        let msg = Message::decode(&raw).unwrap();
        assert!(decision_from_trap(&engine, &msg).is_none());
    }

    #[test]
    fn loss_trap_switches_modality() {
        use simnet::rtp::ReceiverReport;
        let (mut net, mut rt, mut sink, station) = world();
        let mut watcher = EdgeWatcher::loss(10.0);
        let calm = ReceiverReport::from_counts(99, 1, 0, 99, 0);
        assert!(!watcher.observe(&mut net, &mut rt, station, calm.fraction_lost * 100.0));
        // Wireless-grade burst loss, as the receiver report counts it.
        let bursty = ReceiverReport::from_counts(80, 20, 0, 80, 0);
        assert!(watcher.observe(&mut net, &mut rt, station, bursty.fraction_lost * 100.0));
        assert!(
            !watcher.observe(&mut net, &mut rt, station, bursty.fraction_lost * 100.0),
            "edge-triggered"
        );
        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 1);
        let engine = InferenceEngine::new(PolicyDb::loss_policy(), QosContract::default());
        let decision = decision_from_trap(&engine, &sink.traps[0]).expect("qos alert");
        assert_eq!(
            decision.modality,
            crate::inference::ModalityChoice::Sketch,
            "20% loss -> loss-heavy band"
        );
        // Recovery re-arms the watch.
        assert!(!watcher.observe(&mut net, &mut rt, station, calm.fraction_lost * 100.0));
        assert!(watcher.observe(&mut net, &mut rt, station, bursty.fraction_lost * 100.0));
        assert_eq!(watcher.traps_sent, 2);
    }

    #[test]
    fn congestion_trap_downgrades_before_loss() {
        use simnet::rtp::ReceiverReport;
        let (mut net, mut rt, mut sink, station) = world();
        let mut watcher = EdgeWatcher::congestion(10.0);
        // Lightly marked stream with ZERO loss: below threshold.
        let calm = ReceiverReport::from_counts(100, 0, 0, 100, 2);
        assert!(!watcher.observe(&mut net, &mut rt, station, calm.fraction_ecn_ce * 100.0));
        // AQM marking a quarter of the stream — still zero loss.
        let marked = ReceiverReport::from_counts(100, 0, 0, 100, 25);
        assert!(watcher.observe(&mut net, &mut rt, station, marked.fraction_ecn_ce * 100.0));
        assert!(
            !watcher.observe(&mut net, &mut rt, station, marked.fraction_ecn_ce * 100.0),
            "edge-triggered"
        );
        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 1);
        let engine = InferenceEngine::new(PolicyDb::congestion_policy(), QosContract::default());
        let decision = decision_from_trap(&engine, &sink.traps[0]).expect("congestion alert");
        assert_eq!(
            decision.modality,
            crate::inference::ModalityChoice::Sketch,
            "25% CE -> congestion-heavy band, despite fraction_lost == 0"
        );
        // Recovery re-arms the watch.
        assert!(!watcher.observe(&mut net, &mut rt, station, calm.fraction_ecn_ce * 100.0));
        assert!(watcher.observe(&mut net, &mut rt, station, marked.fraction_ecn_ce * 100.0));
        assert_eq!(watcher.traps_sent, 2);
    }

    #[test]
    fn qdisc_metrics_visible_over_snmp() {
        use simnet::qdisc::{QdiscConfig, TrafficClass};
        use simnet::Port;
        use snmp::manager::SnmpManager;
        use snmp::oid::arcs;

        let mut net = Network::new(5);
        let a = net.add_node("edge");
        let b = net.add_node("peer");
        let link = net.connect(a, b, LinkSpec::lan());
        let mut cfg = QdiscConfig::for_rate(800_000);
        cfg.codel_target_us = 2_000;
        cfg.codel_interval_us = 10_000;
        cfg.classes[TrafficClass::Background.index()].queue_cap_pkts = 8;
        let handle = net.attach_qdisc(link, cfg);

        let mut agent = snmp::SnmpAgent::new("edge", "public", None);
        install_qdisc_metrics(&mut agent, link, &handle);
        let mut rt = AgentRuntime::bind(&mut net, a, agent).unwrap();

        // Overload the link so the plane accumulates backlog and drops.
        let src = net.bind(a, Port(7000)).unwrap();
        let _dst = net.bind(b, Port(7000)).unwrap();
        for _ in 0..40 {
            net.send(src, simnet::Addr::unicast(b, Port(7000)), vec![0u8; 900])
                .unwrap();
        }
        net.run_for(Ticks::from_millis(5));

        let mgr_node = net.add_node("mgr");
        net.connect(mgr_node, a, LinkSpec::lan());
        let mut mgr = SnmpManager::bind(&mut net, mgr_node, Port(30000), "public").unwrap();
        let mut refs: Vec<&mut AgentRuntime> = vec![&mut rt];
        let backlog = mgr
            .get_f64(&mut net, &mut refs, a, &arcs::qdisc_backlog(link.0))
            .unwrap();
        let drops = mgr
            .get_f64(&mut net, &mut refs, a, &arcs::qdisc_drops(link.0))
            .unwrap();
        assert!(backlog > 0.0, "queued bytes visible over SNMP");
        assert!(drops > 0.0, "tail drops visible over SNMP");
        // The MIB samples the live handle: drain the queue and re-read.
        net.run_to_quiescence();
        let drained = mgr
            .get_f64(&mut net, &mut refs, a, &arcs::qdisc_backlog(link.0))
            .unwrap();
        assert_eq!(drained, 0.0, "backlog gauge follows the live queue");
    }

    /// Shared-uplink world for the shaping-tree tests: a core node
    /// whose access link carries one bronze subscriber (1M assured /
    /// 2M ceiling), plus a management station off to the side.
    /// Returns `(net, stats, rt, sink, station, core, sub)`; the
    /// subscriber leaf is node 3 (0 root, 1 default, 2 site, 3 sub).
    fn tree_world() -> (
        Network,
        htb::TreeStatsHandle,
        AgentRuntime,
        TrapSink,
        simnet::NodeId,
        simnet::NodeId,
        simnet::NodeId,
    ) {
        let mut net = Network::new(21);
        let core = net.add_node("core");
        let sub = net.add_node("sub");
        let station = net.add_node("station");
        let uplink = net.connect(core, sub, LinkSpec::lan());
        net.connect(core, station, LinkSpec::lan());

        let mut spec = htb::TreeSpec::new(8_000_000);
        let site = spec.add_site("site", 8_000_000, 8_000_000);
        let plan = htb::RatePlan::new("bronze", 1_000_000, 2_000_000);
        spec.add_subscriber(site, "sub", &plan, sub.0);
        let stats = net.attach_tree(uplink, spec);

        let mut agent = SnmpAgent::new("core", "public", None);
        install_tree_metrics(&mut agent, &stats);
        let rt = AgentRuntime::bind(&mut net, core, agent).unwrap();
        let sink = TrapSink::bind(&mut net, station).unwrap();
        (net, stats, rt, sink, station, core, sub)
    }

    /// Saturate the bronze leaf's ceiling from `core` towards `sub`
    /// for `ms` milliseconds of simulated time.
    fn saturate(net: &mut Network, core: simnet::NodeId, sub: simnet::NodeId, port: u16, ms: u64) {
        use simnet::{Addr, Port};
        let src = net.bind(core, Port(port)).unwrap();
        let _dst = net.bind(sub, Port(port)).unwrap();
        for _ in 0..120 {
            net.send(src, Addr::unicast(sub, Port(port)), vec![0u8; 1_000])
                .unwrap();
        }
        net.run_for(Ticks::from_millis(ms));
    }

    #[test]
    fn plan_alert_fires_on_sustained_ceiling_saturation() {
        let (mut net, stats, mut rt, mut sink, station, core, sub) = tree_world();
        let mut watcher = PlanWatcher::new(3, stats, 95.0, net.now().as_micros());
        assert_eq!(watcher.node(), 3);

        // Idle window: utilisation zero, nothing fires.
        net.run_for(Ticks::from_millis(10));
        assert!(!watcher.service(&mut net, &mut rt, station));

        // 120 kB offered against a 2 Mbit/s ceiling saturates the
        // leaf for the whole 100 ms window.
        saturate(&mut net, core, sub, 7100, 100);
        assert!(watcher.service(&mut net, &mut rt, station));
        assert!(
            !watcher.service(&mut net, &mut rt, station),
            "edge-triggered: the crossing already fired"
        );

        // Let the backlog drain and the subscriber go quiet: the next
        // window is far below threshold, which re-arms the watch.
        net.run_to_quiescence();
        net.run_for(Ticks::from_millis(500));
        assert!(!watcher.service(&mut net, &mut rt, station));
        saturate(&mut net, core, sub, 7101, 100);
        assert!(watcher.service(&mut net, &mut rt, station), "re-armed");
        assert_eq!(watcher.edge.traps_sent, 2);

        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 2);
        assert_eq!(
            sink.traps[0].pdu.varbinds[1].value,
            SnmpValue::Oid(qos_plan_alert_trap_oid())
        );
        // The saturation trap feeds the existing congestion band: a
        // leaf pinned at its ceiling downgrades modality exactly like
        // heavy ECN-echo marking would.
        let engine = InferenceEngine::new(PolicyDb::congestion_policy(), QosContract::default());
        let decision = decision_from_trap(&engine, &sink.traps[0]).expect("plan alert");
        assert_eq!(
            decision.modality,
            crate::inference::ModalityChoice::Text,
            "~100% ceiling utilisation lands in the heaviest congestion band"
        );
    }

    /// A watcher armed mid-run measures from its arming: neither the
    /// bits the leaf sent before it nor the idle time before it count.
    #[test]
    fn late_armed_plan_watcher_measures_from_arming() {
        let (mut net, stats, mut rt, _sink, station, core, sub) = tree_world();
        saturate(&mut net, core, sub, 7100, 100);
        net.run_to_quiescence();
        let mut watcher = PlanWatcher::new(3, stats.clone(), 95.0, net.now().as_micros());
        net.run_for(Ticks::from_millis(100));
        assert_eq!(watcher.utilization_pct(net.now().as_micros()), 0.0);

        // Saturated for 100 ms after 10 s idle: the first window is
        // the 100 ms, not the 10.1 s since the start of the run.
        net.run_for(Ticks::from_secs(10));
        let mut late = PlanWatcher::new(3, stats, 95.0, net.now().as_micros());
        saturate(&mut net, core, sub, 7101, 100);
        assert!(late.service(&mut net, &mut rt, station));
    }

    #[test]
    fn tree_rows_visible_over_snmp() {
        use simnet::Port;
        use snmp::manager::SnmpManager;

        let (mut net, _stats, mut rt, _sink, _station, core, sub) = tree_world();
        saturate(&mut net, core, sub, 7100, 400);
        net.run_to_quiescence();

        let mgr_node = net.add_node("mgr");
        net.connect(mgr_node, core, LinkSpec::lan());
        let mut mgr = SnmpManager::bind(&mut net, mgr_node, Port(30010), "public").unwrap();
        let mut refs: Vec<&mut AgentRuntime> = vec![&mut rt];
        let get = |mgr: &mut SnmpManager,
                   net: &mut Network,
                   refs: &mut Vec<&mut AgentRuntime>,
                   oid: &Oid| { mgr.get_f64(net, refs, core, oid).unwrap() };

        // Static plan columns, in kbit/s (ifHighSpeed-style).
        assert_eq!(
            get(&mut mgr, &mut net, &mut refs, &arcs::htb_node_rate(3)),
            1_000.0
        );
        assert_eq!(
            get(&mut mgr, &mut net, &mut refs, &arcs::htb_node_ceil(3)),
            2_000.0
        );
        assert_eq!(
            get(&mut mgr, &mut net, &mut refs, &arcs::htb_node_ceil(0)),
            8_000.0
        );

        // 120 kB at 1 Mbit/s assured takes ~960 ms; the run was capped
        // at 400 ms, so the second half rode on borrowed site tokens
        // and the ledger says so over SNMP.
        let borrowed = get(
            &mut mgr,
            &mut net,
            &mut refs,
            &arcs::htb_node_borrowed_bits(3),
        );
        assert!(borrowed > 0.0, "sustained over-assured sending borrows");
        // Drained queue: the backlog gauge follows the live tree.
        assert_eq!(
            get(&mut mgr, &mut net, &mut refs, &arcs::htb_node_backlog(0)),
            0.0
        );
    }

    #[test]
    fn store_watcher_alerts_on_watermark_and_rearms() {
        use dtn::{Bundle, CustodyStore, StoreConfig};

        let (mut net, mut rt, mut sink, station) = world();
        let cfg = StoreConfig {
            max_bytes: 4096,
            max_bundles: 64,
            lifetime: Ticks::from_secs(60),
            high_watermark_pct: 50,
            ..StoreConfig::default()
        };
        let mut store = CustodyStore::new(cfg);
        let mut watcher = StoreWatcher::new(0, store.stats(), cfg.high_watermark_bytes());

        // Empty store: below the watermark, no trap.
        assert!(!watcher.service(&mut net, &mut rt, station));

        // Fill past 50% of the byte quota.
        let now = net.now();
        let mut seq = 0;
        while store.bytes() < cfg.high_watermark_bytes() {
            let b = Bundle {
                source: "client-0".into(),
                seq,
                src_domain: 0,
                dst_domain: 1,
                created_at: now,
                lifetime: cfg.lifetime,
                custody: true,
                payload: vec![0u8; 400],
            };
            assert!(store.insert(b, now).stored);
            seq += 1;
        }
        assert!(watcher.service(&mut net, &mut rt, station));
        assert!(
            !watcher.service(&mut net, &mut rt, station),
            "edge-triggered: one trap per crossing"
        );

        // Drain the store (partition healed), then re-fill: re-armed.
        for b in store.due_for(1, now) {
            store.release(&b.source, b.seq);
        }
        assert_eq!(store.bytes(), 0);
        assert!(!watcher.service(&mut net, &mut rt, station));
        while store.bytes() < cfg.high_watermark_bytes() {
            let b = Bundle {
                source: "client-0".into(),
                seq,
                src_domain: 0,
                dst_domain: 1,
                created_at: now,
                lifetime: cfg.lifetime,
                custody: true,
                payload: vec![0u8; 400],
            };
            assert!(store.insert(b, now).stored);
            seq += 1;
        }
        assert!(watcher.service(&mut net, &mut rt, station), "re-armed");
        assert_eq!(watcher.edge.traps_sent, 2);

        net.run_for(Ticks::from_millis(5));
        assert_eq!(sink.service(&mut net), 2, "sink receives both alerts");
        // Second varbind of a v2 trap is snmpTrapOID.0.
        assert_eq!(
            sink.traps[0].pdu.varbinds[1].value,
            snmp::SnmpValue::Oid(qos_store_alert_trap_oid())
        );
    }
}
