//! The embedded extension agent: instrumentation routines binding a
//! host's live metrics into its SNMP MIB.

use crate::host::{HostState, SharedHost};
use snmp::oid::{arcs, Oid};
use snmp::{SnmpAgent, SnmpValue};

/// A row of [`HOST_METRICS`]: state-map name, MIB variable, the
/// [`HostState`] field, the Gauge32 ceiling.
type HostMetric = (&'static str, fn() -> Oid, fn(&HostState) -> f64, f64);

/// The host-metric vocabulary, one row per metric: the name the
/// adaptation state map files it under, the MIB variable that serves
/// it, the [`HostState`] field behind it, and the top of the range the
/// agent clamps it to before it goes on the wire as a Gauge32.
///
/// [`install_host_agent`] registers the rows; `cqos_core`'s sampler
/// (`add_host_metrics`), host watcher and trap decoder read the same
/// table, so a metric is named, numbered and read in one place.
pub const HOST_METRICS: [HostMetric; 3] = [
    ("cpu_load", arcs::host_cpu_load, |h| h.cpu_load, 100.0),
    (
        "page_faults",
        arcs::host_page_faults,
        |h| h.page_faults,
        u32::MAX as f64,
    ),
    (
        "mem_avail_kb",
        arcs::host_mem_avail,
        |h| h.mem_avail_kb,
        u32::MAX as f64,
    ),
];

/// Register the host extension variables (CPU load, page faults,
/// available memory) on `agent`, backed by the live `host` state.
///
/// The variables appear under the private enterprise arc
/// `1.3.6.1.4.1.99999` and are sampled at query time — each GET sees
/// the host's state at that instant, exactly like the paper's
/// "instrumentation routines".
pub fn install_host_agent(host: &SharedHost, agent: &mut SnmpAgent) {
    for (_, oid, read, max) in HOST_METRICS {
        let h = host.clone();
        agent.mib_mut().register_computed(oid(), move || {
            SnmpValue::Gauge32(read(&h.lock().unwrap()).round().clamp(0.0, max) as u32)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{LoadProfile, SimHost};
    use simnet::{LinkSpec, Network, Port};
    use snmp::manager::SnmpManager;
    use snmp::transport::AgentRuntime;

    #[test]
    fn agent_serves_live_metrics() {
        let mut host = SimHost::new(
            "ws1",
            LoadProfile::Sweep {
                from: 30.0,
                to: 100.0,
                steps: 7,
            },
            LoadProfile::Constant(64.0),
            LoadProfile::Constant(2048.0),
        );
        let mut agent = SnmpAgent::new("ws1", "public", None);
        install_host_agent(&host.shared(), &mut agent);

        let mut net = Network::new(2);
        let (_sw, nodes) = net.lan(&["station", "ws1"], LinkSpec::lan());
        let mut rt = AgentRuntime::bind(&mut net, nodes[1], agent).unwrap();
        let mut mgr = SnmpManager::bind(&mut net, nodes[0], Port(30000), "public").unwrap();

        let v = mgr
            .get_f64(&mut net, &mut [&mut rt], nodes[1], &arcs::host_cpu_load())
            .unwrap();
        assert_eq!(v, 30.0);

        // The host evolves; the next query sees the new value.
        host.tick();
        host.tick();
        let v = mgr
            .get_f64(&mut net, &mut [&mut rt], nodes[1], &arcs::host_cpu_load())
            .unwrap();
        assert_eq!(v, 50.0);

        let faults = mgr
            .get_f64(
                &mut net,
                &mut [&mut rt],
                nodes[1],
                &arcs::host_page_faults(),
            )
            .unwrap();
        assert_eq!(faults, 64.0);
        let mem = mgr
            .get_f64(&mut net, &mut [&mut rt], nodes[1], &arcs::host_mem_avail())
            .unwrap();
        assert_eq!(mem, 2048.0);
    }

    #[test]
    fn values_clamped_to_gauge_ranges() {
        let mut host = SimHost::idle("h");
        host.force(HostState {
            cpu_load: 100.0,
            page_faults: 1e9,
            mem_avail_kb: 0.0,
        });
        let mut agent = SnmpAgent::new("h", "public", None);
        install_host_agent(&host.shared(), &mut agent);
        let cpu = agent.mib_mut().get(&arcs::host_cpu_load()).unwrap();
        assert_eq!(cpu, SnmpValue::Gauge32(100));
        let mem = agent.mib_mut().get(&arcs::host_mem_avail()).unwrap();
        assert_eq!(mem, SnmpValue::Gauge32(0));
    }
}
