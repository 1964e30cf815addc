//! Active latency/jitter probing.
//!
//! §5.5 lists "CPU load, available memory, network bandwidth, latency,
//! and jitter" among the state the network state interface
//! encapsulates. Bandwidth and host metrics come from SNMP
//! ([`crate::netstate`]); latency and jitter are *measured*, by
//! sending timestamped probes to an [`EchoResponder`] (an RFC
//! 862-style UDP echo service) and timing the replies.
//!
//! Jitter follows the RTP/RTCP definition: the mean absolute
//! difference of consecutive one-way delays.

use simnet::packet::Port;
use simnet::wire::Reader;
use simnet::{Addr, Network, NodeId, SocketHandle, Ticks};

/// Conventional echo port (UDP/7).
pub const ECHO_PORT: Port = Port(7);

/// An RFC 862-style echo service: every datagram is returned to its
/// sender verbatim.
pub struct EchoResponder {
    socket: SocketHandle,
}

impl EchoResponder {
    /// Bind on `node`'s echo port.
    pub fn bind(net: &mut Network, node: NodeId) -> Result<Self, simnet::net::NetError> {
        Ok(EchoResponder {
            socket: net.bind(node, ECHO_PORT)?,
        })
    }

    /// Bounce everything pending; returns the number echoed.
    pub fn service(&mut self, net: &mut Network) -> usize {
        let mut n = 0;
        while let Some(dgram) = net.recv(self.socket) {
            let _ = net.send(
                self.socket,
                Addr::unicast(dgram.src_node, dgram.src_port),
                dgram.payload,
            );
            n += 1;
        }
        n
    }
}

/// Result of a probe burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeReport {
    /// Probes answered.
    pub received: usize,
    /// Probes sent.
    pub sent: usize,
    /// Mean one-way latency (RTT/2) in microseconds.
    pub latency_us: f64,
    /// Mean absolute difference of consecutive one-way delays, µs.
    pub jitter_us: f64,
}

/// A latency/jitter prober bound to one socket.
pub struct LatencyProbe {
    socket: SocketHandle,
    /// Payload bytes per probe (bigger probes feel serialization more).
    pub probe_size: usize,
}

impl LatencyProbe {
    /// Bind the prober on `node:port`.
    pub fn bind(
        net: &mut Network,
        node: NodeId,
        port: Port,
    ) -> Result<Self, simnet::net::NetError> {
        Ok(LatencyProbe {
            socket: net.bind(node, port)?,
            probe_size: 64,
        })
    }

    /// Send a burst of `count` probes to the echo responder on
    /// `target`, then run the network (servicing `echo`) until all
    /// replies arrive or `budget` elapses.
    pub fn burst(
        &mut self,
        net: &mut Network,
        echo: &mut EchoResponder,
        target: NodeId,
        count: usize,
        budget: Ticks,
    ) -> ProbeReport {
        assert!(count >= 1);
        // Payload: sequence + send timestamp, padded to probe_size.
        for seq in 0..count as u32 {
            let mut payload = Vec::with_capacity(self.probe_size.max(12));
            payload.extend_from_slice(&seq.to_be_bytes());
            payload.extend_from_slice(&net.now().as_micros().to_be_bytes());
            payload.resize(self.probe_size.max(12), 0);
            let _ = net.send(self.socket, Addr::unicast(target, ECHO_PORT), payload);
        }
        let deadline = net.now() + budget;
        let mut delays: Vec<(u32, f64)> = Vec::with_capacity(count);
        while net.now() < deadline && delays.len() < count {
            let step = Ticks::from_micros(200).min(deadline - net.now());
            net.run_for(step);
            echo.service(net);
            while let Some(dgram) = net.recv(self.socket) {
                let mut r = Reader::new(&dgram.payload);
                let (Ok(seq), Ok(sent_us)) = (r.u32(), r.u64()) else {
                    continue;
                };
                let rtt = dgram.arrived_at.as_micros().saturating_sub(sent_us);
                delays.push((seq, rtt as f64 / 2.0));
            }
        }
        delays.sort_by_key(|&(seq, _)| seq);
        let received = delays.len();
        let latency_us = if received == 0 {
            f64::INFINITY
        } else {
            delays.iter().map(|&(_, d)| d).sum::<f64>() / received as f64
        };
        let jitter_us = if received < 2 {
            0.0
        } else {
            delays
                .windows(2)
                .map(|w| (w[1].1 - w[0].1).abs())
                .sum::<f64>()
                / (received - 1) as f64
        };
        ProbeReport {
            received,
            sent: count,
            latency_us,
            jitter_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::LinkSpec;

    fn world(spec: LinkSpec) -> (Network, LatencyProbe, EchoResponder, NodeId) {
        let mut net = Network::new(4);
        let a = net.add_node("prober");
        let b = net.add_node("reflector");
        net.connect(a, b, spec);
        let probe = LatencyProbe::bind(&mut net, a, Port(9000)).unwrap();
        let echo = EchoResponder::bind(&mut net, b).unwrap();
        (net, probe, echo, b)
    }

    #[test]
    fn measures_lan_latency() {
        let (mut net, mut probe, mut echo, target) = world(LinkSpec::lan());
        let r = probe.burst(&mut net, &mut echo, target, 5, Ticks::from_secs(1));
        assert_eq!(r.received, 5);
        // One-way LAN latency is ~100us propagation + small serialization.
        assert!(
            (90.0..400.0).contains(&r.latency_us),
            "latency {}",
            r.latency_us
        );
    }

    #[test]
    fn slower_link_means_higher_latency_and_burst_jitter() {
        let (mut net, mut p1, mut e1, t1) = world(LinkSpec::lan());
        let lan = p1.burst(&mut net, &mut e1, t1, 8, Ticks::from_secs(1));
        let (mut net2, mut p2, mut e2, t2) = world(LinkSpec::wireless().with_loss(0.0));
        let slow = p2.burst(&mut net2, &mut e2, t2, 8, Ticks::from_secs(2));
        assert!(slow.latency_us > lan.latency_us * 5.0);
        // Back-to-back probes queue behind each other on the slow link:
        // consecutive delays differ, i.e. measurable jitter.
        assert!(slow.jitter_us > lan.jitter_us);
        assert!(slow.jitter_us > 0.0);
    }

    #[test]
    fn lossy_path_loses_probes_gracefully() {
        let (mut net, mut probe, mut echo, target) = world(LinkSpec::lan().with_loss(0.45));
        let r = probe.burst(&mut net, &mut echo, target, 20, Ticks::from_secs(1));
        assert!(r.received < 20, "some probes lost");
        assert_eq!(r.sent, 20);
        if r.received > 0 {
            assert!(r.latency_us.is_finite());
        }
    }

    #[test]
    fn unreachable_reflector_reports_infinite_latency() {
        let mut net = Network::new(1);
        let a = net.add_node("prober");
        let b = net.add_node("island");
        net.connect(a, b, LinkSpec::lan());
        let mut probe = LatencyProbe::bind(&mut net, a, Port(9000)).unwrap();
        // Echo bound on a *different* network object would be unreachable;
        // here simply nobody listens on the echo port.
        let c = net.add_node("noecho");
        net.connect(a, c, LinkSpec::lan());
        let mut dummy_echo = EchoResponder::bind(&mut net, b).unwrap();
        let r = probe.burst(&mut net, &mut dummy_echo, c, 3, Ticks::from_millis(50));
        assert_eq!(r.received, 0);
        assert!(r.latency_us.is_infinite());
        assert_eq!(r.jitter_us, 0.0);
    }
}
