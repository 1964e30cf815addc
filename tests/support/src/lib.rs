//! Shared code for the root package's integration suites
//! (`tests/*.rs`): a session as data ([`Scenario`], [`Client`]), the
//! raw-overlay join, the FNV-1a fold the pins digest with, the
//! message that carries one application event, and a per-thread
//! counting allocator ([`alloc`]).
//!
//! Only what two or more suites share belongs here. Oracles that
//! `benchmark/` names stay where it finds them.

pub mod alloc;

use broker::Overlay;
use cqos_core::contract::QosContract;
use cqos_core::events::AppEvent;
use cqos_core::inference::InferenceEngine;
use cqos_core::policy::{AdaptationPolicy, PolicyDb};
use cqos_core::session::{ClientId, CollaborationSession, SessionConfig};
use sempubsub::{AttrValue, BusEndpoint, Profile, SemanticMessage, WireMessage};
use simnet::packet::well_known;
use simnet::{LinkSpec, Network};
use std::sync::Arc;
use sysmon::SimHost;

/// A session as data: its configuration and the clients that join it,
/// in order. Building it twice builds the same session twice.
pub struct Scenario {
    pub cfg: SessionConfig,
    pub clients: Vec<Client>,
}

impl Scenario {
    /// The session under `cfg` with every client joined in order, and
    /// the clients' ids in the same order. Panics if a join fails.
    pub fn build(&self) -> (CollaborationSession, Vec<ClientId>) {
        let mut s = CollaborationSession::new(self.cfg.clone());
        let ids = self
            .clients
            .iter()
            .map(|c| {
                c.join(&mut s)
                    .unwrap_or_else(|e| panic!("client `{}` joins: {e}", c.profile.name))
            })
            .collect();
        (s, ids)
    }
}

/// How a client's engine is built. Every engine gets the default
/// contract.
pub enum Engine {
    /// The threshold engine over these rules, whatever
    /// [`SessionConfig::engine`] says. Over no rules it never adapts.
    Threshold(PolicyDb),
    /// [`SessionConfig::engine`] over these rules, as
    /// [`CollaborationSession::add_adaptive_client`] builds it.
    Adaptive(PolicyDb),
}

/// A wired client: its profile, engine and broker domain. Its host is
/// an idle one named after the profile.
pub struct Client {
    pub profile: Profile,
    pub engine: Engine,
    /// `Some(d)` joins broker domain `d`; `None` takes the session's
    /// round-robin.
    pub domain: Option<usize>,
}

impl Client {
    /// A client with a profile of any attributes.
    pub fn new(profile: Profile, engine: Engine) -> Client {
        Client {
            profile,
            engine,
            domain: None,
        }
    }

    /// A client interested in `topics` whose engine never adapts.
    pub fn passive(name: &str, topics: &[&str]) -> Client {
        Client::threshold(name, topics, PolicyDb::new())
    }

    /// A client interested in `topics` on the threshold engine over
    /// `rules`.
    pub fn threshold(name: &str, topics: &[&str], rules: PolicyDb) -> Client {
        Client::new(topic_profile(name, topics), Engine::Threshold(rules))
    }

    /// A client interested in `topics` on the session's engine over
    /// `rules`.
    pub fn adaptive(name: &str, topics: &[&str], rules: PolicyDb) -> Client {
        Client::new(topic_profile(name, topics), Engine::Adaptive(rules))
    }

    /// The same client, joining broker domain `d`.
    pub fn in_domain(self, d: usize) -> Client {
        Client {
            domain: Some(d),
            ..self
        }
    }

    /// Join `s` with the session call the client's engine and domain
    /// name.
    pub fn join(&self, s: &mut CollaborationSession) -> Result<ClientId, String> {
        let profile = self.profile.clone();
        let host = SimHost::idle(&profile.name);
        let contract = QosContract::default();
        match &self.engine {
            Engine::Threshold(rules) => {
                let engine = InferenceEngine::new(rules.clone(), contract);
                self.join_wired(s, profile, engine, host)
            }
            Engine::Adaptive(rules) => {
                let engine = s.config().engine.build(rules.clone(), contract);
                self.join_wired(s, profile, engine, host)
            }
        }
    }

    fn join_wired(
        &self,
        s: &mut CollaborationSession,
        profile: Profile,
        engine: impl AdaptationPolicy + 'static,
        host: SimHost,
    ) -> Result<ClientId, String> {
        match self.domain {
            Some(d) => s.add_wired_client_in_domain(profile, engine, host, d),
            None => s.add_wired_client(profile, engine, host),
        }
    }
}

/// A profile named `name` whose `interested_in` lists `topics` in
/// order.
pub fn topic_profile(name: &str, topics: &[&str]) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(topics.iter().map(|t| AttrValue::str(t)).collect()),
    );
    p
}

/// Attach one endpoint to domain `d` of a raw overlay: a node named
/// after the profile on a LAN link to the domain's broker, the profile
/// advertised, the domain group joined and the flood settled.
pub fn join_domain(net: &mut Network, ov: &mut Overlay, d: usize, profile: Profile) -> BusEndpoint {
    let node = net.add_node(&profile.name.clone());
    net.connect(ov.node(d), node, LinkSpec::lan());
    ov.register_local(net, d, &profile);
    let bus = BusEndpoint::join(net, node, well_known::SESSION_DATA, ov.group(d), profile)
        .expect("endpoint joins");
    ov.settle(net);
    bus
}

/// `ev` in a message of its own, read back as a receiver is handed it.
pub fn event_message(ev: &AppEvent) -> Arc<WireMessage> {
    let wire = SemanticMessage {
        sender: "sharer".to_string(),
        kind: ev.kind().to_string(),
        selector: "true".to_string(),
        seq: 0,
        content: Default::default(),
        body: ev.encode(),
    }
    .encode();
    Arc::new(WireMessage::decode(&wire).expect("an encoded message reads"))
}

/// FNV-1a's 64-bit offset basis: the hash of nothing.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over 64-bit words, each as its little-endian bytes.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()))
}

/// FNV-1a over everything fed, with a `0xff` separator after each
/// feed so adjacent fields cannot run into each other.
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(fnv1a(self.0, bytes), &[0xff]);
    }

    pub fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    pub fn debug(&mut self, what: &impl std::fmt::Debug) {
        self.bytes(format!("{what:?}").as_bytes());
    }
}
