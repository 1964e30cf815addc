//! Broker nodes on simnet: content-based routing of semantic messages.
//!
//! A flat `sempubsub` session multicasts every message to every
//! endpoint, which then interprets it locally — O(N·M) interpretations
//! for N endpoints and M messages. The overlay replaces session-wide
//! flooding with *routed* delivery: each broker is a simnet node with
//! unicast links to its neighbor brokers and a local multicast group
//! for the endpoints attached to its domain. Endpoints register their
//! profile (and interest) with the local broker; the resulting
//! [`Advertisement`]s flood the overlay with generation numbers and a
//! hop bound, and are merged via selector covering
//! ([`crate::algebra`]) before re-advertisement. A broker forwards a
//! message on a link only if some advertisement behind that link
//! matches the message's selector; otherwise the copy is *suppressed*
//! and nothing behind the link ever decodes it.
//!
//! Soundness of suppression rests on the first step of semantic
//! interpretation: an endpoint accepts a message only if the selector
//! matches its profile attributes, so a selector that matches no
//! advertised profile behind a link can be dropped without changing
//! any delivery outcome. Interests are carried and merged in
//! advertisements but deliberately *not* used to suppress: transform
//! chains can satisfy an interest the raw content description does
//! not, so interest-based dropping would be unsound.
//!
//! Messages carry their `(sender, seq)` pair as a dedup id; a broker
//! never processes the same id twice, so cyclic topologies deliver
//! exactly once. The overlay interns each sender once, and a broker
//! remembers an id as one bit (`dedup.rs`): per origin a 16-byte
//! slot whose low watermark slides as the seqs below it fill, and past
//! it one word per 64-seq block it has seen anything of. That is the
//! set of ids it has seen, exactly, held in what its traffic needs: a
//! home broker, which sees every seq of its senders, keeps the slot
//! alone.
//!
//! The advertisement protocol has two message kinds on one wire
//! format. An origin a broker has not held before — a join, or a fresh
//! entry learnt from a neighbor — travels as a *delta*: that one entry,
//! to each neighbor whose merged export it would be part of. Anything
//! that *replaces* an entry (re-registration, newer generation, fewer
//! hops) and every [`Overlay::readvertise`] sends the *sync*: the whole
//! merged export. A replacement cannot be a delta, because the entry it
//! replaces may have covered others that were therefore never sent;
//! narrowing it un-covers them, and only the full export carries them.
//! Receivers treat both alike (insert, or improve an entry they hold),
//! so a delta leaves every table exactly as the sync would have. What a
//! delta does not do is resend: an advertisement lost on a lossy
//! inter-broker link stays lost until the next sync, and
//! `readvertise` is the only repair path.

use crate::algebra::covers_expr;
use crate::dedup::Seen;
use dtn::{Bundle, CustodyStore, Frame, StoreConfig, StoreStatsHandle};
use sempubsub::ast::Expr;
use sempubsub::compile::DEFAULT_CACHE_CAPACITY;
use sempubsub::{
    AttrValue, CacheStatsHandle, CompiledProfile, CompiledSelector, EvalStack, Interner, Profile,
    Selector, SelectorStore, SemanticMessage, WireMessage,
};
use simnet::packet::well_known;
use simnet::{
    Addr, Datagram, GroupId, LinkId, LinkSpec, Network, NodeId, Payload, SocketHandle, Ticks,
};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Message kind carried by advertisement control messages.
pub const ADV_KIND: &str = "broker-adv";

/// Maximum hop count an advertisement may travel from its origin.
pub const MAX_HOPS: u8 = 16;

/// A subscription advertisement: the profile attributes (what message
/// selectors are interpreted against) plus the interest selector of
/// one endpoint, stamped with a generation number and the hop distance
/// from its origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Advertisement {
    /// Name of the registering endpoint (unique within the overlay).
    pub origin: String,
    /// The endpoint's profile attributes.
    pub attrs: BTreeMap<String, AttrValue>,
    /// The endpoint's interest selector, if any.
    pub interest: Option<Selector>,
    /// Monotone per-origin version; newer replaces older everywhere.
    pub generation: u64,
    /// Hop distance from the origin's home broker (0 = local).
    pub hops: u8,
    /// A promiscuous subscription (gateway/base-station): matches
    /// every message regardless of selector.
    pub wildcard: bool,
}

impl Advertisement {
    /// Advertise an endpoint profile.
    pub fn from_profile(profile: &Profile, generation: u64) -> Advertisement {
        Advertisement {
            origin: profile.name.clone(),
            attrs: profile.attrs().clone(),
            interest: profile.interest().cloned(),
            generation,
            hops: 0,
            wildcard: false,
        }
    }

    /// A promiscuous advertisement: everything flows toward it.
    pub fn promiscuous(origin: &str, generation: u64) -> Advertisement {
        Advertisement {
            origin: origin.to_string(),
            attrs: BTreeMap::new(),
            interest: None,
            generation,
            hops: 0,
            wildcard: true,
        }
    }

    /// The interest as a borrowed expression, "no interest" being the
    /// `true` that [`Selector::all`] parses to.
    fn interest_expr(&self) -> &Expr {
        static ALL: Expr = Expr::Literal(AttrValue::Bool(true));
        self.interest.as_ref().map_or(&ALL, Selector::expr)
    }

    /// Does `self` make `other` redundant for routing? A wildcard
    /// subsumes everything; otherwise the profiles must be identical
    /// (routing matches selectors against attributes) and the interest
    /// must cover. Compares borrowed expressions: nothing is cloned,
    /// parsed or allocated.
    pub fn subsumes(&self, other: &Advertisement) -> bool {
        if self.wildcard {
            return true;
        }
        if other.wildcard {
            return false;
        }
        self.attrs == other.attrs && covers_expr(self.interest_expr(), other.interest_expr())
    }

    /// Encode as a control-plane [`SemanticMessage`] (reusing the
    /// substrate's own codec; no second wire format).
    pub fn encode(&self) -> Vec<u8> {
        let msg = SemanticMessage {
            sender: self.origin.clone(),
            kind: ADV_KIND.to_string(),
            selector: self
                .interest
                .as_ref()
                .map(|s| s.source().to_string())
                .unwrap_or_else(|| "true".to_string()),
            seq: self.generation,
            content: self.attrs.clone(),
            body: vec![
                self.hops,
                self.interest.is_some() as u8,
                self.wildcard as u8,
            ],
        };
        msg.encode()
    }

    /// Decode from a control-plane message; `None` if it is not a
    /// well-formed advertisement.
    pub fn decode(msg: &WireMessage) -> Option<Advertisement> {
        let &[hops, has_interest, wildcard] = msg.body() else {
            return None;
        };
        if msg.kind() != ADV_KIND {
            return None;
        }
        let interest = if has_interest != 0 {
            Some(Selector::parse(msg.selector()).ok()?)
        } else {
            None
        };
        Some(Advertisement {
            origin: msg.sender().to_owned(),
            attrs: msg.content().clone(),
            interest,
            generation: msg.seq(),
            hops,
            wildcard: wildcard != 0,
        })
    }
}

/// Merge an advertisement set via covering: drop every advertisement
/// another one subsumes (a later entry can retroactively subsume
/// earlier survivors). Returns the survivors and the number merged
/// away. Routing behavior is preserved exactly: a subsumed
/// advertisement matches a subset of the messages its subsumer does.
pub fn merge_advertisements(ads: Vec<Advertisement>) -> (Vec<Advertisement>, u64) {
    let mut kept: Vec<Advertisement> = Vec::new();
    let mut merged = 0u64;
    for ad in ads {
        if kept.iter().any(|k| k.subsumes(&ad)) {
            merged += 1;
            continue;
        }
        let before = kept.len();
        kept.retain(|k| !ad.subsumes(k));
        merged += (before - kept.len()) as u64;
        kept.push(ad);
    }
    (kept, merged)
}

/// Live overlay counters for one broker, shareable with SNMP
/// instrumentation (same shape as the qdisc `StatsHandle`).
#[derive(Clone, Default)]
pub struct BrokerStatsHandle {
    inner: Arc<BrokerCounters>,
}

#[derive(Default)]
struct BrokerCounters {
    table_size: AtomicU64,
    forwarded: AtomicU64,
    suppressed: AtomicU64,
    adverts_merged: AtomicU64,
    dedup_dropped: AtomicU64,
    local_suppressed: AtomicU64,
}

impl BrokerStatsHandle {
    /// Current routing-table size: local plus remote advertisements.
    pub fn table_size(&self) -> u64 {
        self.inner.table_size.load(Ordering::Relaxed)
    }

    /// Message copies forwarded (to a neighbor broker or into the
    /// local domain group).
    pub fn forwarded(&self) -> u64 {
        self.inner.forwarded.load(Ordering::Relaxed)
    }

    /// Per-interface suppression decisions: a copy that was *not* sent
    /// because no advertisement behind the interface matched.
    pub fn suppressed(&self) -> u64 {
        self.inner.suppressed.load(Ordering::Relaxed)
    }

    /// Advertisements covering kept off the wire: one per (entry,
    /// neighbor) pair a flood left out because another entry of that
    /// neighbor's export subsumes it. A delta flood decides once per
    /// fresh entry; a sync (replacement, `readvertise`) decides again
    /// for every entry it merges away.
    pub fn adverts_merged(&self) -> u64 {
        self.inner.adverts_merged.load(Ordering::Relaxed)
    }

    /// Duplicate message copies dropped by the dedup id check.
    pub fn dedup_dropped(&self) -> u64 {
        self.inner.dedup_dropped.load(Ordering::Relaxed)
    }

    /// Messages not delivered into the local domain group (each local
    /// endpoint was spared one interpretation).
    pub fn local_suppressed(&self) -> u64 {
        self.inner.local_suppressed.load(Ordering::Relaxed)
    }
}

struct Neighbor {
    broker: usize,
    node: NodeId,
    link: LinkId,
}

/// Would a message whose selector compiled to `program` reach the
/// advertised endpoint's first interpretation step? Wildcard
/// subscriptions match everything, an unparseable selector (no
/// program) forwards conservatively, and evaluation errors reject —
/// exactly as the endpoint itself treats them. The attributes are read
/// as their profile `class` — the program's remembered verdict, once
/// the class has been decided — or, unclassed, from the advertisement.
fn ad_matches(
    program: Option<&CompiledSelector>,
    ad: &Advertisement,
    class: Option<&CompiledProfile>,
    stack: &mut EvalStack,
) -> bool {
    ad.wildcard
        || program.is_none_or(|p| {
            let verdict = match class {
                Some(class) => p.eval_profile(class, stack),
                None => p.eval_map(&ad.attrs, stack),
            };
            verdict.unwrap_or(false)
        })
}

/// One interface's routing table: the advertisements held for it, in
/// arrival order, and beside each the profile class its attributes
/// were interned as in the broker's selector store ([`ad_matches`]).
/// A wildcard has none (it matches without evaluating), nor do
/// attributes past the store's class bounds. Reads go through the
/// advertisements as a slice; writes through the table, which keeps the
/// two in step.
#[derive(Default)]
struct Table {
    ads: Vec<Advertisement>,
    classes: Vec<Option<Arc<CompiledProfile>>>,
}

impl Deref for Table {
    type Target = [Advertisement];

    fn deref(&self) -> &[Advertisement] {
        &self.ads
    }
}

impl Table {
    fn class_of(ad: &Advertisement, store: &SelectorStore) -> Option<Arc<CompiledProfile>> {
        (!ad.wildcard).then(|| store.class_of(&ad.attrs)).flatten()
    }

    fn push(&mut self, ad: Advertisement, store: &SelectorStore) {
        self.classes.push(Table::class_of(&ad, store));
        self.ads.push(ad);
    }

    fn replace(&mut self, at: usize, ad: Advertisement, store: &SelectorStore) {
        self.classes[at] = Table::class_of(&ad, store);
        self.ads[at] = ad;
    }

    fn retain(&mut self, mut keep: impl FnMut(&Advertisement) -> bool) {
        // `Vec::retain` visits each advertisement once, in order: the
        // class of the `at`-th moves down to the `kept`-th survivor.
        let (mut at, mut kept) = (0, 0);
        let classes = &mut self.classes;
        self.ads.retain(|ad| {
            let keep = keep(ad);
            if keep {
                classes.swap(kept, at);
                kept += 1;
            }
            at += 1;
            keep
        });
        classes.truncate(kept);
    }

    /// Does any advertisement match `program` ([`ad_matches`])?
    fn matches(&self, program: Option<&CompiledSelector>, stack: &mut EvalStack) -> bool {
        let mut held = self.ads.iter().zip(&self.classes);
        held.any(|(ad, class)| ad_matches(program, ad, class.as_deref(), stack))
    }
}

/// What a broker routes by: the message (for its dedup id) and its
/// selector's program, absent when the selector does not parse.
/// `None` for bytes that are not a semantic message.
fn routed(frame: &sempubsub::Frame) -> Option<(&WireMessage, Option<&CompiledSelector>)> {
    use sempubsub::Frame::{BadSelector, Malformed, Message};
    match frame {
        Message { message, program } => Some((message, Some(program))),
        BadSelector { message } => Some((message, None)),
        Malformed => None,
    }
}

/// One broker: a simnet node bridging its local domain group and the
/// inter-broker unicast mesh.
pub struct BrokerNode {
    name: String,
    node: NodeId,
    group: GroupId,
    data: SocketHandle,
    ctrl: SocketHandle,
    neighbors: Vec<Neighbor>,
    local_ads: Table,
    remote_ads: BTreeMap<usize, Table>,
    /// The dedup ids this broker has forwarded or taken custody of, by
    /// the overlay's origin symbols.
    seen: Seen,
    stats: BrokerStatsHandle,
    /// The store arriving buffers' frames are read through
    /// ([`sempubsub::Frame::read`]), and the routing tables' profile
    /// classes interned in: the session's when the overlay was built
    /// [`Overlay::with_store`], so a buffer an endpoint or another
    /// broker has already looked at costs no decode and no lookup here,
    /// and a selector decided for a class anywhere in the session is
    /// decided here too; otherwise one of this broker's own.
    selectors: SelectorStore,
    /// Operand stack for the per-advertisement evaluations.
    stack: EvalStack,
    /// Disruption-tolerant custody store, when the overlay runs with
    /// custody enabled. `None` keeps every code path bit-identical to
    /// an overlay built before the store existed.
    store: Option<CustodyStore>,
    /// Neighbor reachability, in neighbor order, as the last probe
    /// found it ([`Overlay::probe_neighbors`]): kept between messages
    /// so a probe allocates nothing.
    reach: Vec<bool>,
    /// The last forwarding decision ([`BrokerNode::plan_forward`]):
    /// kept between messages so a plan allocates nothing.
    plan: ForwardPlan,
}

/// Where one message goes from a broker: the outcome of the single
/// forwarding decision both arrival paths (data datagram, custody
/// bundle) share.
#[derive(Default)]
struct ForwardPlan {
    /// Send now: the local group when a copy from the mesh matches a
    /// local advertisement, then every reachable matching neighbor.
    sends: Vec<Addr>,
    /// Matching neighbors (broker index) the reachability probe found
    /// cut off: the custody targets.
    unreachable: Vec<usize>,
    /// Destinations skipped because no advertisement behind them
    /// matched, the local domain included.
    suppressed: u64,
    /// Whether the local domain is among the skipped ones.
    local_suppressed: bool,
}

impl BrokerNode {
    /// Decide, into `plan`, where a message whose selector compiled to
    /// `program` (`None`: it does not parse — forward conservatively,
    /// the endpoint will count it) goes from here. `from` is the
    /// neighbor broker the copy arrived from; `None` means it
    /// was published in the local domain, where multicast already
    /// reached every group member, so it is not delivered locally
    /// again. Neighbor reachability is read from `reach`; a neighbor
    /// it holds nothing for (nothing was probed) counts as reachable.
    fn plan_forward(&mut self, program: Option<&CompiledSelector>, from: Option<usize>) {
        let BrokerNode {
            plan,
            stack,
            local_ads,
            remote_ads,
            neighbors,
            reach,
            ..
        } = self;
        plan.sends.clear();
        plan.unreachable.clear();
        plan.suppressed = 0;
        plan.local_suppressed = false;
        if from.is_some() {
            if local_ads.matches(program, stack) {
                plan.sends
                    .push(Addr::multicast(self.group, well_known::SESSION_DATA));
            } else {
                plan.suppressed += 1;
                plan.local_suppressed = true;
            }
        }
        for (k, n) in neighbors.iter().enumerate() {
            if Some(n.broker) == from {
                continue;
            }
            if !remote_ads
                .get(&n.broker)
                .is_some_and(|ads| ads.matches(program, stack))
            {
                plan.suppressed += 1;
            } else if reach.get(k).copied().unwrap_or(true) {
                plan.sends
                    .push(Addr::unicast(n.node, well_known::SESSION_DATA));
            } else {
                plan.unreachable.push(n.broker);
            }
        }
    }

    /// Count the plan the caller committed to and put its copies on the
    /// wire.
    fn forward(&self, net: &mut Network, payload: Payload) {
        let (plan, counters) = (&self.plan, &self.stats.inner);
        counters
            .forwarded
            .fetch_add(plan.sends.len() as u64, Ordering::Relaxed);
        counters
            .suppressed
            .fetch_add(plan.suppressed, Ordering::Relaxed);
        counters
            .local_suppressed
            .fetch_add(u64::from(plan.local_suppressed), Ordering::Relaxed);
        for &addr in &plan.sends {
            let _ = net.send(self.data, addr, payload.clone());
        }
    }

    fn update_table_gauge(&self) {
        let size = self.local_ads.len() as u64
            + self
                .remote_ads
                .values()
                .map(|v| v.len() as u64)
                .sum::<u64>();
        self.stats.inner.table_size.store(size, Ordering::Relaxed);
    }

    /// The advertisements eligible for export toward neighbor `k`, in
    /// merge order: split-horizon (everything except what `k` itself
    /// advertised), bounded by the hop budget.
    fn export_set(&self, k: usize) -> impl Iterator<Item = &Advertisement> {
        let learnt = self
            .remote_ads
            .iter()
            .filter(move |(j, _)| **j != k)
            .flat_map(|(_, set)| set.iter().filter(|a| a.hops < MAX_HOPS));
        self.local_ads.iter().chain(learnt)
    }

    /// The sync message for neighbor `k`: its export set merged via
    /// covering, and the number of entries merged away.
    fn export_for(&self, k: usize) -> (Vec<Advertisement>, u64) {
        merge_advertisements(self.export_set(k).cloned().collect())
    }

    /// Would [`BrokerNode::export_for`]`(k)` contain `ad`, an entry of
    /// `k`'s export set? Decided against the set as it stands, without
    /// merging it: an entry survives [`merge_advertisements`] unless an
    /// earlier one subsumes it, or a later one does that it does not
    /// subsume back (of mutually subsuming entries the first wins).
    fn exported_to(&self, k: usize, ad: &Advertisement) -> bool {
        let mut earlier = true;
        self.export_set(k).all(|other| {
            if std::ptr::eq(other, ad) {
                earlier = false;
                return true;
            }
            !other.subsumes(ad) || (!earlier && ad.subsumes(other))
        })
    }
}

/// Where a broker holds an advertisement: a local registration
/// (`None`) or the table learnt from a neighbor broker, and the
/// position in it.
type Held = (Option<usize>, usize);

/// The broker overlay: brokers, their mesh links, and the
/// advertisement generation counter.
#[derive(Default)]
pub struct Overlay {
    brokers: Vec<BrokerNode>,
    node_to_broker: BTreeMap<NodeId, usize>,
    next_generation: u64,
    /// Store policy applied to brokers when custody is enabled.
    custody: Option<StoreConfig>,
    /// The selector store every broker reads frames through, when the
    /// overlay was given one.
    selectors: Option<SelectorStore>,
    /// Every dedup id's sender, interned once for all brokers.
    origins: Interner,
}

impl Overlay {
    /// An overlay with no brokers, each future broker compiling through
    /// a selector store of its own.
    pub fn new() -> Overlay {
        Overlay::default()
    }

    /// An overlay with no brokers, every future broker compiling
    /// through `store` — the session's, so brokers, endpoints and the
    /// gateway share one decode and one store lookup per buffer.
    pub fn with_store(store: SelectorStore) -> Overlay {
        Overlay {
            selectors: Some(store),
            ..Overlay::default()
        }
    }

    /// Add a broker node with its own domain multicast group. The
    /// broker binds the session data port (joined to the group, so it
    /// sees local publishes) and the session control port (for
    /// advertisements — classified as Control traffic by the default
    /// qdisc class map).
    pub fn add_broker(&mut self, net: &mut Network, name: &str) -> usize {
        let node = net.add_node(name);
        let group = net.new_group();
        let data = net
            .bind(node, well_known::SESSION_DATA)
            .expect("fresh broker node has a free data port");
        net.join(data, group).expect("socket just bound");
        let ctrl = net
            .bind(node, well_known::SESSION_CTRL)
            .expect("fresh broker node has a free control port");
        let idx = self.brokers.len();
        self.brokers.push(BrokerNode {
            name: name.to_string(),
            node,
            group,
            data,
            ctrl,
            neighbors: Vec::new(),
            local_ads: Table::default(),
            remote_ads: BTreeMap::new(),
            seen: Seen::default(),
            stats: BrokerStatsHandle::default(),
            selectors: self
                .selectors
                .clone()
                .unwrap_or_else(|| SelectorStore::with_capacity(DEFAULT_CACHE_CAPACITY)),
            stack: EvalStack::default(),
            store: self.custody.map(CustodyStore::new),
            reach: Vec::new(),
            plan: ForwardPlan::default(),
        });
        self.node_to_broker.insert(node, idx);
        idx
    }

    /// Connect two brokers with an inter-broker link. The returned
    /// `LinkId` is the handle for fault injection
    /// (`FaultPlan`/`set_link_fault`) and `Network::attach_qdisc`.
    pub fn connect(&mut self, net: &mut Network, a: usize, b: usize, spec: LinkSpec) -> LinkId {
        let (na, nb) = (self.brokers[a].node, self.brokers[b].node);
        let link = net.connect(na, nb, spec);
        self.brokers[a].neighbors.push(Neighbor {
            broker: b,
            node: nb,
            link,
        });
        self.brokers[b].neighbors.push(Neighbor {
            broker: a,
            node: na,
            link,
        });
        link
    }

    /// The link between two neighboring brokers, if connected.
    pub fn link_between(&self, a: usize, b: usize) -> Option<LinkId> {
        self.brokers[a]
            .neighbors
            .iter()
            .find(|n| n.broker == b)
            .map(|n| n.link)
    }

    /// Number of brokers.
    pub fn broker_count(&self) -> usize {
        self.brokers.len()
    }

    /// The domain multicast group endpoints of broker `i` join.
    pub fn group(&self, i: usize) -> GroupId {
        self.brokers[i].group
    }

    /// The simnet node of broker `i` (attach client links here).
    pub fn node(&self, i: usize) -> NodeId {
        self.brokers[i].node
    }

    /// The broker's name.
    pub fn name(&self, i: usize) -> &str {
        &self.brokers[i].name
    }

    /// Live counters of broker `i`.
    pub fn stats(&self, i: usize) -> BrokerStatsHandle {
        self.brokers[i].stats.clone()
    }

    /// The advertisements broker `i` holds, in arrival order: its local
    /// registrations (`from` = `None`) or the table learnt from
    /// neighbor broker `from`.
    pub fn advertisements(&self, i: usize, from: Option<usize>) -> &[Advertisement] {
        let broker = &self.brokers[i];
        match from {
            None => &broker.local_ads,
            Some(j) => broker.remote_ads.get(&j).map_or(&[], |t| &t.ads),
        }
    }

    /// Live counters of the selector store broker `i` compiles
    /// through — the shared store's for an overlay built
    /// [`Overlay::with_store`].
    pub fn cache_stats(&self, i: usize) -> CacheStatsHandle {
        self.brokers[i].selectors.stats()
    }

    /// Attach a disruption-tolerant custody store to every broker
    /// (present and future) under `cfg`'s quotas. Messages addressed
    /// to a currently unreachable neighbor are then stored and drained
    /// after heal instead of being dropped.
    pub fn enable_custody(&mut self, cfg: StoreConfig) {
        self.custody = Some(cfg);
        for b in &mut self.brokers {
            if b.store.is_none() {
                b.store = Some(CustodyStore::new(cfg));
            }
        }
    }

    /// Replace broker `i`'s store with a fresh one under `cfg` — a
    /// per-broker quota override (e.g. a constrained edge broker).
    /// Requires custody to be enabled overlay-wide first.
    pub fn set_store_config(&mut self, i: usize, cfg: StoreConfig) {
        assert!(self.custody.is_some(), "enable_custody first");
        self.brokers[i].store = Some(CustodyStore::new(cfg));
    }

    /// Broker `i`'s custody store, if custody is enabled.
    pub fn custody_store(&self, i: usize) -> Option<&CustodyStore> {
        self.brokers[i].store.as_ref()
    }

    /// Live custody-store counters of broker `i`, if custody is
    /// enabled.
    pub fn store_stats(&self, i: usize) -> Option<StoreStatsHandle> {
        self.brokers[i].store.as_ref().map(|s| s.stats())
    }

    /// Register a local endpoint's profile with its domain broker and
    /// flood the resulting advertisement. Re-registering the same
    /// profile name replaces the old advertisement (new generation),
    /// which is how profile changes propagate.
    pub fn register_local(&mut self, net: &mut Network, i: usize, profile: &Profile) {
        let generation = self.next_generation;
        self.next_generation += 1;
        let ad = Advertisement::from_profile(profile, generation);
        self.install_local(net, i, ad);
    }

    /// Register a promiscuous local subscriber (a gateway or base
    /// station that must see all session traffic, §4.2).
    pub fn register_wildcard(&mut self, net: &mut Network, i: usize, origin: &str) {
        let generation = self.next_generation;
        self.next_generation += 1;
        let ad = Advertisement::promiscuous(origin, generation);
        self.install_local(net, i, ad);
    }

    /// Enter a local registration and tell the neighbors. A fresh
    /// origin is appended and flooded as a delta. A re-registration
    /// replaces the old entry, which may have covered entries the
    /// neighbors were therefore never sent, so it re-exports the whole
    /// table.
    fn install_local(&mut self, net: &mut Network, i: usize, ad: Advertisement) {
        let broker = &mut self.brokers[i];
        let held = broker.local_ads.len();
        broker.local_ads.retain(|a| a.origin != ad.origin);
        let fresh = broker.local_ads.len() == held;
        broker.local_ads.push(ad, &broker.selectors);
        broker.update_table_gauge();
        if fresh {
            self.flood_appended(net, i, &[(None, held)]);
        } else {
            self.flood_export(net, i);
        }
    }

    /// Re-flood every broker's export toward all neighbors — the
    /// periodic refresh a long-lived deployment would run on a timer,
    /// and the recovery path after an inter-broker link heals. It is
    /// the *only* recovery path: a join floods its own entry once, so
    /// nothing else ever resends an advertisement a lossy link dropped.
    ///
    /// Before flooding, each broker drops advertisements whose
    /// generation is older than the latest it holds for the same
    /// origin: when a client re-registers in another domain, the stale
    /// entry learned over the old interface would otherwise keep
    /// attracting that client's traffic toward its former domain
    /// forever (nothing ever replaced it per-interface).
    pub fn readvertise(&mut self, net: &mut Network) {
        for i in 0..self.brokers.len() {
            self.prune_stale_ads(i);
            self.flood_export(net, i);
        }
    }

    /// Drop broker `i`'s advertisements that are strictly older than
    /// the newest generation it has seen for the same origin on any
    /// interface (local registration included).
    fn prune_stale_ads(&mut self, i: usize) {
        let broker = &mut self.brokers[i];
        let mut latest: BTreeMap<String, u64> = BTreeMap::new();
        for ad in broker
            .local_ads
            .iter()
            .chain(broker.remote_ads.values().flat_map(|t| t.iter()))
        {
            let e = latest.entry(ad.origin.clone()).or_insert(ad.generation);
            if ad.generation > *e {
                *e = ad.generation;
            }
        }
        let fresh = |ad: &Advertisement| ad.generation >= latest[&ad.origin];
        let before =
            broker.local_ads.len() + broker.remote_ads.values().map(|t| t.len()).sum::<usize>();
        broker.local_ads.retain(|ad| fresh(ad));
        for set in broker.remote_ads.values_mut() {
            set.retain(|ad| fresh(ad));
        }
        let after =
            broker.local_ads.len() + broker.remote_ads.values().map(|t| t.len()).sum::<usize>();
        if after != before {
            broker.update_table_gauge();
        }
    }

    /// The delta flood: send each neighbor of broker `i` those of the
    /// just-appended entries `fresh` (in export order) that a sync to
    /// it would contain now — not learnt from that neighbor, within
    /// the hop budget, not subsumed within its export set. Everything
    /// else a sync would carry the neighbor was sent when *it* was
    /// appended, or is still covered by what was.
    fn flood_appended(&self, net: &mut Network, i: usize, fresh: &[Held]) {
        let broker = &self.brokers[i];
        let mut merged = 0u64;
        for n in &broker.neighbors {
            for &(from, at) in fresh {
                let ad = &self.advertisements(i, from)[at];
                if from == Some(n.broker) || ad.hops >= MAX_HOPS {
                    continue;
                }
                if broker.exported_to(n.broker, ad) {
                    let dst = Addr::unicast(n.node, well_known::SESSION_CTRL);
                    let _ = net.send(broker.ctrl, dst, ad.encode());
                } else {
                    merged += 1;
                }
            }
        }
        let counters = &broker.stats.inner;
        counters.adverts_merged.fetch_add(merged, Ordering::Relaxed);
    }

    /// The sync flood: send broker `i`'s merged advertisement export
    /// to every neighbor. Reached only where a delta cannot do — an
    /// entry was replaced, or [`Overlay::readvertise`] asked. Receivers
    /// ignore entries that are not an improvement (older generation,
    /// or equal generation with no better hop count), so repeated
    /// floods terminate.
    fn flood_export(&mut self, net: &mut Network, i: usize) {
        let mut sends: Vec<(NodeId, Vec<Vec<u8>>)> = Vec::new();
        let mut merged_total = 0u64;
        let ctrl = {
            let broker = &self.brokers[i];
            for n in &broker.neighbors {
                let (export, merged) = broker.export_for(n.broker);
                merged_total += merged;
                sends.push((n.node, export.iter().map(Advertisement::encode).collect()));
            }
            broker.ctrl
        };
        self.brokers[i]
            .stats
            .inner
            .adverts_merged
            .fetch_add(merged_total, Ordering::Relaxed);
        for (node, payloads) in sends {
            for payload in payloads {
                let _ = net.send(ctrl, Addr::unicast(node, well_known::SESSION_CTRL), payload);
            }
        }
    }

    /// Drain and handle everything that arrived at broker `i`
    /// (custody drain first so stored bundles enter link FIFOs ahead
    /// of fresh traffic, then advertisements, then data). Returns the
    /// number of datagrams handled or custody frames sent, for
    /// convergence detection.
    pub fn process(&mut self, net: &mut Network, i: usize) -> usize {
        self.custody_service(net, i) + self.process_ctrl(net, i) + self.process_data(net, i)
    }

    /// Expire broker `i`'s stored bundles and offer custody of the
    /// survivors to every neighbor that became reachable again, in
    /// arrival (= source-sequence) order. The bundles stay stored and
    /// in-flight until the neighbor's accept signal releases them —
    /// exactly one broker owns each undelivered bundle throughout.
    fn custody_service(&mut self, net: &mut Network, i: usize) -> usize {
        let BrokerNode {
            node,
            ctrl,
            neighbors,
            store,
            ..
        } = &mut self.brokers[i];
        let Some(store) = store else {
            return 0;
        };
        let now = net.now();
        store.expire(now);
        if store.is_empty() {
            return 0;
        }
        let mut sent = 0;
        for n in neighbors.iter() {
            if !store.has_for(n.broker as u32) || !net.reachable(*node, n.node) {
                continue;
            }
            for b in store.due_for(n.broker as u32, now) {
                let dst = Addr::unicast(n.node, well_known::SESSION_CTRL);
                if net.send(*ctrl, dst, b.encode()).is_ok() {
                    sent += 1;
                } else {
                    // Raced a topology change: re-offer next round.
                    store.refuse(&b.source, b.seq);
                }
            }
        }
        sent
    }

    fn process_ctrl(&mut self, net: &mut Network, i: usize) -> usize {
        let ctrl = self.brokers[i].ctrl;
        let mut handled = 0;
        let mut fresh: Vec<Held> = Vec::new();
        let mut replaced = false;
        // Each frame is handled as it comes off the socket: what it
        // sends is only scheduled, so nothing joins the socket meanwhile.
        while let Some(d) = net.recv(ctrl) {
            handled += 1;
            // Custody frames share the control port with
            // advertisements; they open with their own magic, so
            // either codec rejects the other's frames.
            if let Some(frame) = Frame::decode(&d.payload) {
                self.handle_custody_frame(net, i, d.src_node, frame);
                continue;
            }
            let Ok(msg) = WireMessage::decode(&d.payload) else {
                continue;
            };
            let Some(mut ad) = Advertisement::decode(&msg) else {
                continue;
            };
            // Advertisements are only meaningful from neighbor brokers.
            let Some(&from) = self.node_to_broker.get(&d.src_node) else {
                continue;
            };
            ad.hops = ad.hops.saturating_add(1);
            if ad.hops > MAX_HOPS {
                continue;
            }
            let broker = &mut self.brokers[i];
            let table = broker.remote_ads.entry(from).or_default();
            match table.iter().position(|e| e.origin == ad.origin) {
                Some(at) => {
                    let e = &table[at];
                    let better = ad.generation > e.generation
                        || (ad.generation == e.generation && ad.hops < e.hops);
                    if better {
                        table.replace(at, ad, &broker.selectors);
                        replaced = true;
                    }
                }
                None => {
                    fresh.push((Some(from), table.len()));
                    table.push(ad, &broker.selectors);
                }
            }
        }
        if replaced || !fresh.is_empty() {
            self.brokers[i].update_table_gauge();
        }
        if replaced {
            // An improved entry may cover less than the one it
            // replaced: only the whole export says what now shows.
            self.flood_export(net, i);
        } else {
            fresh.sort_unstable();
            self.flood_appended(net, i, &fresh);
        }
        handled
    }

    /// React to one custody frame at broker `i` from `src_node`.
    fn handle_custody_frame(&mut self, net: &mut Network, i: usize, src_node: NodeId, f: Frame) {
        // Custody frames are only meaningful from neighbor brokers.
        let Some(&from) = self.node_to_broker.get(&src_node) else {
            return;
        };
        match f {
            Frame::Accept { source, seq } => {
                if let Some(store) = self.brokers[i].store.as_mut() {
                    if store.release(&source, seq) {
                        store.stats().note_custody_transfer();
                    }
                }
            }
            Frame::Refuse { source, seq } => {
                if let Some(store) = self.brokers[i].store.as_mut() {
                    store.refuse(&source, seq);
                    store.stats().note_custody_refused();
                }
            }
            Frame::Bundle(b) => self.handle_bundle(net, i, from, b),
        }
    }

    /// A custody-transfer offer arrived: take custody (store copies
    /// for any still-unreachable targets, deliver the rest through the
    /// normal forward path) and send accept, or refuse so the upstream
    /// broker keeps ownership.
    fn handle_bundle(&mut self, net: &mut Network, i: usize, from: usize, b: Bundle) {
        let now = net.now();
        let from_node = self.brokers[from].node;
        let ctrl = self.brokers[i].ctrl;
        let signal = |net: &mut Network, wire: Vec<u8>| {
            let _ = net.send(
                ctrl,
                Addr::unicast(from_node, well_known::SESSION_CTRL),
                wire,
            );
        };
        // A broker without a store cannot take custody.
        if self.brokers[i].store.is_none() {
            signal(net, Frame::encode_refuse(&b.source, b.seq));
            return;
        }
        let seen = self.origins.lookup(&b.source);
        if seen.is_some_and(|origin| self.brokers[i].seen.contains(origin, b.seq)) {
            // Already forwarded this dedup id (e.g. the message got
            // through on another path before the partition): accept so
            // the upstream custodian releases, deliver nothing.
            self.brokers[i]
                .stats
                .inner
                .dedup_dropped
                .fetch_add(1, Ordering::Relaxed);
            signal(net, Frame::encode_accept(&b.source, b.seq));
            return;
        }
        if b.expired(now) {
            // Expired in transit: take it off the network.
            if let Some(store) = self.brokers[i].store.as_ref() {
                store.stats().note_expired();
            }
            signal(net, Frame::encode_accept(&b.source, b.seq));
            return;
        }
        let frame = sempubsub::Frame::resolve(&b.payload, &self.brokers[i].selectors);
        let Some((_, program)) = routed(&frame) else {
            // Poison payload can never be delivered; accept and drop.
            signal(net, Frame::encode_accept(&b.source, b.seq));
            return;
        };
        self.probe_neighbors(net, i);
        let broker = &mut self.brokers[i];
        broker.plan_forward(program, Some(from));
        // Still partitioned further downstream: custody continues
        // hop-by-hop from here.
        let onward = broker
            .plan
            .unreachable
            .iter()
            .map(|&nb| Bundle {
                dst_domain: nb as u32,
                ..b.clone()
            })
            .collect();
        let store = broker.store.as_mut().expect("checked above");
        if !store.try_insert_all(onward, now) {
            // Quota would be exceeded: the upstream broker keeps
            // custody and retries later.
            signal(net, Frame::encode_refuse(&b.source, b.seq));
            return;
        }
        broker.seen.insert(self.origins.intern(&b.source), b.seq);
        signal(net, Frame::encode_accept(&b.source, b.seq));
        broker.forward(net, b.payload.into());
    }

    /// Probe the reachability of broker `i`'s neighbors into its
    /// `reach`, in neighbor order. Without a custody store nothing is
    /// probed and `reach` is left empty, so overlays with custody
    /// disabled stay bit-identical to ones built before the store
    /// existed.
    fn probe_neighbors(&mut self, net: &mut Network, i: usize) {
        let broker = &mut self.brokers[i];
        broker.reach.clear();
        if broker.store.is_some() {
            let node = broker.node;
            let reach = broker.neighbors.iter().map(|n| net.reachable(node, n.node));
            broker.reach.extend(reach);
        }
    }

    fn process_data(&mut self, net: &mut Network, i: usize) -> usize {
        let data = self.brokers[i].data;
        let mut handled = 0;
        while let Some(d) = net.recv(data) {
            handled += 1;
            if self.route_arrival(net, i, &d) {
                self.brokers[i].forward(net, d.payload);
            } else {
                net.recycle(d.payload);
            }
        }
        handled
    }

    /// Read one arrival's frame off its buffer and plan its forwarding
    /// (custody for unreachable neighbors included); false when it is
    /// not a semantic message or a duplicate, and goes nowhere.
    fn route_arrival(&mut self, net: &mut Network, i: usize, d: &Datagram) -> bool {
        let frame = sempubsub::Frame::read(&d.payload, &self.brokers[i].selectors);
        let Some((msg, program)) = routed(&frame) else {
            return false;
        };
        let origin = self.origins.intern(msg.sender());
        // A copy from this broker's own domain has no arrival
        // neighbor.
        let from = self
            .node_to_broker
            .get(&d.src_node)
            .copied()
            .filter(|&j| j != i);
        if !self.brokers[i].seen.insert(origin, msg.seq()) {
            self.brokers[i]
                .stats
                .inner
                .dedup_dropped
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.probe_neighbors(net, i);
        let now = net.now();
        let broker = &mut self.brokers[i];
        broker.plan_forward(program, from);
        // A matching neighbor is unreachable: take the message
        // into custody instead of black-holing it.
        if let Some(store) = broker.store.as_mut() {
            for &nb in &broker.plan.unreachable {
                let bundle = Bundle {
                    source: msg.sender().to_owned(),
                    seq: msg.seq(),
                    src_domain: i as u32,
                    dst_domain: nb as u32,
                    created_at: now,
                    lifetime: store.config().lifetime,
                    custody: true,
                    payload: d.payload.to_vec(),
                };
                store.insert(bundle, now);
            }
        }
        true
    }

    fn process_all(&mut self, net: &mut Network) -> usize {
        (0..self.brokers.len()).map(|i| self.process(net, i)).sum()
    }

    /// Advance the simulation by `d` while servicing brokers at a
    /// fixed cadence, then drain forwarding chains to quiescence so a
    /// message published before the call is fully delivered after it
    /// (matching the flat-multicast pump contract).
    pub fn pump(&mut self, net: &mut Network, d: Ticks) {
        const SLICES: u64 = 8;
        let slice = Ticks::from_micros(d.as_micros() / SLICES);
        for _ in 0..SLICES {
            net.run_for(slice);
            self.process_all(net);
        }
        let remainder = d.as_micros() - slice.as_micros() * SLICES;
        if remainder > 0 {
            net.run_for(Ticks::from_micros(remainder));
        }
        self.settle(net);
    }

    /// Service brokers until the overlay is quiescent: no broker has
    /// pending input and one extra propagation interval delivers
    /// nothing new. Used after registration (advertisement flooding)
    /// and at the end of [`Overlay::pump`].
    pub fn settle(&mut self, net: &mut Network) {
        let mut quiet_rounds = 0;
        for _ in 0..64 {
            let activity = self.process_all(net);
            if activity == 0 {
                quiet_rounds += 1;
                if quiet_rounds >= 2 {
                    break;
                }
            } else {
                quiet_rounds = 0;
            }
            net.run_for(Ticks::from_millis(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sempubsub::bus::BusEndpoint;

    fn image_content() -> BTreeMap<String, AttrValue> {
        [("media", AttrValue::str("image"))]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    fn interested_profile(name: &str, topic: &str) -> Profile {
        let mut p = Profile::new(name);
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str(topic)]),
        );
        p
    }

    /// Build a chain overlay with one client per domain, the first
    /// being the publisher.
    fn chain(net: &mut Network, topics: &[&str]) -> (Overlay, Vec<BusEndpoint>) {
        let mut overlay = Overlay::new();
        for (i, _) in topics.iter().enumerate() {
            overlay.add_broker(net, &format!("broker-{i}"));
        }
        for i in 1..topics.len() {
            overlay.connect(net, i - 1, i, LinkSpec::lan());
        }
        let mut endpoints = Vec::new();
        for (i, topic) in topics.iter().enumerate() {
            let host = net.add_node(&format!("host-{i}"));
            net.connect(host, overlay.node(i), LinkSpec::lan());
            let profile = interested_profile(&format!("client-{i}"), topic);
            overlay.register_local(net, i, &profile);
            endpoints.push(
                BusEndpoint::join(
                    net,
                    host,
                    well_known::SESSION_DATA,
                    overlay.group(i),
                    profile,
                )
                .unwrap(),
            );
        }
        overlay.settle(net);
        (overlay, endpoints)
    }

    #[test]
    fn advertisement_codec_round_trips() {
        let mut p = Profile::new("viewer");
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image")]),
        );
        p.set_interest("encoding == 'jpeg'").unwrap();
        let ad = Advertisement::from_profile(&p, 7);
        let wire = ad.encode();
        let msg = WireMessage::decode(&wire).unwrap();
        assert_eq!(Advertisement::decode(&msg), Some(ad));

        let promiscuous = Advertisement::promiscuous("bs", 9);
        let msg = WireMessage::decode(&promiscuous.encode()).unwrap();
        let back = Advertisement::decode(&msg).unwrap();
        assert!(back.wildcard);
        assert_eq!(back.generation, 9);

        // Data messages are not advertisements.
        let mut data = SemanticMessage::decode(&promiscuous.encode()).unwrap();
        data.kind = "image-share".to_string();
        let data = WireMessage::decode(&data.encode()).unwrap();
        assert_eq!(Advertisement::decode(&data), None);
    }

    /// Removing and replacing entries keeps every advertisement beside
    /// its own class, and a wildcard beside none.
    #[test]
    fn a_table_keeps_each_advertisement_beside_its_class() {
        let store = SelectorStore::with_capacity(8);
        let mut table = Table::default();
        for topic in ["a", "b", "c", "d", "e"] {
            let ad = Advertisement::from_profile(&interested_profile(topic, topic), 0);
            table.push(ad, &store);
        }
        table.push(Advertisement::promiscuous("gw", 0), &store);
        table.retain(|ad| !["b", "d"].contains(&ad.origin.as_str()));
        let moved = Advertisement::from_profile(&interested_profile("a", "z"), 1);
        table.replace(0, moved, &store);
        let origins: Vec<&str> = table.iter().map(|ad| ad.origin.as_str()).collect();
        assert_eq!(origins, ["a", "c", "e", "gw"]);
        for (ad, class) in table.ads.iter().zip(&table.classes) {
            let own = (!ad.wildcard).then(|| store.class_of(&ad.attrs).unwrap());
            assert_eq!(
                class.as_ref().map(Arc::as_ptr),
                own.as_ref().map(Arc::as_ptr),
                "{}",
                ad.origin
            );
        }
    }

    /// An advertised interest nested past the selector cap is refused
    /// like any other selector that does not parse.
    #[test]
    fn nesting_bomb_advertisement_is_refused() {
        let mut p = Profile::new("viewer");
        p.set_interest("true").unwrap();
        let mut msg =
            SemanticMessage::decode(&Advertisement::from_profile(&p, 1).encode()).unwrap();
        msg.selector = format!("{}true{}", "(".repeat(10_000), ")".repeat(10_000));
        let msg = WireMessage::decode(&msg.encode()).unwrap();
        assert_eq!(Advertisement::decode(&msg), None);
    }

    /// `subsumes` reads "no interest" as a borrowed constant; it must
    /// be the expression `Selector::all()` parses to.
    #[test]
    fn absent_interest_reads_as_selector_all() {
        let ad = Advertisement::from_profile(&Profile::new("plain"), 0);
        assert_eq!(ad.interest_expr(), Selector::all().expr());
    }

    #[test]
    fn routes_to_matching_domain_and_suppresses_the_rest() {
        let mut net = Network::new(11);
        let (mut overlay, mut eps) = chain(&mut net, &["none", "image", "text"]);
        eps[0]
            .publish(
                &mut net,
                "image-share",
                "interested_in contains 'image'",
                image_content(),
                vec![1, 2, 3],
            )
            .unwrap();
        overlay.pump(&mut net, Ticks::from_millis(200));

        assert_eq!(eps[1].poll(&mut net).len(), 1, "matching domain delivered");
        assert!(
            eps[2].poll(&mut net).is_empty(),
            "text domain never sees it"
        );
        // Broker 1 delivered locally and suppressed the copy toward
        // broker 2; broker 2 never received the message at all.
        assert!(overlay.stats(1).forwarded() >= 1);
        assert!(overlay.stats(1).suppressed() >= 1);
        assert_eq!(overlay.stats(2).forwarded(), 0);
        assert_eq!(overlay.stats(2).suppressed(), 0);
        assert!(overlay.stats(1).table_size() >= 3);
    }

    #[test]
    fn wildcard_subscription_pulls_everything() {
        let mut net = Network::new(12);
        let (mut overlay, mut eps) = chain(&mut net, &["none", "text"]);
        // A promiscuous gateway in domain 1.
        let gw_host = net.add_node("gw-host");
        net.connect(gw_host, overlay.node(1), LinkSpec::lan());
        overlay.register_wildcard(&mut net, 1, "gateway");
        let mut gw = BusEndpoint::join(
            &mut net,
            gw_host,
            well_known::SESSION_DATA,
            overlay.group(1),
            Profile::new("gateway"),
        )
        .unwrap();
        overlay.settle(&mut net);

        eps[0]
            .publish(
                &mut net,
                "image-share",
                "interested_in contains 'image'",
                image_content(),
                vec![9],
            )
            .unwrap();
        overlay.pump(&mut net, Ticks::from_millis(200));
        let raw = gw.drain_raw(&mut net);
        assert_eq!(raw.len(), 1, "wildcard domain receives unmatched selector");
        let msg = WireMessage::decode(&raw[0]).unwrap();
        assert_eq!(msg.body(), [9]);
        let _ = eps; // publisher keeps its endpoint alive to the end
    }

    #[test]
    fn triangle_delivers_exactly_once() {
        let mut net = Network::new(13);
        let mut overlay = Overlay::new();
        for name in ["a", "b", "c"] {
            overlay.add_broker(&mut net, name);
        }
        overlay.connect(&mut net, 0, 1, LinkSpec::lan());
        overlay.connect(&mut net, 1, 2, LinkSpec::lan());
        overlay.connect(&mut net, 0, 2, LinkSpec::lan());

        let mut eps = Vec::new();
        for i in 0..3 {
            let host = net.add_node(&format!("h{i}"));
            net.connect(host, overlay.node(i), LinkSpec::lan());
            let profile = interested_profile(&format!("c{i}"), "image");
            overlay.register_local(&mut net, i, &profile);
            eps.push(
                BusEndpoint::join(
                    &mut net,
                    host,
                    well_known::SESSION_DATA,
                    overlay.group(i),
                    profile,
                )
                .unwrap(),
            );
        }
        overlay.settle(&mut net);

        eps[0]
            .publish(
                &mut net,
                "image-share",
                "interested_in contains 'image'",
                image_content(),
                vec![5],
            )
            .unwrap();
        overlay.pump(&mut net, Ticks::from_millis(200));

        for (i, ep) in eps.iter_mut().enumerate().skip(1) {
            assert_eq!(
                ep.poll(&mut net).len(),
                1,
                "domain {i} delivered exactly once despite the cycle"
            );
        }
        let dedup: u64 = (0..3).map(|i| overlay.stats(i).dedup_dropped()).sum();
        assert!(dedup > 0, "the cycle produced duplicates the ids caught");
    }

    #[test]
    fn merge_collapses_covered_advertisements() {
        let mut wide = Profile::new("wide");
        wide.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image")]),
        );
        let mut narrow = Profile::new("narrow");
        narrow.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image")]),
        );
        narrow.set_interest("encoding == 'jpeg'").unwrap();
        let mut other = Profile::new("other");
        other.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("text")]),
        );

        let ads = vec![
            Advertisement::from_profile(&wide, 0),
            Advertisement::from_profile(&narrow, 1),
            Advertisement::from_profile(&other, 2),
        ];
        let (kept, merged) = merge_advertisements(ads);
        // `narrow` is covered by `wide` (same attrs, wider interest);
        // `other` has different attrs and survives.
        assert_eq!(merged, 1);
        let origins: Vec<&str> = kept.iter().map(|a| a.origin.as_str()).collect();
        assert_eq!(origins, vec!["wide", "other"]);

        let (kept, merged) =
            merge_advertisements(vec![Advertisement::promiscuous("bs", 3), kept[0].clone()]);
        assert_eq!(merged, 1, "wildcard subsumes everything");
        assert_eq!(kept.len(), 1);
        assert!(kept[0].wildcard);
    }

    #[test]
    fn readvertise_prunes_stale_generations() {
        // Client "client-0" starts in domain 0, then moves to domain 2
        // and re-registers (higher generation). Broker 1 now holds the
        // stale generation behind interface 0 and the fresh one behind
        // interface 2: nothing per-interface ever replaces the stale
        // entry, so until readvertise() prunes it, traffic for the
        // mover keeps flowing toward its former domain.
        let mut net = Network::new(15);
        let (mut overlay, _eps) = chain(&mut net, &["image", "none", "none"]);
        let moved = interested_profile("client-0", "image");
        overlay.register_local(&mut net, 2, &moved);
        overlay.settle(&mut net);

        let stale_gen = |ov: &Overlay| {
            ov.brokers[1]
                .remote_ads
                .get(&0)
                .map(|ads| ads.iter().filter(|a| a.origin == "client-0").count())
                .unwrap_or(0)
        };
        let fresh_gen = |ov: &Overlay| {
            ov.brokers[1]
                .remote_ads
                .get(&2)
                .map(|ads| ads.iter().filter(|a| a.origin == "client-0").count())
                .unwrap_or(0)
        };
        assert_eq!(stale_gen(&overlay), 1, "stale entry present before fix");
        assert_eq!(fresh_gen(&overlay), 1);
        let table_before = overlay.stats(1).table_size();

        overlay.readvertise(&mut net);
        overlay.settle(&mut net);

        assert_eq!(stale_gen(&overlay), 0, "stale generation pruned");
        assert_eq!(fresh_gen(&overlay), 1, "latest generation kept");
        assert!(overlay.stats(1).table_size() < table_before);
        // Broker 0's own local registration of the mover is stale too.
        assert!(
            overlay.brokers[0]
                .local_ads
                .iter()
                .all(|a| a.origin != "client-0"),
            "stale local registration pruned at the former home broker"
        );
    }

    #[test]
    fn custody_stores_and_drains_across_link_flap() {
        let mut net = Network::new(16);
        let mut overlay = Overlay::new();
        overlay.enable_custody(dtn::StoreConfig::default());
        let (ov, mut eps) = {
            // chain() builds its own overlay; inline the same shape
            // with custody enabled from the start.
            for i in 0..2 {
                overlay.add_broker(&mut net, &format!("broker-{i}"));
            }
            overlay.connect(&mut net, 0, 1, LinkSpec::lan());
            let mut endpoints = Vec::new();
            for (i, topic) in ["none", "image"].iter().enumerate() {
                let host = net.add_node(&format!("host-{i}"));
                net.connect(host, overlay.node(i), LinkSpec::lan());
                let profile = interested_profile(&format!("client-{i}"), topic);
                overlay.register_local(&mut net, i, &profile);
                endpoints.push(
                    BusEndpoint::join(
                        &mut net,
                        host,
                        well_known::SESSION_DATA,
                        overlay.group(i),
                        profile,
                    )
                    .unwrap(),
                );
            }
            overlay.settle(&mut net);
            (&mut overlay, endpoints)
        };
        let link = ov.link_between(0, 1).unwrap();
        net.topology_mut().set_link_up(link, false);
        for body in 0..3u8 {
            eps[0]
                .publish(
                    &mut net,
                    "image-share",
                    "interested_in contains 'image'",
                    image_content(),
                    vec![body],
                )
                .unwrap();
        }
        ov.pump(&mut net, Ticks::from_millis(100));
        assert!(eps[1].poll(&mut net).is_empty(), "partitioned");
        let stats = ov.store_stats(0).unwrap();
        assert_eq!(stats.stored_bundles(), 3, "custody taken at the edge");
        assert!(stats.stored_bytes() > 0);

        net.topology_mut().set_link_up(link, true);
        ov.pump(&mut net, Ticks::from_millis(200));
        let got = eps[1].poll(&mut net);
        assert_eq!(got.len(), 3, "every stored message delivered");
        let bodies: Vec<u8> = got.iter().map(|a| a.message.body()[0]).collect();
        assert_eq!(bodies, vec![0, 1, 2], "source-sequence order");
        assert_eq!(stats.stored_bundles(), 0, "custody released");
        assert_eq!(stats.custody_transfers(), 3);

        // Republish after heal: the normal path, nothing re-stored.
        eps[0]
            .publish(
                &mut net,
                "image-share",
                "interested_in contains 'image'",
                image_content(),
                vec![9],
            )
            .unwrap();
        ov.pump(&mut net, Ticks::from_millis(100));
        assert_eq!(eps[1].poll(&mut net).len(), 1);
        assert_eq!(stats.stored_bundles(), 0);
    }

    /// One forwarding decision: a message reaching a broker as a data
    /// datagram and as a custody bundle, from the same neighbor, goes
    /// to the same places and moves the same counters.
    #[test]
    fn datagram_and_bundle_arrivals_forward_identically() {
        // Star around broker 1: neighbor 0 is the arrival side, 2
        // wants images, 3 wants text, 4 wants images but is cut off.
        let observe = |as_bundle: bool| {
            let mut net = Network::new(21);
            let mut ov = Overlay::new();
            ov.enable_custody(dtn::StoreConfig::default());
            let topics = ["none", "image", "image", "text", "image"];
            for i in 0..topics.len() {
                ov.add_broker(&mut net, &format!("broker-{i}"));
            }
            for k in [0, 2, 3, 4] {
                ov.connect(&mut net, 1, k, LinkSpec::lan());
            }
            for (i, topic) in topics.iter().enumerate() {
                let profile = interested_profile(&format!("client-{i}"), topic);
                ov.register_local(&mut net, i, &profile);
            }
            let host = net.add_node("host-1");
            net.connect(host, ov.node(1), LinkSpec::lan());
            let mut local = BusEndpoint::join(
                &mut net,
                host,
                well_known::SESSION_DATA,
                ov.group(1),
                interested_profile("client-1", "image"),
            )
            .unwrap();
            ov.settle(&mut net);
            let cut = ov.link_between(1, 4).unwrap();
            net.topology_mut().set_link_up(cut, false);

            for (seq, topic) in [(1, "image"), (2, "text")] {
                let payload = SemanticMessage {
                    sender: "client-0".to_string(),
                    kind: "image-share".to_string(),
                    selector: format!("interested_in contains '{topic}'"),
                    seq,
                    content: image_content(),
                    body: vec![seq as u8],
                }
                .encode();
                let (socket, port, wire) = if as_bundle {
                    let bundle = Bundle {
                        source: "client-0".to_string(),
                        seq,
                        src_domain: 0,
                        dst_domain: 1,
                        created_at: net.now(),
                        lifetime: Ticks::from_millis(60_000),
                        custody: true,
                        payload,
                    };
                    (
                        ov.brokers[0].ctrl,
                        well_known::SESSION_CTRL,
                        bundle.encode(),
                    )
                } else {
                    (ov.brokers[0].data, well_known::SESSION_DATA, payload)
                };
                net.send(socket, Addr::unicast(ov.node(1), port), wire)
                    .unwrap();
            }
            net.run_for(Ticks::from_millis(10));
            ov.process(&mut net, 1);
            net.run_for(Ticks::from_millis(10));

            let mut arrived = Vec::new();
            for k in [2, 3, 4] {
                while let Some(d) = net.recv(ov.brokers[k].data) {
                    arrived.push((k, d.payload.to_vec()));
                }
            }
            let local: Vec<u64> = local
                .poll(&mut net)
                .iter()
                .map(|a| a.message.seq())
                .collect();
            let stats = ov.stats(1);
            (
                arrived,
                local,
                stats.forwarded(),
                stats.suppressed(),
                stats.local_suppressed(),
                ov.store_stats(1).unwrap().stored_bundles(),
            )
        };
        let datagram = observe(false);
        assert_eq!(datagram, observe(true));
        // Image: local group + broker 2 now, broker 4 into custody,
        // broker 3 suppressed. Text: broker 3 only.
        let (arrived, local, forwarded, suppressed, local_suppressed, stored) = datagram;
        assert_eq!(arrived.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(local, [1]);
        assert_eq!(
            (forwarded, suppressed, local_suppressed, stored),
            (3, 4, 1, 1)
        );
    }

    #[test]
    fn reregistration_updates_routing() {
        let mut net = Network::new(14);
        let (mut overlay, mut eps) = chain(&mut net, &["none", "text"]);
        eps[0]
            .publish(
                &mut net,
                "image-share",
                "interested_in contains 'image'",
                image_content(),
                vec![1],
            )
            .unwrap();
        overlay.pump(&mut net, Ticks::from_millis(200));
        assert!(eps[1].poll(&mut net).is_empty());

        // The text client re-registers with an image interest profile.
        let profile = interested_profile("client-1", "image");
        eps[1].profile = profile.clone();
        overlay.register_local(&mut net, 1, &profile);
        overlay.settle(&mut net);
        eps[0]
            .publish(
                &mut net,
                "image-share",
                "interested_in contains 'image'",
                image_content(),
                vec![2],
            )
            .unwrap();
        overlay.pump(&mut net, Ticks::from_millis(200));
        let got = eps[1].poll(&mut net);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].message.body(), [2]);
    }
}
