//! The semantic event bus: profiles + selectors over a `simnet`
//! multicast group.
//!
//! Each collaborating client holds a [`BusEndpoint`]: a socket joined
//! to the session's multicast group plus the client's local
//! [`Profile`]. Publishing multicasts a [`SemanticMessage`](crate::SemanticMessage) to the
//! whole group; *reception is decided locally*, each datagram as it
//! comes off the socket, by interpreting the selector against the
//! profile (and the content description against the interest), so
//! "the group of interacting clients is determined only at run-time"
//! with no roster synchronization (§3).

use crate::compile::{
    self, CacheStatsHandle, CompiledSelector, EvalStack, ProfileSnap, SelectorStore,
    DEFAULT_CACHE_CAPACITY,
};
use crate::matching::MatchOutcome;
use crate::message::{self, EventBody, WireMessage};
use crate::profile::Profile;
use crate::value::AttrValue;
use crate::SemError;
use simnet::{Addr, Datagram, GroupId, Network, NodeId, Payload, Port, SocketHandle};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// A message that passed local semantic interpretation.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The received message, shared with every other endpoint that
    /// accepted the same frame.
    pub message: Arc<WireMessage>,
    /// How it was accepted (directly or via transforms).
    pub outcome: MatchOutcome,
}

/// What one message buffer resolves to before any profile is
/// consulted: the two immutable things a message carries — the message
/// itself, one checked copy of its wire bytes ([`WireMessage`]), and
/// its compiled selector — or the reason there is neither. Nothing in a
/// frame depends on who receives it, so one frame serves every party a
/// buffer reaches — endpoints, brokers and the gateway alike: it rides
/// the buffer's memo slot and each of them reads it there in place
/// ([`Frame::read`]), so nothing of a message is decoded, copied or
/// even reference-counted per receiver, and its content description is
/// built once, by the first party whose interest reads it.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Checked, selector compiled.
    Message {
        /// The message.
        message: Arc<WireMessage>,
        /// Its selector's program, from the resolving store.
        program: Arc<CompiledSelector>,
    },
    /// The bytes are not a semantic message.
    Malformed,
    /// The message is well formed, but its selector does not parse.
    BadSelector {
        /// The message: a broker still needs its `(sender, seq)` to
        /// forward it conservatively, exactly once.
        message: Arc<WireMessage>,
    },
}

/// What rides a buffer's memo slot: the frame, and the store whose
/// interner its program was compiled against.
struct Resolved {
    store: SelectorStore,
    frame: Frame,
}

impl Frame {
    /// Read `bytes` ([`WireMessage::decode`]) and compile the selector
    /// through `store`.
    pub fn resolve(bytes: &[u8], store: &SelectorStore) -> Frame {
        let Ok(message) = WireMessage::decode(bytes) else {
            return Frame::Malformed;
        };
        let message = Arc::new(message);
        match store.compile(message.selector()) {
            Ok(program) => Frame::Message { message, program },
            Err(_) => Frame::BadSelector { message },
        }
    }

    /// The frame of `payload`'s buffer for a receiver compiling through
    /// `store`. The first look resolves it and leaves it on the buffer;
    /// every later receiver holding the *same* store borrows that one —
    /// one read and one store lookup per buffer, however many parties
    /// and pumps its copies are spread over, and nothing to sweep: the
    /// frame dies with the buffer's last copy. A program's symbols mean
    /// something only against the interner of the store that compiled
    /// it, so a receiver holding another store (or finding the slot
    /// taken by something that is not a frame) resolves privately.
    pub fn read<'a>(payload: &'a Payload, store: &SelectorStore) -> Cow<'a, Frame> {
        let memo = payload.memo_or_init(|| Resolved {
            store: store.clone(),
            frame: Frame::resolve(payload, store),
        });
        match memo {
            Some(memo) if memo.store.ptr_eq(store) => Cow::Borrowed(&memo.frame),
            _ => Cow::Owned(Frame::resolve(payload, store)),
        }
    }
}

/// Statistics of one endpoint's interpretation history.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BusStats {
    /// Messages published by this endpoint.
    pub published: u64,
    /// Messages accepted as-is.
    pub accepted: u64,
    /// Messages accepted after transformation.
    pub transformed: u64,
    /// Messages rejected by semantic interpretation.
    pub rejected: u64,
    /// Datagrams that failed to decode.
    pub malformed: u64,
    /// Payloads that decoded fine but carried a selector that does not
    /// parse. Distinct from `malformed` (an undecodable datagram points
    /// at transport corruption; a bad selector points at a buggy or
    /// hostile *sender*), so operators can tell the failure modes apart.
    pub bad_selector: u64,
    /// Messages that existed in the session but were never delivered
    /// to this endpoint — routed away by a broker overlay before the
    /// endpoint had to decode or interpret them. Distinct from
    /// `rejected`, which counts interpretations this endpoint ran.
    /// Credited externally via [`BusEndpoint::note_suppressed`].
    pub suppressed: u64,
}

/// One client's attachment to the semantic bus.
///
/// An endpoint holds only what the paper says is local: the client's
/// [`Profile`], its compiled interest, an evaluation stack and its
/// [`BusStats`]. The immutable things a message carries — its wire
/// bytes, its compiled selector — arrive as a [`Frame`] and are shared
/// with every other receiver; programs come from a [`SelectorStore`]
/// the endpoint holds a handle to (the session's, or one of its own
/// when it joined alone). So does the snapshot of the profile's
/// attributes: their *class*, shared with every endpoint of the store
/// holding the same attributes, for which each program remembers its
/// verdict. The per-message hot path ([`BusEndpoint::receive`], which
/// hands each buffer to [`BusEndpoint::decide`] as it comes off the
/// socket) therefore never parses, never walks the profile's
/// `BTreeMap`, evaluates a selector once per class rather than once per
/// receiver, and allocates nothing: each accepted message is handed to
/// the caller in place. The publish path validates
/// selectors through the same store, warming it for loopback traffic.
pub struct BusEndpoint {
    socket: SocketHandle,
    group: GroupId,
    port: Port,
    /// The client's local, self-managed profile.
    pub profile: Profile,
    seq: u64,
    stats: BusStats,
    store: SelectorStore,
    snap: ProfileSnap,
    stack: EvalStack,
}

impl BusEndpoint {
    /// Join the session: bind `node:port` and join `group`. The
    /// endpoint compiles through a selector store of its own.
    pub fn join(
        net: &mut Network,
        node: NodeId,
        port: Port,
        group: GroupId,
        profile: Profile,
    ) -> Result<Self, SemError> {
        let store = SelectorStore::with_capacity(DEFAULT_CACHE_CAPACITY);
        BusEndpoint::join_with_store(net, node, port, group, profile, store)
    }

    /// [`BusEndpoint::join`], compiling through `store` — shared with
    /// whoever else holds a handle to it.
    pub fn join_with_store(
        net: &mut Network,
        node: NodeId,
        port: Port,
        group: GroupId,
        profile: Profile,
        store: SelectorStore,
    ) -> Result<Self, SemError> {
        let socket = net
            .bind(node, port)
            .map_err(|e| SemError::Transport(e.to_string()))?;
        net.join(socket, group)
            .map_err(|e| SemError::Transport(e.to_string()))?;
        Ok(BusEndpoint {
            socket,
            group,
            port,
            snap: store.snapshot(&profile),
            profile,
            seq: 0,
            stats: BusStats::default(),
            store,
            stack: EvalStack::default(),
        })
    }

    /// Leave the session and release the socket.
    pub fn leave(&mut self, net: &mut Network) {
        let _ = net.leave(self.socket, self.group);
        net.close(self.socket);
    }

    /// The underlying socket (for wiring diagnostics).
    pub fn socket(&self) -> SocketHandle {
        self.socket
    }

    /// Interpretation statistics.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Live counters (hits / misses / evictions) of the selector store
    /// this endpoint compiles through, shareable with an SNMP extension
    /// agent. Endpoints sharing a store share the counters.
    pub fn cache_stats(&self) -> CacheStatsHandle {
        self.store.stats()
    }

    /// Credit `n` messages as suppressed: present in the session but
    /// routed away before reaching this endpoint. Called by the broker
    /// layer (which is the only component that knows), so flat and
    /// brokered runs stay comparable: flat `rejected` ≈ brokered
    /// `rejected + suppressed` for the same traffic.
    pub fn note_suppressed(&mut self, n: u64) {
        self.stats.suppressed += n;
    }

    /// Publish an event to the session: the one-event case of
    /// [`BusEndpoint::publish_batch`].
    ///
    /// `selector` names the receiving profiles; `content` describes the
    /// payload; `body` is the payload itself.
    pub fn publish(
        &mut self,
        net: &mut Network,
        kind: &str,
        selector: &str,
        content: BTreeMap<String, AttrValue>,
        body: Vec<u8>,
    ) -> Result<u64, SemError> {
        let seqs = self.publish_batch(net, selector, &content, [(kind, body)])?;
        Ok(seqs.start)
    }

    /// Publish several events in one network batch: each event becomes
    /// its own sequenced [`SemanticMessage`](crate::SemanticMessage) frame, its body written
    /// straight into the frame ([`EventBody`]) in a buffer from
    /// [`Network::buffer`], and the network
    /// resolves multicast membership and routes once for the whole
    /// batch instead of per message. Returns the assigned sequence
    /// numbers.
    ///
    /// A selector that does not parse, or a field too long for the
    /// frame format ([`SemError::Codec`]), fails the call before
    /// anything is sent or numbered.
    pub fn publish_batch<E: EventBody>(
        &mut self,
        net: &mut Network,
        selector: &str,
        content: &BTreeMap<String, AttrValue>,
        events: impl IntoIterator<Item = E>,
    ) -> Result<Range<u64>, SemError> {
        // Validate the selector locally before it hits the wire; the
        // compiled program lands in the store, so a subsequent
        // interpret of our own (or an identical) selector is a hit.
        self.store.compile(selector)?;
        let first = self.seq;
        let name = &self.profile.name;
        let wires =
            message::encode_frames(name, selector, content, first, || net.buffer(), events)?;
        let n = wires.len() as u64;
        self.seq += n;
        net.send_batch(self.socket, Addr::multicast(self.group, self.port), wires)
            .map_err(|e| SemError::Transport(e.to_string()))?;
        self.stats.published += n;
        Ok(first..self.seq)
    }

    /// Drain arrived datagram payloads without decoding them.
    pub fn drain_raw(&mut self, net: &mut Network) -> Vec<Payload> {
        let mut out = Vec::new();
        while let Some(dgram) = net.recv(self.socket) {
            out.push(dgram.payload);
        }
        out
    }

    /// Re-snapshot the profile if it changed since the last snapshot
    /// (the `pub profile` field is self-managed, so the bus finds out
    /// by comparing versions — O(1) when nothing changed, O(profile)
    /// and zero recompiles when something did).
    fn sync_profile(&mut self) {
        if !self.snap.is_fresh(&self.profile) {
            self.snap = self.store.snapshot(&self.profile);
        }
    }

    /// Reception: bring the profile snapshot up to date, then hand each
    /// datagram, as it comes off the socket, to `handle` with this
    /// endpoint — to decide its payload ([`BusEndpoint::decide`]) or,
    /// at a gateway, to read it for profiles not its own (§4.2); the
    /// datagram's arrival metadata (its ECN mark) rides along — and
    /// give the buffer back to the network ([`Network::recycle`])
    /// before taking the next.
    pub fn receive(&mut self, net: &mut Network, mut handle: impl FnMut(&mut Self, &Datagram)) {
        self.sync_profile();
        while let Some(dgram) = net.recv(self.socket) {
            handle(self, &dgram);
            net.recycle(dgram.payload);
        }
    }

    /// The frame of a received buffer, as this endpoint reads it:
    /// borrowed from the buffer's memo when this endpoint's store left
    /// it there, resolved privately otherwise.
    pub fn read<'a>(&self, payload: &'a Payload) -> Cow<'a, Frame> {
        Frame::read(payload, &self.store)
    }

    /// Interpret a received buffer's frame ([`BusEndpoint::read`]: one
    /// memo lookup) against the local profile and, if it is accepted,
    /// hand the message, with how it was accepted, to `accept` in place
    /// — the frame's own, shared with every other receiver and borrowed
    /// for the call only. This is the one decision path: every reception
    /// is counted in this endpoint's [`BusStats`], outcomes are
    /// bit-identical to the tree-walk interpreter (`tests/matching.rs`),
    /// and a frame costs one read of its program's verdict for this
    /// profile's class — the program runs for the first receiver of each
    /// class only — with no parsing, no `BTreeMap` walk, no allocation
    /// and no reference count touched. An interest reads the message's
    /// content description, which its first reader builds for all
    /// ([`WireMessage::content`]).
    pub fn decide(
        &mut self,
        payload: &Payload,
        mut accept: impl FnMut(&Arc<WireMessage>, MatchOutcome),
    ) {
        self.sync_profile();
        self.decide_frame(&Frame::read(payload, &self.store), &mut accept);
    }

    /// [`BusEndpoint::decide`] for one frame, the profile snapshot
    /// already up to date.
    fn decide_frame(
        &mut self,
        frame: &Frame,
        accept: &mut impl FnMut(&Arc<WireMessage>, MatchOutcome),
    ) {
        let (message, program) = match frame {
            Frame::Message { message, program } => (message, program),
            Frame::Malformed => {
                self.stats.malformed += 1;
                return;
            }
            Frame::BadSelector { .. } => {
                self.stats.bad_selector += 1;
                return;
            }
        };
        let outcome = match compile::interpret_compiled(
            &self.profile,
            &self.snap,
            program,
            || message.content(),
            &mut self.stack,
        ) {
            Ok(MatchOutcome::Reject) | Err(_) => {
                self.stats.rejected += 1;
                return;
            }
            Ok(outcome) => outcome,
        };
        match outcome {
            MatchOutcome::AcceptWithTransform(_) => self.stats.transformed += 1,
            _ => self.stats.accepted += 1,
        }
        accept(message, outcome);
    }

    /// [`BusEndpoint::decide`] on frames already read, collected: the
    /// accepted messages, each sharing its frame's message.
    pub fn interpret_frames(&mut self, frames: &[Frame]) -> Vec<Delivery> {
        self.sync_profile();
        let mut out = Vec::new();
        for frame in frames {
            self.decide_frame(frame, &mut collect_into(&mut out));
        }
        out
    }

    /// Decode and interpret previously drained payloads against the
    /// local profile; returns only accepted messages. The raw-bytes
    /// face of [`BusEndpoint::interpret_frames`]: each payload is
    /// resolved privately (plain bytes have no buffer to carry a
    /// frame), then decided by the same function.
    pub fn interpret_batch<P: AsRef<[u8]>>(&mut self, payloads: Vec<P>) -> Vec<Delivery> {
        let frames: Vec<Frame> = payloads
            .iter()
            .map(|p| Frame::resolve(p.as_ref(), &self.store))
            .collect();
        self.interpret_frames(&frames)
    }

    /// Drain arrived datagrams, interpreting each against the local
    /// profile as it comes off the socket; returns only accepted
    /// messages.
    pub fn poll(&mut self, net: &mut Network) -> Vec<Delivery> {
        let mut accepted = Vec::new();
        self.receive(net, |ep, dgram| {
            ep.decide(&dgram.payload, collect_into(&mut accepted))
        });
        accepted
    }
}

/// A [`BusEndpoint::decide`] closure collecting each accepted message
/// into `out`, sharing its frame's message.
fn collect_into(out: &mut Vec<Delivery>) -> impl FnMut(&Arc<WireMessage>, MatchOutcome) + '_ {
    |message, outcome| {
        out.push(Delivery {
            message: Arc::clone(message),
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SemanticMessage;
    use crate::profile::TransformCap;
    use simnet::{LinkSpec, Ticks};

    const SESSION_PORT: Port = Port(5004);

    fn content_image() -> BTreeMap<String, AttrValue> {
        [
            ("media", AttrValue::str("image")),
            ("encoding", AttrValue::str("mpeg2")),
            ("color", AttrValue::Bool(true)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    fn world(n: usize) -> (Network, GroupId, Vec<NodeId>) {
        let mut net = Network::new(7);
        let names: Vec<String> = (0..n).map(|i| format!("h{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let (_sw, hosts) = net.lan(&name_refs, LinkSpec::lan());
        let group = net.new_group();
        (net, group, hosts)
    }

    #[test]
    fn selector_routes_by_profile_not_name() {
        let (mut net, group, hosts) = world(3);
        let mut pub_p = Profile::new("publisher");
        pub_p.set("interested_in", AttrValue::List(vec![]));
        let mut wants_images = Profile::new("viewer");
        wants_images.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image")]),
        );
        let mut text_only = Profile::new("texter");
        text_only.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("text")]),
        );

        let mut publisher =
            BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, pub_p).unwrap();
        let mut viewer =
            BusEndpoint::join(&mut net, hosts[1], SESSION_PORT, group, wants_images).unwrap();
        let mut texter =
            BusEndpoint::join(&mut net, hosts[2], SESSION_PORT, group, text_only).unwrap();

        publisher
            .publish(
                &mut net,
                "image-share",
                "interested_in contains 'image'",
                content_image(),
                vec![1, 2, 3],
            )
            .unwrap();
        net.run_for(Ticks::from_millis(10));

        let v = viewer.poll(&mut net);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].message.kind(), "image-share");
        assert_eq!(v[0].outcome, MatchOutcome::Accept);
        assert!(texter.poll(&mut net).is_empty());
        assert_eq!(texter.stats().rejected, 1);
    }

    #[test]
    fn transform_capable_client_accepts_with_transform() {
        let (mut net, group, hosts) = world(2);
        let mut pub_p = Profile::new("pub");
        pub_p.set("interested_in", AttrValue::List(vec![]));
        let mut jpeg_client = Profile::new("jpeg-client");
        jpeg_client.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image")]),
        );
        jpeg_client.set_interest("encoding == 'jpeg'").unwrap();
        jpeg_client.add_transform(TransformCap::new("encoding", "mpeg2", "jpeg"));

        let mut publisher =
            BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, pub_p).unwrap();
        let mut client =
            BusEndpoint::join(&mut net, hosts[1], SESSION_PORT, group, jpeg_client).unwrap();

        publisher
            .publish(
                &mut net,
                "image-share",
                "interested_in contains 'image'",
                content_image(),
                vec![],
            )
            .unwrap();
        net.run_for(Ticks::from_millis(10));
        let got = client.poll(&mut net);
        assert_eq!(got.len(), 1);
        assert!(matches!(
            got[0].outcome,
            MatchOutcome::AcceptWithTransform(_)
        ));
        assert_eq!(client.stats().transformed, 1);
    }

    #[test]
    fn profile_update_redirects_traffic() {
        // User B goes into text-mode (the §2 scenario): after the
        // profile change the same selector no longer reaches them.
        let (mut net, group, hosts) = world(2);
        let mut pub_p = Profile::new("pub");
        pub_p.set("interested_in", AttrValue::List(vec![]));
        let mut b = Profile::new("user-b");
        b.set("mode", AttrValue::str("image"));
        let mut publisher =
            BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, pub_p).unwrap();
        let mut user_b = BusEndpoint::join(&mut net, hosts[1], SESSION_PORT, group, b).unwrap();

        publisher
            .publish(
                &mut net,
                "image-share",
                "mode == 'image'",
                content_image(),
                vec![],
            )
            .unwrap();
        net.run_for(Ticks::from_millis(10));
        assert_eq!(user_b.poll(&mut net).len(), 1);

        // B switches to text mode locally — no roster update anywhere.
        user_b.profile.set("mode", AttrValue::str("text"));
        publisher
            .publish(
                &mut net,
                "image-share",
                "mode == 'image'",
                content_image(),
                vec![],
            )
            .unwrap();
        publisher
            .publish(
                &mut net,
                "text-share",
                "mode == 'text'",
                BTreeMap::new(),
                b"description".to_vec(),
            )
            .unwrap();
        net.run_for(Ticks::from_millis(10));
        let got = user_b.poll(&mut net);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].message.kind(), "text-share");
    }

    #[test]
    fn receive_bypasses_interpretation() {
        let (mut net, group, hosts) = world(2);
        let mut publisher =
            BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, Profile::new("pub"))
                .unwrap();
        // Gateway whose own profile matches nothing.
        let mut gateway =
            BusEndpoint::join(&mut net, hosts[1], SESSION_PORT, group, Profile::new("gw")).unwrap();
        publisher
            .publish(
                &mut net,
                "image-share",
                "interested_in contains 'image'",
                content_image(),
                vec![7],
            )
            .unwrap();
        net.run_for(Ticks::from_millis(10));
        let mut bodies = Vec::new();
        gateway.receive(&mut net, |gateway, dgram| {
            let frame = gateway.read(&dgram.payload);
            let Frame::Message { message, .. } = &*frame else {
                panic!("a valid message resolves to {frame:?}");
            };
            bodies.push(message.body().to_vec());
        });
        assert_eq!(bodies, [[7]], "gateway sees everything");
        assert_eq!(gateway.stats(), BusStats::default(), "nothing decided");
    }

    /// `receive` gives each buffer back, so the next publish writes
    /// into it: the frame read from the reused buffer is the new
    /// message's, never the one the buffer's memo held before.
    #[test]
    fn a_reused_buffer_resolves_its_new_message() {
        let (mut net, group, hosts) = world(2);
        let mut publisher =
            BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, Profile::new("pub"))
                .unwrap();
        let mut reader =
            BusEndpoint::join(&mut net, hosts[1], SESSION_PORT, group, Profile::new("rd")).unwrap();
        let mut bodies = Vec::new();
        for body in [b"first".to_vec(), b"second".to_vec()] {
            publisher
                .publish(&mut net, "chat", "true", BTreeMap::new(), body)
                .unwrap();
            net.run_for(Ticks::from_millis(10));
            reader.receive(&mut net, |reader, dgram| {
                match &*reader.read(&dgram.payload) {
                    Frame::Message { message, .. } => bodies.push(message.body().to_vec()),
                    other => panic!("a valid message resolves to {other:?}"),
                }
            });
        }
        assert_eq!(bodies, [&b"first"[..], &b"second"[..]]);
        assert!(
            net.buffer().as_mut().is_empty(),
            "the second buffer came back too"
        );
    }

    #[test]
    fn bad_selector_rejected_at_publish() {
        let (mut net, group, hosts) = world(1);
        let mut publisher =
            BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, Profile::new("p")).unwrap();
        let err = publisher.publish(&mut net, "x", "mode ==", BTreeMap::new(), vec![]);
        assert!(err.is_err());
        assert_eq!(publisher.stats().published, 0);
    }

    #[test]
    fn publish_batch_wire_bytes_match_per_message_encoding() {
        // The prefix-splicing fast path must emit byte-identical frames
        // to encoding a full `SemanticMessage` per event.
        let (mut net, group, hosts) = world(2);
        let mut publisher =
            BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, Profile::new("pub"))
                .unwrap();
        let mut gateway =
            BusEndpoint::join(&mut net, hosts[1], SESSION_PORT, group, Profile::new("gw")).unwrap();
        let events = vec![
            ("image-share".to_string(), vec![1, 2, 3]),
            ("chat".to_string(), vec![]),
            ("whiteboard-stroke".to_string(), vec![0xFF; 32]),
        ];
        let seqs = publisher
            .publish_batch(
                &mut net,
                "interested_in contains 'image'",
                &content_image(),
                events.clone(),
            )
            .unwrap();
        net.run_for(Ticks::from_millis(10));
        let raw = gateway.drain_raw(&mut net);
        assert_eq!(raw.len(), events.len());
        for (i, payload) in raw.iter().enumerate() {
            let expected = SemanticMessage {
                sender: "pub".to_string(),
                kind: events[i].0.clone(),
                selector: "interested_in contains 'image'".to_string(),
                seq: seqs.start + i as u64,
                content: content_image(),
                body: events[i].1.clone(),
            }
            .encode();
            assert_eq!(payload, &expected, "frame {i} diverged from codec");
        }
        // Golden fixture: the first frame's header bytes, spelled out,
        // so a codec/layout change cannot slip through unnoticed.
        let golden_head: Vec<u8> = [
            b"SEM1".as_slice(), // magic
            &[0x00, 0x03],
            b"pub", // sender (str16)
            &[0x00, 0x0B],
            b"image-share", // kind (str16)
            &[0x00, 0x1E],
            b"interested_in contains 'image'", // selector
            &[0, 0, 0, 0, 0, 0, 0, 0],         // seq 0 (u64 BE)
            &[0x00, 0x03],                     // 3 content attributes
        ]
        .concat();
        assert_eq!(&raw[0][..golden_head.len()], &golden_head[..]);

        // `publish` and a one-event `publish_batch` put the same bytes
        // on the wire as the codec does for the same fields.
        let (kind, body) = events[2].clone();
        let single = publisher
            .publish(
                &mut net,
                &kind,
                "interested_in contains 'image'",
                content_image(),
                body.clone(),
            )
            .unwrap();
        let batched = publisher
            .publish_batch(
                &mut net,
                "interested_in contains 'image'",
                &content_image(),
                [(kind.clone(), body.clone())],
            )
            .unwrap();
        assert_eq!(
            (single, batched.clone()),
            (3, 4..5),
            "seqs continue the batch"
        );
        net.run_for(Ticks::from_millis(10));
        let raw = gateway.drain_raw(&mut net);
        assert_eq!(raw.len(), 2);
        for (payload, seq) in raw.iter().zip([single, batched.start]) {
            let expected = SemanticMessage {
                sender: "pub".to_string(),
                kind: kind.clone(),
                selector: "interested_in contains 'image'".to_string(),
                seq,
                content: content_image(),
                body: body.clone(),
            }
            .encode();
            assert_eq!(payload, &expected, "seq {seq} diverged from codec");
        }
        assert_eq!(publisher.stats().published, 5);
    }

    /// One more byte (or entry) than a `u16` length prefix can carry.
    const TOO_LONG: usize = u16::MAX as usize + 1;

    /// Publishing with an over-long field — alone and inside a batch —
    /// must fail as a codec error: nothing sent, nothing numbered,
    /// nothing counted, and the endpoint still usable afterwards.
    fn assert_codec_error(
        sender: &str,
        kind: &str,
        selector: &str,
        content: BTreeMap<String, AttrValue>,
    ) {
        let (mut net, group, hosts) = world(1);
        let mut publisher = BusEndpoint::join(
            &mut net,
            hosts[0],
            SESSION_PORT,
            group,
            Profile::new(sender),
        )
        .unwrap();
        let single = publisher.publish(&mut net, kind, selector, content.clone(), vec![1]);
        assert!(matches!(single, Err(SemError::Codec(_))), "{single:?}");
        let events = vec![("chat".to_string(), vec![]), (kind.to_string(), vec![1])];
        let batch = publisher.publish_batch(&mut net, selector, &content, events);
        assert!(matches!(batch, Err(SemError::Codec(_))), "{batch:?}");
        assert_eq!(net.stats().sent, 0);
        assert_eq!(publisher.stats().published, 0);
        publisher.profile.name.truncate(3);
        let next = publisher.publish(&mut net, "chat", "true", BTreeMap::new(), vec![]);
        assert_eq!(next, Ok(0), "no sequence number was consumed");
    }

    #[test]
    fn oversized_selector_is_a_codec_error() {
        let selector = format!("topic == '{}'", "x".repeat(TOO_LONG));
        assert_codec_error("pub", "chat", &selector, BTreeMap::new());
    }

    #[test]
    fn oversized_kind_is_a_codec_error() {
        assert_codec_error("pub", &"k".repeat(TOO_LONG), "true", BTreeMap::new());
    }

    #[test]
    fn oversized_sender_name_is_a_codec_error() {
        assert_codec_error(&"n".repeat(TOO_LONG), "chat", "true", BTreeMap::new());
    }

    #[test]
    fn oversized_content_key_is_a_codec_error() {
        let content = [("k".repeat(TOO_LONG), AttrValue::Int(1))].into();
        assert_codec_error("pub", "chat", "true", content);
    }

    #[test]
    fn too_many_content_entries_is_a_codec_error() {
        let content = (0..TOO_LONG)
            .map(|i| (format!("k{i:05}"), AttrValue::Bool(true)))
            .collect();
        assert_codec_error("pub", "chat", "true", content);
    }

    #[test]
    fn oversized_list_value_is_a_codec_error() {
        let list = AttrValue::List(vec![AttrValue::Bool(true); TOO_LONG]);
        assert_codec_error("pub", "chat", "true", [("l".to_string(), list)].into());
    }

    #[test]
    fn unparsable_selector_counts_as_bad_selector_not_malformed() {
        let (mut net, group, hosts) = world(1);
        let mut sub =
            BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, Profile::new("s")).unwrap();
        // Decodes fine, but the selector does not parse.
        let msg = SemanticMessage {
            sender: "evil".to_string(),
            kind: "x".to_string(),
            selector: "mode ==".to_string(),
            seq: 0,
            content: BTreeMap::new(),
            body: vec![],
        };
        // An undecodable datagram, for contrast.
        let got = sub.interpret_batch(vec![msg.encode(), b"garbage".to_vec()]);
        assert!(got.is_empty());
        assert_eq!(sub.stats().bad_selector, 1);
        assert_eq!(sub.stats().malformed, 1);
        assert_eq!(sub.stats().rejected, 0);
    }

    /// A selector of 10 000 nested groups and a content value of 20 000
    /// nested lists, each one datagram from a hostile peer, on a thread
    /// with the 2 MB stack every test thread gets: each
    /// is refused and counted once, and the endpoint goes on delivering.
    #[test]
    fn hostile_nesting_is_counted_not_fatal() {
        let run = || {
            let (mut net, group, hosts) = world(2);
            let mut publisher =
                BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, Profile::new("pub"))
                    .unwrap();
            let mut sub =
                BusEndpoint::join(&mut net, hosts[1], SESSION_PORT, group, Profile::new("sub"))
                    .unwrap();
            let hostile = net.bind(hosts[0], Port(6666)).unwrap();
            let mut bomb = SemanticMessage {
                sender: "evil".to_string(),
                kind: "x".to_string(),
                selector: format!("{}true{}", "(".repeat(10_000), ")".repeat(10_000)),
                seq: 0,
                content: BTreeMap::new(),
                body: vec![],
            };
            let selector_bomb = bomb.encode();
            // An empty list value, then 20 000 one-item list headers
            // spliced in front of it: nothing an encoder would write.
            bomb.selector = "true".to_string();
            bomb.content
                .insert("l".to_string(), AttrValue::List(vec![]));
            let mut list_bomb = bomb.encode();
            let at = list_bomb.len() - 4 - 3;
            list_bomb.splice(at..at, [4, 0, 1].repeat(20_000));
            for wire in [selector_bomb, list_bomb] {
                net.send(hostile, Addr::unicast(hosts[1], SESSION_PORT), wire)
                    .unwrap();
            }
            net.run_for(Ticks::from_millis(50));
            assert!(sub.poll(&mut net).is_empty());
            assert_eq!((sub.stats().bad_selector, sub.stats().malformed), (1, 1));
            publisher
                .publish(&mut net, "chat", "true", BTreeMap::new(), vec![1])
                .unwrap();
            net.run_for(Ticks::from_millis(10));
            assert_eq!(sub.poll(&mut net).len(), 1, "still delivering");
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(run)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn interpret_hits_selector_cache_on_repeats() {
        let (mut net, group, hosts) = world(2);
        let mut p = Profile::new("pub");
        p.set("interested_in", AttrValue::List(vec![]));
        let mut wants = Profile::new("sub");
        wants.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image")]),
        );
        let mut publisher = BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, p).unwrap();
        let mut sub = BusEndpoint::join(&mut net, hosts[1], SESSION_PORT, group, wants).unwrap();
        for _ in 0..5 {
            publisher
                .publish(
                    &mut net,
                    "image-share",
                    "interested_in contains 'image'",
                    content_image(),
                    vec![],
                )
                .unwrap();
        }
        net.run_for(Ticks::from_millis(10));
        assert_eq!(sub.poll(&mut net).len(), 5);
        let stats = sub.cache_stats();
        assert_eq!(stats.misses(), 1, "one compilation for five messages");
        assert_eq!(stats.hits(), 4);
    }

    /// One frame at 400 endpoints whose profiles fall into 66 classes
    /// runs its program 66 times, and decides as 400 evaluations would.
    #[test]
    fn a_frame_is_evaluated_once_per_class_not_per_endpoint() {
        const ENDPOINTS: usize = 400;
        const CLASSES: usize = 66;
        let (mut net, group, hosts) = world(ENDPOINTS);
        let store = SelectorStore::with_capacity(8);
        let mut endpoints: Vec<BusEndpoint> = hosts
            .iter()
            .enumerate()
            .map(|(i, &host)| {
                let mut p = Profile::new(&format!("c{i}"));
                let topic = AttrValue::str(&format!("t{}", i % CLASSES));
                p.set("topics", AttrValue::List(vec![topic]));
                BusEndpoint::join_with_store(&mut net, host, SESSION_PORT, group, p, store.clone())
                    .unwrap()
            })
            .collect();
        assert_eq!(store.classes().0, CLASSES);
        let msg = SemanticMessage {
            sender: "pub".to_string(),
            kind: "chat".to_string(),
            selector: "topics contains 't1'".to_string(),
            seq: 0,
            content: BTreeMap::new(),
            body: vec![],
        };
        let frames = [Frame::resolve(&msg.encode(), &store)];
        let before = compile::EVALS.with(|n| n.get());
        let accepted: usize = endpoints
            .iter_mut()
            .map(|ep| ep.interpret_frames(&frames).len())
            .sum();
        assert_eq!(compile::EVALS.with(|n| n.get()) - before, CLASSES as u64);
        assert_eq!(accepted, ENDPOINTS.div_ceil(CLASSES));
        let rejected: u64 = endpoints.iter().map(|ep| ep.stats().rejected).sum();
        assert_eq!(rejected as usize, ENDPOINTS - accepted);
    }

    /// A profile interested in `topic`.
    fn interested(name: &str, topic: &str) -> Profile {
        let mut p = Profile::new(name);
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str(topic)]),
        );
        p
    }

    /// A buffer's frame is read in place: receiving and deciding one
    /// multicast buffer at every endpoint of a store moves neither the
    /// message's nor the program's reference count.
    #[test]
    fn receiving_and_deciding_touch_no_reference_count() {
        const RECEIVERS: usize = 12;
        let (mut net, group, hosts) = world(RECEIVERS + 1);
        let store = SelectorStore::with_capacity(8);
        let mut publisher =
            BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, Profile::new("pub"))
                .unwrap();
        let mut endpoints: Vec<BusEndpoint> = (0..RECEIVERS)
            .map(|i| {
                let topic = if i % 2 == 0 { "image" } else { "text" };
                let p = interested(&format!("r{i}"), topic);
                let host = hosts[1 + i];
                BusEndpoint::join_with_store(&mut net, host, SESSION_PORT, group, p, store.clone())
                    .unwrap()
            })
            .collect();
        publisher
            .publish(
                &mut net,
                "image-share",
                "interested_in contains 'image'",
                content_image(),
                vec![7],
            )
            .unwrap();
        net.run_for(Ticks::from_millis(10));
        let mut probes = Vec::new();
        endpoints[0].receive(&mut net, |ep, dgram| {
            ep.read(&dgram.payload);
            probes.push(dgram.payload.clone());
        });
        assert_eq!(probes.len(), 1);
        let probe = probes.pop().unwrap();
        let frame = Frame::read(&probe, &store);
        assert!(
            matches!(frame, Cow::Borrowed(_)),
            "the first receiver left it"
        );
        let Frame::Message { message, program } = &*frame else {
            panic!("a valid message resolves to {frame:?}");
        };
        let counts = || (Arc::strong_count(message), Arc::strong_count(program));
        let before = counts();
        let mut accepted = 0;
        let mut decide = |ep: &mut BusEndpoint, payload: &Payload| {
            ep.decide(payload, |m, _| {
                assert!(Arc::ptr_eq(m, message), "the frame's own message");
                accepted += 1;
            })
        };
        decide(&mut endpoints[0], &probe);
        for ep in &mut endpoints[1..] {
            let mut received = 0;
            ep.receive(&mut net, |ep, dgram| {
                received += 1;
                decide(ep, &dgram.payload);
            });
            assert_eq!(received, 1);
        }
        assert_eq!(accepted, RECEIVERS / 2);
        assert_eq!(counts(), before, "(message, program) strong counts");
        drop(frame);
        net.recycle(probe);
    }

    /// Whichever store left its frame on the buffers, an endpoint on
    /// another one resolves them privately and decides exactly as an
    /// endpoint of that store with the same profile.
    #[test]
    fn an_endpoint_on_another_store_decides_the_same() {
        let (mut net, group, hosts) = world(5);
        let store = SelectorStore::with_capacity(8);
        let mut publisher =
            BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, Profile::new("pub"))
                .unwrap();
        let profiles = [interested("a", "image"), interested("b", "text")];
        let mut shared = Vec::new();
        let mut own = Vec::new();
        for (i, p) in profiles.iter().enumerate() {
            let (h, s) = (hosts[1 + i], store.clone());
            shared.push(
                BusEndpoint::join_with_store(&mut net, h, SESSION_PORT, group, p.clone(), s)
                    .unwrap(),
            );
            own.push(
                BusEndpoint::join(&mut net, hosts[3 + i], SESSION_PORT, group, p.clone()).unwrap(),
            );
        }
        type Got = Vec<(Vec<u8>, MatchOutcome)>;
        let take = |ep: &mut BusEndpoint, net: &mut Network| -> Got {
            let mut got = Vec::new();
            ep.receive(net, |ep, dgram| {
                ep.decide(&dgram.payload, |m, o| got.push((m.body().to_vec(), o)))
            });
            got
        };
        for shared_first in [true, false] {
            for (selector, body) in [("interested_in contains 'image'", 1), ("true", 2)] {
                publisher
                    .publish(&mut net, "share", selector, content_image(), vec![body])
                    .unwrap();
            }
            net.run_for(Ticks::from_millis(10));
            let mut results: Vec<(Got, Got)> = Vec::new();
            for (a, b) in shared.iter_mut().zip(own.iter_mut()) {
                let (first, second) = if shared_first { (a, b) } else { (b, a) };
                let got_first = take(first, &mut net);
                let got_second = take(second, &mut net);
                results.push(if shared_first {
                    (got_first, got_second)
                } else {
                    (got_second, got_first)
                });
            }
            for (i, (via_store, via_own)) in results.iter().enumerate() {
                assert_eq!(
                    via_store, via_own,
                    "profile {i}, store first: {shared_first}"
                );
            }
            assert_eq!(results[0].0.len(), 2, "the image reader takes both");
            assert_eq!(results[1].0.len(), 1, "the text reader takes `true`");
        }
        for (a, b) in shared.iter().zip(&own) {
            assert_eq!(a.stats().accepted, b.stats().accepted);
            assert_eq!(a.stats().rejected, b.stats().rejected);
        }
    }

    #[test]
    fn leave_stops_delivery() {
        let (mut net, group, hosts) = world(2);
        let mut p = Profile::new("pub");
        p.set("x", AttrValue::Int(1));
        let mut publisher = BusEndpoint::join(&mut net, hosts[0], SESSION_PORT, group, p).unwrap();
        let mut sub =
            BusEndpoint::join(&mut net, hosts[1], SESSION_PORT, group, Profile::new("sub"))
                .unwrap();
        sub.leave(&mut net);
        publisher
            .publish(&mut net, "x", "true", BTreeMap::new(), vec![])
            .unwrap();
        net.run_for(Ticks::from_millis(10));
        assert!(sub.poll(&mut net).is_empty());
    }
}
