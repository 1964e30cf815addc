//! The base-station extension (§4.2): the gateway peer holds the
//! wireless clients' radios and profiles, forwards their contributions
//! in the modality their SIR allows, and relays session events back
//! down the same way. [`BsPeer`] writes its own logs; the session's
//! `wireless_*` methods delegate to it.

use super::{fault_link, CollaborationSession};
use crate::events::{AppEvent, Outgoing};
use crate::transformer::{MediaKind, MediaObject, TransformerRegistry};
use media::image::Scene;
use media::packetize::Stripes;
use sempubsub::{AttrValue, BusEndpoint, Frame, Profile};
use simnet::packet::well_known;
use simnet::Network;
use std::collections::BTreeMap;
use std::sync::Arc;
use wireless::{
    BaseStation, ClientRadio, Modality, ModalityThresholds, PathLossModel, ServiceAssessment,
};

/// A downlink delivery record: what the base station relayed to one
/// wireless client for one session event. The strings are shared, not
/// copied: the client id with the gateway's profile table, the kind
/// with every record of that kind.
#[derive(Debug, Clone, PartialEq)]
pub struct DownlinkDelivery {
    /// Wireless client id.
    pub client: Arc<str>,
    /// Event kind relayed.
    pub kind: Arc<str>,
    /// Modality the radio conditions allowed for this client.
    pub modality: Modality,
}

/// Event kinds a gateway keeps one shared copy of. Kinds come from the
/// session's vocabulary, a handful; a kind past the table still gets a
/// record, in a copy of its own.
const INTERNED_KINDS: usize = 16;

/// The base station peer: gateway of the wireless extension (§4.2).
pub struct BsPeer {
    /// Radio-level QoS manager.
    pub station: BaseStation,
    /// The BS's own bus endpoint (it is a peer in the session).
    pub bus: BusEndpoint,
    /// Transformer suite used for modality reduction.
    pub registry: TransformerRegistry,
    /// Forwarding log: (client, modality chosen).
    pub forward_log: Vec<(String, Modality)>,
    /// Semantic profiles of the attached wireless clients — "it
    /// maintains the profiles of all the wireless clients connected to
    /// it and manages QoS on their behalf" (§1, §4.2). Ordered map:
    /// the downlink relay iterates it per arriving event, and relay
    /// order must be deterministic (client-id order), not hash order.
    pub wireless_profiles: BTreeMap<Arc<str>, Profile>,
    /// Downlink relay log: session events delivered to wireless
    /// clients, with the modality their SIR allowed.
    pub downlink_log: Vec<DownlinkDelivery>,
    /// Compiled matcher for downlink interpretation: the BS evaluates
    /// every session event against *each* wireless profile, so one
    /// engine (the arriving frame's program, one snapshot per attached
    /// profile) replaces a parse per message and a tree walk per
    /// profile.
    pub matcher: sempubsub::MatchEngine,
    /// The kinds relayed so far, one shared copy each.
    kinds: Vec<Arc<str>>,
}

impl BsPeer {
    /// The downlink: interpret every session event that arrived at the
    /// gateway *against each wireless client's profile* and relay it
    /// over the radio in the modality the client's SIR allows (§4.2:
    /// the BS "manages QoS on their behalf"; full radio-frame
    /// simulation is abstracted to the delivery record).
    pub(super) fn relay(&mut self, net: &mut Network) {
        self.bus.receive(net, |bus, dgram| {
            let payload = &dgram.payload;
            let frame = bus.read(payload);
            let Frame::Message { message, program } = &*frame else {
                // Nothing to relay. The endpoint's one counting
                // path books it as malformed or bad-selector; a
                // frame without a program evaluates nothing.
                bus.decide(payload, |_, _| ());
                return;
            };
            let mut kind = None;
            for (id, profile) in &self.wireless_profiles {
                let matched = self
                    .matcher
                    .interpret_program(profile, program, message)
                    .is_ok_and(|o| o.is_accepted());
                if !matched {
                    continue;
                }
                let modality = self.station.modality(id).unwrap_or(Modality::None);
                if modality > Modality::None {
                    let kind = kind.get_or_insert_with(|| intern(&mut self.kinds, message.kind()));
                    self.downlink_log.push(DownlinkDelivery {
                        client: Arc::clone(id),
                        kind: Arc::clone(kind),
                        modality,
                    });
                }
            }
        });
    }

    /// The uplink: publish `events` into the session on the client's
    /// behalf and log the forward — once the last publish is on the
    /// wire, so a failed contribution is not on record as forwarded
    /// (`Modality::None` still logs: there is nothing to publish).
    fn forward<'a>(
        &mut self,
        net: &mut Network,
        client_id: &str,
        modality: Modality,
        selector: &str,
        content: &BTreeMap<String, AttrValue>,
        events: impl IntoIterator<Item = Outgoing<'a>>,
    ) -> Result<(), String> {
        // One publish per event, not one batch: a batch would fan out
        // member-major on the gateway's access link and move simulated
        // arrival times.
        for event in events {
            self.bus
                .publish_batch(net, selector, content, [event])
                .map_err(|e| e.to_string())?;
        }
        self.forward_log.push((client_id.to_string(), modality));
        Ok(())
    }
}

/// The shared copy of `kind` in `kinds`, added if there is room.
fn intern(kinds: &mut Vec<Arc<str>>, kind: &str) -> Arc<str> {
    if let Some(held) = kinds.iter().find(|held| ***held == *kind) {
        return Arc::clone(held);
    }
    let kind: Arc<str> = Arc::from(kind);
    if kinds.len() < INTERNED_KINDS {
        kinds.push(Arc::clone(&kind));
    }
    kind
}

impl CollaborationSession {
    /// Attach the base station peer to the session.
    pub fn attach_base_station(
        &mut self,
        model: PathLossModel,
        thresholds: ModalityThresholds,
    ) -> Result<(), String> {
        if self.base_station.is_some() {
            return Err("base station already attached".to_string());
        }
        let node = self.net.add_node("base-station");
        // In brokered mode the gateway homes on broker 0 and registers
        // a promiscuous (wildcard) advertisement: it interprets every
        // session event against the wireless profiles it holds, so the
        // overlay must not suppress anything on its behalf.
        let group = if let Some(ov) = self.overlay.as_mut() {
            let link = self.net.connect(ov.node(0), node, self.cfg.link);
            fault_link(&mut self.net, &self.cfg, link);
            ov.register_wildcard(&mut self.net, 0, "base-station");
            ov.group(0)
        } else {
            self.connect_to_switch(node);
            self.group
        };
        let mut profile = Profile::new("base-station");
        profile.set("role", AttrValue::str("gateway"));
        let bus = BusEndpoint::join_with_store(
            &mut self.net,
            node,
            well_known::SESSION_DATA,
            group,
            profile,
            self.selectors.clone(),
        )
        .map_err(|e| e.to_string())?;
        if let Some(ov) = self.overlay.as_mut() {
            ov.settle(&mut self.net);
        }
        self.base_station = Some(BsPeer {
            station: BaseStation::new(model, thresholds),
            bus,
            registry: TransformerRegistry::with_defaults(),
            forward_log: Vec::new(),
            wireless_profiles: BTreeMap::new(),
            downlink_log: Vec::new(),
            matcher: sempubsub::MatchEngine::with_store(self.selectors.clone()),
            kinds: Vec::new(),
        });
        Ok(())
    }

    /// A wireless client joins through the base station; returns its
    /// initial service assessment. A default profile interested in
    /// images and chat is registered; use
    /// [`CollaborationSession::wireless_join_with_profile`] for custom
    /// interests.
    pub fn wireless_join(
        &mut self,
        id: &str,
        distance_m: f64,
        tx_power_mw: f64,
    ) -> Result<ServiceAssessment, String> {
        let mut profile = Profile::new(id);
        profile.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("image"), AttrValue::str("chat")]),
        );
        self.wireless_join_with_profile(profile, distance_m, tx_power_mw)
    }

    /// The attached gateway, or the error every `wireless_*` call
    /// returns without one.
    fn gateway(&mut self) -> Result<&mut BsPeer, String> {
        self.base_station
            .as_mut()
            .ok_or_else(|| "no base station attached".to_string())
    }

    /// Join a wireless client with an explicit semantic profile, held
    /// at the base station on the client's behalf.
    pub fn wireless_join_with_profile(
        &mut self,
        profile: Profile,
        distance_m: f64,
        tx_power_mw: f64,
    ) -> Result<ServiceAssessment, String> {
        let bs = self.gateway()?;
        let id: Arc<str> = Arc::from(profile.name.as_str());
        let assessment = bs
            .station
            .join(ClientRadio::new(&id, distance_m, tx_power_mw))
            .map_err(|e| e.to_string())?;
        bs.wireless_profiles.insert(id, profile);
        Ok(assessment)
    }

    /// A wireless client leaves: radio registry, profile and the
    /// matcher's compiled snapshot of it all drop.
    pub fn wireless_leave(&mut self, id: &str) -> Result<(), String> {
        let bs = self.gateway()?;
        bs.station.leave(id).map_err(|e| e.to_string())?;
        bs.wireless_profiles.remove(id);
        bs.matcher.forget(id);
        Ok(())
    }

    /// A wireless client contributes an image. The base station
    /// receives it over the (simulated) radio uplink, assesses the
    /// client's SIR, reduces the modality accordingly, and forwards the
    /// result into the multicast session on the client's behalf.
    /// Returns the modality actually forwarded.
    pub fn wireless_contribute(
        &mut self,
        client_id: &str,
        scene: &Scene,
        selector: &str,
    ) -> Result<Modality, String> {
        let assessment = self.gateway()?.station.assess(client_id);
        let modality = assessment
            .ok_or_else(|| format!("unknown wireless client '{client_id}'"))?
            .modality;
        let packets_per_image = self.packets_per_image()?;
        let object_id = self.new_object_id();
        // As captured: the uplink applies neither the session's colour
        // transform nor its rate cap.
        let encoded = self.encode_scene(scene, false, None)?;
        let bs = self.base_station.as_mut().expect("assessed above");
        let stripes;
        let events: Vec<Outgoing<'_>> = match modality {
            Modality::None => Vec::new(), // nothing usable gets through
            Modality::TextOnly => Self::image_events(object_id, scene, None).collect(),
            Modality::TextAndSketch => {
                let source = MediaObject::Image {
                    encoded: encoded.to_vec(),
                    caption: scene.caption.clone(),
                };
                let sketch_obj = bs
                    .registry
                    .transform(&source, MediaKind::Sketch)
                    .map_err(|e| e.to_string())?;
                let MediaObject::Sketch { sketch, caption } = sketch_obj else {
                    return Err("transform did not yield a sketch".to_string());
                };
                vec![Outgoing::Event(AppEvent::SketchShare {
                    object_id,
                    data: sketch.encode(),
                    caption,
                })]
            }
            Modality::FullImage => {
                stripes = Stripes::new(&encoded, packets_per_image).map_err(|e| e.to_string())?;
                Self::image_events(object_id, scene, Some(&stripes)).collect()
            }
        };
        let content = Self::image_content_attrs(scene);
        bs.forward(
            &mut self.net,
            client_id,
            modality,
            selector,
            &content,
            events,
        )?;
        Ok(modality)
    }
}
