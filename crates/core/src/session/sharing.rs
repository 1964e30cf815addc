//! The information transformer's sending side and the application
//! entities' traffic (§5.4): the one encode step, the image / chat /
//! stroke / lock publishes, and the dispatch of received frames.

use super::{ClientId, ClientRuntime, CollaborationSession};
use crate::apps::{MediaStore, ViewedImage};
use crate::concurrency::LockOutcome;
use crate::events::{AppEvent, EventView, Outgoing};
use crate::state_repo::ObjectState;
use media::image::Scene;
use media::packetize::Stripes;
use media::{wavelet, Sketch};
use sempubsub::AttrValue;
use simnet::Payload;
use std::collections::BTreeMap;
use std::sync::Arc;

impl CollaborationSession {
    /// Allocate a fresh shared-object id.
    pub fn new_object_id(&mut self) -> u64 {
        let id = self.next_object_id;
        self.next_object_id += 1;
        id
    }

    /// The content description every event of a shared image carries.
    pub(super) fn image_content_attrs(scene: &Scene) -> BTreeMap<String, AttrValue> {
        [
            ("media".to_string(), AttrValue::str("image")),
            (
                "color".to_string(),
                AttrValue::Bool(scene.image.channels == 3),
            ),
            ("encoding".to_string(), AttrValue::str("ezw")),
            (
                "size_kb".to_string(),
                AttrValue::Int((scene.image.byte_len() / 1024) as i64),
            ),
        ]
        .into_iter()
        .collect()
    }

    /// Share an image from a wired client: encodes the scene with the
    /// session's progressive coder, announces the metadata (including
    /// the verbal description), and multicasts the packets. Returns the
    /// object id.
    pub fn share_image(
        &mut self,
        id: ClientId,
        scene: &Scene,
        selector: &str,
    ) -> Result<u64, String> {
        let packets_per_image = self.packets_per_image()?;
        let object_id = self.new_object_id();
        let use_color = self.cfg.color_transform && scene.image.channels == 3;
        // Only to the session's rate limit: the bits past it are never
        // coded.
        let byte_cap = self
            .cfg
            .full_stream_bpp
            .map(|bpp| (scene.image.pixels() as f64 * bpp / 8.0) as usize);
        let container = self.encode_scene(scene, use_color, byte_cap)?;
        let stripes = Stripes::new(&container, packets_per_image).map_err(|e| e.to_string())?;
        // Metadata + every packet go out as one network batch: group
        // membership and routes are resolved once for the whole object
        // instead of per packet (the fan-out cost the paper's
        // communication module pays per event). Each packet is framed
        // straight from the container.
        let events = Self::image_events(object_id, scene, Some(&stripes));
        let content = Self::image_content_attrs(scene);
        self.clients[id]
            .bus
            .publish_batch(&mut self.net, selector, &content, events)
            .map_err(|e| e.to_string())?;
        Ok(object_id)
    }

    /// [`SessionConfig::packets_per_image`](super::SessionConfig), checked
    /// against what a packet header can count: a share returns `Err`,
    /// before it spends an object id, where `split_packets` would
    /// panic.
    pub(super) fn packets_per_image(&self) -> Result<usize, String> {
        let n = self.cfg.packets_per_image;
        if (1..=usize::from(u16::MAX)).contains(&n) {
            Ok(n)
        } else {
            Err(format!("packets_per_image {n} outside 1..=65535"))
        }
    }

    /// The one encode step, behind wired shares and the gateway's
    /// uplink alike: the scene coded with the session's wavelet at up
    /// to five levels, through the session's media store
    /// ([`MediaStore::encode_image`](crate::apps::MediaStore::encode_image))
    /// — the same content under the same `use_color` and `byte_cap`
    /// reuses the shared stream, and a miss leaves the records that let
    /// the share's views replay rather than read the symbols it wrote.
    pub(super) fn encode_scene(
        &mut self,
        scene: &Scene,
        use_color: bool,
        byte_cap: Option<usize>,
    ) -> Result<Arc<[u8]>, String> {
        let levels = wavelet::max_levels(scene.image.width, scene.image.height).min(5);
        self.media
            .encode_image(&scene.image, levels, self.cfg.wavelet, use_color, byte_cap)
            .map_err(|e| e.to_string())
    }

    /// The events that carry one image: its metadata, announcing as
    /// many packets as `stripes` cuts (none for a caption-only relay),
    /// then one event per stripe.
    pub(super) fn image_events<'a>(
        object_id: u64,
        scene: &Scene,
        stripes: Option<&'a Stripes<'a>>,
    ) -> impl Iterator<Item = Outgoing<'a>> {
        let n = stripes.map_or(0, Stripes::count);
        let meta = AppEvent::ImageMeta {
            object_id,
            caption: scene.caption.clone(),
            original_bytes: scene.image.byte_len() as u64,
            pixels: scene.image.pixels() as u64,
            total_packets: n as u16,
        };
        let packets = (0..n).map(move |index| Outgoing::Stripe {
            object_id,
            stripes: stripes.expect("n > 0"),
            index,
        });
        std::iter::once(Outgoing::Event(meta)).chain(packets)
    }

    /// Multicast one small application event from a wired client with
    /// an empty content description. An event the codec refuses
    /// ([`AppEvent::try_encode`]) fails the call before anything is
    /// sent.
    fn publish_event(&mut self, id: ClientId, ev: &AppEvent, selector: &str) -> Result<(), String> {
        let body = ev.try_encode()?;
        self.clients[id]
            .bus
            .publish(&mut self.net, ev.kind(), selector, BTreeMap::new(), body)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// Send a chat line.
    pub fn share_chat(&mut self, id: ClientId, text: &str, selector: &str) -> Result<(), String> {
        let ev = AppEvent::Chat {
            author: self.clients[id].name.clone(),
            text: text.to_string(),
        };
        self.publish_event(id, &ev, selector)
    }

    /// Draw a whiteboard stroke on a shared object.
    pub fn share_stroke(
        &mut self,
        id: ClientId,
        object_id: u64,
        points: Vec<(i16, i16)>,
        color: u8,
        selector: &str,
    ) -> Result<u64, String> {
        let lamport = self.clients[id].clock.tick();
        let ev = AppEvent::WhiteboardStroke {
            object_id,
            lamport,
            points,
            color,
        };
        self.publish_event(id, &ev, selector)?;
        // Local echo, only once the stroke is on the wire: a failed
        // publish must not leave the author with a stroke no other
        // replica ever hears of.
        let client = &mut self.clients[id];
        let name = client.name.clone();
        client.whiteboard.apply(&name, &ev);
        Ok(lamport)
    }

    /// Multicast a lock operation on a shared object (`op` 0 requests,
    /// 1 releases) under a fresh Lamport stamp, which it returns. The
    /// callers apply the operation locally only on `Ok`, so a failed
    /// publish leaves no replica changed.
    fn publish_lock(
        &mut self,
        id: ClientId,
        object_id: u64,
        op: u8,
        selector: &str,
    ) -> Result<u64, String> {
        let lamport = self.clients[id].clock.tick();
        let ev = AppEvent::Lock {
            object_id,
            client: self.clients[id].name.clone(),
            lamport,
            op,
        };
        self.publish_event(id, &ev, selector).map(|()| lamport)
    }

    /// Request the distributed lock on a shared object. Returns the
    /// local outcome; every replica arbitrates identically (same
    /// Lamport total order).
    pub fn request_lock(
        &mut self,
        id: ClientId,
        object_id: u64,
        selector: &str,
    ) -> Result<LockOutcome, String> {
        let lamport = self.publish_lock(id, object_id, 0, selector)?;
        let client = &mut self.clients[id];
        Ok(client.locks.request(object_id, &client.name, lamport))
    }

    /// Release the distributed lock on a shared object.
    pub fn release_lock(
        &mut self,
        id: ClientId,
        object_id: u64,
        selector: &str,
    ) -> Result<(), String> {
        self.publish_lock(id, object_id, 1, selector)?;
        let client = &mut self.clients[id];
        let _ = client.locks.release(object_id, &client.name);
        Ok(())
    }

    /// Apply received buffers to client `id`: interpret each buffer's
    /// frame against the client's profile and dispatch accepted events,
    /// read in place over the shared message, to the client's
    /// application entities — each copies out only what it keeps. A
    /// completing viewer asks `media` for its image and pushes it to
    /// `completed`.
    pub(super) fn apply_received(
        id: ClientId,
        client: &mut ClientRuntime,
        received: &[Payload],
        media: &mut MediaStore,
        completed: &mut Vec<(ClientId, ViewedImage)>,
    ) {
        let ClientRuntime {
            bus,
            viewer,
            chat,
            whiteboard,
            repo,
            clock,
            locks,
            sketches,
            ..
        } = client;
        bus.decide(received, |message, _| {
            let Some(ev) = EventView::parse(message.body()) else {
                return;
            };
            let sender = message.sender();
            match ev {
                EventView::Chat { .. } => chat.apply(&ev),
                EventView::WhiteboardStroke {
                    object_id, lamport, ..
                } => {
                    whiteboard.apply(sender, &ev.to_event());
                    clock.observe(lamport);
                    repo.update(
                        object_id,
                        lamport,
                        sender,
                        ObjectState {
                            kind: "whiteboard".to_string(),
                            data: message.body().to_vec(),
                        },
                    );
                }
                EventView::ImageMeta { .. } | EventView::ImagePacket { .. } => {
                    if let Some(viewed) = viewer.apply_delivered(&ev, message, media) {
                        completed.push((id, viewed));
                    }
                }
                EventView::SketchShare {
                    object_id,
                    data,
                    caption,
                } => {
                    if let Ok(sketch) = Sketch::decode(data) {
                        sketches.push((object_id, sketch, caption.to_owned()));
                    }
                }
                EventView::Lock {
                    object_id,
                    client: requester,
                    lamport,
                    op,
                } => {
                    clock.observe(lamport);
                    if op == 0 {
                        locks.request(object_id, requester, lamport);
                    } else {
                        let _ = locks.release(object_id, requester);
                    }
                }
            }
        });
    }
}
