//! Traffic classes and the port-based classifier.
//!
//! The paper's collaboration traffic separates naturally into four
//! service classes: session control and monitoring (SNMP, RTCP
//! feedback) must never starve; interactive media (the RTP image
//! stream the user is looking at) gets the largest share; bulk media
//! (prefetch, full-resolution refinement layers) fills what is left;
//! everything unclassified rides in the background class.

use std::fmt;

/// Number of traffic classes; class arrays are indexed by
/// [`TrafficClass::index`].
pub const CLASS_COUNT: usize = 4;

/// Service class of a packet, in strict priority of *protection* (not
/// strict-priority scheduling — DRR shares bandwidth by quantum).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Session control: SNMP gets/traps, RTCP feedback.
    Control,
    /// The media stream the user is interacting with (RTP).
    InteractiveMedia,
    /// Bulk transfers: prefetch, refinement layers.
    BulkMedia,
    /// Everything else.
    Background,
}

impl TrafficClass {
    /// All classes, in scheduling order.
    pub const ALL: [TrafficClass; CLASS_COUNT] = [
        TrafficClass::Control,
        TrafficClass::InteractiveMedia,
        TrafficClass::BulkMedia,
        TrafficClass::Background,
    ];

    /// Dense index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            TrafficClass::Control => 0,
            TrafficClass::InteractiveMedia => 1,
            TrafficClass::BulkMedia => 2,
            TrafficClass::Background => 3,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::Control => "control",
            TrafficClass::InteractiveMedia => "interactive-media",
            TrafficClass::BulkMedia => "bulk-media",
            TrafficClass::Background => "background",
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Maps a destination port to a [`TrafficClass`].
///
/// Ports are the only per-packet metadata the simulated network
/// exposes at a link, and they are stable protocol identifiers here
/// (161/162 SNMP, 5004 RTP, 5005 RTCP feedback), so a small exact-match
/// table suffices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassMap {
    rules: Vec<(u16, TrafficClass)>,
    default: TrafficClass,
}

impl ClassMap {
    /// An empty map sending everything to `default`.
    pub fn new(default: TrafficClass) -> Self {
        ClassMap {
            rules: Vec::new(),
            default,
        }
    }

    /// Start building a map with `default` as the fall-through class.
    pub fn builder(default: TrafficClass) -> ClassMapBuilder {
        ClassMapBuilder {
            map: ClassMap::new(default),
        }
    }

    /// The collabqos defaults: SNMP (161/162) and RTCP feedback (5005)
    /// are `Control`, RTP media (5004) is `InteractiveMedia`, everything
    /// else is `Background`.
    pub fn collabqos_default() -> Self {
        ClassMap::builder(TrafficClass::Background)
            .route(161, TrafficClass::Control)
            .route(162, TrafficClass::Control)
            .route(5005, TrafficClass::Control)
            .route(5004, TrafficClass::InteractiveMedia)
            .build()
    }

    /// Route `port` to `class`, replacing any existing rule for it.
    pub fn assign(&mut self, port: u16, class: TrafficClass) {
        if let Some(rule) = self.rules.iter_mut().find(|(p, _)| *p == port) {
            rule.1 = class;
        } else {
            self.rules.push((port, class));
        }
    }

    /// Class for a destination port.
    pub fn classify(&self, port: u16) -> TrafficClass {
        self.rules
            .iter()
            .find(|(p, _)| *p == port)
            .map(|(_, c)| *c)
            .unwrap_or(self.default)
    }

    /// The configured port rules, in insertion order.
    pub fn rules(&self) -> &[(u16, TrafficClass)] {
        &self.rules
    }
}

/// Chainable constructor for a [`ClassMap`], so deployments can declare
/// their port plan in one expression and hand the same map to every
/// per-link qdisc and shaping-tree leaf classifier.
#[derive(Clone, Debug)]
pub struct ClassMapBuilder {
    map: ClassMap,
}

impl ClassMapBuilder {
    /// Route `port` to `class` (replacing any earlier rule for it).
    pub fn route(mut self, port: u16, class: TrafficClass) -> Self {
        self.map.assign(port, class);
        self
    }

    /// Finish, yielding the configured map.
    pub fn build(self) -> ClassMap {
        self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, c) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn default_map_routes_known_ports() {
        let m = ClassMap::collabqos_default();
        assert_eq!(m.classify(161), TrafficClass::Control);
        assert_eq!(m.classify(162), TrafficClass::Control);
        assert_eq!(m.classify(5005), TrafficClass::Control);
        assert_eq!(m.classify(5004), TrafficClass::InteractiveMedia);
        assert_eq!(m.classify(9999), TrafficClass::Background);
    }

    #[test]
    fn assign_replaces_existing_rule() {
        let mut m = ClassMap::collabqos_default();
        m.assign(5004, TrafficClass::BulkMedia);
        assert_eq!(m.classify(5004), TrafficClass::BulkMedia);
        assert_eq!(m.rules.iter().filter(|(p, _)| *p == 5004).count(), 1);
    }

    #[test]
    fn builder_matches_imperative_construction() {
        let built = ClassMap::builder(TrafficClass::Background)
            .route(161, TrafficClass::Control)
            .route(162, TrafficClass::Control)
            .route(5005, TrafficClass::Control)
            .route(5004, TrafficClass::InteractiveMedia)
            .build();
        let mut assigned = ClassMap::new(TrafficClass::Background);
        assigned.assign(161, TrafficClass::Control);
        assigned.assign(162, TrafficClass::Control);
        assigned.assign(5005, TrafficClass::Control);
        assigned.assign(5004, TrafficClass::InteractiveMedia);
        assert_eq!(built, assigned);
        assert_eq!(built, ClassMap::collabqos_default(), "defaults unchanged");
        assert_eq!(built.rules().len(), 4);
        assert_eq!(built.classify(9999), TrafficClass::Background);
    }

    #[test]
    fn builder_last_route_wins() {
        let m = ClassMap::builder(TrafficClass::Background)
            .route(8080, TrafficClass::BulkMedia)
            .route(8080, TrafficClass::Control)
            .build();
        assert_eq!(m.classify(8080), TrafficClass::Control);
        assert_eq!(m.rules().len(), 1, "replacement, not duplication");
    }
}
