//! Client profiles: attributes, interests, and declared transformation
//! capabilities.
//!
//! "Each client locally maintains a profile that defines its current
//! state, its interests and its capabilities ... The profile is
//! dynamic and changes locally to reflect the changes in the client or
//! system state" (§3, §5.2).

use crate::value::AttrValue;
use crate::{Selector, SemError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide profile generation counter. Every mutation stamps the
/// profile with a fresh, globally unique version, so a cached snapshot
/// (see [`crate::compile`]) can never alias a stale profile — not even
/// when a profile is replaced wholesale by a new `Profile` value that
/// happens to have seen the same number of mutations. Version 0 is
/// reserved for pristine (empty) profiles.
static PROFILE_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    PROFILE_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// A declared capability to transform content along one attribute,
/// e.g. `encoding: 'mpeg2' -> 'jpeg'` (Figure 3's Client 3) or
/// `modality: 'image' -> 'text'` (§5.4's information abstraction).
#[derive(Debug, Clone, PartialEq)]
pub struct TransformCap {
    /// Content attribute the transform rewrites.
    pub attr: String,
    /// Required source value.
    pub from: AttrValue,
    /// Produced value.
    pub to: AttrValue,
    /// Relative cost of running the transform (used to prefer cheap
    /// adaptation chains; arbitrary units).
    pub cost: u32,
}

impl TransformCap {
    /// A transform with unit cost.
    pub fn new(attr: &str, from: impl Into<AttrValue>, to: impl Into<AttrValue>) -> Self {
        TransformCap {
            attr: attr.to_string(),
            from: from.into(),
            to: to.into(),
            cost: 1,
        }
    }

    /// Override the cost.
    pub fn with_cost(mut self, cost: u32) -> Self {
        self.cost = cost;
        self
    }

    /// Whether this transform applies to the given content attributes.
    pub fn applies_to(&self, attrs: &BTreeMap<String, AttrValue>) -> bool {
        attrs.get(&self.attr).is_some_and(|v| v.sem_eq(&self.from))
    }

    /// Apply to a copy of the attributes.
    pub fn apply(&self, attrs: &BTreeMap<String, AttrValue>) -> BTreeMap<String, AttrValue> {
        let mut out = attrs.clone();
        out.insert(self.attr.clone(), self.to.clone());
        out
    }
}

/// A client profile.
///
/// *Attributes* describe the client itself (identity, device class,
/// current state) and are what message selectors are interpreted
/// against. The optional *interest* is a selector over incoming content
/// descriptions. *Transforms* are the client's declared transformation
/// capabilities.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Client identity (informational; never used for addressing).
    pub name: String,
    attrs: BTreeMap<String, AttrValue>,
    interest: Option<Selector>,
    transforms: Vec<TransformCap>,
    /// Stamped from `PROFILE_GENERATION` on every mutation, so
    /// components can cheaply detect change; globally unique across
    /// all profiles in the process (0 = pristine).
    pub version: u64,
}

impl Profile {
    /// A fresh profile with no attributes.
    pub fn new(name: &str) -> Profile {
        Profile {
            name: name.to_string(),
            ..Profile::default()
        }
    }

    /// The attribute map (what selectors evaluate against).
    pub fn attrs(&self) -> &BTreeMap<String, AttrValue> {
        &self.attrs
    }

    /// Set (or replace) an attribute.
    pub fn set(&mut self, key: &str, value: impl Into<AttrValue>) -> &mut Self {
        self.attrs.insert(key.to_string(), value.into());
        self.version = next_generation();
        self
    }

    /// Remove an attribute; returns the old value.
    pub fn unset(&mut self, key: &str) -> Option<AttrValue> {
        let old = self.attrs.remove(key);
        if old.is_some() {
            self.version = next_generation();
        }
        old
    }

    /// Get an attribute.
    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.get(key)
    }

    /// Set the interest selector from source text.
    pub fn set_interest(&mut self, selector: &str) -> Result<&mut Self, SemError> {
        self.interest = Some(Selector::parse(selector)?);
        self.version = next_generation();
        Ok(self)
    }

    /// The current interest selector.
    pub fn interest(&self) -> Option<&Selector> {
        self.interest.as_ref()
    }

    /// Declare a transformation capability.
    pub fn add_transform(&mut self, t: TransformCap) -> &mut Self {
        self.transforms.push(t);
        self.version = next_generation();
        self
    }

    /// The declared transforms.
    pub fn transforms(&self) -> &[TransformCap] {
        &self.transforms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_crud_bumps_version() {
        let mut p = Profile::new("c");
        let v0 = p.version;
        p.set("media", "video");
        assert!(p.version > v0);
        assert_eq!(p.get("media"), Some(&AttrValue::str("video")));
        let old = p.unset("media");
        assert_eq!(old, Some(AttrValue::str("video")));
        assert_eq!(p.unset("media"), None);
    }

    #[test]
    fn interest_parses_and_stores() {
        let mut p = Profile::new("c");
        p.set_interest("media == 'video'").unwrap();
        assert!(p.interest().is_some());
        assert!(p.set_interest("media ==").is_err());
    }

    #[test]
    fn transform_applies_and_rewrites() {
        let t = TransformCap::new("encoding", "mpeg2", "jpeg");
        let mut attrs = BTreeMap::new();
        attrs.insert("encoding".to_string(), AttrValue::str("mpeg2"));
        assert!(t.applies_to(&attrs));
        let out = t.apply(&attrs);
        assert_eq!(out["encoding"], AttrValue::str("jpeg"));
        // Does not apply when source value differs or attr missing.
        let mut other = BTreeMap::new();
        other.insert("encoding".to_string(), AttrValue::str("raw"));
        assert!(!t.applies_to(&other));
        assert!(!t.applies_to(&BTreeMap::new()));
    }
}
