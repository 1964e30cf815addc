//! The semantic interpretation process of Figure 3.
//!
//! A message carries (a) a *selector* naming the profiles that should
//! receive it and (b) a *content description* (attributes of the
//! payload: media type, encoding, size...). Interpretation at a client:
//!
//! 1. The selector is evaluated against the client's profile
//!    attributes; a mismatch is a [`MatchOutcome::Reject`] — the
//!    message was not addressed to profiles like ours.
//! 2. The client's *interest* selector is evaluated against the content
//!    description. A direct match is [`MatchOutcome::Accept`].
//! 3. Otherwise the client searches its declared transformation
//!    capabilities for a cheapest sequence that rewrites the content
//!    description into one its interest accepts —
//!    [`MatchOutcome::AcceptWithTransform`] (Figure 3's Client 3:
//!    MPEG2→JPEG). If no sequence works, [`MatchOutcome::Reject`].

use crate::profile::Profile;
use crate::value::AttrValue;
use crate::SemError;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// One applied transformation step.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformStep {
    /// Rewritten attribute.
    pub attr: String,
    /// Source value.
    pub from: AttrValue,
    /// Target value.
    pub to: AttrValue,
}

/// Result of interpreting a message at one client.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchOutcome {
    /// Selector and interest both match as-is.
    Accept,
    /// Interest matches after applying these transforms, in order.
    AcceptWithTransform(Vec<TransformStep>),
    /// Not addressed to us, or no capability chain makes it acceptable.
    Reject,
}

impl MatchOutcome {
    /// True for `Accept` and `AcceptWithTransform`.
    pub fn is_accepted(&self) -> bool {
        !matches!(self, MatchOutcome::Reject)
    }
}

/// Maximum number of content-description states explored while
/// searching for a transform chain; bounds pathological capability
/// sets.
const MAX_SEARCH_STATES: usize = 256;

/// Interpret a message (selector + content description) at `profile`.
pub fn interpret(
    profile: &Profile,
    selector: &crate::Selector,
    content: &BTreeMap<String, AttrValue>,
) -> Result<MatchOutcome, SemError> {
    // Step 1: are we addressed at all?
    if !selector.matches(profile.attrs())? {
        return Ok(MatchOutcome::Reject);
    }
    // No interest declared: everything addressed to us is accepted.
    let Some(interest) = profile.interest() else {
        return Ok(MatchOutcome::Accept);
    };
    // Step 2: direct interest match.
    if interest.matches(content)? {
        return Ok(MatchOutcome::Accept);
    }
    // Step 3: cheapest transform chain (uniform-cost search).
    if profile.transforms().is_empty() {
        return Ok(MatchOutcome::Reject);
    }
    match search_chain(profile, content, |attrs| interest.matches(attrs))? {
        Some(steps) => Ok(MatchOutcome::AcceptWithTransform(steps)),
        None => Ok(MatchOutcome::Reject),
    }
}

/// State key: the content map rendered canonically.
fn state_key(attrs: &BTreeMap<String, AttrValue>) -> String {
    let mut s = String::new();
    for (k, v) in attrs {
        s.push_str(k);
        s.push('=');
        s.push_str(&v.to_string());
        s.push(';');
    }
    s
}

struct SearchNode {
    cost: u32,
    attrs: BTreeMap<String, AttrValue>,
    steps: Vec<TransformStep>,
}

impl PartialEq for SearchNode {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost
    }
}
impl Eq for SearchNode {}
impl PartialOrd for SearchNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SearchNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.cost.cmp(&self.cost) // min-heap by cost
    }
}

/// Uniform-cost search for the cheapest transform chain to a content
/// description `interest` accepts. Shared with the compiled engine in
/// [`crate::compile`], which passes its compiled interest: transform
/// search is the cold path, so both pipelines run the identical search.
pub(crate) fn search_chain(
    profile: &Profile,
    content: &BTreeMap<String, AttrValue>,
    mut interest: impl FnMut(&BTreeMap<String, AttrValue>) -> Result<bool, SemError>,
) -> Result<Option<Vec<TransformStep>>, SemError> {
    let mut heap = BinaryHeap::new();
    let mut best: HashMap<String, u32> = HashMap::new();
    heap.push(SearchNode {
        cost: 0,
        attrs: content.clone(),
        steps: Vec::new(),
    });
    best.insert(state_key(content), 0);
    let mut explored = 0;
    while let Some(node) = heap.pop() {
        // Goal test at pop time, so the cheapest chain wins even when a
        // costlier chain reaches a matching state first.
        if !node.steps.is_empty() && interest(&node.attrs)? {
            return Ok(Some(node.steps));
        }
        explored += 1;
        if explored > MAX_SEARCH_STATES {
            return Ok(None);
        }
        for cap in profile.transforms() {
            if !cap.applies_to(&node.attrs) {
                continue;
            }
            let next_attrs = cap.apply(&node.attrs);
            let next_cost = node.cost + cap.cost;
            let key = state_key(&next_attrs);
            match best.get(&key) {
                Some(&c) if c <= next_cost => continue,
                _ => {
                    best.insert(key, next_cost);
                }
            }
            let mut steps = node.steps.clone();
            steps.push(TransformStep {
                attr: cap.attr.clone(),
                from: cap.from.clone(),
                to: cap.to.clone(),
            });
            heap.push(SearchNode {
                cost: next_cost,
                attrs: next_attrs,
                steps,
            });
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TransformCap;
    use crate::Selector;

    /// The incoming stream of Figure 3: color video, MPEG2, 1 MB.
    fn stream() -> BTreeMap<String, AttrValue> {
        [
            ("media", AttrValue::str("video")),
            ("color", AttrValue::Bool(true)),
            ("encoding", AttrValue::str("mpeg2")),
            ("size_mb", AttrValue::Float(1.0)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// A selector addressing any client interested in video.
    fn to_video_clients() -> Selector {
        Selector::parse("interested_in contains 'video'").unwrap()
    }

    fn base_profile(name: &str) -> Profile {
        let mut p = Profile::new(name);
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("video")]),
        );
        p
    }

    #[test]
    fn figure3_client1_accepts() {
        let mut p = base_profile("client-1");
        p.set_interest(
            "media == 'video' and color == true and encoding == 'mpeg2' and size_mb <= 1",
        )
        .unwrap();
        let out = interpret(&p, &to_video_clients(), &stream()).unwrap();
        assert_eq!(out, MatchOutcome::Accept);
    }

    #[test]
    fn figure3_client2_rejects() {
        let mut p = base_profile("client-2");
        p.set_interest("media == 'video' and color == false and not exists(encoding)")
            .unwrap();
        let out = interpret(&p, &to_video_clients(), &stream()).unwrap();
        assert_eq!(out, MatchOutcome::Reject);
    }

    #[test]
    fn figure3_client3_accepts_with_transform() {
        let mut p = base_profile("client-3");
        p.set_interest("media == 'video' and color == true and encoding == 'jpeg'")
            .unwrap();
        p.add_transform(TransformCap::new("encoding", "mpeg2", "jpeg"));
        let out = interpret(&p, &to_video_clients(), &stream()).unwrap();
        match out {
            MatchOutcome::AcceptWithTransform(steps) => {
                assert_eq!(steps.len(), 1);
                assert_eq!(steps[0].attr, "encoding");
                assert_eq!(steps[0].to, AttrValue::str("jpeg"));
            }
            other => panic!("expected transform accept, got {other:?}"),
        }
    }

    #[test]
    fn not_addressed_rejects_before_interest() {
        let mut p = Profile::new("text-only");
        p.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("text")]),
        );
        p.set_interest("true").unwrap();
        let out = interpret(&p, &to_video_clients(), &stream()).unwrap();
        assert_eq!(out, MatchOutcome::Reject);
    }

    #[test]
    fn no_interest_means_accept_everything_addressed() {
        let p = base_profile("omnivore");
        let out = interpret(&p, &to_video_clients(), &stream()).unwrap();
        assert_eq!(out, MatchOutcome::Accept);
    }

    #[test]
    fn two_step_chain_found() {
        // mpeg2 -> jpeg -> sketch
        let mut p = base_profile("chain");
        p.set_interest("encoding == 'sketch'").unwrap();
        p.add_transform(TransformCap::new("encoding", "mpeg2", "jpeg"));
        p.add_transform(TransformCap::new("encoding", "jpeg", "sketch"));
        let out = interpret(&p, &to_video_clients(), &stream()).unwrap();
        match out {
            MatchOutcome::AcceptWithTransform(steps) => assert_eq!(steps.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cheapest_chain_preferred() {
        // Two routes to 'text': direct (cost 5) vs via jpeg (1+1).
        let mut p = base_profile("cost");
        p.set_interest("encoding == 'text'").unwrap();
        p.add_transform(TransformCap::new("encoding", "mpeg2", "text").with_cost(5));
        p.add_transform(TransformCap::new("encoding", "mpeg2", "jpeg").with_cost(1));
        p.add_transform(TransformCap::new("encoding", "jpeg", "text").with_cost(1));
        let out = interpret(&p, &to_video_clients(), &stream()).unwrap();
        match out {
            MatchOutcome::AcceptWithTransform(steps) => {
                assert_eq!(steps.len(), 2, "two cheap steps beat one costly step");
                assert_eq!(steps[0].to, AttrValue::str("jpeg"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unusable_transforms_reject() {
        let mut p = base_profile("stuck");
        p.set_interest("encoding == 'raw'").unwrap();
        p.add_transform(TransformCap::new("encoding", "jpeg", "raw")); // wrong source
        let out = interpret(&p, &to_video_clients(), &stream()).unwrap();
        assert_eq!(out, MatchOutcome::Reject);
    }

    #[test]
    fn cyclic_transforms_terminate() {
        let mut p = base_profile("cycle");
        p.set_interest("encoding == 'unreachable'").unwrap();
        p.add_transform(TransformCap::new("encoding", "mpeg2", "jpeg"));
        p.add_transform(TransformCap::new("encoding", "jpeg", "mpeg2"));
        let out = interpret(&p, &to_video_clients(), &stream()).unwrap();
        assert_eq!(out, MatchOutcome::Reject);
    }
}
