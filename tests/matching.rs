//! Differential suite for the compiled matching fast path: the
//! compiled evaluator ([`sempubsub::compile`]) must be bit-identical
//! to the tree-walk evaluator on arbitrary expression/profile pairs —
//! same booleans, same outcomes, and the same `Err`s — plus LRU cache
//! behavior (a re-inserted selector recompiles to an identical
//! program; strict-LRU victim order against a reference model) and the
//! malformed/bad-selector stats split. The shared reception path —
//! one decoded frame riding each buffer, one selector store for every
//! endpoint — is pinned against standalone endpoints and against the
//! tree walk on arbitrary, partly hostile batches, and so is its
//! same-store rule: a receiver compiling through another store never
//! evaluates the program a buffer carries. The verdict differential
//! pins the per-class memo: receivers drawn from a small pool of
//! attribute maps, so classes repeat, decide exactly as a fresh
//! evaluation and the tree walk do — across profile mutations that
//! move a receiver to a new class and back, across two stores, on one
//! worker and on four — and the gateway's engine returns the same `Err`
//! every time it meets a selector that is a type error.
//!
//! Failure messages print the offending selector and profile, so a CI
//! failure in the `matching` job is reproducible from the log alone.

use collabqos::sempubsub::ast::{CmpOp, Expr};
use collabqos::sempubsub::bus::BusStats;
use collabqos::sempubsub::compile::SelectorCache;
use collabqos::sempubsub::eval::eval_bool;
use collabqos::sempubsub::intern::Interner;
use collabqos::sempubsub::matching;
use collabqos::sempubsub::{
    AttrValue, BusEndpoint, CompiledProfile, CompiledSelector, EvalStack, Frame, MatchEngine,
    MatchOutcome, Profile, Selector, SelectorStore, SemanticMessage, TransformCap,
};
use collabqos::simnet::{Addr, LinkSpec, Network, Payload, Port, Ticks};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ------------------------------------------------------------ strategies

/// A small shared attribute alphabet so expressions, profiles, and
/// content maps actually collide: most comparisons see a present
/// attribute instead of degenerating to the missing-attr case.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("media".to_string()),
        Just("color".to_string()),
        Just("size".to_string()),
        Just("flag".to_string()),
        Just("enc".to_string()),
        Just("x".to_string()),
    ]
}

fn arb_literal() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-10i64..10).prop_map(AttrValue::Int),
        (-10.0f64..10.0).prop_map(|f| AttrValue::Float((f * 4.0).round() / 4.0)),
        "[a-c]{0,2}".prop_map(AttrValue::Str),
        any::<bool>().prop_map(AttrValue::Bool),
    ]
}

fn arb_value() -> impl Strategy<Value = AttrValue> {
    let leaf = arb_literal();
    leaf.prop_recursive(2, 8, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(AttrValue::List)
    })
}

fn arb_cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::In),
        Just(CmpOp::Contains),
    ]
}

/// Arbitrary selector expressions, *including* type-error shapes: bare
/// non-boolean literals and attributes can land in boolean position
/// (under `and` / `or` / `not`), so both evaluators' error paths are
/// exercised — they must agree on `Err` too.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (arb_name(), arb_cmp_op(), arb_literal()).prop_map(|(attr, op, lit)| {
            Expr::Cmp(op, Box::new(Expr::Attr(attr)), Box::new(Expr::Literal(lit)))
        }),
        arb_name().prop_map(Expr::Exists),
        arb_name().prop_map(Expr::Attr),
        arb_literal().prop_map(Expr::Literal),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), arb_cmp_op(), inner.clone()).prop_map(|(a, op, b)| Expr::Cmp(
                op,
                Box::new(a),
                Box::new(b)
            )),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

fn arb_attrs() -> impl Strategy<Value = BTreeMap<String, AttrValue>> {
    proptest::collection::btree_map(arb_name(), arb_value(), 0..5)
}

// ------------------------------------------------- differential: eval

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The tentpole equivalence: compiling an expression and running
    /// the postfix program gives exactly what the tree walk gives —
    /// `Ok(b)` for `Ok(b)`, `Err` for `Err` — on arbitrary
    /// expression × attribute-map pairs.
    #[test]
    fn compiled_eval_equals_tree_eval(expr in arb_expr(), attrs in arb_attrs()) {
        let tree = eval_bool(&expr, &attrs);
        let mut interner = Interner::new();
        let compiled = CompiledSelector::from_expr(&expr.to_string(), &expr, &mut interner);
        let mut stack = EvalStack::default();
        let fast = compiled.eval_map(&attrs, &mut stack);
        prop_assert_eq!(
            &tree, &fast,
            "selector: {} / attrs: {:?}", expr, attrs
        );
        // Same program, same answer a second time (stack reuse is
        // stateless between evaluations).
        let again = compiled.eval_map(&attrs, &mut stack);
        prop_assert_eq!(&fast, &again, "selector: {} / attrs: {:?}", expr, attrs);
    }

    /// Slot-table evaluation against a profile snapshot agrees with
    /// name-keyed map evaluation — and with the tree walk — even when
    /// the snapshot was taken before the selector was compiled (the
    /// interner grows; unknown symbols read as missing).
    #[test]
    fn snapshot_eval_equals_map_eval(expr in arb_expr(), attrs in arb_attrs()) {
        let mut profile = Profile::new("p");
        for (k, v) in &attrs {
            profile.set(k, v.clone());
        }
        let mut interner = Interner::new();
        // Snapshot first, compile second: selector symbols minted after
        // the snapshot must resolve as missing, not panic.
        let snap = CompiledProfile::snapshot(&profile, &mut interner);
        let compiled = CompiledSelector::from_expr(&expr.to_string(), &expr, &mut interner);
        let mut stack = EvalStack::default();
        let via_slots = compiled.eval_profile(&snap, &mut stack);
        let via_map = compiled.eval_map(&attrs, &mut stack);
        prop_assert_eq!(&via_slots, &via_map, "selector: {} / attrs: {:?}", expr, attrs);
        prop_assert_eq!(
            &via_slots, &eval_bool(&expr, &attrs),
            "selector: {} / attrs: {:?}", expr, attrs
        );
    }
}

// -------------------------------------------- differential: interpret

fn arb_transform() -> impl Strategy<Value = TransformCap> {
    (arb_name(), arb_literal(), arb_literal(), 1u32..4)
        .prop_map(|(attr, from, to, cost)| TransformCap::new(&attr, from, to).with_cost(cost))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Full-pipeline equivalence: `MatchEngine::interpret` (cached
    /// compiled selector + profile snapshot + compiled interest) gives
    /// exactly what `matching::interpret` gives — same outcome
    /// variants, same transform chains, same `Err`s — on arbitrary
    /// profiles (attrs, interest, transforms) and content maps.
    #[test]
    fn engine_interpret_equals_tree_interpret(
        sel_expr in arb_expr(),
        profile_attrs in arb_attrs(),
        interest_expr in arb_expr(),
        has_interest in any::<bool>(),
        transforms in proptest::collection::vec(arb_transform(), 0..3),
        content in arb_attrs(),
    ) {
        let selector_src = sel_expr.to_string();
        // Both pipelines parse the same source, so Display round-trip
        // fidelity is irrelevant; skip the rare unparsable rendering.
        let Ok(parsed) = Selector::parse(&selector_src) else {
            return Ok(());
        };
        let mut profile = Profile::new("client");
        for (k, v) in &profile_attrs {
            profile.set(k, v.clone());
        }
        if has_interest && Selector::parse(&interest_expr.to_string()).is_ok() {
            profile.set_interest(&interest_expr.to_string()).unwrap();
        }
        for t in transforms {
            profile.add_transform(t);
        }
        let tree = matching::interpret(&profile, &parsed, &content);
        let mut engine = MatchEngine::new();
        let fast = engine
            .interpret(&profile, &selector_src, &content)
            .expect("source just parsed");
        prop_assert_eq!(
            &tree, &fast,
            "selector: {} / profile: {:?} / content: {:?}", selector_src, profile, content
        );
        // Second interpretation hits the selector cache and the cached
        // snapshot; the answer must not change.
        let warm = engine
            .interpret(&profile, &selector_src, &content)
            .expect("cached");
        prop_assert_eq!(&fast, &warm, "selector: {}", selector_src);
        // Mutating the profile invalidates the snapshot: the engine
        // must track the tree walk across the change.
        profile.set("media", AttrValue::str("video"));
        let tree2 = matching::interpret(&profile, &parsed, &content);
        let fast2 = engine
            .interpret(&profile, &selector_src, &content)
            .expect("cached");
        prop_assert_eq!(
            &tree2, &fast2,
            "after mutation — selector: {} / profile: {:?}", selector_src, profile
        );
    }
}

// ------------------------------- differential: shared vs standalone

/// An arbitrary profile: attributes, maybe an interest, a transform
/// chain. One profile in three is Figure 3's Client 3 in miniature —
/// it wants `enc == 'a'` and can get there from `'b'` in one step and
/// from `'c'` in two — so the transform search is reached for real;
/// arbitrary transforms almost never apply.
fn arb_profile() -> impl Strategy<Value = Profile> {
    (
        arb_attrs(),
        arb_expr(),
        0u8..3,
        proptest::collection::vec(arb_transform(), 0..3),
    )
        .prop_map(|(attrs, interest, shape, transforms)| {
            let mut p = Profile::new("client");
            for (k, v) in &attrs {
                p.set(k, v.clone());
            }
            match shape {
                0 => {}
                1 => {
                    // The rare rendering that does not parse back is
                    // no interest at all.
                    let _ = p.set_interest(&interest.to_string());
                }
                _ => {
                    p.set_interest("enc == 'a'").unwrap();
                    p.add_transform(TransformCap::new("enc", "b", "a"));
                    p.add_transform(TransformCap::new("enc", "c", "b").with_cost(2));
                }
            }
            for t in transforms {
                p.add_transform(t);
            }
            p
        })
}

fn frame(selector: &str, seq: u64, content: BTreeMap<String, AttrValue>) -> Vec<u8> {
    SemanticMessage {
        sender: "pub".to_string(),
        kind: "chat".to_string(),
        selector: selector.to_string(),
        seq,
        content,
        body: vec![seq as u8; (seq % 5) as usize],
    }
    .encode()
}

/// An arbitrary batch of wire payloads: valid frames under arbitrary
/// selectors (type-error shapes included), one frame at every cut,
/// garbage, an unparsable selector and a selector that is a type error
/// at every profile.
fn arb_batch() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (
        proptest::collection::vec((arb_expr(), arb_attrs()), 1..6),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..3),
    )
        .prop_map(|(valid, garbage)| {
            let mut batch: Vec<Vec<u8>> = valid
                .iter()
                .zip(0u64..)
                .map(|((sel, content), seq)| frame(&sel.to_string(), seq, content.clone()))
                .collect();
            let whole = batch[0].clone();
            batch.extend((0..whole.len()).map(|cut| whole[..cut].to_vec()));
            batch.extend(garbage);
            batch.push(frame("media ==", 90, BTreeMap::new()));
            batch.push(frame("3", 91, BTreeMap::new()));
            // Addressed to everyone, zero to two transform steps away
            // from what the chain-capable profiles want.
            for (enc, seq) in ["a", "b", "c"].into_iter().zip(92u64..) {
                let content = [("enc".to_string(), AttrValue::str(enc))].into();
                batch.push(frame("true", seq, content));
            }
            // The same valid frames again: warm-path answers.
            batch.extend(
                valid.iter().zip(0u64..).map(|((sel, content), seq)| {
                    frame(&sel.to_string(), 100 + seq, content.clone())
                }),
            );
            batch
        })
}

/// What the tree walk makes of `batch` at `profile`: the accepted
/// messages with their outcomes, each reception counted into `stats`
/// the way an endpoint must count it.
fn reference(
    profile: &Profile,
    batch: &[Vec<u8>],
    stats: &mut BusStats,
) -> Vec<(SemanticMessage, MatchOutcome)> {
    let mut accepted = Vec::new();
    for bytes in batch {
        let Ok(msg) = SemanticMessage::decode(bytes) else {
            stats.malformed += 1;
            continue;
        };
        let Ok(sel) = Selector::parse(&msg.selector) else {
            stats.bad_selector += 1;
            continue;
        };
        match matching::interpret(profile, &sel, &msg.content) {
            Ok(MatchOutcome::Reject) | Err(_) => stats.rejected += 1,
            Ok(outcome) => {
                match outcome {
                    MatchOutcome::AcceptWithTransform(_) => stats.transformed += 1,
                    _ => stats.accepted += 1,
                }
                accepted.push((msg, outcome));
            }
        }
    }
    accepted
}

const SHARED_PORT: Port = Port(5004);
const ALONE_PORT: Port = Port(5005);

/// Lookups `store` has served so far.
fn lookups(store: &SelectorStore) -> u64 {
    store.stats().hits() + store.stats().misses()
}

/// How many payloads of `batch` decode as a semantic message: the ones
/// whose selector a receiver has to look up.
fn decodable(batch: &[Vec<u8>]) -> u64 {
    batch
        .iter()
        .filter(|bytes| SemanticMessage::decode(bytes).is_ok())
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The shared reception path — every endpoint of a group handed
    /// the same buffers, one `SelectorStore` — yields, per endpoint,
    /// exactly the deliveries and `BusStats` of a standalone endpoint
    /// fed the same bytes through `interpret_batch`, and both equal
    /// the tree walk; across a profile mutation too. However many
    /// endpoints receive a buffer, the store is asked once.
    #[test]
    fn shared_frames_equal_standalone_endpoints_and_tree_walk(
        profiles in proptest::collection::vec(arb_profile(), 1..4),
        first in arb_batch(),
        second in arb_batch(),
    ) {
        let mut net = Network::new(5);
        let names: Vec<String> = (0..=profiles.len()).map(|i| format!("h{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let (_sw, hosts) = net.lan(&names, LinkSpec::lan());
        let (group, nobody) = (net.new_group(), net.new_group());
        let injector = net.bind(hosts[0], Port(9)).unwrap();
        let store = SelectorStore::with_capacity(64);
        let mut shared = Vec::new();
        let mut alone = Vec::new();
        for (profile, &host) in profiles.iter().zip(&hosts[1..]) {
            shared.push(
                BusEndpoint::join_with_store(
                    &mut net, host, SHARED_PORT, group, profile.clone(), store.clone(),
                )
                .unwrap(),
            );
            alone.push(
                BusEndpoint::join(&mut net, host, ALONE_PORT, nobody, profile.clone()).unwrap(),
            );
        }
        let mut expected_stats = vec![BusStats::default(); profiles.len()];
        for (round, batch) in [first, second].into_iter().enumerate() {
            if round == 1 {
                // The paper's whole point: state changes mid-session,
                // locally, with nobody told.
                for ep in shared.iter_mut().chain(alone.iter_mut()) {
                    ep.profile.set("media", AttrValue::str("video"));
                    ep.profile.unset("flag");
                }
            }
            net.send_batch(injector, Addr::multicast(group, SHARED_PORT), batch.clone())
                .unwrap();
            net.run_for(Ticks::from_millis(50));
            // Serial half for every endpoint first, into one buffer, as
            // the session's pump does, then the decisions.
            let lookups_before = lookups(&store);
            let mut inbox = Vec::new();
            let received: Vec<_> = shared
                .iter_mut()
                .map(|ep| {
                    let start = inbox.len();
                    ep.receive(&mut net, &mut inbox);
                    start..inbox.len()
                })
                .collect();
            prop_assert_eq!(
                lookups(&store) - lookups_before,
                decodable(&batch),
                "one store lookup per message buffer, {} receivers", shared.len()
            );
            for (i, span) in received.iter().enumerate() {
                let frames = &inbox[span.clone()];
                prop_assert_eq!(frames.len(), batch.len(), "endpoint {} missed datagrams", i);
                let via_frames = shared[i].interpret_frames(frames);
                let via_bytes = alone[i].interpret_batch(batch.clone());
                prop_assert_eq!(&via_frames, &via_bytes, "endpoint {} round {}", i, round);
                let e = &mut expected_stats[i];
                let accepted = reference(&shared[i].profile, &batch, e);
                let got: Vec<(SemanticMessage, MatchOutcome)> = via_frames
                    .iter()
                    .map(|d| (d.message.to_message(), d.outcome.clone()))
                    .collect();
                prop_assert_eq!(&got, &accepted, "endpoint {} round {} vs tree walk", i, round);
                prop_assert_eq!(shared[i].stats(), *e, "shared endpoint {} stats", i);
                prop_assert_eq!(alone[i].stats(), *e, "standalone endpoint {} stats", i);
            }
        }
    }

    /// The same-store rule. Two endpoints with the same profile, each
    /// compiling through a store of its own whose interner met the
    /// attribute names in the opposite order — so every symbol id
    /// differs — receive the same multicast buffers. The first leaves
    /// its frames on them; the second must not evaluate those programs
    /// (their symbols would read the wrong slots of its snapshot), so
    /// it resolves each buffer privately, and both decide exactly as
    /// the tree walk. Buffers whose slot something else already took
    /// resolve all the same.
    #[test]
    fn a_receiver_with_another_store_resolves_privately(
        profile in arb_profile(),
        batch in arb_batch(),
    ) {
        let mut net = Network::new(6);
        let (_sw, hosts) = net.lan(&["h0", "h1", "h2"], LinkSpec::lan());
        let group = net.new_group();
        let injector = net.bind(hosts[0], Port(9)).unwrap();
        let names = ["media", "color", "size", "flag", "enc", "x"];
        let warmed = |order: &[&str]| {
            let store = SelectorStore::with_capacity(64);
            for name in order {
                store.compile(&format!("exists({name})")).unwrap();
            }
            store
        };
        let reversed: Vec<&str> = names.iter().rev().copied().collect();
        let stores = [warmed(&names), warmed(&reversed)];
        let mut endpoints: Vec<BusEndpoint> = stores
            .iter()
            .zip(&hosts[1..])
            .map(|(store, &host)| {
                BusEndpoint::join_with_store(
                    &mut net, host, SHARED_PORT, group, profile.clone(), store.clone(),
                )
                .unwrap()
            })
            .collect();

        // Every third buffer's slot is taken before anyone looks.
        let buffers: Vec<Payload> = batch.iter().cloned().map(Payload::from).collect();
        for taken in buffers.iter().step_by(3) {
            prop_assert_eq!(taken.memo_or_init(|| 7u32), Some(&7));
        }
        net.send_batch(injector, Addr::multicast(group, SHARED_PORT), buffers)
            .unwrap();
        net.run_for(Ticks::from_millis(50));

        let before: Vec<u64> = stores.iter().map(lookups).collect();
        let received: Vec<Vec<Frame>> = endpoints
            .iter_mut()
            .map(|ep| {
                let mut frames = Vec::new();
                ep.receive(&mut net, &mut frames);
                frames
            })
            .collect();
        for (store, before) in stores.iter().zip(before) {
            prop_assert_eq!(
                lookups(store) - before,
                decodable(&batch),
                "each store compiled every buffer's selector itself"
            );
        }
        prop_assert_eq!(received[0].len(), batch.len());
        for (first, second) in received[0].iter().zip(&received[1]) {
            if let (Frame::Message { program: a, .. }, Frame::Message { program: b, .. }) =
                (first, second)
            {
                prop_assert!(!std::sync::Arc::ptr_eq(a, b), "a program crossed stores");
            }
        }
        let mut expected = BusStats::default();
        let accepted = reference(&profile, &batch, &mut expected);
        for (i, frames) in received.iter().enumerate() {
            let got: Vec<(SemanticMessage, MatchOutcome)> = endpoints[i]
                .interpret_frames(frames)
                .iter()
                .map(|d| (d.message.to_message(), d.outcome.clone()))
                .collect();
            prop_assert_eq!(&got, &accepted, "endpoint {} vs tree walk", i);
            prop_assert_eq!(endpoints[i].stats(), expected, "endpoint {} stats", i);
        }
    }
}

// ------------------------------------- differential: verdict memo

/// Set `profile`'s attributes to exactly `attrs`.
fn assign(profile: &mut Profile, attrs: &BTreeMap<String, AttrValue>) {
    let stale: Vec<String> = profile
        .attrs()
        .keys()
        .filter(|k| !attrs.contains_key(*k))
        .cloned()
        .collect();
    for k in stale {
        profile.unset(&k);
    }
    for (k, v) in attrs {
        profile.set(k, v.clone());
    }
}

/// A receiver of the verdict differential: the pool entry its
/// attributes start as, and what else its profile holds — nothing, an
/// arbitrary interest, or Figure 3's Client 3 chain (as `arb_profile`).
fn arb_receiver() -> impl Strategy<Value = (usize, u8, Expr)> {
    (0usize..3, 0u8..3, arb_expr())
}

fn receiver_profile(
    i: usize,
    attrs: &BTreeMap<String, AttrValue>,
    shape: u8,
    interest: &Expr,
) -> Profile {
    let mut p = Profile::new(&format!("r{i}"));
    assign(&mut p, attrs);
    match shape {
        0 => {}
        1 => {
            let _ = p.set_interest(&interest.to_string());
        }
        _ => {
            p.set_interest("enc == 'a'").unwrap();
            p.add_transform(TransformCap::new("enc", "b", "a"));
            p.add_transform(TransformCap::new("enc", "c", "b").with_cost(2));
        }
    }
    p
}

/// One receiver's accepted messages, in order.
type Accepted = Vec<(SemanticMessage, MatchOutcome)>;

/// Run the verdict differential's session: `receivers` endpoints split
/// over two stores (the second's interner met the attribute names in
/// the opposite order, so every symbol differs), each batch multicast
/// to all of them and decided on `workers` threads, the profiles moved
/// between batches by `moves`. Returns every receiver's accepted
/// messages per batch and its final `BusStats`.
fn run_receivers(
    receivers: &[Profile],
    batches: &[Vec<Vec<u8>>],
    moves: &dyn Fn(usize, usize, &mut Profile),
    workers: usize,
) -> (Vec<Vec<Accepted>>, Vec<BusStats>) {
    let mut net = Network::new(8);
    let names: Vec<String> = (0..=receivers.len()).map(|i| format!("h{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let (_sw, hosts) = net.lan(&names, LinkSpec::lan());
    let group = net.new_group();
    let injector = net.bind(hosts[0], Port(9)).unwrap();
    let attribute_names = ["media", "color", "size", "flag", "enc", "x"];
    let stores = [
        SelectorStore::with_capacity(64),
        SelectorStore::with_capacity(64),
    ];
    for name in attribute_names.iter().rev() {
        stores[1].compile(&format!("exists({name})")).unwrap();
    }
    let mut endpoints: Vec<BusEndpoint> = receivers
        .iter()
        .zip(&hosts[1..])
        .enumerate()
        .map(|(i, (p, &host))| {
            let store = stores[i % 2].clone();
            BusEndpoint::join_with_store(&mut net, host, SHARED_PORT, group, p.clone(), store)
                .unwrap()
        })
        .collect();
    let mut accepted = vec![Vec::new(); receivers.len()];
    let mut minted = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        for (i, ep) in endpoints.iter_mut().enumerate() {
            moves(b, i, &mut ep.profile);
        }
        net.send_batch(injector, Addr::multicast(group, SHARED_PORT), batch.clone())
            .unwrap();
        net.run_for(Ticks::from_millis(50));
        let inboxes: Vec<Vec<Frame>> = endpoints
            .iter_mut()
            .map(|ep| {
                let mut frames = Vec::new();
                ep.receive(&mut net, &mut frames);
                frames
            })
            .collect();
        minted.push(stores.iter().map(|s| s.classes().0).sum::<usize>());
        let per = endpoints.len().div_ceil(workers);
        let decided: Vec<Accepted> = std::thread::scope(|scope| {
            let shards: Vec<_> = endpoints
                .chunks_mut(per)
                .zip(inboxes.chunks(per))
                .map(|(eps, inboxes)| {
                    scope.spawn(move || {
                        eps.iter_mut()
                            .zip(inboxes)
                            .map(|(ep, frames)| {
                                ep.interpret_frames(frames)
                                    .iter()
                                    .map(|d| (d.message.to_message(), d.outcome.clone()))
                                    .collect::<Accepted>()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            shards
                .into_iter()
                .flat_map(|h| h.join().expect("worker"))
                .collect()
        });
        for (i, got) in decided.into_iter().enumerate() {
            accepted[i].push(got);
        }
    }
    assert_eq!(minted[2], minted[1], "moving back mints no class");
    let stats = endpoints.iter().map(BusEndpoint::stats).collect();
    (accepted, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The verdict memo changes no decision. Receivers draw their
    /// attributes from a pool of three maps, so most share a class; the
    /// second batch moves every other receiver to a map of its own (a
    /// new class) and the third moves it back (an existing one). At one
    /// worker and at four, on either of two stores, every receiver
    /// accepts what the tree walk accepts, with the same outcomes and
    /// the same `BusStats`, and what a fresh engine — a store that has
    /// decided nothing yet — makes of each message agrees. The
    /// gateway's engine, asked twice, gives the same answer — the same
    /// `Err` for a selector that is a type error — both times.
    #[test]
    fn memoised_decisions_equal_fresh_evaluation_and_tree_walk(
        pool in proptest::collection::vec(arb_attrs(), 3..4),
        receivers in proptest::collection::vec(arb_receiver(), 2..9),
        first in arb_batch(),
        second in arb_batch(),
    ) {
        let profiles: Vec<Profile> = receivers
            .iter()
            .enumerate()
            .map(|(i, (pick, shape, interest))| receiver_profile(i, &pool[*pick], *shape, interest))
            .collect();
        // Batch 1 moves odd receivers to a map of their own; batch 2
        // moves them back to where they started.
        let moved = |i: usize| {
            let mut attrs = pool[receivers[i].0].clone();
            attrs.insert("media".to_string(), AttrValue::str(&format!("own-{i}")));
            attrs
        };
        let moves = |batch: usize, i: usize, p: &mut Profile| {
            if i % 2 == 1 && batch > 0 {
                let attrs = if batch == 1 { moved(i) } else { pool[receivers[i].0].clone() };
                assign(p, &attrs);
            }
        };
        let batches = [first.clone(), second, first];
        let attrs_at = |batch: usize, i: usize| {
            let mut p = profiles[i].clone();
            for b in 0..=batch {
                moves(b, i, &mut p);
            }
            p
        };

        let mut expected_stats = vec![BusStats::default(); profiles.len()];
        let mut expected = vec![Vec::new(); profiles.len()];
        for (b, batch) in batches.iter().enumerate() {
            for i in 0..profiles.len() {
                let profile = attrs_at(b, i);
                expected[i].push(reference(&profile, batch, &mut expected_stats[i]));
                // A fresh engine runs every program it meets once.
                for bytes in batch {
                    let Ok(msg) = SemanticMessage::decode(bytes) else { continue };
                    let Ok(sel) = Selector::parse(&msg.selector) else { continue };
                    let fresh = MatchEngine::new()
                        .interpret(&profile, &msg.selector, &msg.content)
                        .expect("parsed above");
                    prop_assert_eq!(
                        &fresh, &matching::interpret(&profile, &sel, &msg.content),
                        "fresh engine: selector {} / profile {:?}", msg.selector, profile
                    );
                }
            }
        }
        for workers in [1, 4] {
            let (accepted, stats) = run_receivers(&profiles, &batches, &moves, workers);
            for i in 0..profiles.len() {
                prop_assert_eq!(
                    &accepted[i], &expected[i],
                    "receiver {} at {} workers, profile {:?}", i, workers, profiles[i]
                );
                prop_assert_eq!(stats[i], expected_stats[i], "receiver {} stats", i);
            }
        }

        // The gateway: one engine, the session's store, every
        // receiver's profile, each frame asked about twice.
        let store = SelectorStore::with_capacity(64);
        let mut gateway = MatchEngine::with_store(store.clone());
        for bytes in &batches[0] {
            let Frame::Message { message, program } = Frame::resolve(bytes, &store) else {
                continue;
            };
            let sel = Selector::parse(message.selector()).expect("compiled");
            for profile in &profiles {
                let tree = matching::interpret(profile, &sel, message.content());
                for _ in 0..2 {
                    let got = gateway.interpret_program(profile, &program, &message);
                    prop_assert_eq!(
                        &got, &tree,
                        "gateway: selector {} / profile {:?}", message.selector(), profile
                    );
                }
            }
        }
    }
}

/// A receiver toggled between two attribute values a thousand times
/// moves between two classes: the store mints two, not a thousand.
#[test]
fn a_toggled_profile_mints_two_classes() {
    let mut net = Network::new(9);
    let (_sw, hosts) = net.lan(&["pub", "sub"], LinkSpec::lan());
    let group = net.new_group();
    let store = SelectorStore::with_capacity(8);
    let join = |net: &mut Network, host, name: &str| {
        BusEndpoint::join_with_store(
            net,
            host,
            SHARED_PORT,
            group,
            Profile::new(name),
            store.clone(),
        )
        .unwrap()
    };
    let mut publisher = join(&mut net, hosts[0], "pub");
    let mut sub = join(&mut net, hosts[1], "sub");
    let classes_before = store.classes().0;
    for round in 0..1_000u32 {
        let mode = if round % 2 == 0 { "image" } else { "text" };
        sub.profile.set("mode", AttrValue::str(mode));
        publisher
            .publish(&mut net, "chat", "mode == 'image'", BTreeMap::new(), vec![])
            .unwrap();
        net.run_for(Ticks::from_millis(10));
        assert_eq!(
            sub.poll(&mut net).len(),
            usize::from(round % 2 == 0),
            "round {round}"
        );
    }
    assert_eq!(store.classes().0 - classes_before, 2);
    assert_eq!(sub.stats().accepted, 500);
    assert_eq!(sub.stats().rejected, 500);
}

// ------------------------------------------------------- cache behavior

#[test]
fn evicted_selector_recompiles_to_identical_program() {
    let mut cache = SelectorCache::with_capacity(2);
    let sel = "media == 'video' and (size < 2 or exists(enc)) and not flag";
    let first = cache.compile(sel).unwrap().clone();
    // Force `sel` out of the bounded cache.
    cache.compile("x == 1").unwrap();
    cache.compile("x == 2").unwrap();
    assert!(
        cache.peek(sel).is_none(),
        "selector should have been evicted"
    );
    assert!(cache.stats().evictions() >= 1);
    // Recompilation after eviction: the interner kept every symbol, so
    // the program, constant pool, and attribute references are
    // identical — evaluation behavior cannot drift across evictions.
    let second = cache.compile(sel).unwrap().clone();
    assert_eq!(first, second, "recompiled program diverged");
    assert_eq!(first.program(), second.program());
}

#[test]
fn eviction_preserves_evaluation_results() {
    let mut cache = SelectorCache::with_capacity(1);
    let mut stack = EvalStack::default();
    let mut attrs = BTreeMap::new();
    attrs.insert("size".to_string(), AttrValue::Int(3));
    let before = cache
        .compile("size >= 2")
        .unwrap()
        .eval_map(&attrs, &mut stack)
        .unwrap();
    // Thrash the single-entry cache, then come back.
    for i in 0..5 {
        cache.compile(&format!("size == {i}")).unwrap();
    }
    let after = cache
        .compile("size >= 2")
        .unwrap()
        .eval_map(&attrs, &mut stack)
        .unwrap();
    assert_eq!(before, after);
    // Five thrash evictions plus one for the final recompilation.
    assert_eq!(cache.stats().evictions(), 6);
}

#[test]
fn engine_counts_hits_misses_and_parse_failures() {
    let store = SelectorStore::with_capacity(8);
    store.compile("x == 1").unwrap();
    store.compile("x == 1").unwrap();
    store.compile("x == 1").unwrap();
    assert!(store.compile("x ==").is_err(), "parse error surfaces");
    let stats = store.stats();
    assert_eq!(stats.hits(), 2);
    // The unparsable selector cost real work: it counts as a miss.
    assert_eq!(stats.misses(), 2);
}

/// Strict LRU against a reference model: whatever mix of fresh
/// selectors and re-touches arrives, the cache holds exactly the `cap`
/// most recently used — so every eviction took the least recently used
/// entry, the order the linear oldest-tick scan used to produce — and a
/// pure stream of `3 × cap` distinct selectors evicts `2 × cap`.
#[test]
fn eviction_is_strict_lru_in_tick_order() {
    const CAP: usize = 16;
    let mut cache = SelectorCache::with_capacity(CAP);
    for i in 0..3 * CAP {
        cache.compile(&format!("x == {i}")).unwrap();
    }
    assert_eq!(cache.stats().evictions(), 2 * CAP as u64);
    assert_eq!(cache.stats().misses(), 3 * CAP as u64);
    assert_eq!(cache.len(), CAP);
    for i in 0..3 * CAP {
        assert_eq!(
            cache.peek(&format!("x == {i}")).is_some(),
            i >= 2 * CAP,
            "x == {i}: the survivors are the last {CAP} compiled"
        );
    }

    // Mixed stream against a model kept most-recent-first.
    let mut cache = SelectorCache::with_capacity(CAP);
    let mut model: Vec<usize> = Vec::new();
    let mut x = 0x2545_f491u32;
    let (mut hits, mut evictions) = (0u64, 0u64);
    for step in 0..4_000 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        // Two draws in three re-touch something recent-ish; the rest
        // reach further back or mint a new selector.
        let span = [96, 24, 24][x as usize % 3];
        let id = (x >> 8) as usize % span;
        cache.compile(&format!("x == {id}")).unwrap();
        match model.iter().position(|&m| m == id) {
            Some(at) => {
                hits += 1;
                model.remove(at);
            }
            None if model.len() == CAP => {
                evictions += 1;
                let victim = model.pop().expect("full model");
                assert!(
                    cache.peek(&format!("x == {victim}")).is_none(),
                    "step {step}: LRU victim x == {victim} survived"
                );
            }
            None => {}
        }
        model.insert(0, id);
        for &m in &model {
            assert!(
                cache.peek(&format!("x == {m}")).is_some(),
                "step {step}: x == {m} is among the {CAP} most recent but was evicted"
            );
        }
        assert_eq!(cache.len(), model.len());
    }
    assert!(evictions > 100 && hits > 100, "the stream exercised both");
    assert_eq!(cache.stats().hits(), hits);
    assert_eq!(cache.stats().evictions(), evictions);
}

// ------------------------------------------------ at session scale

/// The matching paths at scale, counted against the tree walk:
/// 8 000 messages over 8, 64 and 256 distinct selectors (about half
/// accept) through a compiled engine whose cache is below the working
/// set (round-robin access recompiles every message) and one that
/// holds it all; then 1 000 messages received by each of 16 endpoints
/// of differing profiles, each decoding privately through a store of
/// its own (endpoints × selectors programs) and all through one shared
/// store (one program per selector).
#[test]
fn cold_warm_private_and_shared_paths_accept_as_the_tree_walk_at_scale() {
    let base = {
        let mut p = Profile::new("client");
        p.set("media", AttrValue::str("video"));
        p.set("size", AttrValue::Int(4));
        p.set("enc", AttrValue::str("h261"));
        p.set("color", AttrValue::Bool(true));
        p.set_interest("media == 'video' or media == 'audio'")
            .unwrap();
        p
    };
    let content: BTreeMap<String, AttrValue> = [
        ("media".to_string(), AttrValue::str("video")),
        ("frames".to_string(), AttrValue::Int(30)),
    ]
    .into();
    let accepts = |r: Result<MatchOutcome, _>| r.is_ok_and(|o: MatchOutcome| o.is_accepted());
    let (messages, endpoints, fan_out_messages) = (8_000, 16, 1_000);
    let profiles: Vec<Profile> = (0..endpoints)
        .map(|i| {
            let mut p = base.clone();
            p.name = format!("client-{i}");
            p.set("size", AttrValue::Int((i % 8) as i64));
            p
        })
        .collect();
    for n in [8usize, 64, 256] {
        // `x == {i}` keeps the selectors distinct without changing an
        // outcome: `x` is absent.
        let selectors: Vec<String> = (0..n)
            .map(|i| {
                format!(
                    "media == 'video' and exists(enc) and (size <= {} or x == {i})",
                    i % 8
                )
            })
            .collect();
        let parsed: Vec<Selector> = selectors
            .iter()
            .map(|s| Selector::parse(s).unwrap())
            .collect();
        let tree = (0..messages)
            .filter(|i| accepts(matching::interpret(&base, &parsed[i % n], &content)))
            .count();
        let mut warm = MatchEngine::with_capacity(n.max(16));
        for sel in &selectors {
            warm.compile(sel).unwrap();
        }
        for (path, mut engine) in [
            ("cold", MatchEngine::with_capacity((n / 2).max(1))),
            ("warm", warm),
        ] {
            let got = (0..messages)
                .filter(|i| {
                    accepts(
                        engine
                            .interpret(&base, &selectors[i % n], &content)
                            .unwrap(),
                    )
                })
                .count();
            assert_eq!(got, tree, "{path} path at {n} selectors");
        }

        let tree: usize = profiles
            .iter()
            .map(|p| {
                (0..fan_out_messages)
                    .filter(|i| accepts(matching::interpret(p, &parsed[i % n], &content)))
                    .count()
            })
            .sum();
        let wires: Vec<Vec<u8>> = (0..fan_out_messages)
            .map(|i| frame(&selectors[i % n], i as u64, content.clone()))
            .collect();
        let mut net = Network::new(1);
        let names: Vec<String> = (0..endpoints).map(|i| format!("h{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let (_sw, hosts) = net.lan(&names, LinkSpec::lan());
        let (private_group, shared_group) = (net.new_group(), net.new_group());
        let store = SelectorStore::with_capacity(4096);
        let (mut private, mut shared) = (Vec::new(), Vec::new());
        for (p, &host) in profiles.iter().zip(&hosts) {
            private.push(
                BusEndpoint::join(&mut net, host, ALONE_PORT, private_group, p.clone()).unwrap(),
            );
            shared.push(
                BusEndpoint::join_with_store(
                    &mut net,
                    host,
                    SHARED_PORT,
                    shared_group,
                    p.clone(),
                    store.clone(),
                )
                .unwrap(),
            );
        }
        let private_accepted: usize = private
            .iter_mut()
            .map(|ep| {
                ep.interpret_batch(wires.iter().map(Vec::as_slice).collect::<Vec<_>>())
                    .len()
            })
            .sum();
        let buffers: Vec<Payload> = wires.iter().map(|w| Payload::from(w.clone())).collect();
        let shared_accepted: usize = shared
            .iter_mut()
            .map(|ep| {
                let frames: Vec<Frame> = buffers.iter().map(|b| Frame::of(b, &store)).collect();
                ep.interpret_frames(&frames).len()
            })
            .sum();
        assert_eq!(private_accepted, tree, "private path at {n} selectors");
        assert_eq!(shared_accepted, tree, "shared path at {n} selectors");
        let private_programs: u64 = private
            .iter()
            .map(|ep| ep.cache_stats().misses() - ep.cache_stats().evictions())
            .sum();
        assert_eq!(
            private_programs,
            (endpoints * n) as u64,
            "endpoints x selectors programs"
        );
        assert_eq!(store.len(), n, "one program per selector");
    }
}
