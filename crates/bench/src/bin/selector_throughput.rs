//! Compiled-matching throughput: tree-walk interpretation (parse every
//! message, walk the AST) versus the compiled fast path (postfix
//! program + interned attributes + persistent eval stack), with the
//! selector cache both warm (capacity covers the working set) and cold
//! (capacity below the working set, so round-robin access thrashes the
//! LRU and every message recompiles).
//!
//! Sweeps the number of distinct selectors in flight — 8, 64, 256 —
//! because the cache pays off per *selector*, not per message: a small
//! working set amortizes compilation across many messages, a working
//! set above capacity shows the recompile floor.
//!
//! A second table measures fan-out, the session's actual shape: the
//! same frames received by E endpoints, each decoding privately against
//! a selector store of its own (E decodes and E × S programs) versus
//! one decoded frame per buffer and one store for all (one decode and S
//! programs), the decision per endpoint either way.
//!
//! Every path's accept count is asserted equal to the tree walk's per
//! row. Pass `--quick` for the reduced-scale sweep CI runs as smoke.

use bench::{header, quick_mode, row, time_best};
use sempubsub::matching;
use sempubsub::{
    AttrValue, BusEndpoint, Frame, MatchEngine, Profile, Selector, SelectorStore, SemanticMessage,
};
use simnet::{LinkSpec, Network, Payload, Port};
use std::collections::BTreeMap;

/// One profile shaped like a real session client: attributes the
/// selectors probe, an interest filter, and a transform capability so
/// the accept path exercises the full Figure-3 pipeline.
fn make_profile() -> Profile {
    let mut p = Profile::new("bench-client");
    p.set("media", AttrValue::str("video"));
    p.set("size", AttrValue::Int(4));
    p.set("enc", AttrValue::str("h261"));
    p.set("color", AttrValue::Bool(true));
    p.set_interest("media == 'video' or media == 'audio'")
        .expect("valid interest");
    p
}

/// `n` distinct selectors over the shared attribute vocabulary; about
/// half accept against [`make_profile`], half reject, so both outcome
/// paths are timed.
fn make_selectors(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            // `x == {i}` keeps every selector textually distinct (the
            // cache keys on source) without changing the outcome: `x`
            // is absent, so that arm is always false.
            format!(
                "media == 'video' and exists(enc) and (size <= {} or x == {i})",
                i % 8
            )
        })
        .collect()
}

fn make_content() -> BTreeMap<String, AttrValue> {
    let mut c = BTreeMap::new();
    c.insert("media".to_string(), AttrValue::str("video"));
    c.insert("frames".to_string(), AttrValue::Int(30));
    c
}

/// Baseline: what `interpret_batch` did before compilation — parse the
/// selector for every message, then tree-walk the AST.
fn run_tree(
    messages: usize,
    profile: &Profile,
    selectors: &[String],
    content: &BTreeMap<String, AttrValue>,
) -> u64 {
    let mut accepted = 0u64;
    for i in 0..messages {
        let sel = Selector::parse(&selectors[i % selectors.len()]).expect("valid selector");
        if matching::interpret(profile, &sel, content).is_ok_and(|o| o.is_accepted()) {
            accepted += 1;
        }
    }
    accepted
}

/// Fast path: compiled programs from a bounded LRU cache, profile
/// snapshot reused across messages, zero-realloc eval stack.
fn run_compiled(
    messages: usize,
    engine: &mut MatchEngine,
    profile: &Profile,
    selectors: &[String],
    content: &BTreeMap<String, AttrValue>,
) -> u64 {
    let mut accepted = 0u64;
    for i in 0..messages {
        if engine
            .interpret(profile, &selectors[i % selectors.len()], content)
            .expect("valid selector")
            .is_ok_and(|o| o.is_accepted())
        {
            accepted += 1;
        }
    }
    accepted
}

/// Endpoint `i`'s profile: [`make_profile`] with its own `size`, so
/// endpoints accept different subsets of the selectors.
fn fan_out_profile(i: usize) -> Profile {
    let mut p = make_profile();
    p.name = format!("bench-client-{i}");
    p.set("size", AttrValue::Int((i % 8) as i64));
    p
}

/// Receive `wires` at every endpoint the way a standalone endpoint
/// does: decode each copy privately, compile through a private store.
fn run_private(endpoints: &mut [BusEndpoint], wires: &[Vec<u8>]) -> u64 {
    endpoints
        .iter_mut()
        .map(|ep| {
            let payloads: Vec<&[u8]> = wires.iter().map(Vec::as_slice).collect();
            ep.interpret_batch(payloads).len() as u64
        })
        .sum()
}

/// Receive `wires` at every endpoint the way the session's pump does:
/// each endpoint looks at the publisher's one buffer, the first look
/// decodes it and leaves the frame on the buffer, the endpoint decides.
fn run_shared(endpoints: &mut [BusEndpoint], store: &SelectorStore, wires: &[Vec<u8>]) -> u64 {
    let buffers: Vec<Payload> = wires.iter().map(|w| Payload::from(w.clone())).collect();
    endpoints
        .iter_mut()
        .map(|ep| {
            let frames: Vec<Frame> = buffers.iter().map(|b| Frame::of(b, store)).collect();
            ep.interpret_frames(&frames).len() as u64
        })
        .sum()
}

/// The fan-out table: E endpoints × M messages per selector count.
fn fan_out(quick: bool) {
    let (endpoints, messages, reps) = if quick {
        (16, 1_000, 2)
    } else {
        (64, 4_000, 3)
    };
    println!(
        "\nfan-out — {messages} messages received by each of {endpoints} endpoints, \
         best of {reps} (receptions/s)\n"
    );
    let widths = [10, 14, 14, 10, 16, 15];
    header(
        &[
            "selectors",
            "private",
            "shared",
            "gain",
            "programs (priv)",
            "programs (shr)",
        ],
        &widths,
    );
    let content = make_content();
    let profiles: Vec<Profile> = (0..endpoints).map(fan_out_profile).collect();
    for n in [8usize, 64, 256] {
        let selectors = make_selectors(n);
        let wires: Vec<Vec<u8>> = (0..messages)
            .map(|i| {
                SemanticMessage {
                    sender: "bench-publisher".to_string(),
                    kind: "chat".to_string(),
                    selector: selectors[i % n].clone(),
                    seq: i as u64,
                    content: content.clone(),
                    body: b"a line of chat".to_vec(),
                }
                .encode()
            })
            .collect();

        let parsed: Vec<Selector> = selectors
            .iter()
            .map(|s| Selector::parse(s).expect("valid selector"))
            .collect();
        let tree_accepted: u64 = profiles
            .iter()
            .map(|p| {
                (0..messages)
                    .filter(|i| {
                        matching::interpret(p, &parsed[i % n], &content)
                            .is_ok_and(|o| o.is_accepted())
                    })
                    .count() as u64
            })
            .sum();

        let mut net = Network::new(1);
        let names: Vec<String> = (0..endpoints).map(|i| format!("h{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let (_switch, hosts) = net.lan(&names, LinkSpec::lan());
        let (private_group, shared_group) = (net.new_group(), net.new_group());
        let mut private: Vec<BusEndpoint> = (0..endpoints)
            .map(|i| {
                let p = profiles[i].clone();
                BusEndpoint::join(&mut net, hosts[i], Port(5004), private_group, p)
                    .expect("fresh port")
            })
            .collect();
        let store = SelectorStore::with_capacity(4096);
        let mut shared: Vec<BusEndpoint> = (0..endpoints)
            .map(|i| {
                let p = profiles[i].clone();
                BusEndpoint::join_with_store(
                    &mut net,
                    hosts[i],
                    Port(5005),
                    shared_group,
                    p,
                    store.clone(),
                )
                .expect("fresh port")
            })
            .collect();

        let (private_accepted, private_s) = time_best(reps, || run_private(&mut private, &wires));
        let (shared_accepted, shared_s) =
            time_best(reps, || run_shared(&mut shared, &store, &wires));
        assert_eq!(tree_accepted, private_accepted, "private path at n={n}");
        assert_eq!(tree_accepted, shared_accepted, "shared path at n={n}");

        let private_programs: u64 = private
            .iter()
            .map(|ep| ep.cache_stats().misses() - ep.cache_stats().evictions())
            .sum();
        assert_eq!(private_programs, (endpoints * n) as u64, "E x S programs");
        assert_eq!(store.len(), n, "S programs");

        let rate = |s: f64| format!("{:.0}", (endpoints * messages) as f64 / s);
        row(
            &[
                n.to_string(),
                rate(private_s),
                rate(shared_s),
                format!("{:.2}x", private_s / shared_s),
                private_programs.to_string(),
                store.len().to_string(),
            ],
            &widths,
        );
    }
    println!(
        "\naccept counts equal the tree walk on both paths (asserted per row); programs held:\n\
         endpoints x selectors with a store per endpoint, selectors with one store for all"
    );
}

fn main() {
    let quick = quick_mode();
    let (messages, reps) = if quick { (8_000, 2) } else { (40_000, 5) };
    println!(
        "selector matching throughput — {messages} messages per run, best of {reps} (msgs/s)\n"
    );
    let profile = make_profile();
    let content = make_content();
    let widths = [10, 12, 14, 14, 12];
    header(
        &[
            "selectors",
            "tree-walk",
            "compiled cold",
            "compiled warm",
            "warm gain",
        ],
        &widths,
    );
    for n in [8usize, 64, 256] {
        let selectors = make_selectors(n);

        let (tree_accepted, tree_s) =
            time_best(reps, || run_tree(messages, &profile, &selectors, &content));

        // Cold: capacity below the working set + round-robin access is
        // the LRU worst case — every message misses and recompiles.
        let (cold_accepted, cold_s) = time_best(reps, || {
            let mut engine = MatchEngine::with_capacity((n / 2).max(1));
            run_compiled(messages, &mut engine, &profile, &selectors, &content)
        });

        // Warm: capacity covers the working set; after the first lap
        // every message hits the cache.
        let mut warm_engine = MatchEngine::with_capacity(n.max(16));
        for sel in &selectors {
            warm_engine.compile(sel).expect("valid selector");
        }
        let (warm_accepted, warm_s) = time_best(reps, || {
            run_compiled(messages, &mut warm_engine, &profile, &selectors, &content)
        });

        assert_eq!(tree_accepted, cold_accepted, "cold path diverged at n={n}");
        assert_eq!(tree_accepted, warm_accepted, "warm path diverged at n={n}");

        let rate = |s: f64| format!("{:.0}", messages as f64 / s);
        row(
            &[
                n.to_string(),
                rate(tree_s),
                rate(cold_s),
                rate(warm_s),
                format!("{:.2}x", tree_s / warm_s),
            ],
            &widths,
        );
    }
    println!(
        "\noutcomes identical across all three paths (accept counts asserted per row);\n\
         warm gain = tree-walk time / compiled-warm time"
    );
    fan_out(quick);
}
