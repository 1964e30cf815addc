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
//! The three paths' accept counts are asserted equal per row. Pass
//! `--quick` for the reduced-scale sweep CI runs as smoke.

use bench::{header, quick_mode, row, time_best};
use sempubsub::matching;
use sempubsub::{AttrValue, MatchEngine, Profile, Selector};
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
}
