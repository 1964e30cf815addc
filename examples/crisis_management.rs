//! Crisis management scenario (one of the paper's motivating domains,
//! §1): a command post shares situation imagery with field analysts
//! whose workstations degrade under load while they also chat and
//! annotate a shared whiteboard. The framework keeps every analyst an
//! effective participant by adapting image fidelity per client.
//!
//! ```sh
//! cargo run --example crisis_management
//! ```

use collabqos::prelude::*;

fn analyst_profile(name: &str) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(vec![
            AttrValue::str("image"),
            AttrValue::str("chat"),
            AttrValue::str("whiteboard"),
        ]),
    );
    p.set("role", AttrValue::str("analyst"));
    p
}

fn main() {
    let mut session = CollaborationSession::new(SessionConfig {
        full_stream_bpp: Some(2.1),
        ..SessionConfig::default()
    });

    // The command post publishes; it never adapts its own intake.
    let mut command_profile = Profile::new("command-post");
    command_profile.set("role", AttrValue::str("publisher"));
    command_profile.set(
        "interested_in",
        AttrValue::List(vec![AttrValue::str("chat")]),
    );
    let command = session
        .add_wired_client(
            command_profile,
            InferenceEngine::new(PolicyDb::new(), QosContract::default()),
            SimHost::idle("command-post"),
        )
        .unwrap();

    // Three analysts with increasingly stressed workstations. Each has
    // the paper's page-fault policy plus a QoS contract that flags
    // overload.
    let engine = || {
        InferenceEngine::new(
            PolicyDb::paper_page_fault_policy(),
            QosContract::new("interactive").with(Constraint::at_most("page_faults", 85.0)),
        )
    };
    let loads = [
        ("analyst-calm", 20.0),
        ("analyst-busy", 65.0),
        ("analyst-thrashing", 95.0),
    ];
    let analysts: Vec<_> = loads
        .iter()
        .map(|(name, faults)| {
            let host = SimHost::new(
                name,
                LoadProfile::Constant(30.0),
                LoadProfile::Constant(*faults),
                LoadProfile::Constant(65_536.0),
            );
            session
                .add_wired_client(analyst_profile(name), engine(), host)
                .unwrap()
        })
        .collect();

    // Each analyst adapts from its own SNMP-visible state.
    println!("== adaptation decisions ==");
    for (&id, (name, faults)) in analysts.iter().zip(&loads) {
        let d = session.adapt(id);
        println!(
            "{name:<18} page_faults={faults:>3} -> {:>2} packets{}{}",
            d.max_packets,
            if d.violations.is_empty() {
                ""
            } else {
                "  [QoS contract violated]"
            },
            if d.fired_rules.is_empty() {
                String::new()
            } else {
                format!(
                    "  (rule {})",
                    d.fired_rules.iter().collect::<Vec<_>>().join(",")
                )
            },
        );
    }

    // The command post shares the situation image with all analysts.
    let scene = synthetic_scene(256, 256, 1, 6, 2026);
    println!("\nsharing: {}", scene.caption);
    let object_id = session
        .share_image(command, &scene, "role == 'analyst'")
        .unwrap();

    // Analysts chat and annotate while packets propagate.
    session
        .share_chat(
            analysts[0],
            "marking the collapsed bridge",
            "interested_in contains 'chat'",
        )
        .unwrap();
    session
        .share_stroke(
            analysts[0],
            object_id,
            vec![(40, 60), (52, 61), (60, 75)],
            1,
            "role == 'analyst'",
        )
        .unwrap();

    let completed = session.pump(Ticks::from_secs(2));

    println!("\n== what each analyst saw ==");
    for (&id, (name, _)) in analysts.iter().zip(&loads) {
        match completed.iter().find(|(c, _)| *c == id) {
            Some((_, viewed)) => println!(
                "{name:<18} image at {:>2}/{} packets, {:.2} bpp, CR {:.1}",
                viewed.packets_accepted, viewed.total_packets, viewed.bpp, viewed.compression_ratio
            ),
            None => {
                let client = session.client(id);
                match client.viewer.text_fallbacks.first() {
                    Some((_, caption)) => {
                        println!("{name:<18} text fallback: \"{caption}\"")
                    }
                    None => println!("{name:<18} nothing yet"),
                }
            }
        }
        let client = session.client(id);
        println!(
            "{:<18}   chat lines: {}, strokes on object {}: {}",
            "",
            client.chat.log.len(),
            object_id,
            client.whiteboard.strokes(object_id).len()
        );
    }

    // The command post reads the chat too (its profile asks for chat).
    println!(
        "\ncommand post chat log: {:?}",
        session.client(command).chat.log
    );
}
