//! Incident lifecycle demo: run a short job, then interrogate the incident
//! store — severity distribution, escalation backlog, per-machine history —
//! and render the full postmortem of the most interesting (most severe,
//! multi-phase) incident the job survived.
//!
//! ```text
//! cargo run --release --example incident_postmortem
//! ```

use byterobust::prelude::*;

fn main() {
    // A couple of simulated days at an aggressive fault rate produces a rich
    // incident mix.
    let report = JobLifecycle::new(JobConfig::small_test(), 7).run();
    let store = &report.incident_store;
    println!(
        "job `{}` survived {} incidents over {} (final cumulative ETTR {:.3})\n",
        report.job_name,
        store.len(),
        report.ettr.total_time(),
        report.ettr.cumulative_ettr(),
    );

    // Severity distribution straight from the store.
    println!("== severity distribution ==");
    for (severity, count) in store.severity_counts() {
        println!("  {:>5}: {count}", severity.label());
    }

    // The operational backlog the classification matrix generated.
    let backlog = store.escalation_backlog();
    println!("\n== escalation backlog ({} follow-ups) ==", backlog.len());
    for (seq, escalation) in backlog.iter().take(8) {
        println!("  incident #{seq}: {}", escalation.description());
    }
    if backlog.len() > 8 {
        println!("  ... and {} more", backlog.len() - 8);
    }

    // Per-machine incident history for the most-implicated machine (the one
    // evicted by the most incidents).
    let mut eviction_counts = std::collections::BTreeMap::new();
    for dossier in store.all() {
        for &machine in &dossier.evicted {
            *eviction_counts.entry(machine).or_insert(0usize) += 1;
        }
    }
    if let Some((&machine, _)) = eviction_counts.iter().max_by_key(|&(_, &count)| count) {
        let history = store.query(&IncidentQuery::any().machine(machine));
        println!("\n== incident history of {machine} ==");
        for dossier in history {
            println!(
                "  #{} {} -> {} ({})",
                dossier.seq,
                dossier.kind.symptom_name(),
                dossier.mechanism.display_name(),
                dossier.severity().label(),
            );
        }
    }

    // Pick the most interesting incident: most severe, breaking ties by the
    // number of recovery phases its unproductive time spread across (a
    // multi-phase incident exercises detection, localization, scheduling,
    // checkpoint load and recompute).
    let star = store
        .all()
        .iter()
        .max_by_key(|dossier| {
            let phases = PhaseCost::breakdown(&dossier.cost)
                .iter()
                .filter(|pc| !pc.duration.is_zero())
                .count();
            (
                std::cmp::Reverse(dossier.severity()),
                phases,
                dossier.cost.total(),
            )
        })
        .expect("the aggressive small_test fault rate always produces incidents");
    let postmortem = store.postmortem(star.seq).expect("dossier is in the store");
    assert_eq!(postmortem.phase_cost_sum(), star.cost.total());

    println!("\n{}", postmortem.render());
}
