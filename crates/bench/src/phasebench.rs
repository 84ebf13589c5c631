//! Instrumented per-phase pass for `incgraph bench`.
//!
//! Where [`crate::parbench`] measures end-to-end wall clock per class,
//! this pass answers *where the time goes*: it drives one batch build
//! plus one guarded incremental update per query class — all seven,
//! including the engine-less DFS/BC — and a small durable
//! WAL/checkpoint/recover segment, with every stage recording into
//! whatever `incgraph_obs` recorder is installed. The resulting
//! snapshot carries the phase latency histograms (`scope.h`,
//! `engine.run`, `audit.run`, `wal.commit`, …) that
//! [`render_phase_table`] turns into the bench breakdown table and that
//! `--metrics` exports as JSON-lines.

use incgraph_algos::{QueryClass, Session};
use incgraph_core::audit::FixpointAudit;
use incgraph_durable::{recover, DurableOptions, DurableSession};
use incgraph_obs::Snapshot;
use incgraph_workloads::{random_batch_pct, random_pattern, sample_sources, Dataset};
use std::fmt::Write as _;

/// |ΔG| as a percentage of |G|, matching [`crate::parbench`].
const DELTA_PCT: f64 = 1.0;

/// The pipeline spans the breakdown table reports, in pipeline order.
const PHASES: [&str; 8] = [
    "scope.h",
    "engine.run",
    "update.guarded",
    "audit.run",
    "graph.apply",
    "wal.commit",
    "ckpt.write",
    "recover.replay",
];

/// Runs the instrumented pass: per class, a batch build and one guarded
/// update over a 1% ΔG (with a full fixpoint audit so `audit.run` shows
/// up), then a throwaway durable store exercising the WAL, checkpoint,
/// and recovery spans. Metrics land in the installed recorder; with the
/// noop recorder this is just a slow no-op, so callers only invoke it
/// when a registry is live.
pub fn run_phases(scale: f64) {
    for (i, &class) in QueryClass::ALL.iter().enumerate() {
        // Attribute the batch build too — update_guarded scopes itself.
        let _cls = incgraph_obs::class_scope(class.name());
        // Keep the quadratic kernels in budget, like the timing suite.
        let class_scale = match class {
            QueryClass::Sim | QueryClass::Dfs => scale * 0.5,
            QueryClass::Lcc | QueryClass::Bc => scale * 0.25,
            _ => scale,
        };
        let directed = !class.requires_undirected();
        let g0 = Dataset::LiveJournal.graph(directed, class_scale);
        let src = sample_sources(&g0, 1, 7)[0];
        let mut builder = Session::builder(class).audit(FixpointAudit::full());
        if class.source_rooted() {
            builder = builder.source(src);
        }
        if class == QueryClass::Sim {
            builder = builder.pattern(random_pattern(&g0, 4, 6, 11));
        }
        let mut session = builder.build(&g0).expect("sim pattern supplied");
        let delta = random_batch_pct(&g0, DELTA_PCT, 100, 0xb5 + i as u64);
        let mut g1 = g0.clone();
        let applied = delta.apply(&mut g1);
        let tracked = session.update_guarded(&g1, &applied);
        // The typed output delta is the probe's freshness payload: how
        // many digest entries the 1% ΔG actually moved, per class — the
        // same figure the service ships as a DELTA notification.
        incgraph_obs::observe("output.delta.entries", tracked.delta.changes.len() as u64);
    }

    // Durable segment: two WAL-logged batches, a checkpoint, one more
    // batch, then verified recovery — populating the storage-side spans
    // (`wal.commit`, `ckpt.write`, `recover.replay`) outside any class
    // scope. The store is throwaway; failures here (e.g. an unwritable
    // temp dir) cost the storage rows, not the bench.
    let dir = std::env::temp_dir().join(format!("incgraph-phasebench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let g0 = Dataset::WikiDe.graph(false, (scale * 0.25).max(0.01));
    let states = vec![
        Session::builder(QueryClass::Sssp)
            .build(&g0)
            .expect("sssp needs no pattern"),
        Session::builder(QueryClass::Cc)
            .build(&g0)
            .expect("cc needs no pattern"),
    ];
    if let Ok(mut session) =
        DurableSession::create(&dir, g0.clone(), states, DurableOptions::default())
    {
        for seed in [51u64, 52] {
            let batch = random_batch_pct(session.graph(), DELTA_PCT, 100, seed);
            let _ = session.apply(&batch);
        }
        let _ = session.checkpoint();
        let batch = random_batch_pct(session.graph(), DELTA_PCT, 100, 53);
        let _ = session.apply(&batch);
        drop(session);
        let _ = recover(&dir, DurableOptions::default());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Renders the per-phase breakdown: one row per (class, span) pair with
/// the count, total, and mean of its latency histogram. Rows come out
/// of the snapshot's `BTreeMap` sorted by class then phase, so the
/// table is deterministic; storage-side spans recorded outside any
/// class scope show under class `-`.
pub fn render_phase_table(s: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<16} {:>8} {:>12} {:>12}",
        "class", "phase", "count", "total", "mean"
    );
    for ((class, name), h) in &s.hists {
        if !PHASES.contains(&name.as_str()) {
            continue;
        }
        let class_label = if class.is_empty() { "-" } else { class };
        let _ = writeln!(
            out,
            "{:<6} {:<16} {:>8} {:>12} {:>12}",
            class_label,
            name,
            h.count(),
            crate::parbench::fmt_ns(h.sum() as f64),
            crate::parbench::fmt_ns(h.mean())
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_obs::Registry;
    use std::sync::Arc;

    #[test]
    fn phase_pass_covers_all_classes_and_storage() {
        let _obs = crate::obs_lock();
        let registry = Arc::new(Registry::new());
        incgraph_obs::install(registry.clone());
        run_phases(0.02);
        incgraph_obs::uninstall();
        let snap = registry.snapshot();

        for class in QueryClass::ALL {
            let key = (class.name().to_string(), "update.guarded".to_string());
            assert!(
                snap.hists.get(&key).is_some_and(|h| h.count() >= 1),
                "missing update.guarded histogram for {}",
                class.name()
            );
            let key = (class.name().to_string(), "output.delta.entries".to_string());
            assert!(
                snap.hists.get(&key).is_some_and(|h| h.count() >= 1),
                "missing output.delta.entries histogram for {}",
                class.name()
            );
        }
        for storage in ["wal.commit", "ckpt.write", "recover.replay"] {
            assert!(
                snap.hists
                    .iter()
                    .any(|((_, name), h)| name == storage && h.count() >= 1),
                "missing {storage} histogram"
            );
        }

        let table = render_phase_table(&snap);
        assert!(table.contains("update.guarded"), "{table}");
        assert!(table.contains("wal.commit"), "{table}");
        // One row per class for the guarded-update phase at minimum.
        assert!(table.lines().count() > QueryClass::ALL.len(), "{table}");
    }
}
