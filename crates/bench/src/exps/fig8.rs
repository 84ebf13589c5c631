//! Exp-4 / Fig. 8: memory cost of batch algorithms, deduced incremental
//! algorithms and baselines on OKT with |ΔG| = 1%|G|.
//!
//! The paper reports resident set size; we report the bytes held by each
//! algorithm's own state (status variables, auxiliary structures,
//! engines), which isolates exactly the deducible/weakly-deducible
//! distinction the experiment is about.

use crate::report::Ctx;
use incgraph_algos::cc::CcSpec;
use incgraph_algos::sim::SimSpec;
use incgraph_algos::{CcState, DfsState, LccState, SimState, SsspState};
use incgraph_baselines::{DynCc, DynDfs, DynDij, DynLcc, IncMatch, RrSssp};
use incgraph_core::{run_fixpoint, Status};
use incgraph_workloads::datasets::MAX_WEIGHT;
use incgraph_workloads::{random_batch_pct, random_pattern, sample_sources, Dataset};

const EXP: &str = "fig8-mem";

/// Runs the space-cost measurement.
pub fn run(ctx: &mut Ctx) {
    let ds = Dataset::Orkut;
    let gd0 = ds.graph(true, ctx.scale);
    let gu0 = ds.graph(false, ctx.scale);

    // SSSP.
    {
        let src = sample_sources(&gd0, 1, 1)[0];
        let batch = random_batch_pct(&gd0, 1.0, MAX_WEIGHT, 0x81);
        let mut g = gd0.clone();
        let (mut inc, _) = SsspState::batch(&g, src);
        let applied = batch.apply(&mut g);
        inc.update(&g, &applied);
        // Batch Dijkstra's working state = one distance array; model it
        // with a fresh batch run's status only.
        let (batch_state, _) = SsspState::batch(&g, src);
        ctx.record(
            EXP,
            "Dijkstra",
            "OKT",
            0.0,
            batch_state.space_bytes() as f64,
            "bytes",
        );
        ctx.record(
            EXP,
            "IncSSSP",
            "OKT",
            0.0,
            inc.space_bytes() as f64,
            "bytes",
        );
        let mut rr = RrSssp::new(&gd0, src);
        let mut g = gd0.clone();
        for unit in batch.as_units() {
            let applied = unit.apply(&mut g);
            for op in applied.ops() {
                rr.apply_unit(&g, op.inserted, op.src, op.dst, op.weight);
            }
        }
        ctx.record(EXP, "RR", "OKT", 0.0, rr.space_bytes() as f64, "bytes");
        let mut dd = DynDij::new(&gd0, src);
        let mut g = gd0.clone();
        let applied = batch.apply(&mut g);
        dd.apply_batch(&g, &applied);
        ctx.record(EXP, "DynDij", "OKT", 0.0, dd.space_bytes() as f64, "bytes");
    }

    // CC.
    {
        let batch = random_batch_pct(&gu0, 1.0, 1, 0x82);
        let mut g = gu0.clone();
        let (mut inc, _) = CcState::batch(&g);
        let applied = batch.apply(&mut g);
        inc.update(&g, &applied);
        // CC_fp keeps no timestamps — measure a stamp-free fixpoint run
        // (the weakly-deducible IncCC pays for its stamps; Fig. 8's point).
        {
            let spec = CcSpec::new(&g);
            let mut status = Status::init(&spec, false);
            run_fixpoint(&spec, &mut status, 0..g.node_count());
            // Both batch and incremental pay the engine scratch while
            // running; the stamp array is the weakly-deducible delta.
            let engine = incgraph_core::engine::Engine::new(g.node_count());
            ctx.record(
                EXP,
                "CC_fp",
                "OKT",
                0.0,
                (status.space_bytes() + engine.space_bytes()) as f64,
                "bytes",
            );
        }
        ctx.record(EXP, "IncCC", "OKT", 0.0, inc.space_bytes() as f64, "bytes");
        let mut dc = DynCc::new(&gu0);
        let mut g = gu0.clone();
        for unit in batch.as_units() {
            let applied = unit.apply(&mut g);
            dc.apply_batch(&applied);
        }
        ctx.record(EXP, "DynCC", "OKT", 0.0, dc.space_bytes() as f64, "bytes");
    }

    // Sim.
    {
        let q = random_pattern(&gd0, 4, 6, 0x83);
        let batch = random_batch_pct(&gd0, 1.0, MAX_WEIGHT, 0x84);
        let mut g = gd0.clone();
        let (mut inc, _) = SimState::batch(&g, q.clone());
        let applied = batch.apply(&mut g);
        inc.update(&g, &applied);
        // Sim_fp without timestamps, as above.
        {
            let spec = SimSpec::new(&g, &q);
            let mut status = Status::init(&spec, false);
            let scope: Vec<usize> = (0..g.node_count() * q.node_count())
                .filter(|&x| status.get(x))
                .collect();
            run_fixpoint(&spec, &mut status, scope.iter().copied());
            let engine = incgraph_core::engine::Engine::new(g.node_count() * q.node_count());
            ctx.record(
                EXP,
                "Sim_fp",
                "OKT",
                0.0,
                (status.space_bytes() + engine.space_bytes()) as f64,
                "bytes",
            );
        }
        ctx.record(EXP, "IncSim", "OKT", 0.0, inc.space_bytes() as f64, "bytes");
        let mut im = IncMatch::new(&gd0, q);
        let mut g = gd0.clone();
        let applied = batch.apply(&mut g);
        im.apply_batch(&g, &applied);
        ctx.record(
            EXP,
            "IncMatch",
            "OKT",
            0.0,
            im.space_bytes() as f64,
            "bytes",
        );
    }

    // DFS.
    {
        let batch = random_batch_pct(&gd0, 1.0, MAX_WEIGHT, 0x85);
        let mut g = gd0.clone();
        let (mut inc, _) = DfsState::batch(&g);
        let applied = batch.apply(&mut g);
        inc.update(&g, &applied);
        let (batch_state, _) = DfsState::batch(&g);
        ctx.record(
            EXP,
            "DFS_fp",
            "OKT",
            0.0,
            batch_state.space_bytes() as f64,
            "bytes",
        );
        ctx.record(EXP, "IncDFS", "OKT", 0.0, inc.space_bytes() as f64, "bytes");
        let mut dd = DynDfs::new(&gd0);
        let mut g = gd0.clone();
        for unit in batch.as_units() {
            let applied = unit.apply(&mut g);
            for op in applied.ops() {
                dd.apply_unit(&g, op.inserted, op.src, op.dst);
            }
        }
        ctx.record(EXP, "DynDFS", "OKT", 0.0, dd.space_bytes() as f64, "bytes");
    }

    // LCC.
    {
        let batch = random_batch_pct(&gu0, 1.0, 1, 0x86);
        let mut g = gu0.clone();
        let (mut inc, _) = LccState::batch(&g);
        let applied = batch.apply(&mut g);
        inc.update(&g, &applied);
        let (batch_state, _) = LccState::batch(&g);
        ctx.record(
            EXP,
            "LCC_fp",
            "OKT",
            0.0,
            batch_state.space_bytes() as f64,
            "bytes",
        );
        ctx.record(EXP, "IncLCC", "OKT", 0.0, inc.space_bytes() as f64, "bytes");
        let mut dl = DynLcc::new(&gu0);
        let mut g = gu0.clone();
        for unit in batch.as_units() {
            let applied = unit.apply(&mut g);
            for op in applied.ops() {
                dl.apply_unit(&g, op.inserted, op.src, op.dst, op.weight);
            }
        }
        ctx.record(EXP, "DynLCC", "OKT", 0.0, dl.space_bytes() as f64, "bytes");
    }
}
