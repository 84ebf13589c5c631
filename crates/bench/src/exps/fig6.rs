//! Exp-1 / Fig. 6: unit-update efficiency across all six datasets and
//! all five query classes, deduced algorithms vs the per-class dynamic
//! baselines — plus the affected-area fractions of Exp-1(1c)/(2c).

use super::drivers;
use crate::report::Ctx;
use incgraph_algos::{CcState, DfsState, LccState, SimState, SsspState};
use incgraph_baselines::{DynCc, DynDfs, DynLcc, IncMatch, RrSssp};
use incgraph_workloads::datasets::MAX_WEIGHT;
use incgraph_workloads::{random_batch, random_pattern, sample_sources, Dataset};

/// Number of sampled unit updates per dataset (the paper uses 10 000;
/// scaled down with the graphs).
fn unit_count(ctx: &Ctx) -> usize {
    ((400.0 * ctx.scale) as usize).clamp(50, 2000)
}

/// Runs Fig. 6(a,c,e,g,i) (`insertions = true`) or Fig. 6(b,d,f,h,j).
pub fn run(ctx: &mut Ctx, insertions: bool) {
    let exp = if insertions { "fig6-ins" } else { "fig6-del" };
    let frac = if insertions { 1.0 } else { 0.0 };
    let count = unit_count(ctx);

    for ds in Dataset::ALL {
        let tag = ds.tag();
        let gd = ds.graph(true, ctx.scale);
        let gu = ds.graph(false, ctx.scale);
        let seed = 0xF16 ^ ds.nodes() as u64;

        // SSSP: IncSSSP vs RR.
        let batch = random_batch(&gd, count, frac, MAX_WEIGHT, seed);
        let src = sample_sources(&gd, 1, seed)[0];
        let rr = RrSssp::new(&gd, src);
        let (state, _) = SsspState::batch(&gd, src);
        let t = drivers::units(&gd, &batch, state, rr, |rr, g, a| {
            for op in a.ops() {
                rr.apply_unit(g, op.inserted, op.src, op.dst, op.weight);
            }
        });
        ctx.record(exp, "IncSSSP", tag, 0.0, t.inc, "s/unit");
        ctx.record(exp, "RR", tag, 0.0, t.competitor, "s/unit");

        // CC: IncCC vs DynCC.
        let batch = random_batch(&gu, count, frac, 1, seed ^ 1);
        let (state, _) = CcState::batch(&gu);
        let t = drivers::units(&gu, &batch, state, DynCc::new(&gu), |dyn_cc, _, a| {
            dyn_cc.apply_batch(a)
        });
        ctx.record(exp, "IncCC", tag, 0.0, t.inc, "s/unit");
        ctx.record(exp, "DynCC", tag, 0.0, t.competitor, "s/unit");

        // Sim: IncSim vs IncMatch.
        let q = random_pattern(&gd, 4, 6, seed ^ 2);
        let batch = random_batch(&gd, count, frac, MAX_WEIGHT, seed ^ 3);
        let inc_match = IncMatch::new(&gd, q.clone());
        let (state, _) = SimState::batch(&gd, q);
        let t = drivers::units(&gd, &batch, state, inc_match, |inc_match, g, a| {
            inc_match.apply_batch(g, a)
        });
        ctx.record(exp, "IncSim", tag, 0.0, t.inc, "s/unit");
        ctx.record(exp, "IncMatch", tag, 0.0, t.competitor, "s/unit");

        // DFS: IncDFS vs DynDFS.
        let batch = random_batch(&gd, count, frac, MAX_WEIGHT, seed ^ 4);
        let (state, _) = DfsState::batch(&gd);
        let t = drivers::units(&gd, &batch, state, DynDfs::new(&gd), |dyn_dfs, g, a| {
            for op in a.ops() {
                dyn_dfs.apply_unit(g, op.inserted, op.src, op.dst);
            }
        });
        ctx.record(exp, "IncDFS", tag, 0.0, t.inc, "s/unit");
        ctx.record(exp, "DynDFS", tag, 0.0, t.competitor, "s/unit");

        // LCC: IncLCC vs DynLCC.
        let batch = random_batch(&gu, count, frac, 1, seed ^ 5);
        let (state, _) = LccState::batch(&gu);
        let t = drivers::units(&gu, &batch, state, DynLcc::new(&gu), |dyn_lcc, g, a| {
            for op in a.ops() {
                dyn_lcc.apply_unit(g, op.inserted, op.src, op.dst, op.weight);
            }
        });
        ctx.record(exp, "IncLCC", tag, 0.0, t.inc, "s/unit");
        ctx.record(exp, "DynLCC", tag, 0.0, t.competitor, "s/unit");
    }
}

/// Exp-1(1c)/(2c): |AFF| as a fraction of the status-variable universe on
/// the OKT stand-in, per class, for unit insertions and deletions.
pub fn run_aff(ctx: &mut Ctx) {
    let exp = "fig6-aff";
    let count = unit_count(ctx).min(200);
    let ds = Dataset::Orkut;
    let gd = ds.graph(true, ctx.scale);
    let gu = ds.graph(false, ctx.scale);

    for (label, frac, x) in [("ins", 1.0, 0.0), ("del", 0.0, 1.0)] {
        let seed = 0xAFF ^ (x as u64);

        // SSSP.
        let batch = incgraph_workloads::random_batch(&gd, count, frac, MAX_WEIGHT, seed);
        let src = sample_sources(&gd, 1, seed)[0];
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut g = gd.clone();
        let (mut st, _) = SsspState::batch(&g, src);
        for unit in batch.as_units() {
            let applied = unit.apply(&mut g);
            if applied.is_empty() {
                continue;
            }
            sum += st.update(&g, &applied).aff_fraction();
            n += 1;
        }
        ctx.record(
            exp,
            "IncSSSP",
            &format!("OKT/{label}"),
            x,
            sum / n.max(1) as f64,
            "fraction",
        );

        // CC.
        let batch = incgraph_workloads::random_batch(&gu, count, frac, 1, seed ^ 1);
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut g = gu.clone();
        let (mut st, _) = CcState::batch(&g);
        for unit in batch.as_units() {
            let applied = unit.apply(&mut g);
            if applied.is_empty() {
                continue;
            }
            sum += st.update(&g, &applied).aff_fraction();
            n += 1;
        }
        ctx.record(
            exp,
            "IncCC",
            &format!("OKT/{label}"),
            x,
            sum / n.max(1) as f64,
            "fraction",
        );

        // Sim.
        let q = random_pattern(&gd, 4, 6, seed ^ 2);
        let batch = incgraph_workloads::random_batch(&gd, count, frac, MAX_WEIGHT, seed ^ 3);
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut g = gd.clone();
        let (mut st, _) = SimState::batch(&g, q);
        for unit in batch.as_units() {
            let applied = unit.apply(&mut g);
            if applied.is_empty() {
                continue;
            }
            sum += st.update(&g, &applied).aff_fraction();
            n += 1;
        }
        ctx.record(
            exp,
            "IncSim",
            &format!("OKT/{label}"),
            x,
            sum / n.max(1) as f64,
            "fraction",
        );

        // DFS.
        let batch = incgraph_workloads::random_batch(&gd, count, frac, MAX_WEIGHT, seed ^ 4);
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut g = gd.clone();
        let (mut st, _) = DfsState::batch(&g);
        for unit in batch.as_units() {
            let applied = unit.apply(&mut g);
            if applied.is_empty() {
                continue;
            }
            sum += st.update(&g, &applied).aff_fraction();
            n += 1;
        }
        ctx.record(
            exp,
            "IncDFS",
            &format!("OKT/{label}"),
            x,
            sum / n.max(1) as f64,
            "fraction",
        );

        // LCC.
        let batch = incgraph_workloads::random_batch(&gu, count, frac, 1, seed ^ 5);
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut g = gu.clone();
        let (mut st, _) = LccState::batch(&g);
        for unit in batch.as_units() {
            let applied = unit.apply(&mut g);
            if applied.is_empty() {
                continue;
            }
            sum += st.update(&g, &applied).aff_fraction();
            n += 1;
        }
        ctx.record(
            exp,
            "IncLCC",
            &format!("OKT/{label}"),
            x,
            sum / n.max(1) as f64,
            "fraction",
        );
    }
}
