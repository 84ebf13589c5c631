//! The deduction itself: one assembly of `A_Δ` from a class definition.
//!
//! The paper's claim is that the incremental algorithm is *deduced*, not
//! written: give the framework a fixpoint spec, an order `<_C` (from the
//! values, or from timestamps) and the variables whose input sets evolved
//! under `ΔG`, and the initial scope function `h` (Fig. 4) followed by the
//! unchanged step function *is* `A_Δ`. A query class implements
//! [`Deducible`] — what is actually its own — and [`Deduced<C>`] owns what
//! is the same for every class: the batch run, the `h`-then-resume update,
//! the Theorem 1 ablation, persistence and the
//! [`IncrementalState`](crate::IncrementalState) face. `SsspState`,
//! `CcState`, `ReachState` and `SimState` are `Deduced<_>`; [`crate::reach`]
//! is the shortest worked example.

use crate::output::{ClassOutput, OutputChange};
use crate::persist::{self, ByteReader, StateLoadError, Word};
use incgraph_core::audit::{AuditReport, FixpointAudit};
use incgraph_core::engine::{Engine, RunStats};
use incgraph_core::metrics::BoundednessReport;
use incgraph_core::scope::{bounded_scope_in, pe_reset_scope_in, ContributorOracle, ScopeScratch};
use incgraph_core::spec::FixpointSpec;
use incgraph_core::status::Status;
use incgraph_graph::{AppliedBatch, AppliedOp, DynamicGraph, NodeId};

/// A query class the framework can incrementalize: the stored query
/// parameters (`self`) plus the class-specific parts of the deduction.
pub trait Deducible: Sized + Send + Sync {
    /// Class name: the blob's routing key and the state's `name()`.
    const NAME: &'static str;

    /// Weakly deducible: `<_C` comes from the batch run's timestamps, so
    /// the status keeps and persists them (else: read off the values).
    const STAMPS: bool;

    /// Status-variable value domain.
    type Value: Word;

    /// The batch algorithm `A` over one graph snapshot, together with the
    /// anchor sets `C_x` and the order `<_C` of its finished runs.
    type Spec<'a>: FixpointSpec<Value = Self::Value> + ContributorOracle<Self::Value>
    where
        Self: 'a;

    /// The specification over `g` (cheap: it borrows).
    fn spec<'a>(&'a self, g: &'a DynamicGraph) -> Self::Spec<'a>;

    /// Status variables per graph node (Sim packs `|V_Q|` per node).
    fn vars_per_node(&self) -> usize {
        1
    }

    /// The batch run's initial scope: every variable whose statement `σ_x`
    /// may be violated at `D⊥`. The engine walks it twice, hence `Clone`.
    fn seeds<'a>(&'a self, g: &'a DynamicGraph) -> impl Iterator<Item = usize> + Clone + 'a;

    /// Line 1 of Fig. 4 for one unit update: pushes the variables whose
    /// input sets evolved under `op` **and** whose statement it can violate
    /// given the old fixpoint `status`. Over-approximation is sound.
    fn touched(
        &self,
        g: &DynamicGraph,
        status: &Status<Self::Value>,
        op: &AppliedOp,
        out: &mut Vec<usize>,
    );

    /// [`touched`](Self::touched) without the filter: every variable whose
    /// input set evolved under `op`. Seeds the Theorem 1 flood.
    fn evolved(&self, g: &DynamicGraph, op: &AppliedOp, out: &mut Vec<usize>);

    /// Variables to resume from after the Theorem 1 reset beyond the region.
    fn pe_reset_seeds(&self, _seeds: &mut Vec<usize>) {}

    /// Appends the query parameters to a state blob.
    fn put_params(&self, out: &mut Vec<u8>);

    /// Reads the parameters back, rejecting structurally invalid ones.
    fn read_params(r: &mut ByteReader<'_>) -> Result<Self, StateLoadError>;

    /// Checks restored parameters and (right-sized) values against `g`.
    fn validate(
        &self,
        g: &DynamicGraph,
        status: &Status<Self::Value>,
    ) -> Result<(), StateLoadError>;
}

/// The orientations in which `op`'s edge feeds an input set: `(tail,
/// head)`, and on undirected graphs (where in_nbr = nbr) also its mirror.
#[inline]
pub fn arcs(g: &DynamicGraph, op: &AppliedOp) -> impl Iterator<Item = (NodeId, NodeId)> {
    let orientations = if g.is_directed() { 1 } else { 2 };
    [(op.src, op.dst), (op.dst, op.src)]
        .into_iter()
        .take(orientations)
}

/// A class's live state — everything `A_Δ` may keep between updates: the
/// query parameters, the previous fixpoint `D^r`, and the reusable engine
/// and scope arena (steady-state updates allocate nothing).
pub struct Deduced<C: Deducible> {
    class: C,
    status: Status<C::Value>,
    engine: Engine,
    scratch: ScopeScratch,
}

/// The batch algorithm: `D⊥`, then the step function from the class's
/// initial scope.
fn run_batch<C: Deducible>(class: &C, g: &DynamicGraph) -> (Status<C::Value>, Engine, RunStats) {
    let spec = class.spec(g);
    let mut status = Status::init(&spec, C::STAMPS);
    let mut engine = Engine::new(spec.num_vars());
    let stats = engine.run(&spec, &mut status, class.seeds(g));
    (status, engine, stats)
}

impl<C: Deducible> Deduced<C> {
    /// Runs the batch fixpoint of `class` on `g`.
    pub fn new(class: C, g: &DynamicGraph) -> (Self, RunStats) {
        let (status, engine, stats) = run_batch(&class, g);
        let scratch = ScopeScratch::new();
        let state = Deduced {
            class,
            status,
            engine,
            scratch,
        };
        (state, stats)
    }

    /// The stored query parameters.
    pub fn class(&self) -> &C {
        &self.class
    }

    /// The current fixpoint, one value per status variable.
    pub fn values(&self) -> &[C::Value] {
        self.status.values()
    }

    /// The value of status variable `x`.
    pub fn value(&self, x: usize) -> C::Value {
        self.status.get(x)
    }

    /// The deduced `A_Δ`: given the already-updated graph `G ⊕ ΔG` and
    /// the effective updates, the bounded scope function `h` (Fig. 4)
    /// adjusts the previous fixpoint over the class's order `<_C` — read
    /// off the live values or timestamps, no snapshot — and the unchanged
    /// step function is resumed from `H⁰`.
    pub fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        let spec = self.class.spec(g);
        let scratch = &mut self.scratch;
        scratch.touched.clear();
        for op in applied.ops() {
            self.class
                .touched(g, &self.status, op, &mut scratch.touched);
        }
        scratch.touched.sort_unstable();
        scratch.touched.dedup();
        let stats = bounded_scope_in(&spec, &spec, &mut self.status, scratch);
        let h0 = scratch.scope.iter().copied();
        let run = self.engine.run(&spec, &mut self.status, h0);
        BoundednessReport::new(spec.num_vars(), scratch.scope.len(), stats, run)
    }

    /// The Theorem 1 construction (ablations `abl-scope`/`abl-ts`): flood
    /// the potentially affected variables through dependency edges from
    /// every evolved input set, reset them to `⊥`, and re-run — no order
    /// consulted. Correct but unbounded: contrast with
    /// [`update`](Self::update).
    pub fn update_pe_reset(
        &mut self,
        g: &DynamicGraph,
        applied: &AppliedBatch,
    ) -> BoundednessReport {
        let spec = self.class.spec(g);
        let scratch = &mut self.scratch;
        scratch.touched.clear();
        for op in applied.ops() {
            self.class.evolved(g, op, &mut scratch.touched);
        }
        scratch.touched.sort_unstable();
        scratch.touched.dedup();
        let stats = pe_reset_scope_in(&spec, &mut self.status, scratch);
        // Extra seeds ride along for the resume only; `H⁰` stays the region.
        let scope_len = scratch.scope.len();
        self.class.pe_reset_seeds(&mut scratch.scope);
        let seeds = scratch.scope.iter().copied();
        let run = self.engine.run(&spec, &mut self.status, seeds);
        scratch.scope.truncate(scope_len);
        BoundednessReport::new(spec.num_vars(), scope_len, stats, run)
    }

    /// Resident bytes (Fig. 8): status (with timestamps when weakly
    /// deducible) plus engine and scope scratch.
    pub fn space_bytes(&self) -> usize {
        self.status.space_bytes() + self.engine.space_bytes() + self.scratch.space_bytes()
    }

    /// Serializes the durable essence (`SaveState`, [`crate::persist`]):
    /// the query parameters plus the status — with its timestamps when
    /// `<_C` derives from them, or every later update would be corrupted.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = persist::header(C::NAME);
        self.class.put_params(&mut out);
        persist::put_status(&mut out, &self.status);
        out
    }

    /// Rebuilds a state from [`save_state`](Self::save_state) bytes
    /// (`LoadState`). No fixpoint runs — the blob *is* the fixpoint.
    pub fn restore(g: &DynamicGraph, bytes: &[u8]) -> Result<Self, StateLoadError> {
        let mut r = persist::expect_header(C::NAME, bytes)?;
        let class = C::read_params(&mut r)?;
        let status = persist::read_status(&mut r)?;
        r.finish()?;
        let expected = g.node_count() * class.vars_per_node();
        if status.len() != expected {
            return Err(StateLoadError::SizeMismatch {
                expected,
                found: status.len(),
            });
        }
        if status.tracks_stamps() != C::STAMPS {
            let kind = if C::STAMPS {
                "weakly deducible and requires timestamps"
            } else {
                "deducible and stores no timestamps"
            };
            return Err(StateLoadError::Malformed(format!("{} is {kind}", C::NAME)));
        }
        class.validate(g, &status)?;
        Ok(Deduced {
            class,
            status,
            engine: Engine::new(expected),
            scratch: ScopeScratch::new(),
        })
    }

    /// Test hook: corrupt one stored value without restamping, to
    /// exercise the audit/fallback machinery.
    #[cfg(test)]
    pub(crate) fn poison(&mut self, x: usize, v: C::Value) {
        self.status.set_unstamped(x, v);
    }
}

impl<C: Deducible> crate::IncrementalState for Deduced<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        g.node_count() * self.class.vars_per_node()
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        Deduced::update(self, g, applied)
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        let (status, engine, stats) = run_batch(&self.class, g);
        let prev = std::mem::replace(&mut self.status, status);
        self.status.carry_journal(prev);
        self.engine = engine;
        self.scratch = ScopeScratch::new();
        stats
    }

    fn audit(&self, g: &DynamicGraph, audit: &FixpointAudit) -> AuditReport {
        audit.run(&self.class.spec(g), &self.status)
    }

    fn set_work_budget(&mut self, budget: Option<u64>) {
        self.engine.set_work_budget(budget);
    }

    fn space_bytes(&self) -> usize {
        Deduced::space_bytes(self)
    }

    fn save_state(&self) -> Vec<u8> {
        Deduced::save_state(self)
    }

    fn load_state(&mut self, g: &DynamicGraph, bytes: &[u8]) -> Result<(), StateLoadError> {
        self.replace(Deduced::restore(g, bytes)?);
        Ok(())
    }
}

/// The digest entry of variable `x` is `enc()` of its value: the journal
/// indexes the output directly.
impl<C: Deducible> ClassOutput for Deduced<C> {
    fn nodes(&self) -> usize {
        self.status.len().checked_div(self.stride()).unwrap_or(0)
    }

    fn stride(&self) -> usize {
        self.class.vars_per_node()
    }

    fn entry(&self, i: usize) -> u64 {
        self.status.get(i).enc()
    }

    fn render(&self, out: &mut Vec<u64>) {
        out.extend(self.status.values().iter().map(|v| v.enc()));
    }

    fn set_journal(&mut self, on: bool) {
        self.status.set_journal(on);
    }

    fn journal_bytes(&self) -> usize {
        self.status.journal().space_bytes()
    }

    fn drain(&mut self, changes: &mut Vec<OutputChange>) -> bool {
        self.status.journal_mut().sort();
        let journal = self.status.journal();
        changes.reserve_exact(journal.entries().len());
        for &(x, old) in journal.entries() {
            let (old, new) = (old.enc(), self.status.get(x as usize).enc());
            if old != new {
                changes.push(OutputChange { index: x, old, new });
            }
        }
        self.status.journal_mut().clear();
        false
    }

    fn carry_journal(&mut self, prev: Self) {
        self.status.carry_journal(prev.status);
    }
}
