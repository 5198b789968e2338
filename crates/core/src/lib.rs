//! Worst-case replica placement strategies (Li, Gao & Reiter, ICDCS 2015).
//!
//! A system of `n` nodes hosts `b` objects, each replicated onto `r`
//! distinct nodes. An adversary who knows the placement fails `k` nodes;
//! an object fails once `s` of its replicas are on failed nodes. The
//! availability of a placement is the number of objects that survive the
//! *worst* choice of `k` nodes (Definition 1). This crate implements the
//! paper's placement strategies and their availability lower bounds:
//!
//! * [`Placement`] — the `π : O → 2^N` mapping, with validation and load
//!   accounting;
//! * [`SimpleStrategy`] — `Simple(x, λ)` placements (Definition 2), i.e.
//!   `(x+1)-(n, r, λ)` packings, built from the constructive design
//!   registry of [`wcp_designs`]; availability bound `lbAvail_si` (Lemma 2);
//! * [`ComboStrategy`] — `Combo(⟨λ_x⟩)` placements (Definition 3) dividing
//!   objects across `Simple(x, λ_x)` sub-placements; includes the dynamic
//!   program of Sec. III-B1 (Eqns. 5–7) maximizing the bound `lbAvail_co`
//!   (Lemma 3) for a target number of failures `k`;
//! * [`RandomStrategy`] — the load-balanced random placement the paper
//!   compares against (Definition 4), plus the unconstrained variant
//!   `Random′` used in the Theorem-2 analysis;
//! * [`PackingProfile`] — the per-`x` packing parameters `(n_x, μ_x)` and
//!   capacities feeding the DP: either the paper's Fig. 4 table
//!   ([`PackingProfile::paper`]) or whatever the construction registry can
//!   actually build ([`PackingProfile::constructive`]);
//! * [`PlacementStrategy`] / [`StrategyKind`] — the unified strategy
//!   abstraction every family (Simple, Combo, Random, the ring/group
//!   baselines, adaptive snapshots) implements;
//! * [`Engine`] — the facade running plan → build → attack → report in
//!   one call, returning a serializable [`EvaluationReport`].
//!
//! # Quickstart
//!
//! ```
//! use wcp_core::{Engine, StrategyKind, SystemParams};
//!
//! // 71 nodes, 1200 objects, 3 replicas each; an object dies when 2
//! // replicas die; plan for 3 node failures.
//! let params = SystemParams::new(71, 1200, 3, 2, 3)?;
//! let report = Engine::new(params).evaluate(&StrategyKind::Combo)?;
//! assert!(report.lower_bound > 1100); // most objects survive, guaranteed
//! assert!(report.measured_availability as i64 >= report.lower_bound);
//! # Ok::<(), wcp_core::PlacementError>(())
//! ```

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod baselines;
mod bounds;
pub mod certificate;
mod combo;
pub mod domains;
pub mod dynamic;
pub mod engine;
mod error;
pub mod io;
pub mod parallel;
mod params;
mod placement;
pub mod profiles;
mod random;
mod simple;
pub mod strategy;
pub mod sweep;
pub mod topology;

pub use adaptive::AdaptiveSnapshot;
pub use baselines::{GroupStrategy, RingStrategy};
pub use bounds::{lb_avail_co, lb_avail_si, simple_capacity};
pub use certificate::{
    placement_digest, Certificate, CertificateKind, Fnv, LedgerEntry, Rung, RungKind,
};
pub use combo::{combo_plan, ComboPlan, ComboStrategy};
pub use dynamic::{
    movement_between, ClusterEvent, DynamicConfig, DynamicEngine, DynamicError, MovementReport,
    OraclePolicy, OracleReport, RepairAction, StepReport,
};
pub use engine::{
    AttackOutcome, Attacker, Engine, EvaluationReport, ExhaustiveAttacker, LoadStats, Timings,
};
pub use error::PlacementError;
pub use parallel::Parallelism;
pub use params::SystemParams;
pub use placement::Placement;
pub use profiles::{PackingProfile, UnitSpec};
pub use random::{RandomStrategy, RandomVariant};
pub use simple::SimpleStrategy;
pub use strategy::{PlacementStrategy, PlannerContext, StrategyKind};
pub use sweep::{
    run_indexed, sweep_with, AdversarySpec, CellAttacker, DefaultCellAttacker, ParamGrid,
    SweepCell, SweepOptions, SweepRecord, SweepSpec,
};
pub use topology::{
    repair_domain_collisions, DomainRepaired, DomainSpreadStrategy, FailureUnit, Topology,
};
