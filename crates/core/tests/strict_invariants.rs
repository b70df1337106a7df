//! Property tests that only run with `--features strict-invariants`.
//!
//! The feature arms runtime audits inside the hot paths — partition
//! soundness in `PartitionTester` and sampled cache-coherence re-checks in
//! `VptEngine` — so these tests simply drive the schedulers and testers
//! across random quasi-UDG deployments and let every audit fire on every
//! query. A cache bug, a stale kept verdict or a decomposition that does not
//! sum to its target panics here even if the externally visible result
//! happens to look plausible.
#![cfg(feature = "strict-invariants")]

use confine_check::cases;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use confine_core::prelude::*;
use confine_core::schedule::is_vpt_fixpoint;
use confine_graph::{GraphView, Masked, NodeId};

fn quasi_udg(n: usize, rng: &mut impl Rng) -> confine_deploy::scenario::Scenario {
    let side = confine_deploy::deployment::square_side_for_degree(n, 1.0, 10.0);
    let region = confine_deploy::Rect::new(0.0, 0.0, side, side);
    let dep = confine_deploy::deployment::uniform(n, region, rng);
    confine_deploy::scenario::scenario_from_deployment(
        dep,
        confine_deploy::CommModel::QuasiUdg {
            r_in: 0.6,
            rc: 1.0,
            p_mid: 0.6,
        },
        rng,
    )
}

/// Full engine-driven schedule on random quasi-UDGs, then partition
/// certification of the survivors: every `deletable_candidates` sweep
/// runs the sampled fresh-evaluation audit, and every decomposition runs
/// the partition-sum audit.
#[test]
fn audits_hold_across_quasi_udg_schedules() {
    cases(12, |rng| {
        let n = rng.gen_range(25usize..45);
        let tau = rng.gen_range(3usize..6);
        let seed = rng.gen_range(0u64..1000);
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = quasi_udg(n, &mut rng);
        let g = &scenario.graph;
        let boundary = &scenario.boundary;

        let mut engine = VptEngine::new(tau, EngineConfig::default());
        engine.begin_run(g.node_count());
        let mut masked = Masked::all_active(g);
        loop {
            let eligible: Vec<NodeId> = masked
                .active_nodes()
                .filter(|&v| !boundary[v.index()])
                .collect();
            let candidates = engine.deletable_candidates(&masked, &eligible);
            let Some(&v) = candidates.first() else { break };
            engine.note_deletion(&masked, v);
            masked.deactivate(v);
        }

        let induced = masked.to_induced();
        if induced.graph.edge_count() == 0 {
            return;
        }
        let tester = confine_cycles::partition::PartitionTester::new(&induced.graph);
        for c in confine_cycles::space::fundamental_cycles(&induced.graph) {
            assert!(
                tester.min_partition_tau(c.edge_vec()).is_some(),
                "cycle-space member must decompose over the MCB"
            );
            assert!(tester.partition(c.edge_vec()).is_some());
        }
    });
}

/// The audits are observers, not participants: with them armed, the
/// builder pipeline still terminates at a VPT fixpoint on quasi-UDGs.
#[test]
fn audits_do_not_change_scheduler_outcomes() {
    cases(12, |rng| {
        let n = rng.gen_range(25usize..45);
        let tau = rng.gen_range(3usize..6);
        let seed = rng.gen_range(0u64..1000);
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = quasi_udg(n, &mut rng);
        let set = Dcc::builder(tau)
            .centralized()
            .expect("valid tau")
            .run(&scenario.graph, &scenario.boundary, &mut rng)
            .expect("valid inputs");
        assert!(is_vpt_fixpoint(
            &scenario.graph,
            &set.active,
            &scenario.boundary,
            tau
        ));
    });
}
