//! Integration tests for the cluster substrate driven by realistic
//! reconstruction workloads: message-passing patterns, time accounting,
//! topology-aware costs and the analytic scaling model they feed.

use ptycho_cluster::{Cluster, ClusterTopology, CommBackend, HardwareModel, RankComm};
use ptycho_core::memory_model::{decomposition_geometry, gd_memory_per_gpu, hve_memory_per_gpu};
use ptycho_core::scaling::{Method, ScalingScenario, GD_HALO_PM, HVE_HALO_PM};
use ptycho_sim::dataset::DatasetSpec;

#[test]
fn all_to_one_gather_pattern_works_at_node_scale() {
    // A gather of per-rank partial costs to rank 0 — the pattern used to
    // assemble the global cost history — exercised at one "node" (6 ranks).
    let cluster = Cluster::new(ClusterTopology::summit());
    let outcomes = cluster
        .run::<Vec<f64>, f64, _>(6, |ctx| {
            let my_cost = (ctx.rank() + 1) as f64;
            if ctx.rank() == 0 {
                let mut total = my_cost;
                for peer in 1..ctx.size() {
                    total += ctx.recv(peer, 99)?[0];
                }
                Ok(total)
            } else {
                ctx.isend(0, 99, vec![my_cost]);
                Ok(0.0)
            }
        })
        .expect("no faults injected");
    assert_eq!(outcomes[0].result, 21.0);
}

#[test]
fn communication_charges_follow_topology() {
    // Sending the same bytes within a node must be cheaper than across nodes.
    let topology = ClusterTopology::summit();
    let cluster = Cluster::new(topology);
    let bytes = vec![0.0f64; 500_000];
    let outcomes = cluster
        .run::<Vec<f64>, (), _>(12, |ctx| {
            match ctx.rank() {
                0 => {
                    ctx.isend(1, 1, bytes.clone()); // same node
                    ctx.isend(7, 2, bytes.clone()); // different node
                }
                1 => {
                    let _ = ctx.recv(0, 1)?;
                }
                7 => {
                    let _ = ctx.recv(0, 2)?;
                }
                _ => {}
            }
            Ok(())
        })
        .expect("no faults injected");
    let sender = &outcomes[0].time;
    let intra = topology.transfer_time(0, 1, 500_000 * 8);
    let inter = topology.transfer_time(0, 7, 500_000 * 8);
    assert!((sender.communication - (intra + inter)).abs() < 1e-9);
    assert!(inter > intra);
}

#[test]
fn scaling_model_is_consistent_with_memory_model() {
    // The scaling table's memory column must agree with the standalone memory
    // model for every GPU count and both methods.
    let mut scenario = ScalingScenario::new(DatasetSpec::lead_titanate_large());
    scenario.calibrate_to(6, 5543.0);
    for &gpus in &[6usize, 54, 198, 462] {
        let gd = scenario
            .point(Method::GradientDecomposition, gpus, true)
            .unwrap();
        let expected = gd_memory_per_gpu(&scenario.spec, gpus, GD_HALO_PM).gigabytes();
        assert!((gd.memory_gb - expected).abs() < 1e-9);

        if let Some(hve) = scenario.point(Method::HaloVoxelExchange, gpus, true) {
            let expected = hve_memory_per_gpu(&scenario.spec, gpus, HVE_HALO_PM, 2).gigabytes();
            assert!((hve.memory_gb - expected).abs() < 1e-9);
        }
    }
}

#[test]
fn decomposition_geometry_matches_summit_node_counts() {
    let spec = DatasetSpec::lead_titanate_large();
    let topology = ClusterTopology::summit();
    for &gpus in &[6usize, 462, 4158] {
        let geometry = decomposition_geometry(&spec, gpus, GD_HALO_PM, 0);
        assert_eq!(geometry.gpus, gpus);
        assert_eq!(geometry.grid.0 * geometry.grid.1, gpus);
        // The paper's node counts: 1, 77 and 693 nodes.
        let expected_nodes = match gpus {
            6 => 1,
            462 => 77,
            _ => 693,
        };
        assert_eq!(topology.nodes_for(gpus), expected_nodes);
    }
}

#[test]
fn cache_speedup_drives_superlinear_region() {
    // The per-GPU working set of the large dataset drops below the modelled
    // cache capacity somewhere between 54 and 4158 GPUs, which is where the
    // super-linear speedup comes from.
    let hw = HardwareModel::summit_v100();
    let spec = DatasetSpec::lead_titanate_large();
    let small_ws = {
        let g = decomposition_geometry(&spec, 4158, GD_HALO_PM, 0);
        3.0 * g.extended_area() * 8.0
    };
    let large_ws = {
        let g = decomposition_geometry(&spec, 6, GD_HALO_PM, 0);
        3.0 * g.extended_area() * 8.0
    };
    assert!(hw.cache_speedup(small_ws) > 2.0 * hw.cache_speedup(large_ws));
}
