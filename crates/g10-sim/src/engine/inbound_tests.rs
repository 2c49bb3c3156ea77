//! Every inbound route — planned prefetch, evicting prefetch, demand fetch
//! — ends in `start_inbound`, so each charges the same books.

use super::*;
use crate::policies::BaseUvmPolicy;
use g10_dnn::cost::GpuCostModel;
use g10_dnn::models::{build_model, ModelKind};

/// The tallies an inbound migration may move: host free bytes, the
/// ledger's `migrations_in` and `bytes_in`, prefetches issued and dropped,
/// and far faults.
fn books(state: &EngineState) -> [u64; 6] {
    let ledger = state.device_ledger().expect("a ledger is attached");
    let usage = ledger.usage(state.tenant());
    [
        state.host_free_bytes(),
        usage.migrations_in,
        usage.bytes_in,
        state.prefetches_issued,
        state.prefetches_dropped,
        state.uvm.fault_count(),
    ]
}

#[test]
fn every_inbound_route_charges_the_same_books() {
    let graph = build_model(ModelKind::TinyCnn, 32);
    let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
    let config = SystemConfig::table2();
    let options = RuntimeOptions {
        device_ledger: Some(Arc::new(DeviceLedger::new(config.gpu_memory_bytes))),
        ..RuntimeOptions::default()
    };
    let policy = Box::new(BaseUvmPolicy::new());
    let mut engine = ReplayEngine::new(&graph, &trace, &config, policy, options);
    let mut residents: Vec<(TensorId, u64)> = engine
        .state
        .evictable_tensors()
        .map(|(tensor, _, bytes)| (tensor, bytes))
        .collect();
    residents.sort_by_key(|&(_, bytes)| bytes);
    let (victim, _) = residents.pop().expect("a resident to evict");
    let routes = ["planned", "faulting", "quiet", "evicting", "dropped"];
    assert!(residents.len() >= routes.len());
    for (route, &(tensor, bytes)) in routes.into_iter().zip(&residents) {
        // Stage the tensor on the host, with its eviction complete.
        let state = &mut engine.state;
        assert!(state.request_evict(tensor, Location::Host), "{route}");
        state.now = state.pending_gpu_free.back().expect("pending").0;
        state.apply_pending(state.now);
        let before = books(state);
        let started = match route {
            "planned" => state.request_prefetch(tensor),
            "evicting" | "dropped" => {
                // A full GPU: only the victim, which goes to SSD and so
                // leaves the host pool alone, can make room.
                let free = state.uvm.gpu().free_bytes();
                assert!(state.uvm.gpu_mut().try_allocate(free));
                let mut offered = (route == "evicting").then_some((victim, Location::Ssd));
                state.request_prefetch_evicting(tensor, |_| offered.take())
            }
            _ => {
                state.pays_fault_overhead = route == "faulting";
                engine.demand_fetch(tensor.index());
                true
            }
        };
        let after = books(&engine.state);
        let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        let prefetch = u64::from(route == "planned" || route == "evicting");
        let expected = match started {
            true => [bytes, 1, bytes, prefetch, 0],
            false => [0, 0, 0, 0, 1],
        };
        assert_eq!(moved[..5], expected, "{route}");
        assert_eq!(moved[5] > 0, route == "faulting", "{route} faults");
        assert_eq!(started, route != "dropped", "{route}");
        let inbound = engine.state.is_resident_or_inbound(tensor);
        assert_eq!(inbound, started, "{route}");
    }
    assert_eq!(engine.state.location(victim), Location::Ssd);
}
