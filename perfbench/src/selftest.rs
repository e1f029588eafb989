//! Self-tests of the benchmark: the timing delegate is transparent, every
//! replica equals its original, and `BENCHMARK.json` names exactly the
//! workloads and metrics this program prints.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use fancy_bench::env::BenchEnv;
use fancy_bench::netwide::run_netwide;
use fancy_bench::runner::Sweep;
use fancy_sim::{Network, SimDuration, SimTime, SinkNode};

use crate::layers::{self, outputs, rewrap, wrap};
use crate::workloads as wl;

#[test]
fn timing_delegate_is_transparent() {
    let run = |net: &mut Network| {
        net.run_to_end();
        outputs(net)
    };
    let mut plain = wl::forwarding_net(7, &|n| n);
    let mut wrapped = wl::forwarding_net(7, &wrap);
    let want = run(&mut plain);
    assert!(want.telemetry.events_dispatched > 0);
    assert_eq!(run(&mut wrapped), want);
    // Downcasts reach the node inside the delegate.
    let sink = wl::FWD_BRIDGES + 1;
    assert_eq!(
        wrapped.node::<SinkNode>(sink).packets,
        plain.node::<SinkNode>(sink).packets
    );
}

#[test]
fn backbone_replica_equals_spec_built() {
    let topo = fancy_topo::isp_backbone(12, wl::TOPO_SEED).expect("topology");
    let until = SimTime::ZERO + SimDuration::from_secs(1);
    let mut original = wl::backbone_spec(topo.clone(), 3).build().expect("build");
    original.net.run_until(until);
    let mut sc = wl::backbone_spec(topo, 3).build().expect("build");
    let mut replica = rewrap(&mut sc).expect("rewrap");
    replica.run_until(until);
    let want = outputs(&original.net);
    assert!(want.telemetry.events_dispatched > 0);
    assert_eq!(outputs(&replica), want);
}

#[test]
fn table3_cell_replica_equals_original() {
    let scale = BenchEnv::from_env().scale();
    let seed = 5;
    let handles = fancy_bench::caida_exp::load_table3_traces(&scale, seed, None);
    let trace = &handles[0].trace;
    let rank = 3;
    let base = 0x7AB1E3;
    let original = layers::t3_original(trace, rank, base, scale.duration).expect("original");
    let cell_seed = Sweep::new("", vec![0u8]).seed(base).cell_seed(0);
    let mut c = layers::t3_cell(trace, rank, cell_seed, scale.duration).expect("cell");
    let mut net = rewrap(&mut c.sc).expect("rewrap");
    let e = c.sc.fault().clone();
    net.kernel.add_failure(e.link, e.a, c.failure.clone());
    net.run_until(SimTime::ZERO + scale.duration);
    layers::t3_check(&net, &c, &original, "table3 cell").expect("replica agrees");
}

#[test]
fn netwide_replay_equals_run_netwide() {
    let topo = wl::netwide_topology().expect("topology");
    let routes = fancy_topo::Routes::compute(&topo).expect("routes");
    let edge = wl::netwide_edges(&topo)[1];
    let cfg = fancy_bench::netwide::NetwideConfig {
        edges: Some(vec![edge]),
        ..wl::netwide_config(&topo)
    };
    let seed = 11;
    let report = run_netwide(&topo, &cfg, &BenchEnv::from_env().scale(), seed).expect("run");
    let cell_seed = Sweep::new("", vec![edge]).seed(seed).cell_seed(0);
    let got = layers::nw_replay(&topo, &routes, edge, cell_seed).expect("replay");
    assert_eq!(got, layers::nw_expected(&report.outcomes[0]));
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("value") + 1..];
            s[..s.find('"').expect("value closes")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_names_what_a_run_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(names_in(&json, "workloads"), wl::WORKLOADS);
    let e2e: Vec<&str> = crate::END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    let layer: Vec<&str> = layers::PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in(&json, "per_layer"), layer);
    // Units match too.
    for (name, unit) in crate::END_TO_END.iter().chain(layers::PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "{name} is not listed with unit {unit}"
        );
    }
}
