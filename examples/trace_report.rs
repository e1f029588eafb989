//! trace-report: render a flight-recorder trace as a timeline + summary.
//!
//! ```sh
//! # Render a trace captured earlier (e.g. by Sweep::trace_dir):
//! cargo run --release --example trace_report -- out/traces/cell-0000.jsonl
//!
//! # No argument: self-test. Runs a tiny linear scenario with the ring
//! # recorder enabled, writes the trace through the JSONL writer, parses
//! # it back, and fails (exit 1) if any line does not round-trip
//! # byte-for-byte or contains an unknown event — the CI schema-drift
//! # gate.
//! cargo run --release --example trace_report
//! ```

use std::process::ExitCode;

use fancy::analysis::timeline::{render_timeline, TimelineReport};
use fancy::prelude::*;
use fancy::sim::trace::{parse_jsonl, JsonlWriter, Profiler, TraceEvent};

/// Timeline lines to show before truncating (self-test mode prints a
/// preview; explicit-file mode prints everything).
const PREVIEW_LINES: usize = 40;

fn main() -> ExitCode {
    match std::env::args().nth(1) {
        Some(path) => render_file(&path),
        None => selftest(),
    }
}

fn render_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match parse_jsonl(&text) {
        Ok(evs) => evs,
        Err((line, e)) => {
            eprintln!("trace-report: {path}:{line}: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let report = TimelineReport::from_events(&events);
    print!("{}", render_timeline(&events, false));
    println!();
    print!("{}", report.render());
    ExitCode::SUCCESS
}

fn selftest() -> ExitCode {
    let mut profiler = Profiler::new();

    // A tiny §5 scenario: one dedicated entry, 10 % gray loss from
    // t = 300 ms, 1.2 s of simulation.
    let victim = Prefix::from_addr(0x0A_00_07_00);
    let flows: Vec<ScheduledFlow> = (0..8)
        .map(|i| ScheduledFlow {
            start: SimTime(i * 50_000_000),
            dst: victim.host(1),
            cfg: FlowConfig::for_rate(2_000_000, 1.0),
        })
        .collect();
    let mut sc = match ScenarioSpec::linear()
        .seed(7)
        .flows(flows)
        .high_priority(vec![victim])
        .build()
    {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("trace-report: scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recorder = SharedRecorder::new(1 << 16);
    sc.net.kernel.set_tracer(Box::new(recorder.clone()));
    sc.fail(GrayFailure::single_entry(
        victim,
        0.10,
        SimTime(300_000_000),
    ));
    profiler.time("simulate", || sc.net.run_until(SimTime(1_200_000_000)));

    let events = recorder.snapshot();
    if recorder.dropped() > 0 {
        eprintln!(
            "trace-report: ring overflowed ({} dropped)",
            recorder.dropped()
        );
        return ExitCode::FAILURE;
    }
    if events.is_empty() {
        eprintln!("trace-report: scenario produced no events");
        return ExitCode::FAILURE;
    }

    // Serialize through the JSONL writer, parse back, and demand an
    // exact value and byte round trip per line. An unknown event or a
    // drifted field fails here.
    let text = profiler.time("serialize", || {
        let mut w = JsonlWriter::new(Vec::new());
        for ev in &events {
            w.record(ev);
        }
        String::from_utf8(w.into_inner().expect("Vec<u8> sink cannot fail"))
            .expect("JSONL is ASCII-safe UTF-8")
    });
    let parsed = match profiler.time("parse", || parse_jsonl(&text)) {
        Ok(p) => p,
        Err((line, e)) => {
            eprintln!("trace-report: self-trace line {line} failed to parse: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    if parsed != events {
        eprintln!("trace-report: parsed events differ from recorded events (schema drift)");
        return ExitCode::FAILURE;
    }
    for (i, (line, ev)) in text.lines().zip(&parsed).enumerate() {
        if ev.to_jsonl() != line {
            eprintln!(
                "trace-report: line {} does not round-trip byte-for-byte:\n  in:  {line}\n  out: {}",
                i + 1,
                ev.to_jsonl()
            );
            return ExitCode::FAILURE;
        }
    }

    // `cache_hit` stubs are written by warm sweeps, never by a live
    // kernel, so a simulation can't exercise them — round-trip a
    // synthetic one so schema drift in that variant also fails here.
    let cache_hit = TraceEvent::CacheHit {
        t: 0,
        cell: 12,
        key_hi: 0xDEAD_BEEF_0BAD_CAFE,
        key_lo: 0x0123_4567_89AB_CDEF,
        saved_events: 987_654,
    };
    match parse_jsonl(&format!("{}\n", cache_hit.to_jsonl())) {
        Ok(evs) if evs == [cache_hit.clone()] => {}
        Ok(evs) => {
            eprintln!("trace-report: cache_hit changed in flight: {evs:?}");
            return ExitCode::FAILURE;
        }
        Err((_, e)) => {
            eprintln!("trace-report: synthetic cache_hit failed to parse: {e:?}");
            return ExitCode::FAILURE;
        }
    }

    // Same for `scrape` markers: they come from a ScrapeNode, which this
    // scenario does not install — round-trip a synthetic one so the new
    // metrics-plane variant stays inside the schema gate.
    let scrape = TraceEvent::Scrape {
        t: 100_000_000,
        seq: 41,
        samples: 28,
    };
    match parse_jsonl(&format!("{}\n", scrape.to_jsonl())) {
        Ok(evs) if evs == [scrape.clone()] => {}
        Ok(evs) => {
            eprintln!("trace-report: scrape changed in flight: {evs:?}");
            return ExitCode::FAILURE;
        }
        Err((_, e)) => {
            eprintln!("trace-report: synthetic scrape failed to parse: {e:?}");
            return ExitCode::FAILURE;
        }
    }

    // The cascaded-failover / damping events come from multi-failure
    // scenarios this tiny self-test doesn't build — round-trip synthetic
    // ones (plus a drop-and-alarm NoBackup drop) so the robustness
    // variants stay inside the schema gate too.
    let robustness = [
        TraceEvent::Failover {
            t: 200_000_000,
            node: 3,
            entry: 655_361,
            primary: 1,
            from: 2,
            to: 4,
            rank: 1,
        },
        TraceEvent::RerouteDamp {
            t: 210_000_000,
            node: 3,
            entry: 655_361,
            primary: 1,
            action: "retrip".into(),
        },
        TraceEvent::BackupAlarm {
            t: 220_000_000,
            node: 3,
            entry: 655_361,
            primary: 1,
        },
        TraceEvent::PacketDrop {
            t: 230_000_000,
            cause: DropCause::NoBackup,
            node: 3,
            link: None,
            dir: None,
            uid: 99,
            entry: 655_361,
            flow: Some(7),
            size: 1500,
        },
    ];
    for ev in &robustness {
        match parse_jsonl(&format!("{}\n", ev.to_jsonl())) {
            Ok(evs) if evs.len() == 1 && &evs[0] == ev => {}
            Ok(evs) => {
                eprintln!("trace-report: {} changed in flight: {evs:?}", ev.kind());
                return ExitCode::FAILURE;
            }
            Err((_, e)) => {
                eprintln!(
                    "trace-report: synthetic {} failed to parse: {e:?}",
                    ev.kind()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    // A gray failure on a dedicated entry must leave a complete causal
    // chain in the trace.
    let report = TimelineReport::from_events(&events);
    if report.onset_ns.is_none() || report.first_detection_ns().is_none() {
        eprintln!("trace-report: expected onset + detection in the self-test trace");
        return ExitCode::FAILURE;
    }

    let timeline = render_timeline(&events, false);
    let lines: Vec<&str> = timeline.lines().collect();
    for line in lines.iter().take(PREVIEW_LINES) {
        println!("{line}");
    }
    if lines.len() > PREVIEW_LINES {
        println!("… ({} more timeline lines)", lines.len() - PREVIEW_LINES);
    }
    println!();
    print!("{}", report.render());
    println!();
    print!("{}", profiler.report());
    println!(
        "\ntrace-report self-test: {} events round-tripped exactly",
        events.len()
    );
    ExitCode::SUCCESS
}
