//! Observability invariants: tracing is read-only.
//!
//! The tentpole guarantee of the `sfi-obs` layer is that attaching a
//! probe — at any level, writing a full JSONL event stream — never
//! changes what a campaign computes: classifications, tallies, telemetry
//! counts, and estimates are byte-identical to an untraced run at every
//! worker count. On top of that, the stream itself must round-trip: every
//! event the campaign emits is parsed back by the summarizer with the
//! same per-stratum counts the outcome reports.

#[path = "common/fixtures.rs"]
mod fixtures;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use fixtures::{fingerprint, unique_tmp_dir};
use proptest::prelude::*;
use sfi::core::checkpoint::{CampaignRun, CheckpointConfig};
use sfi::faultsim::campaign::Ieee754Corruption;
use sfi::obs::{summary, Probe, TraceLevel};
use sfi::prelude::*;

fn trace_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sfi-observability-{tag}-{}-{n}.jsonl", std::process::id()))
}

fn setup() -> (Model, Dataset, GoldenReference, FaultSpace, SfiPlan) {
    let model = ResNetConfig { base_width: 2, blocks_per_stage: 1, classes: 10, input_size: 8 }
        .build_seeded(5)
        .unwrap();
    let data = SynthCifarConfig::new().with_size(8).with_samples(2).generate();
    let golden = GoldenReference::build(&model, &data).unwrap();
    let space = FaultSpace::stuck_at(&model);
    let spec = SampleSpec { error_margin: 0.2, ..SampleSpec::paper_default() };
    let plan = plan_layer_wise(&space, &spec);
    (model, data, golden, space, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A full `events`-level trace never changes classifications or
    /// estimates, at any worker count.
    #[test]
    fn events_level_tracing_is_read_only(worker_idx in 0usize..3, seed in 1u64..64) {
        const WORKERS: [usize; 3] = [1, 4, 8];
        let (model, data, golden, space, plan) = setup();
        let cfg = CampaignConfig {
            workers: WORKERS[worker_idx],
            ..CampaignConfig::default()
        };
        let plain = execute_plan_traced_any(
            &model,
            &data,
            &golden,
            &plan,
            CampaignSpace::Weight(&space),
            seed,
            &cfg,
            &Ieee754Corruption,
            Probe::disabled(),
            &mut |_| {},
        )
        .unwrap();
        let path = trace_path("readonly");
        let probe = Probe::new(TraceLevel::Events, Some(&path)).unwrap();
        let traced = execute_plan_traced_any(
            &model,
            &data,
            &golden,
            &plan,
            CampaignSpace::Weight(&space),
            seed,
            &cfg,
            &Ieee754Corruption,
            &probe,
            &mut |_| {},
        )
        .unwrap();
        let trace = probe.finish().unwrap().expect("a sink was attached");
        prop_assert_eq!(fingerprint(&plain), fingerprint(&traced));
        prop_assert!(trace.events > 0);
        std::fs::remove_file(&path).ok();
    }
}

/// The emitted stream parses back with exactly the counts the outcome
/// reports: one `fault` event per injection, per-stratum class tallies
/// matching the telemetry, and a strictly increasing `seq`.
#[test]
fn jsonl_stream_round_trips_through_the_summarizer() {
    let (model, data, golden, space, plan) = setup();
    let cfg = CampaignConfig { workers: 4, ..CampaignConfig::default() };
    let path = trace_path("roundtrip");
    let probe = Probe::new(TraceLevel::Events, Some(&path)).unwrap();
    let outcome = execute_plan_traced_any(
        &model,
        &data,
        &golden,
        &plan,
        CampaignSpace::Weight(&space),
        9,
        &cfg,
        &Ieee754Corruption,
        &probe,
        &mut |_| {},
    )
    .unwrap();
    let trace_file = probe.finish().unwrap().expect("a sink was attached");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count() as u64, trace_file.events);

    // summarize() itself enforces the schema: known event kinds, required
    // fields, strictly increasing seq.
    let trace = summary::summarize(&text).unwrap();
    assert_eq!(trace.events, trace_file.events);
    assert_eq!(trace.planned_strata, Some(outcome.strata().len() as u64));
    assert_eq!(trace.planned_faults, Some(outcome.injections()));
    assert_eq!(trace.fault_events, outcome.injections());
    assert_eq!(trace.strata.len(), outcome.strata().len());
    for (st, tel) in trace.strata.iter().zip(outcome.stratum_telemetry()) {
        assert_eq!(st.injections, tel.injections);
        assert_eq!(st.masked, tel.masked);
        assert_eq!(st.critical, tel.critical);
        assert_eq!(st.non_critical, tel.non_critical);
        assert_eq!(st.failures, tel.exec_failures);
        assert_eq!(st.fault_events, tel.injections, "one fault event per injection");
    }
    let campaign = trace.campaign.expect("campaign_end present");
    assert_eq!(campaign.injections, outcome.injections());
    assert_eq!(campaign.inferences, outcome.inferences());
    let metrics = trace.metrics.expect("final metrics event present");
    assert_eq!(metrics.inferences, outcome.inferences());
    std::fs::remove_file(&path).ok();
}

/// `spans` level writes the campaign skeleton without per-fault events,
/// and is just as read-only as `events`.
#[test]
fn spans_level_skips_fault_events_but_keeps_strata() {
    let (model, data, golden, space, plan) = setup();
    let cfg = CampaignConfig::default();
    let plain = execute_plan_traced_any(
        &model,
        &data,
        &golden,
        &plan,
        CampaignSpace::Weight(&space),
        3,
        &cfg,
        &Ieee754Corruption,
        Probe::disabled(),
        &mut |_| {},
    )
    .unwrap();
    let path = trace_path("spans");
    let probe = Probe::new(TraceLevel::Spans, Some(&path)).unwrap();
    let traced = execute_plan_traced_any(
        &model,
        &data,
        &golden,
        &plan,
        CampaignSpace::Weight(&space),
        3,
        &cfg,
        &Ieee754Corruption,
        &probe,
        &mut |_| {},
    )
    .unwrap();
    probe.finish().unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&traced));
    let trace = summary::summarize(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(trace.fault_events, 0, "per-fault events require the events level");
    assert_eq!(trace.strata.len(), plain.strata().len());
    std::fs::remove_file(&path).ok();
}

/// The `ev` kind of every line of a JSONL trace, in stream order.
fn event_kinds(text: &str) -> Vec<String> {
    text.lines()
        .map(|line| {
            let rest = &line[line.find("\"ev\":\"").expect("every event has a kind") + 6..];
            rest[..rest.find('"').unwrap()].to_string()
        })
        .collect()
}

/// A fresh checkpointed run drives its strata through the same code as the
/// plain run, so at `events` level both emit the same event-kind sequence —
/// `plan_compiled` included — apart from the checkpoint-only `resume` and
/// `interrupted` events, and `sfi trace report` can show the compiled-plan
/// summary for either.
#[test]
fn checkpointed_and_plain_runs_emit_the_same_event_kinds() {
    let (model, data, golden, space, plan) = setup();
    let cfg = CampaignConfig { workers: 4, ..CampaignConfig::default() };
    let plain_path = trace_path("kinds-plain");
    let probe = Probe::new(TraceLevel::Events, Some(&plain_path)).unwrap();
    execute_plan_traced_any(
        &model,
        &data,
        &golden,
        &plan,
        CampaignSpace::Weight(&space),
        21,
        &cfg,
        &Ieee754Corruption,
        &probe,
        &mut |_| {},
    )
    .unwrap();
    probe.finish().unwrap();
    let ckpt_path = trace_path("kinds-checkpointed");
    let dir = unique_tmp_dir("observability-kinds");
    let probe = Probe::new(TraceLevel::Events, Some(&ckpt_path)).unwrap();
    let run = execute_plan_checkpointed_traced_any(
        &model,
        &data,
        &golden,
        &plan,
        CampaignSpace::Weight(&space),
        21,
        &cfg,
        &Ieee754Corruption,
        &CheckpointConfig::new(&dir),
        None,
        &probe,
        &mut |_| {},
    )
    .unwrap();
    probe.finish().unwrap();
    assert!(matches!(run, CampaignRun::Complete { .. }));
    let plain_text = std::fs::read_to_string(&plain_path).unwrap();
    let ckpt_text = std::fs::read_to_string(&ckpt_path).unwrap();
    let ckpt_kinds: Vec<String> = event_kinds(&ckpt_text)
        .into_iter()
        .filter(|k| k != "resume" && k != "interrupted")
        .collect();
    assert_eq!(ckpt_kinds, event_kinds(&plain_text));
    assert!(ckpt_kinds.iter().any(|k| k == "plan_compiled"));
    let trace = summary::summarize(&ckpt_text).unwrap();
    assert!(trace.plan.is_some(), "the checkpointed trace carries the compiled-plan summary");
    std::fs::remove_file(&plain_path).ok();
    std::fs::remove_file(&ckpt_path).ok();
    std::fs::remove_dir_all(&dir).ok();
}
