//! Output checks: every campaign's classifications are compared with a
//! reference that runs with every engine off.
//!
//! - A seeded slice of the campaign's faults is classified again, outside
//!   the timed region, through `KernelPolicy::Naive` with no convergence
//!   early exit, no delta and no batching, on a golden reference built
//!   without the lowering cache. Classes and inference counts must agree.
//! - In traced runs, each traced campaign must reproduce the digest of its
//!   untraced twin (same fault sample).
//! - For the default seed the first campaign's digest must equal the one
//!   recorded in `digests.txt`.

use std::collections::BTreeSet;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfi_core::checkpoint::{execute_plan_checkpointed_traced_any, CheckpointConfig};
use sfi_core::execute::{execute_plan_traced_any, CampaignSpace, SfiOutcome};
use sfi_core::plan::{plan_data_aware_with_p, plan_transient, SchemeKind, SfiPlan};
use sfi_faultsim::campaign::{CampaignConfig, FaultClass, Ieee754Corruption};
use sfi_faultsim::executor::CampaignTelemetry;
use sfi_faultsim::golden::GoldenReference;
use sfi_faultsim::journal::{recover, JournalRecord};
use sfi_faultsim::multi::FaultTarget;
use sfi_faultsim::population::FaultSpace;
use sfi_nn::KernelPolicy;
use sfi_obs::Probe;
use sfi_stats::sample_size::SampleSpec;

use crate::workload::{Campaign, Res, Setup, WORKERS};

/// The seed whose digests are recorded.
pub const DEFAULT_SEED: u64 = 42;

/// Recorded `workload digest` lines for [`DEFAULT_SEED`].
const RECORDED: &str = include_str!("../digests.txt");

/// Faults the reference re-classifies per run (at least; weight slices
/// are whole strata).
const SLICE_FAULTS: u64 = 16;

/// Class counts and inference count of a set of faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Tally {
    faults: u64,
    masked: u64,
    critical: u64,
    non_critical: u64,
    failures: u64,
    inferences: u64,
}

impl Tally {
    fn of_telemetry(t: &CampaignTelemetry) -> Self {
        Tally {
            faults: t.injections,
            masked: t.masked,
            critical: t.critical,
            non_critical: t.non_critical,
            failures: t.exec_failures,
            inferences: t.inferences,
        }
    }
}

/// FNV-1a over every stratum's tally, in plan order.
pub fn digest(outcome: &SfiOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (idx, t) in outcome.stratum_telemetry().iter().enumerate() {
        let t = Tally::of_telemetry(t);
        for v in
            [idx as u64, t.faults, t.masked, t.critical, t.non_critical, t.failures, t.inferences]
        {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Faults the campaign recorded as `ExecutionFailure`.
pub fn exec_failures(outcome: &SfiOutcome) -> u64 {
    outcome.stratum_telemetry().iter().map(|t| t.exec_failures).sum()
}

/// The digest recorded for `workload`, if any.
pub fn recorded_digest(workload: &str) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        (it.next() == Some(workload))
            .then(|| it.next().and_then(|h| u64::from_str_radix(h, 16).ok()))?
    })
}

/// The all-engines-off configuration.
fn reference_config() -> CampaignConfig {
    CampaignConfig {
        workers: WORKERS,
        kernel: KernelPolicy::Naive,
        convergence: false,
        delta: false,
        batched: false,
        ..CampaignConfig::default()
    }
}

/// Result of one reference comparison.
#[derive(Debug, Clone)]
pub struct SliceCheck {
    /// Faults re-classified.
    pub faults: u64,
    /// Of those, faults in a unit (stratum, or the journal prefix) whose
    /// tally disagreed.
    pub mismatched: u64,
    /// Human-readable description of what was compared.
    pub what: String,
}

/// Re-classifies a seeded slice of `campaign`'s faults through the
/// reference engine and compares tallies unit by unit.
///
/// Weight plans: the reference plan keeps a seeded set of `(layer, bit)`
/// strata with the campaign's samples and plans zero faults elsewhere, so
/// each kept stratum draws exactly the campaign's faults; each kept
/// stratum's tally must match. Transient plans: a smaller network-wise
/// sample draws a prefix of the campaign's sample (the sparse Fisher–Yates
/// draw is prefix-stable); the reference journals it, and every fault's
/// class and inference count must match the campaign's journal.
///
/// `golden` is built without the lowering cache (and so without the
/// batched stack and calibration).
pub fn reference_slice(
    setup: &Setup,
    golden: &GoldenReference,
    campaign: &Campaign,
    workdir: &Path,
) -> Res<SliceCheck> {
    let mut rng = StdRng::seed_from_u64(campaign.seed ^ 0x5eed_c0de);
    match (&setup.bit_p, &setup.acts) {
        (Some(p), _) => {
            // Keep a seeded set of layers (through a space in which every
            // other layer has no weights) and of bits (through p = 0
            // elsewhere): the reference plan then has the campaign's strata
            // in the campaign's order, and each kept stratum draws exactly
            // the campaign's faults.
            let strata = setup.plan.strata();
            let mut candidates: Vec<usize> =
                (0..strata.len()).filter(|&i| strata[i].sample > 0).collect();
            let (mut layers, mut bits) = (BTreeSet::new(), BTreeSet::new());
            let kept = |layers: &BTreeSet<usize>, bits: &BTreeSet<u8>| -> u64 {
                strata
                    .iter()
                    .filter(|s| s.layer.is_some_and(|l| layers.contains(&l)))
                    .filter(|s| s.bit.is_some_and(|b| bits.contains(&b)))
                    .map(|s| s.sample)
                    .sum()
            };
            while kept(&layers, &bits) < SLICE_FAULTS && !candidates.is_empty() {
                let st = strata[candidates.swap_remove(rng.gen_range(0..candidates.len()))];
                layers.extend(st.layer);
                bits.extend(st.bit);
            }
            let weights = (0..setup.space.layers())
                .map(
                    |l| if layers.contains(&l) { setup.space.layer_weight_count(l) } else { Ok(0) },
                )
                .collect::<Result<Vec<u64>, _>>()?;
            let ref_space = FaultSpace::from_layer_weights(weights).with_bits(setup.space.bits());
            let ref_p: Vec<f64> = p
                .iter()
                .enumerate()
                .map(|(b, &v)| if bits.contains(&(b as u8)) { v } else { 0.0 })
                .collect();
            let ref_plan = plan_data_aware_with_p(&ref_space, &ref_p, setup.plan.spec())?;
            check_same_strata(&setup.plan, &ref_plan)?;
            let reference = run_reference(
                setup,
                golden,
                campaign.seed,
                &ref_plan,
                CampaignSpace::Weight(&ref_space),
            )?;
            let (mut faults, mut mismatched) = (0, 0);
            for (idx, st) in ref_plan.strata().iter().enumerate() {
                if st.sample == 0 {
                    continue;
                }
                let got = Tally::of_telemetry(&campaign.outcome.stratum_telemetry()[idx]);
                let want = Tally::of_telemetry(&reference.stratum_telemetry()[idx]);
                faults += want.faults;
                if got != want {
                    mismatched += want.faults.max(got.faults);
                    eprintln!(
                        "reference mismatch in stratum {idx}: campaign {got:?}, reference {want:?}"
                    );
                }
            }
            Ok(SliceCheck {
                faults,
                mismatched,
                what: format!("layers {layers:?} x bits {bits:?}"),
            })
        }
        (None, Some(acts)) => {
            let Some((records, _)) = &campaign.journal else {
                return Err("transient slice check needs the campaign's journal".into());
            };
            let total = setup.plan.total_sample() as usize;
            let mut got: Vec<Option<(FaultClass, u64)>> = vec![None; total];
            for r in records.iter().filter(|r| r.id.stratum() == 0 && r.id.index() < total) {
                got[r.id.index()] = Some((r.class, r.inferences));
            }
            // Nearly every transient fault is non-critical at one inference,
            // so the prefix reaches past the campaign's second critical fault
            // (up to an eighth of the sample): a prefix without critical
            // faults would pass for almost any fault list.
            let second_critical = got
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, Some((FaultClass::Critical, _))))
                .nth(1)
                .map_or(0, |(i, _)| i + 1);
            let needed = second_critical.min(total / 8).max(SLICE_FAULTS as usize * 4);
            // The widest margin whose network-wise sample still covers it.
            let plan_at = |error_margin: f64| {
                let spec = SampleSpec { error_margin, ..*setup.plan.spec() };
                plan_transient(acts, FaultTarget::Activation, SchemeKind::NetworkWise, None, &spec)
            };
            let mut margin = setup.plan.spec().error_margin;
            let mut ref_plan = plan_at(margin)?;
            while margin < 1.0 {
                let wider = plan_at(margin * 1.25)?;
                if (wider.total_sample() as usize) < needed {
                    break;
                }
                margin *= 1.25;
                ref_plan = wider;
            }
            check_same_strata(&setup.plan, &ref_plan)?;
            let k = ref_plan.total_sample() as usize;
            let want = run_reference_journaled(
                setup,
                golden,
                campaign.seed,
                &ref_plan,
                CampaignSpace::Transient(acts),
                &workdir.join("reference"),
            )?;
            let mut by_index: Vec<Option<(FaultClass, u64)>> = vec![None; k];
            for r in want.iter().filter(|r| r.id.stratum() == 0 && r.id.index() < k) {
                by_index[r.id.index()] = Some((r.class, r.inferences));
            }
            let mismatched =
                by_index.iter().zip(&got).filter(|(w, g)| w.is_none() || w != g).count() as u64;
            if mismatched > 0 {
                eprintln!("reference mismatch on {mismatched} of the first {k} faults");
            }
            Ok(SliceCheck { faults: k as u64, mismatched, what: format!("first {k} faults") })
        }
        (None, None) => Err("workload has neither a weight nor an activation space".into()),
    }
}

fn run_reference(
    setup: &Setup,
    golden: &GoldenReference,
    seed: u64,
    plan: &SfiPlan,
    space: CampaignSpace<'_>,
) -> Res<SfiOutcome> {
    Ok(execute_plan_traced_any(
        &setup.model,
        &setup.data,
        golden,
        plan,
        space,
        seed,
        &reference_config(),
        &Ieee754Corruption,
        Probe::disabled(),
        &mut |_| {},
    )?)
}

/// [`run_reference`] through the checkpoint journal, for per-fault
/// results.
fn run_reference_journaled(
    setup: &Setup,
    golden: &GoldenReference,
    seed: u64,
    plan: &SfiPlan,
    space: CampaignSpace<'_>,
    dir: &Path,
) -> Res<Vec<JournalRecord>> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    execute_plan_checkpointed_traced_any(
        &setup.model,
        &setup.data,
        golden,
        plan,
        space,
        seed,
        &reference_config(),
        &Ieee754Corruption,
        &CheckpointConfig::new(dir),
        None,
        Probe::disabled(),
        &mut |_| {},
    )?;
    let records = recover(dir)?.records;
    std::fs::remove_dir_all(dir)?;
    Ok(records)
}

/// The reference plan must list the campaign's strata in the campaign's
/// order, and every stratum it samples must have the campaign's population
/// (and sample, or a prefix of the single network-wise one), so the two
/// per-stratum sampling streams coincide.
fn check_same_strata(campaign: &SfiPlan, reference: &SfiPlan) -> Res<()> {
    let same = campaign.strata().len() == reference.strata().len()
        && campaign.strata().iter().zip(reference.strata()).all(|(a, b)| {
            a.layer == b.layer
                && a.bit == b.bit
                && (b.sample == 0
                    || (a.population == b.population
                        && (b.sample == a.sample || (a.layer.is_none() && b.sample < a.sample))))
        });
    if same {
        Ok(())
    } else {
        Err("reference plan does not share the campaign's strata".into())
    }
}
