//! The fault-free reference a campaign classifies against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfi_dataset::Dataset;
use sfi_nn::{ActivationCache, CompiledPlan, Model, NnError, NodeId, NodeOp};
use sfi_tensor::ops::{self, LoweredConv};

use crate::FaultSimError;

/// Precomputed im2col column matrices of every lowerable conv layer's golden
/// input, per evaluation image.
///
/// Weight faults never change a layer's *input* under incremental
/// re-execution (the cached golden prefix feeds the faulted node), so the
/// lowering of that input is valid for every fault targeting the layer — it
/// depends only on input values and geometry, not on weights. Workers share
/// the cache read-only; hit/miss counters live behind [`Arc`] so clones made
/// for worker threads report into the same tallies.
#[derive(Debug, Clone)]
struct LoweringCache {
    /// `by_node[&node][image]` — one lowered panel set per eval image.
    by_node: HashMap<NodeId, Vec<LoweredConv>>,
    bytes: usize,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

/// Golden top-1 predictions plus per-image activation caches.
///
/// Built once per `(model, evaluation set)` pair; campaign workers share it
/// read-only. The caches enable incremental re-execution: a fault in weight
/// layer `l` re-runs inference from `l`'s node, reusing the cached prefix.
/// They are the only golden activation store: the batched eval-image
/// engine ([`CompiledPlan::forward_batched_from`]) gathers the rows it
/// reads from them, and each worker lowers the panel of the conv it is
/// faulting into its own [`SessionState`](sfi_nn::plan::SessionState)
/// single-slot cache.
///
/// # Example
///
/// ```
/// use sfi_dataset::SynthCifarConfig;
/// use sfi_faultsim::golden::GoldenReference;
/// use sfi_nn::resnet::ResNetConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ResNetConfig::resnet20_micro().build_seeded(1)?;
/// let data = SynthCifarConfig::new().with_size(16).with_samples(4).generate();
/// let golden = GoldenReference::build(&model, &data)?;
/// assert_eq!(golden.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GoldenReference {
    predictions: Vec<usize>,
    caches: Vec<ActivationCache>,
    lowering: Option<LoweringCache>,
    plan: Arc<CompiledPlan>,
}

impl GoldenReference {
    /// Runs the fault-free model on every image of `data`, recording top-1
    /// predictions and full activation caches.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::EmptyEvalSet`] for an empty dataset, or the
    /// first inference failure.
    pub fn build(model: &Model, data: &Dataset) -> Result<Self, FaultSimError> {
        if data.is_empty() {
            return Err(FaultSimError::EmptyEvalSet);
        }
        let mut predictions = Vec::with_capacity(data.len());
        let mut caches = Vec::with_capacity(data.len());
        for (image, _) in data.iter() {
            let cache = model.forward_cached(image)?;
            let logits = cache.get(cache.len() - 1).expect("cache covers all nodes");
            predictions.push(logits.argmax().expect("logits are nonempty"));
            caches.push(cache);
        }
        let plan = Arc::new(CompiledPlan::compile(model, &caches[0])?);
        Ok(Self { predictions, caches, lowering: None, plan })
    }

    /// Precomputes the im2col lowering of every lowerable conv node's golden
    /// input, for every evaluation image, then calibrates the plan's engine
    /// dispatch against the per-image caches (switching
    /// `batched_profitable` from a static flop threshold to measured costs
    /// — see [`CompiledPlan::calibrate`]).
    ///
    /// Convolutions that dispatch to the depthwise kernel (which never
    /// lowers) are skipped. The cached panels are consumed by the campaign
    /// executor when re-running the *faulted* conv itself: the faulted layer
    /// reads its golden input, so the lowering is valid for every fault in
    /// the stratum.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::Nn`] when a conv node references a missing
    /// weight parameter, its golden input fails to lower, or a calibrated
    /// step fails.
    pub fn with_lowering(mut self, model: &Model) -> Result<Self, FaultSimError> {
        let mut by_node: HashMap<NodeId, Vec<LoweredConv>> = HashMap::new();
        let mut bytes = 0usize;
        for (id, node) in model.nodes().iter().enumerate() {
            let NodeOp::Conv { weight, cfg, .. } = node.op else { continue };
            let weight = &model
                .store()
                .get(weight)
                .ok_or_else(|| NnError::InvalidParameter {
                    reason: format!("conv node {id} references missing weight {weight}"),
                })?
                .tensor;
            let input_id = node.inputs[0];
            let sample = self.caches[0].get(input_id).expect("cache covers all nodes");
            if !ops::conv2d_uses_lowering(sample, weight, cfg) {
                continue;
            }
            let mut per_image = Vec::with_capacity(self.caches.len());
            for cache in &self.caches {
                let input = cache.get(input_id).expect("cache covers all nodes");
                let lowered = ops::im2col_lower(input, weight, cfg)
                    .map_err(|source| NnError::Op { node: id, source })?;
                bytes += lowered.memory_bytes();
                per_image.push(lowered);
            }
            by_node.insert(id, per_image);
        }
        self.lowering = Some(LoweringCache {
            by_node,
            bytes,
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
        });
        Arc::make_mut(&mut self.plan).calibrate(model, &self.caches)?;
        Ok(self)
    }

    /// Cached lowering of conv node `node`'s golden input for image `image`,
    /// if the cache is enabled and covers that node.
    ///
    /// Counts a hit or miss only when the cache is enabled; with the cache
    /// absent (built without [`with_lowering`](Self::with_lowering)) every
    /// lookup returns `None` without touching the counters.
    pub fn lowering(&self, node: NodeId, image: usize) -> Option<&LoweredConv> {
        let cache = self.lowering.as_ref()?;
        match cache.by_node.get(&node).and_then(|per_image| per_image.get(image)) {
            Some(lowered) => {
                cache.hits.fetch_add(1, Ordering::Relaxed);
                Some(lowered)
            }
            None => {
                cache.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether the lowering cache was built and the plan calibrated
    /// ([`with_lowering`](Self::with_lowering)); the executor runs the
    /// batched engine only then.
    pub fn has_lowering(&self) -> bool {
        self.lowering.is_some()
    }

    /// The compiled execution plan of the reference model (topological
    /// order, tensor lifetime, cost estimates, fusion groups).
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// The per-image activation caches of every eval image, in image
    /// order: the golden rows the batched engine gathers from.
    pub(crate) fn caches(&self) -> &[ActivationCache] {
        &self.caches
    }

    /// Records one shared-panel reuse in the lowering-cache tallies: a
    /// batched pass performs one panel lookup per fault (against the
    /// worker's `SessionState` single-slot cache), not one per image.
    pub fn record_panel_hit(&self) {
        if let Some(cache) = &self.lowering {
            cache.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one shared-panel build (or non-lowerable lookup) in the
    /// lowering-cache tallies.
    pub fn record_panel_miss(&self) {
        if let Some(cache) = &self.lowering {
            cache.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Heap bytes of golden state held for the batched engine alone:
    /// always 0, because the batched engine gathers its golden rows from
    /// the per-image caches and holds no golden state of its own. Its
    /// per-worker panels live in each worker's arena-backed session slot,
    /// not in the shared reference.
    pub fn batched_bytes(&self) -> usize {
        0
    }

    /// Heap bytes held by the cached column matrices (0 when disabled).
    pub fn lowering_bytes(&self) -> usize {
        self.lowering.as_ref().map_or(0, |c| c.bytes)
    }

    /// Number of cache lookups that found a precomputed lowering.
    pub fn lowering_hits(&self) -> u64 {
        self.lowering.as_ref().map_or(0, |c| c.hits.load(Ordering::Relaxed))
    }

    /// Number of cache lookups that missed (non-lowerable or uncovered node).
    pub fn lowering_misses(&self) -> u64 {
        self.lowering.as_ref().map_or(0, |c| c.misses.load(Ordering::Relaxed))
    }

    /// Number of reference images.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.predictions.len()
    }

    /// Checks that `data` is a campaign's evaluation set for this
    /// reference: nonempty, with one golden image per dataset image.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::EmptyEvalSet`] when either is empty, or
    /// [`FaultSimError::EvalSetMismatch`] when their image counts differ.
    pub fn check_eval_set(&self, data: &Dataset) -> Result<(), FaultSimError> {
        if data.is_empty() || self.len() == 0 {
            return Err(FaultSimError::EmptyEvalSet);
        }
        if data.len() != self.len() {
            return Err(FaultSimError::EvalSetMismatch { dataset: data.len(), golden: self.len() });
        }
        Ok(())
    }

    /// Golden top-1 prediction of image `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn prediction(&self, idx: usize) -> usize {
        self.predictions[idx]
    }

    /// All golden predictions.
    pub fn predictions(&self) -> &[usize] {
        &self.predictions
    }

    /// Activation cache of image `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn cache(&self, idx: usize) -> &ActivationCache {
        &self.caches[idx]
    }

    /// Total heap footprint of the activation caches plus any lowering
    /// cache, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.caches.iter().map(ActivationCache::memory_bytes).sum::<usize>() + self.lowering_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_dataset::SynthCifarConfig;
    use sfi_nn::resnet::ResNetConfig;

    #[test]
    fn build_matches_plain_prediction() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(5).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        for (i, (image, _)) in data.iter().enumerate() {
            assert_eq!(golden.prediction(i), model.predict(image).unwrap()[0]);
        }
    }

    #[test]
    fn rejects_empty_dataset() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(0).generate();
        assert!(matches!(GoldenReference::build(&model, &data), Err(FaultSimError::EmptyEvalSet)));
    }

    #[test]
    fn caches_cover_every_node() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(2).generate();
        let golden = GoldenReference::build(&model, &data).unwrap();
        assert_eq!(golden.cache(0).len(), model.nodes().len());
        assert!(golden.memory_bytes() > 0);
    }

    #[test]
    fn lowering_cache_covers_convs_and_counts_lookups() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(3).generate();
        let plain = GoldenReference::build(&model, &data).unwrap();
        assert!(!plain.has_lowering());
        assert_eq!(plain.lowering_bytes(), 0);
        let base_bytes = plain.memory_bytes();
        // Disabled cache: lookups return None and do not count as misses.
        assert!(plain.lowering(1, 0).is_none());
        assert_eq!(plain.lowering_misses(), 0);

        let golden = plain.with_lowering(&model).unwrap();
        assert!(golden.has_lowering());
        assert!(golden.lowering_bytes() > 0);
        assert_eq!(golden.batched_bytes(), 0, "the batched engine holds no golden copy");
        let activation_bytes: usize =
            (0..golden.len()).map(|i| golden.cache(i).memory_bytes()).sum();
        assert_eq!(golden.memory_bytes(), activation_bytes + golden.lowering_bytes());
        assert_eq!(activation_bytes, base_bytes);

        let conv_nodes: Vec<usize> = model
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, sfi_nn::NodeOp::Conv { .. }))
            .map(|(id, _)| id)
            .collect();
        assert!(!conv_nodes.is_empty());
        let mut hits = 0;
        for &node in &conv_nodes {
            for image in 0..golden.len() {
                if golden.lowering(node, image).is_some() {
                    hits += 1;
                }
            }
        }
        assert!(hits > 0, "resnet20-micro has lowerable convs");
        assert_eq!(golden.lowering_hits(), hits);
        // A non-conv node is an honest miss once the cache is enabled.
        assert!(golden.lowering(0, 0).is_none());
        assert_eq!(golden.lowering_misses(), 1);
    }

    #[test]
    fn clones_share_lowering_counters() {
        let model = ResNetConfig::resnet20_micro().build_seeded(8).unwrap();
        let data = SynthCifarConfig::new().with_size(16).with_samples(1).generate();
        let golden = GoldenReference::build(&model, &data).unwrap().with_lowering(&model).unwrap();
        let clone = golden.clone();
        let _ = clone.lowering(0, 0); // miss on the input node
        assert_eq!(golden.lowering_misses(), 1, "counters are shared across clones");
    }
}
