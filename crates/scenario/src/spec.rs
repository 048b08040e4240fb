//! The `ScenarioSpec` manifest format.
//!
//! A manifest is one JSON object; optional fields may be omitted and
//! take the documented defaults. Example (`corpus/isp-baseline.json`):
//!
//! ```json
//! {
//!   "name": "isp-baseline",
//!   "description": "paper §5 ISP backbone, gravity + random high-pri",
//!   "smoke": true,
//!   "topology": "Isp",
//!   "traffic": { "family": "Gravity", "f": 0.3, "k": 0.1, "scale": 4.0 },
//!   "failures": "AllSingleDuplex",
//!   "search": { "budget": "quick", "seed": 1, "beta": 0.5 }
//! }
//! ```

use dtr_core::SearchParams;
use dtr_cost::ObjectiveSpec;
use dtr_graph::datacenter::{
    fat_tree_topology, jellyfish_topology, vl2_topology, xpander_topology, FatTreeCfg,
    JellyfishCfg, Vl2Cfg, XpanderCfg,
};
use dtr_graph::families::{
    grid_topology, hierarchical_topology, waxman_topology, GridCfg, HierarchicalCfg, WaxmanCfg,
};
use dtr_graph::gen::{
    isp_topology, power_law_topology, random_topology, PowerLawTopologyCfg, RandomTopologyCfg,
};
use dtr_graph::rocketfuel::{rocketfuel_topology, RocketfuelCfg};
use dtr_graph::Topology;
use dtr_multi::{MultiDemand, MultiTrafficCfg};
use dtr_routing::FailurePolicy;
use dtr_traffic::{family_demands, DemandSet, FamilyTrafficCfg, HighPriModel, TrafficFamily};
use serde::{Deserialize, Serialize};

/// A topology family plus its parameters — every generator the
/// workspace ships, addressable from a manifest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Near-regular random graph (§5.1.1).
    Random {
        /// Node count.
        nodes: usize,
        /// Directed link count (even).
        links: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Barabási–Albert power-law graph (§5.1.1).
    PowerLaw {
        /// Node count.
        nodes: usize,
        /// Links per new node.
        attachments: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The 16-node North-American ISP backbone (deterministic).
    Isp,
    /// Waxman random geometric graph.
    Waxman {
        /// Node count.
        nodes: usize,
        /// Directed link count (even).
        links: usize,
        /// Waxman β ∈ (0, 1].
        beta: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Two-level core/edge metro design.
    Hierarchical {
        /// Core ring size.
        core: usize,
        /// Extra core chords.
        chords: usize,
        /// Edge nodes per core node.
        edge_per_core: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Rectangular grid / torus.
    Grid {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
        /// Wrap both dimensions.
        torus: bool,
    },
    /// k-ary fat-tree switch fabric.
    FatTree {
        /// Pod count (even).
        pods: usize,
    },
    /// VL2 Clos fabric.
    Vl2 {
        /// Aggregation port count (multiple of 4).
        da: usize,
        /// Intermediate port count (even).
        di: usize,
    },
    /// Jellyfish random regular graph.
    Jellyfish {
        /// Switch count.
        switches: usize,
        /// Network degree.
        degree: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Xpander 2-lift expander.
    Xpander {
        /// Network degree.
        degree: usize,
        /// Number of 2-lifts.
        lifts: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Rocketfuel-style two-level ISP backbone (large regime).
    Rocketfuel {
        /// PoP count (≥ 3).
        pops: usize,
        /// Backbone routers per PoP (≥ 2).
        backbone_per_pop: usize,
        /// Access routers per PoP.
        access_per_pop: usize,
        /// Long-haul chords beyond the PoP ring.
        chords: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Machine-readable family name for reports.
    pub fn family_name(&self) -> &'static str {
        match self {
            TopologySpec::Random { .. } => "random",
            TopologySpec::PowerLaw { .. } => "powerlaw",
            TopologySpec::Isp => "isp",
            TopologySpec::Waxman { .. } => "waxman",
            TopologySpec::Hierarchical { .. } => "hierarchical",
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::FatTree { .. } => "fat-tree",
            TopologySpec::Vl2 { .. } => "vl2",
            TopologySpec::Jellyfish { .. } => "jellyfish",
            TopologySpec::Xpander { .. } => "xpander",
            TopologySpec::Rocketfuel { .. } => "rocketfuel",
        }
    }

    /// Node count of the topology this spec builds. Exact for every
    /// family — the randomized generators (Jellyfish, Xpander) only
    /// redraw wirings on retry, never sizes.
    pub fn node_count_hint(&self) -> usize {
        match *self {
            TopologySpec::Random { nodes, .. }
            | TopologySpec::PowerLaw { nodes, .. }
            | TopologySpec::Waxman { nodes, .. } => nodes,
            TopologySpec::Isp => 16,
            TopologySpec::Hierarchical {
                core,
                edge_per_core,
                ..
            } => core * (1 + edge_per_core),
            TopologySpec::Grid { rows, cols, .. } => rows * cols,
            TopologySpec::FatTree { pods } => 5 * pods * pods / 4,
            TopologySpec::Vl2 { da, di } => da / 2 + di + da * di / 4,
            TopologySpec::Jellyfish { switches, .. } => switches,
            TopologySpec::Xpander { degree, lifts, .. } => (degree + 1) << lifts,
            TopologySpec::Rocketfuel {
                pops,
                backbone_per_pop,
                access_per_pop,
                ..
            } => pops * (backbone_per_pop + access_per_pop),
        }
    }

    /// Checks the generator preconditions this spec will hit, so a bad
    /// manifest fails at corpus-load time with a readable reason rather
    /// than panicking mid-suite inside a generator.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            TopologySpec::Random { nodes, links, .. } => {
                if nodes < 3
                    || links % 2 != 0
                    || links / 2 < nodes
                    || links / 2 > nodes * (nodes - 1) / 2
                {
                    return Err(format!(
                        "Random needs ≥3 nodes and an even link count with \
                         nodes ≤ links/2 ≤ nodes·(nodes−1)/2, got {nodes}/{links}"
                    ));
                }
            }
            TopologySpec::PowerLaw {
                nodes, attachments, ..
            } => {
                if attachments < 1 || nodes <= attachments {
                    return Err(format!(
                        "PowerLaw needs 1 ≤ attachments < nodes, got {attachments}/{nodes}"
                    ));
                }
            }
            TopologySpec::Isp => {}
            TopologySpec::Waxman {
                nodes, links, beta, ..
            } => {
                if nodes < 3
                    || links % 2 != 0
                    || links / 2 < nodes
                    || links / 2 > nodes * (nodes - 1) / 2
                {
                    return Err(format!(
                        "Waxman needs ≥3 nodes and an even link count with \
                         nodes ≤ links/2 ≤ nodes·(nodes−1)/2, got {nodes}/{links}"
                    ));
                }
                if !(beta > 0.0 && beta <= 1.0) {
                    return Err(format!("Waxman β = {beta} outside (0,1]"));
                }
            }
            TopologySpec::Hierarchical { core, chords, .. } => {
                if core < 3 || chords > core * (core - 1) / 2 - core {
                    return Err(format!(
                        "Hierarchical needs core ≥ 3 and chords ≤ core·(core−1)/2 − core, \
                         got {core}/{chords}"
                    ));
                }
            }
            TopologySpec::Grid { rows, cols, torus } => {
                let min = if torus { 3 } else { 2 };
                if rows < min || cols < min {
                    return Err(format!(
                        "Grid needs both dimensions ≥ {min} (torus = {torus}), got {rows}×{cols}"
                    ));
                }
            }
            TopologySpec::FatTree { pods } => {
                if pods < 2 || pods % 2 != 0 {
                    return Err(format!("FatTree needs even pods ≥ 2, got {pods}"));
                }
            }
            TopologySpec::Vl2 { da, di } => {
                if da < 4 || da % 4 != 0 || di < 2 || di % 2 != 0 {
                    return Err(format!(
                        "Vl2 needs d_a ≥ 4 (multiple of 4) and even d_i ≥ 2, got {da}/{di}"
                    ));
                }
            }
            TopologySpec::Jellyfish {
                switches, degree, ..
            } => {
                if switches < 3 || degree < 2 || degree >= switches || (switches * degree) % 2 != 0
                {
                    return Err(format!(
                        "Jellyfish needs 2 ≤ degree < switches (≥3) with switches·degree even, \
                         got {switches}/{degree}"
                    ));
                }
            }
            TopologySpec::Xpander { degree, lifts, .. } => {
                if degree < 2 || lifts > 16 {
                    return Err(format!(
                        "Xpander needs degree ≥ 2 and lifts ≤ 16, got {degree}/{lifts}"
                    ));
                }
            }
            TopologySpec::Rocketfuel {
                pops,
                backbone_per_pop,
                chords,
                ..
            } => {
                if pops < 3 || backbone_per_pop < 2 {
                    return Err(format!(
                        "Rocketfuel needs pops ≥ 3 and backbone_per_pop ≥ 2, \
                         got {pops}/{backbone_per_pop}"
                    ));
                }
                let max_chords = pops * (pops - 3) / 2;
                if chords > max_chords {
                    return Err(format!(
                        "Rocketfuel chords ({chords}) exceed the {max_chords} non-ring \
                         PoP pairs of a {pops}-PoP ring"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Builds the topology (panics on invalid parameters, exactly like
    /// the underlying generators — [`ScenarioSpec::validate`] catches
    /// the common mistakes with a friendlier error first).
    pub fn build(&self) -> Topology {
        match *self {
            TopologySpec::Random { nodes, links, seed } => random_topology(&RandomTopologyCfg {
                nodes,
                directed_links: links,
                seed,
            }),
            TopologySpec::PowerLaw {
                nodes,
                attachments,
                seed,
            } => power_law_topology(&PowerLawTopologyCfg {
                nodes,
                attachments,
                seed,
            }),
            TopologySpec::Isp => isp_topology(),
            TopologySpec::Waxman {
                nodes,
                links,
                beta,
                seed,
            } => waxman_topology(&WaxmanCfg {
                nodes,
                directed_links: links,
                beta,
                seed,
            }),
            TopologySpec::Hierarchical {
                core,
                chords,
                edge_per_core,
                seed,
            } => hierarchical_topology(&HierarchicalCfg {
                core_nodes: core,
                core_chords: chords,
                edge_per_core,
                seed,
                ..Default::default()
            }),
            TopologySpec::Grid { rows, cols, torus } => grid_topology(&GridCfg {
                rows,
                cols,
                torus,
                ..Default::default()
            }),
            TopologySpec::FatTree { pods } => fat_tree_topology(&FatTreeCfg { pods }),
            TopologySpec::Vl2 { da, di } => vl2_topology(&Vl2Cfg { da, di }),
            TopologySpec::Jellyfish {
                switches,
                degree,
                seed,
            } => jellyfish_topology(&JellyfishCfg {
                switches,
                degree,
                seed,
            }),
            TopologySpec::Xpander {
                degree,
                lifts,
                seed,
            } => xpander_topology(&XpanderCfg {
                degree,
                lifts,
                seed,
            }),
            TopologySpec::Rocketfuel {
                pops,
                backbone_per_pop,
                access_per_pop,
                chords,
                seed,
            } => rocketfuel_topology(&RocketfuelCfg {
                pops,
                backbone_per_pop,
                access_per_pop,
                chords,
                seed,
            }),
        }
    }
}

/// Traffic generation for one instance. Omitted fields take the
/// paper's defaults: `f = 0.3`, `k = 0.1`, random high-priority
/// placement, `scale = 1`, `seed = 1`.
///
/// Instances whose objective carries more than two classes use the
/// k-class generator ([`TrafficSpec::build_multi`]): `fractions` and
/// `densities` configure the priority classes above the base
/// class; omitted, the two-class `f`/`k` defaults are split evenly
/// across the upper classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Low-priority matrix family.
    pub family: TrafficFamily,
    /// High-priority volume fraction `f ∈ (0, 1)`.
    pub f: Option<f64>,
    /// High-priority SD-pair density `k ∈ (0, 1]`.
    pub k: Option<f64>,
    /// High-priority placement (`"Random"` or the sink model).
    pub model: Option<HighPriModel>,
    /// Uniform demand scale γ (how manifests set the load level).
    pub scale: Option<f64>,
    /// Traffic seed.
    pub seed: Option<u64>,
    /// k-class instances only: volume fraction per priority class above
    /// the base, highest first (must sum below 1; the base class gets
    /// the remainder). Default: `f` split evenly across the upper
    /// classes.
    pub fractions: Option<Vec<f64>>,
    /// k-class instances only: SD-pair density per priority class above
    /// the base (aligned with `fractions`). Default: `k` per class.
    pub densities: Option<Vec<f64>>,
}

impl TrafficSpec {
    /// The effective volume fraction.
    pub fn f(&self) -> f64 {
        self.f.unwrap_or(0.30)
    }

    /// The effective pair density.
    pub fn k(&self) -> f64 {
        self.k.unwrap_or(0.10)
    }

    /// The effective demand scale.
    pub fn scale(&self) -> f64 {
        self.scale.unwrap_or(1.0)
    }

    /// Generates the demand set for `topo`.
    pub fn build(&self, topo: &Topology) -> DemandSet {
        family_demands(
            topo,
            &FamilyTrafficCfg {
                family: self.family,
                f: self.f(),
                k: self.k(),
                model: self.model.unwrap_or(HighPriModel::Random),
                seed: self.seed.unwrap_or(1),
            },
        )
        .scaled(self.scale())
    }

    /// The effective per-class volume fractions of the `k − 1` priority
    /// classes above the base (manifest `fractions`, or `f` split
    /// evenly).
    pub fn class_fractions(&self, k: usize) -> Vec<f64> {
        match &self.fractions {
            Some(fr) => fr.clone(),
            None => vec![self.f() / (k - 1) as f64; k - 1],
        }
    }

    /// The effective per-class pair densities of the upper classes
    /// (manifest `densities`, or `k` replicated).
    pub fn class_densities(&self, k: usize) -> Vec<f64> {
        match &self.densities {
            Some(d) => d.clone(),
            None => vec![self.k(); k - 1],
        }
    }

    /// Generates the `k`-class demand set for `topo`: the family's low
    /// matrix as the base class plus `k − 1` priority classes coupled to
    /// it (see [`MultiDemand::coupled`]).
    pub fn build_multi(&self, topo: &Topology, k: usize) -> MultiDemand {
        assert!(k >= 3, "build_multi is the k ≥ 3 generator; use build");
        let seed = self.seed.unwrap_or(1);
        let cfg = MultiTrafficCfg {
            fractions: self.class_fractions(k),
            densities: self.class_densities(k),
            seed,
        };
        let base = self.family.low_matrix(topo.node_count(), seed);
        MultiDemand::coupled(base, &cfg).scaled(self.scale())
    }
}

/// Search configuration of one instance. Omitted fields default to the
/// `quick` budget, seed 1, robustness blend β = 0.5, plain (non-
/// portfolio) searches.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchSpec {
    /// Budget preset name (`tiny|quick|experiment|paper`).
    pub budget: Option<String>,
    /// Search seed.
    pub seed: Option<u64>,
    /// Robustness blend β ∈ [0, 1] of the failure policy's combined
    /// cost (`(1−β)·intact + β·worst`).
    pub beta: Option<f64>,
    /// Run each scheme through the parallel portfolio orchestrator
    /// (descent and annealing arms) instead of a single search.
    pub portfolio: Option<bool>,
}

impl SearchSpec {
    /// The effective budget-preset name.
    pub fn budget(&self) -> &str {
        self.budget.as_deref().unwrap_or("quick")
    }

    /// The effective robustness blend.
    pub fn beta(&self) -> f64 {
        self.beta.unwrap_or(0.5)
    }

    /// Whether the portfolio orchestrator is requested.
    pub fn portfolio(&self) -> bool {
        self.portfolio.unwrap_or(false)
    }

    /// Resolves [`SearchParams`]: the spec'd preset, or `tiny` when
    /// `smoke` forces the CI budget, with the spec'd seed.
    pub fn params(&self, smoke: bool) -> SearchParams {
        let preset = if smoke { "tiny" } else { self.budget() };
        SearchParams::preset(preset)
            .unwrap_or_else(|| panic!("unknown budget preset {preset:?}"))
            .with_seed(self.seed.unwrap_or(1))
    }
}

/// Partial-deployment declaration: which routers are MT-capable.
///
/// Omitting the `deployment` key (every pre-existing manifest) means
/// full deployment — the classic DTR setup where every router installs
/// both topologies. With a partial set, the **legacy** (non-upgraded)
/// routers forward *both* classes on the default high topology; see
/// `dtr_routing::deploy` for the forwarding model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentSpec {
    /// Node indices of the MT-capable (upgraded) routers. Listing every
    /// node is equivalent to omitting the key entirely.
    pub upgraded: Vec<u32>,
}

/// One complete scenario manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Unique instance name; doubles as the report file stem, so it
    /// must be non-empty and file-name safe.
    pub name: String,
    /// Free-text description.
    pub description: Option<String>,
    /// Eligible for `--smoke` runs (keep these tiny: CI runs them on
    /// every pull request at the `tiny` budget).
    pub smoke: Option<bool>,
    /// Topology family + parameters.
    pub topology: TopologySpec,
    /// Traffic generation (two-class, or k-class when the objective
    /// carries more classes).
    pub traffic: TrafficSpec,
    /// Failure-scenario policy (default: nominal only).
    pub failures: Option<FailurePolicy>,
    /// Search configuration (default: `quick` budget, seed 1).
    pub search: Option<SearchSpec>,
    /// The unified objective (default: the paper's load-based two-class
    /// `A = ⟨Φ_H, Φ_L⟩`, so every pre-spec manifest parses unchanged).
    pub objective: Option<ObjectiveSpec>,
    /// Partial deployment (default: fully deployed — every pre-spec
    /// manifest parses unchanged).
    pub deployment: Option<DeploymentSpec>,
}

impl ScenarioSpec {
    /// Whether this instance runs under `--smoke`.
    pub fn is_smoke(&self) -> bool {
        self.smoke.unwrap_or(false)
    }

    /// The effective failure policy.
    pub fn failures(&self) -> FailurePolicy {
        self.failures.unwrap_or_default()
    }

    /// The effective search spec.
    pub fn search(&self) -> SearchSpec {
        self.search.clone().unwrap_or_default()
    }

    /// The effective objective spec.
    pub fn objective(&self) -> ObjectiveSpec {
        self.objective.clone().unwrap_or_default()
    }

    /// Number of traffic classes the objective requests.
    pub fn class_count(&self) -> usize {
        self.objective().class_count()
    }

    /// Resolves the manifest's deployment against a topology of `n`
    /// nodes. Returns `None` for an omitted key **or** a set covering
    /// every node — the normalization that keeps fully-deployed
    /// evaluation on the exact legacy code path, bit for bit.
    pub fn deployment_set(&self, n: usize) -> Option<dtr_routing::DeploymentSet> {
        let d = self.deployment.as_ref()?;
        let set = dtr_routing::DeploymentSet::from_upgraded(n, &d.upgraded);
        (!set.is_full()).then_some(set)
    }

    /// Checks the manifest for the mistakes a generator would otherwise
    /// panic on mid-suite. Returns a human-readable reason.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("name must be non-empty".into());
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "name {:?} must be file-name safe ([A-Za-z0-9_-])",
                self.name
            ));
        }
        self.topology.validate()?;
        let n = self.topology.node_count_hint();
        match self.traffic.family {
            TrafficFamily::Stride { stride, volume } => {
                if stride % n == 0 {
                    return Err(format!(
                        "Stride {stride} ≡ 0 (mod {n} nodes) would be self-traffic"
                    ));
                }
                if volume.is_nan() || volume <= 0.0 {
                    return Err(format!("Stride volume = {volume} must be positive"));
                }
            }
            TrafficFamily::Hotspot {
                hotspots,
                hot_share,
            } => {
                if hotspots == 0 || hotspots >= n {
                    return Err(format!(
                        "Hotspot needs 1 ≤ hotspots < {n} nodes, got {hotspots}"
                    ));
                }
                if !(0.0..=1.0).contains(&hot_share) {
                    return Err(format!("Hotspot hot_share = {hot_share} outside [0,1]"));
                }
            }
            TrafficFamily::SkewedGravity { alpha } => {
                if !(alpha.is_finite() && alpha >= 0.0) {
                    return Err(format!("SkewedGravity α = {alpha} must be finite and ≥ 0"));
                }
            }
            TrafficFamily::Gravity => {}
        }
        let f = self.traffic.f();
        if !(f > 0.0 && f < 1.0) {
            return Err(format!("traffic.f = {f} outside (0,1)"));
        }
        let k = self.traffic.k();
        if !(k > 0.0 && k <= 1.0) {
            return Err(format!("traffic.k = {k} outside (0,1]"));
        }
        let scale = self.traffic.scale();
        if !(scale.is_finite() && scale > 0.0) {
            return Err(format!("traffic.scale = {scale} must be positive"));
        }
        let search = self.search();
        if SearchParams::preset(search.budget()).is_none() {
            return Err(format!(
                "search.budget {:?} is not a preset (tiny|quick|experiment|paper)",
                search.budget()
            ));
        }
        let beta = search.beta();
        if !(0.0..=1.0).contains(&beta) {
            return Err(format!("search.beta = {beta} outside [0,1]"));
        }
        if let FailurePolicy::WorstK { k } = self.failures() {
            if k == 0 {
                return Err("failures.WorstK.k must be ≥ 1".into());
            }
        }
        let objective = self.objective();
        objective
            .validate()
            .map_err(|e| format!("objective: {e}"))?;
        let classes = objective.class_count();
        if let Some(fr) = &self.traffic.fractions {
            if fr.len() + 1 != classes {
                return Err(format!(
                    "traffic.fractions has {} entries but the objective carries \
                     {classes} classes (need {})",
                    fr.len(),
                    classes - 1
                ));
            }
            let sum: f64 = fr.iter().sum();
            if !(fr.iter().all(|&f| f.is_finite() && f > 0.0) && sum < 1.0) {
                return Err(format!(
                    "traffic.fractions must be positive and sum below 1, got {fr:?}"
                ));
            }
            match &self.traffic.densities {
                Some(d) if d.len() == fr.len() && !d.iter().all(|&x| x > 0.0 && x <= 1.0) => {
                    return Err(format!("traffic.densities outside (0,1]: {d:?}"));
                }
                Some(d) if d.len() != fr.len() => {
                    return Err(format!(
                        "traffic.densities has {} entries, fractions {}",
                        d.len(),
                        fr.len()
                    ));
                }
                _ => {}
            }
        }
        if classes > 2 && search.portfolio() {
            return Err(format!(
                "k-class instances ({classes} classes) do not support the \
                 portfolio orchestrator (its strategy arms are two-class)"
            ));
        }
        if let Some(dep) = &self.deployment {
            if classes != 2 {
                return Err(format!(
                    "deployment requires the two-class pipeline, got {classes} classes"
                ));
            }
            if !self.failures().is_none() {
                return Err(
                    "deployment does not combine with failure sweeps (the robustness \
                     evaluator is deployment-unaware)"
                        .into(),
                );
            }
            let mut seen = std::collections::BTreeSet::new();
            for &v in &dep.upgraded {
                if (v as usize) >= n {
                    return Err(format!(
                        "deployment.upgraded node {v} outside the {n}-node topology"
                    ));
                }
                if !seen.insert(v) {
                    return Err(format!("deployment.upgraded lists node {v} twice"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(name: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            description: None,
            smoke: None,
            topology: TopologySpec::Isp,
            traffic: TrafficSpec {
                family: TrafficFamily::Gravity,
                f: None,
                k: None,
                model: None,
                scale: None,
                seed: None,
                fractions: None,
                densities: None,
            },
            failures: None,
            search: None,
            objective: None,
            deployment: None,
        }
    }

    #[test]
    fn defaults_are_the_papers() {
        let s = minimal("x");
        assert_eq!(s.traffic.f(), 0.30);
        assert_eq!(s.traffic.k(), 0.10);
        assert_eq!(s.search().budget(), "quick");
        assert_eq!(s.search().beta(), 0.5);
        assert!(!s.search().portfolio());
        assert!(s.failures().is_none());
        assert!(!s.is_smoke());
        assert_eq!(s.objective(), ObjectiveSpec::two_class_load());
        assert_eq!(s.class_count(), 2);
        s.validate().unwrap();
    }

    #[test]
    fn objective_field_parses_and_validates() {
        // A pre-spec manifest (no objective key) defaults to two-class
        // load — the compatibility contract for the existing corpus.
        let json = r#"{
            "name": "legacy",
            "topology": "Isp",
            "traffic": { "family": "Gravity" }
        }"#;
        let s: ScenarioSpec = serde_json::from_str(json).unwrap();
        s.validate().unwrap();
        assert_eq!(s.objective(), ObjectiveSpec::two_class_load());

        // A 3-class per-class-SLA manifest.
        let json = r#"{
            "name": "triclass",
            "topology": { "Random": { "nodes": 10, "links": 40, "seed": 1 } },
            "traffic": {
                "family": "Gravity",
                "fractions": [0.15, 0.15],
                "densities": [0.2, 0.2],
                "scale": 3.0
            },
            "objective": { "classes": [
                { "Sla": { "bound_s": 0.025, "penalty_a": 100.0, "penalty_b": 1.0,
                           "delay": { "packet_size_bits": 8000.0 } } },
                { "Sla": { "bound_s": 0.05, "penalty_a": 100.0, "penalty_b": 1.0,
                           "delay": { "packet_size_bits": 8000.0 } } },
                "Load"
            ] }
        }"#;
        let s: ScenarioSpec = serde_json::from_str(json).unwrap();
        s.validate().unwrap();
        assert_eq!(s.class_count(), 3);
        assert_eq!(s.objective().summary(), "sla:25ms,sla:50ms,load");
        assert_eq!(s.traffic.class_fractions(3), vec![0.15, 0.15]);
        let back: ScenarioSpec = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn deployment_field_parses_normalizes_and_fences() {
        // Manifest form: an explicit upgraded-node list.
        let json = r#"{
            "name": "partial",
            "topology": "Isp",
            "traffic": { "family": "Gravity" },
            "deployment": { "upgraded": [0, 3, 7] }
        }"#;
        let s: ScenarioSpec = serde_json::from_str(json).unwrap();
        s.validate().unwrap();
        assert_eq!(s.deployment_set(16).unwrap().upgraded_nodes(), [0, 3, 7]);
        let back: ScenarioSpec = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);

        // Listing every node is the same as omitting the key: the
        // resolver normalizes to None so evaluation stays on the exact
        // legacy code path.
        let mut s = minimal("full");
        s.deployment = Some(DeploymentSpec {
            upgraded: (0..16).collect(),
        });
        s.validate().unwrap();
        assert!(s.deployment_set(16).is_none());
        assert!(minimal("omitted").deployment_set(16).is_none());

        // Fences: out-of-range node, duplicate node, failure sweeps and
        // k-class objectives are all rejected at manifest load.
        let mut s = minimal("bad");
        s.deployment = Some(DeploymentSpec { upgraded: vec![16] });
        assert!(s.validate().unwrap_err().contains("outside"));
        s.deployment = Some(DeploymentSpec {
            upgraded: vec![1, 1],
        });
        assert!(s.validate().unwrap_err().contains("twice"));
        s.deployment = Some(DeploymentSpec { upgraded: vec![1] });
        s.failures = Some(FailurePolicy::AllSingleDuplex);
        assert!(s.validate().unwrap_err().contains("failure"));
        s.failures = None;
        s.objective = Some(ObjectiveSpec::load(3));
        assert!(s.validate().unwrap_err().contains("two-class pipeline"));
    }

    #[test]
    fn k_class_validation_catches_mismatches() {
        let mut s = minimal("kc");
        s.objective = Some(ObjectiveSpec::load(3));
        s.validate().unwrap();
        // Fraction count must match the class count.
        s.traffic.fractions = Some(vec![0.2]);
        assert!(s.validate().unwrap_err().contains("fractions"));
        s.traffic.fractions = Some(vec![0.2, 0.9]);
        assert!(s.validate().unwrap_err().contains("sum below 1"));
        s.traffic.fractions = Some(vec![0.2, 0.2]);
        s.traffic.densities = Some(vec![0.1]);
        assert!(s.validate().unwrap_err().contains("densities"));
        s.traffic.densities = None;
        s.validate().unwrap();
        // k-class instances take any traffic family and failure policy,
        // but not the portfolio.
        s.traffic.family = TrafficFamily::SkewedGravity { alpha: 1.0 };
        s.validate().unwrap();
        s.failures = Some(FailurePolicy::AllSingleDuplex);
        s.validate().unwrap();
        s.search = Some(SearchSpec {
            portfolio: Some(true),
            ..Default::default()
        });
        assert!(s.validate().unwrap_err().contains("portfolio"));
        // And a structurally bad objective is reported with context.
        s.search = None;
        s.failures = None;
        s.objective = Some(ObjectiveSpec { classes: vec![] });
        assert!(s.validate().unwrap_err().contains("objective"));
    }

    #[test]
    fn default_class_fractions_split_f_evenly() {
        let s = minimal("frac");
        let fr = s.traffic.class_fractions(4);
        assert_eq!(fr.len(), 3);
        for f in fr {
            assert!((f - 0.1).abs() < 1e-12);
        }
        assert_eq!(s.traffic.class_densities(3), vec![0.1, 0.1]);
    }

    #[test]
    fn build_multi_respects_fractions_and_scale() {
        let mut s = minimal("bm");
        s.topology = TopologySpec::Random {
            nodes: 10,
            links: 40,
            seed: 3,
        };
        s.traffic.fractions = Some(vec![0.2, 0.1]);
        s.traffic.densities = Some(vec![0.3, 0.3]);
        s.traffic.scale = Some(2.0);
        s.traffic.seed = Some(3);
        let topo = s.topology.build();
        let d = s.traffic.build_multi(&topo, 3);
        assert_eq!(d.class_count(), 3);
        assert!((d.fraction(0) - 0.2).abs() < 1e-9);
        assert!((d.fraction(1) - 0.1).abs() < 1e-9);
        assert!(d.total_volume() > 0.0);
    }

    #[test]
    fn json_roundtrip_with_omitted_fields() {
        let json = r#"{
            "name": "dc-stride",
            "smoke": true,
            "topology": { "FatTree": { "pods": 4 } },
            "traffic": { "family": { "Stride": { "stride": 3, "volume": 80.0 } }, "scale": 2.0 },
            "failures": { "WorstK": { "k": 8 } },
            "search": { "budget": "tiny", "seed": 7 }
        }"#;
        let s: ScenarioSpec = serde_json::from_str(json).unwrap();
        s.validate().unwrap();
        assert!(s.is_smoke());
        assert_eq!(s.topology.family_name(), "fat-tree");
        assert_eq!(s.failures().cap(), Some(8));
        assert_eq!(s.search().params(false).seed, 7);
        // Round-trip through serialization.
        let back: ScenarioSpec = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn smoke_forces_tiny_budget() {
        let spec = SearchSpec {
            budget: Some("experiment".into()),
            seed: Some(3),
            beta: None,
            portfolio: None,
        };
        assert_eq!(spec.params(true), SearchParams::tiny().with_seed(3));
        assert_eq!(spec.params(false), SearchParams::experiment().with_seed(3));
    }

    #[test]
    fn validation_catches_manifest_typos() {
        let mut s = minimal("bad name!");
        assert!(s.validate().is_err());
        s = minimal("ok");
        s.traffic.f = Some(1.5);
        assert!(s.validate().unwrap_err().contains("traffic.f"));
        s = minimal("ok");
        s.search = Some(SearchSpec {
            budget: Some("huge".into()),
            ..Default::default()
        });
        assert!(s.validate().unwrap_err().contains("budget"));
        s = minimal("ok");
        s.failures = Some(FailurePolicy::WorstK { k: 0 });
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_topology_params() {
        let mut s = minimal("ok");
        s.topology = TopologySpec::FatTree { pods: 3 };
        assert!(s.validate().unwrap_err().contains("FatTree"));
        s.topology = TopologySpec::Vl2 { da: 6, di: 4 };
        assert!(s.validate().unwrap_err().contains("Vl2"));
        s.topology = TopologySpec::Jellyfish {
            switches: 5,
            degree: 3,
            seed: 1,
        };
        assert!(s.validate().unwrap_err().contains("Jellyfish"));
        s.topology = TopologySpec::Random {
            nodes: 10,
            links: 41,
            seed: 1,
        };
        assert!(s.validate().unwrap_err().contains("Random"));
        s.topology = TopologySpec::Grid {
            rows: 2,
            cols: 5,
            torus: true,
        };
        assert!(s.validate().unwrap_err().contains("Grid"));
    }

    #[test]
    fn validation_catches_bad_traffic_families() {
        // Stride 32 on the 16-node ISP is self-traffic (32 ≡ 0 mod 16).
        let mut s = minimal("ok");
        s.traffic.family = TrafficFamily::Stride {
            stride: 32,
            volume: 10.0,
        };
        assert!(s.validate().unwrap_err().contains("Stride"));
        s.traffic.family = TrafficFamily::Hotspot {
            hotspots: 16,
            hot_share: 0.5,
        };
        assert!(s.validate().unwrap_err().contains("Hotspot"));
        s.traffic.family = TrafficFamily::SkewedGravity { alpha: -1.0 };
        assert!(s.validate().unwrap_err().contains("SkewedGravity"));
    }

    #[test]
    fn node_count_hints_are_exact() {
        for (spec, expect) in [
            (TopologySpec::Isp, 16),
            (TopologySpec::FatTree { pods: 4 }, 20),
            (TopologySpec::Vl2 { da: 4, di: 6 }, 14),
            (
                TopologySpec::Xpander {
                    degree: 4,
                    lifts: 2,
                    seed: 1,
                },
                20,
            ),
            (
                TopologySpec::Hierarchical {
                    core: 6,
                    chords: 3,
                    edge_per_core: 4,
                    seed: 1,
                },
                30,
            ),
        ] {
            assert_eq!(spec.node_count_hint(), expect);
            assert_eq!(spec.build().node_count(), expect);
        }
    }

    #[test]
    fn every_topology_spec_builds() {
        for (spec, nodes) in [
            (
                TopologySpec::Random {
                    nodes: 10,
                    links: 40,
                    seed: 1,
                },
                10,
            ),
            (TopologySpec::Isp, 16),
            (TopologySpec::FatTree { pods: 2 }, 5),
            (TopologySpec::Vl2 { da: 4, di: 4 }, 10),
            (
                TopologySpec::Jellyfish {
                    switches: 10,
                    degree: 3,
                    seed: 2,
                },
                10,
            ),
            (
                TopologySpec::Xpander {
                    degree: 3,
                    lifts: 1,
                    seed: 2,
                },
                8,
            ),
            (
                TopologySpec::Grid {
                    rows: 3,
                    cols: 3,
                    torus: true,
                },
                9,
            ),
        ] {
            assert_eq!(spec.build().node_count(), nodes, "{}", spec.family_name());
        }
    }
}
