//! Backend auto-tuning over the execution-backend registry.
//!
//! Given a problem (degree, element count), evaluate **every** registered
//! backend — the host CPU kernels measured, the simulated FPGA and
//! multi-board configurations modelled — and rank them by expected
//! throughput: the decision a production host faces when it picks where to
//! run each (degree, element-count) operating point.  FPGA entries whose
//! native design cannot unroll to four also get a host-padded variant
//! (Section III-E), so the report covers padding choices too.

use crate::backend::Backend;
use fpga_sim::{synthesize, AcceleratorDesign, FpgaAccelerator};
use sem_mesh::{BoxMesh, ElementField, GeometricFactors, MeshDeformation};
use sem_obs::WallTimer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One evaluated candidate configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningCandidate {
    /// The registry name that instantiates this candidate
    /// (`Backend::from_name`), when it has one; padded variants are derived
    /// configurations without a registry entry.
    pub name: Option<String>,
    /// Human-readable description of the configuration.
    pub label: String,
    /// Expected (measured or simulated) performance.
    pub gflops: f64,
    /// Whether the figure is a simulation or a host measurement.
    pub simulated: bool,
    /// Whether host-side padding is involved.
    pub padded: bool,
}

/// Result of an auto-tuning pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningReport {
    /// Polynomial degree of the problem.
    pub degree: usize,
    /// Number of elements of the problem.
    pub num_elements: usize,
    /// Every candidate that was evaluated, best first.
    pub candidates: Vec<TuningCandidate>,
}

impl TuningReport {
    /// The winning candidate.
    ///
    /// # Panics
    /// Panics if no candidates were evaluated (cannot happen through
    /// [`autotune`]).
    #[must_use]
    pub fn best(&self) -> &TuningCandidate {
        self.candidates.first().expect("at least one candidate")
    }

    /// The registry name of the fastest candidate a host can instantiate by
    /// name — the answer to "which backend should serve this operating
    /// point?".  `None` only if no evaluated candidate has a registry name
    /// (cannot happen through [`autotune`], which sweeps the registry).
    #[must_use]
    pub fn winning_backend(&self) -> Option<&str> {
        self.candidates.iter().find_map(|c| c.name.as_deref())
    }
}

/// Evaluate every backend in [`Backend::deployable_registry_names`] for a
/// problem — CPU backends measured over a few repetitions, accelerator
/// backends through their calibrated models — plus host-padded variants of
/// FPGA devices whose native design is not unroll-friendly, and rank all of
/// them by expected throughput.  `fpga:projected:*` entries are excluded:
/// they are model-designed to win, and the tuner's job is to name a backend
/// one can deploy on.
///
/// # Panics
/// Panics if a registry backend fails to instantiate (a catalogue device
/// that cannot fit its production design).
#[must_use]
pub fn autotune(degree: usize, elements: [usize; 3]) -> TuningReport {
    let num_elements = elements[0] * elements[1] * elements[2];
    let mut candidates = Vec::new();

    // One mesh and geometry shared by every candidate: only the execution
    // engine differs between registry entries, so the discretisation is
    // built once.
    let mesh = BoxMesh::new(degree, elements, [1.0; 3], MeshDeformation::None);
    let geometry = Arc::new(GeometricFactors::from_mesh(&mesh));
    let u = mesh.evaluate(|x, y, z| (x + 0.3) * (y - 0.7) * (z + 0.11));
    let mut w = ElementField::zeros(degree, num_elements);

    for name in Backend::deployable_registry_names() {
        let config = Backend::from_name(&name).expect("registry names resolve");
        let engine = config.instantiate(&mesh, &geometry);
        let flops = engine.flops_per_application() as f64;
        let (gflops, simulated) = match engine.seconds_per_application() {
            Some(seconds) => (flops / seconds / 1e9, true),
            None => {
                // Host kernels: measure a few repetitions.
                let timer = WallTimer::start();
                for _ in 0..3 {
                    engine.apply_into(&u, &mut w);
                }
                let seconds = timer.elapsed_wall_seconds().max(1e-12);
                (3.0 * flops / seconds / 1e9, false)
            }
        };
        candidates.push(TuningCandidate {
            label: format!("{name} ({})", engine.label()),
            name: Some(name),
            gflops,
            simulated,
            padded: false,
        });
    }

    // Host-padded FPGA variants: when a device's native design cannot unroll
    // to four, padding elements up to the next synthesised width trades
    // extra (wasted) work for an arbitration-free datapath.
    for slug in arch_db::fpga_device_slugs() {
        let device = arch_db::fpga_device(slug).expect("catalogue slugs resolve");
        let native_design = AcceleratorDesign::for_degree(degree, &device);
        if native_design.unroll >= 4 {
            continue;
        }
        let mut padded_design = native_design;
        padded_design.unroll = 4;
        padded_design.host_padding = true;
        if !synthesize(&padded_design, &device).fits {
            continue;
        }
        let padded_nx = padded_design.points_per_direction();
        let accelerator = FpgaAccelerator::new(device, padded_design);
        let report = accelerator.estimate(num_elements);
        // The padded kernel does more work per element; only the fraction
        // corresponding to the original element size is useful.
        let inflation = (padded_nx as f64 / (degree + 1) as f64).powi(3);
        candidates.push(TuningCandidate {
            name: None,
            label: format!("fpga:{slug} padded to {padded_nx} points (unroll 4)"),
            gflops: report.gflops / inflation,
            simulated: true,
            padded: true,
        });
    }

    candidates.sort_by(|a, b| b.gflops.total_cmp(&a.gflops));
    TuningReport {
        degree,
        num_elements,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SemSystem;

    #[test]
    fn sweeps_the_whole_registry() {
        let report = autotune(7, [2, 2, 2]);
        let registry = Backend::deployable_registry_names();
        // Degree 7 is unroll-friendly on every catalogue device, so the
        // candidate set is exactly the deployable registry.
        assert_eq!(report.candidates.len(), registry.len());
        for name in &registry {
            assert!(
                report
                    .candidates
                    .iter()
                    .any(|c| c.name.as_deref() == Some(name.as_str())),
                "registry entry `{name}` missing from the report"
            );
        }
        assert!(report.candidates.iter().all(|c| c.gflops > 0.0));
        // Hypothetical devices never compete for the crown.
        assert!(report
            .candidates
            .iter()
            .all(|c| !c.label.contains("projected:")));
    }

    #[test]
    fn arbitration_limited_degrees_also_consider_padding() {
        let report = autotune(9, [2, 2, 2]);
        assert!(
            report.candidates.len() > Backend::deployable_registry_names().len(),
            "padded variants must join the registry candidates"
        );
        let padded: Vec<_> = report.candidates.iter().filter(|c| c.padded).collect();
        assert!(!padded.is_empty());
        assert!(
            padded.iter().all(|c| c.name.is_none() && c.simulated),
            "padded variants are derived simulated configurations"
        );
    }

    #[test]
    fn candidates_are_sorted_best_first_and_the_winner_is_instantiable() {
        let report = autotune(5, [2, 2, 2]);
        for pair in report.candidates.windows(2) {
            assert!(pair[0].gflops >= pair[1].gflops);
        }
        let winner = report.winning_backend().expect("registry winner");
        let config = Backend::from_name(winner).expect("winner resolves");
        let system = SemSystem::builder()
            .degree(5)
            .elements([2, 2, 2])
            .backend(config)
            .build();
        assert_eq!(system.mesh().degree(), 5);
    }

    #[test]
    fn large_problems_favour_an_accelerator() {
        // At 512 elements and N = 7 a simulated FPGA should beat the CPU
        // of this container comfortably.
        let report = autotune(7, [8, 8, 8]);
        assert!(report.best().simulated, "best: {}", report.best().label);
        let winner = report.winning_backend().unwrap();
        assert!(
            winner.starts_with("fpga:") || winner.starts_with("multi:"),
            "winner: {winner}"
        );
    }
}
