//! Backend *configuration*: a serde-friendly description of where the `Ax`
//! kernel runs and which preconditioner the solve uses, plus the registry of
//! backend names.
//!
//! [`Backend`] is plain data — it can be stored in a config file, sent over
//! the wire, or written as a registry name like `"cpu:parallel"`,
//! `"fpga:stratix10-gx2800+fdm"` or `"multi:4x520n"`.  The part before the
//! optional `+suffix` selects the execution engine ([`ExecSpec`]); the
//! suffix selects the preconditioner ([`PrecondSpec`]; no suffix means the
//! default, Jacobi).  Execution happens through the open
//! [`crate::exec::AxBackend`] trait: [`Backend::instantiate`] resolves the
//! configuration against a mesh into a live `Box<dyn AxBackend>`.  FPGA
//! device slugs resolve through the `arch-db` catalogue
//! ([`arch_db::fpga_device`]), so new catalogue devices plug in by name
//! without touching this crate.
//!
//! Round-trip contract: for every configuration with a name,
//! `Backend::from_name(&backend.name().unwrap()) == Some(backend)` —
//! including the preconditioner suffix.  (Before preconditioning became
//! configuration this was silently asymmetric-by-construction: a parsed
//! name could not carry what the solve later decided per call.)

use crate::exec::{AxBackend, CpuBackend, FpgaSimBackend};
use fpga_sim::FpgaDevice;
use sem_kernel::AxImplementation;
use sem_mesh::{BoxMesh, GeometricFactors};
use sem_solver::PrecondSpec;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Host-interconnect bandwidth (GB/s) assumed for multi-board interface
/// exchanges when a configuration does not specify one (PCIe 3.0 x16-class).
pub const DEFAULT_INTERCONNECT_GBS: f64 = 12.0;

/// Where the `Ax` kernel runs (the execution half of a [`Backend`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecSpec {
    /// Native CPU execution with the selected kernel implementation.
    Cpu(AxImplementation),
    /// The simulated FPGA accelerator on the given device.
    FpgaSimulated(FpgaDevice),
    /// The element set block-partitioned over several simulated boards.
    MultiFpga {
        /// The device every board carries.
        device: FpgaDevice,
        /// Number of boards.
        boards: usize,
        /// Host-interconnect bandwidth for the interface exchange (GB/s).
        interconnect_gbs: f64,
    },
}

/// Where the `Ax` kernel runs and which preconditioner the solve uses.
///
/// This is configuration, not execution: it is cheap to clone, serializes
/// through serde, round-trips through [`Backend::name`] /
/// [`Backend::from_name`] (preconditioner suffix included), and becomes a
/// live engine via [`Backend::instantiate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Backend {
    /// The execution engine.
    pub exec: ExecSpec,
    /// The preconditioner solves on this backend use.
    pub precond: PrecondSpec,
}

impl Default for Backend {
    fn default() -> Self {
        Self::cpu_parallel()
    }
}

impl Backend {
    /// A backend over `exec` with the default (Jacobi) preconditioner.
    #[must_use]
    pub fn new(exec: ExecSpec) -> Self {
        Self {
            exec,
            precond: PrecondSpec::default(),
        }
    }

    /// The same backend with a different preconditioner.
    #[must_use]
    pub fn with_precond(mut self, precond: PrecondSpec) -> Self {
        self.precond = precond;
        self
    }

    /// Native CPU, reference (Listing 1) kernel.
    #[must_use]
    pub fn cpu_reference() -> Self {
        Self::new(ExecSpec::Cpu(AxImplementation::Reference))
    }

    /// Native CPU, Rayon-parallel kernel.
    #[must_use]
    pub fn cpu_parallel() -> Self {
        Self::new(ExecSpec::Cpu(AxImplementation::Parallel))
    }

    /// Native CPU, degree-specialized const-generic kernel (falls back to
    /// the bitwise-identical generic kernel outside degrees 3..=15).
    #[must_use]
    pub fn cpu_specialized() -> Self {
        Self::new(ExecSpec::Cpu(AxImplementation::Specialized))
    }

    /// Simulated FPGA on the evaluated Stratix 10 GX2800 board.
    #[must_use]
    pub fn fpga_simulated() -> Self {
        Self::new(ExecSpec::FpgaSimulated(FpgaDevice::stratix10_gx2800()))
    }

    /// Simulated FPGA on an arbitrary device from the catalogue.
    #[must_use]
    pub fn fpga_on(device: FpgaDevice) -> Self {
        Self::new(ExecSpec::FpgaSimulated(device))
    }

    /// `boards` simulated 520N boards over the default interconnect.
    #[must_use]
    pub fn multi_fpga(boards: usize) -> Self {
        Self::new(ExecSpec::MultiFpga {
            device: FpgaDevice::stratix10_gx2800(),
            boards,
            interconnect_gbs: DEFAULT_INTERCONNECT_GBS,
        })
    }

    /// `boards` simulated boards of `device` over `interconnect_gbs` GB/s.
    #[must_use]
    pub fn multi_fpga_on(device: FpgaDevice, boards: usize, interconnect_gbs: f64) -> Self {
        Self::new(ExecSpec::MultiFpga {
            device,
            boards,
            interconnect_gbs,
        })
    }

    /// Short human-readable label of the execution engine (used in reports
    /// and benches; the preconditioner is reported separately).  Borrowed
    /// for CPU backends; allocating only when a device name is embedded.
    #[must_use]
    pub fn label(&self) -> Cow<'static, str> {
        // Shared with the engines in `exec` (a multi-board engine is handed
        // this label by `instantiate`), so a configuration's label always
        // matches the label of the engine it instantiates.
        match &self.exec {
            ExecSpec::Cpu(implementation) => Cow::Borrowed(CpuBackend::label_of(*implementation)),
            ExecSpec::FpgaSimulated(device) => Cow::Owned(crate::exec::fpga_sim_label(device)),
            ExecSpec::MultiFpga { device, boards, .. } => {
                Cow::Owned(crate::exec::multi_fpga_label(*boards, device))
            }
        }
    }

    /// Whether timing figures from this backend are wall-clock measurements
    /// (CPU) or simulator estimates (FPGA).
    #[must_use]
    pub fn is_simulated(&self) -> bool {
        matches!(
            self.exec,
            ExecSpec::FpgaSimulated(_) | ExecSpec::MultiFpga { .. }
        )
    }

    /// The canonical registry name of this configuration, when it has one
    /// (`cpu:parallel`, `fpga:agilex-027+fdm`, `multi:4x520n`, ...).
    ///
    /// A name exists only when `Backend::from_name(name)` reconstructs this
    /// exact configuration — the preconditioner suffix included: custom
    /// devices outside the `arch-db` catalogue have no name, and neither do
    /// multi-board configurations with a non-default interconnect (the name
    /// syntax cannot carry it — use serde for those).
    #[must_use]
    pub fn name(&self) -> Option<String> {
        let base = self.exec_name()?;
        Some(match self.precond.name_suffix() {
            Some(suffix) => format!("{base}+{suffix}"),
            None => base,
        })
    }

    /// The registry name of the execution half alone.
    fn exec_name(&self) -> Option<String> {
        match &self.exec {
            ExecSpec::Cpu(AxImplementation::Reference) => Some("cpu:reference".to_string()),
            ExecSpec::Cpu(AxImplementation::Parallel) => Some("cpu:parallel".to_string()),
            ExecSpec::Cpu(AxImplementation::Specialized) => Some("cpu:specialized".to_string()),
            ExecSpec::FpgaSimulated(device) => {
                device_slug(device).map(|slug| format!("fpga:{slug}"))
            }
            ExecSpec::MultiFpga {
                device,
                boards,
                interconnect_gbs,
            } => {
                if *interconnect_gbs != DEFAULT_INTERCONNECT_GBS {
                    return None;
                }
                let slug = device_slug(device)?;
                // The evaluated board keeps its short name in multi specs.
                let slug = if slug == "stratix10-gx2800" {
                    "520n"
                } else {
                    slug
                };
                Some(format!("multi:{boards}x{slug}"))
            }
        }
    }

    /// Resolve a registry name (`cpu:<impl>`, `fpga:<device>`,
    /// `multi:<n>x<device>`, each optionally followed by a `+<precond>`
    /// suffix) to a configuration.  Device slugs come from the `arch-db`
    /// catalogue ([`arch_db::fpga_device_slugs`]).  `cpu:optimized` is a
    /// parse-only alias of `cpu:specialized` (the kernel it always ran), so
    /// names recorded before the two were folded still resolve; it
    /// canonicalises to `cpu:specialized`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        let (base, precond) = match name.rsplit_once('+') {
            Some((base, suffix)) => (base, PrecondSpec::from_name_suffix(suffix)?),
            None => (name, PrecondSpec::default()),
        };
        let (kind, spec) = base.split_once(':')?;
        let exec = match kind {
            "cpu" => match spec {
                "reference" => ExecSpec::Cpu(AxImplementation::Reference),
                "optimized" | "specialized" => ExecSpec::Cpu(AxImplementation::Specialized),
                "parallel" => ExecSpec::Cpu(AxImplementation::Parallel),
                _ => return None,
            },
            "fpga" => ExecSpec::FpgaSimulated(arch_db::fpga_device(spec)?),
            "multi" => {
                let (boards, slug) = spec.split_once('x')?;
                let boards: usize = boards.parse().ok()?;
                if boards == 0 {
                    return None;
                }
                let device = arch_db::fpga_device(slug)?;
                ExecSpec::MultiFpga {
                    device,
                    boards,
                    interconnect_gbs: DEFAULT_INTERCONNECT_GBS,
                }
            }
            _ => return None,
        };
        Some(Self { exec, precond })
    }

    /// Every registered backend name with the default preconditioner: the
    /// three CPU kernels, one `fpga:` entry per catalogue device, one
    /// `fpga:projected:<slug>` entry per Section V-D model-designed device,
    /// and the canonical multi-board configurations.
    #[must_use]
    pub fn registry_names() -> Vec<String> {
        let mut names = vec![
            "cpu:reference".to_string(),
            "cpu:parallel".to_string(),
            "cpu:specialized".to_string(),
        ];
        names.extend(
            arch_db::fpga_device_slugs()
                .into_iter()
                .map(|slug| format!("fpga:{slug}")),
        );
        names.extend(
            arch_db::projected_fpga_slugs()
                .into_iter()
                .map(|slug| format!("fpga:{slug}")),
        );
        names.extend([
            "multi:2x520n".to_string(),
            "multi:4x520n".to_string(),
            "multi:8x520n".to_string(),
        ]);
        names
    }

    /// The full extended registry: every base name crossed with every
    /// preconditioner suffix (the default spelled without a suffix).  This
    /// is what the round-trip and registry-wide parity tests sweep; the
    /// plain [`Backend::registry_names`] stays the default-precond set so
    /// existing sweeps keep their size.
    #[must_use]
    pub fn extended_registry_names() -> Vec<String> {
        let mut names = Vec::new();
        for base in Self::registry_names() {
            for precond in PrecondSpec::all() {
                names.push(match precond.name_suffix() {
                    Some(suffix) => format!("{base}+{suffix}"),
                    None => base.clone(),
                });
            }
        }
        names
    }

    /// The registry names that describe hardware one could actually deploy
    /// on: everything in [`Backend::registry_names`] except the
    /// `fpga:projected:*` model-designed devices.  Autotuning ranks only
    /// these — a hypothetical board that beats every real one by
    /// construction must not be crowned "the fastest backend".
    #[must_use]
    pub fn deployable_registry_names() -> Vec<String> {
        Self::registry_names()
            .into_iter()
            .filter(|name| !name.starts_with("fpga:projected:"))
            .collect()
    }

    /// Build the live execution engine for this configuration on `mesh`,
    /// applying the mesh's already computed `geometry` (shared, not copied).
    /// Both FPGA variants build the one simulated-board engine
    /// ([`FpgaSimBackend`]), labelled with this configuration's
    /// [`Backend::label`].
    ///
    /// # Panics
    /// Panics if an FPGA design does not fit on the configured device, or if
    /// a multi-board configuration has zero boards.
    #[must_use]
    pub fn instantiate(
        &self,
        mesh: &BoxMesh,
        geometry: &Arc<GeometricFactors>,
    ) -> Box<dyn AxBackend> {
        let geometry = Arc::clone(geometry);
        match &self.exec {
            ExecSpec::Cpu(implementation) => {
                Box::new(CpuBackend::with_geometry(geometry, *implementation))
            }
            ExecSpec::FpgaSimulated(device) => {
                Box::new(FpgaSimBackend::new(mesh, geometry, device.clone()))
            }
            ExecSpec::MultiFpga {
                device,
                boards,
                interconnect_gbs,
            } => Box::new(FpgaSimBackend::on_boards(
                mesh,
                geometry,
                device,
                *boards,
                *interconnect_gbs,
                self.label().into_owned(),
            )),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Reverse lookup: the catalogue (or projected) slug of a device, by exact
/// name match.
fn device_slug(device: &FpgaDevice) -> Option<&'static str> {
    arch_db::fpga_device_slugs()
        .into_iter()
        .chain(arch_db::projected_fpga_slugs())
        .find(|slug| arch_db::fpga_device(slug).is_some_and(|d| d.name == device.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry(mesh: &BoxMesh) -> Arc<GeometricFactors> {
        Arc::new(GeometricFactors::from_mesh(mesh))
    }

    #[test]
    fn labels_and_flags() {
        assert_eq!(Backend::cpu_reference().label(), "cpu-reference");
        assert!(!Backend::cpu_parallel().is_simulated());
        let fpga = Backend::fpga_simulated();
        assert!(fpga.is_simulated());
        assert!(fpga.label().contains("GX2800"));
        assert_eq!(Backend::default(), Backend::cpu_parallel());
        assert_eq!(Backend::default().precond, PrecondSpec::Jacobi);
        let multi = Backend::multi_fpga(4);
        assert!(multi.is_simulated());
        assert!(multi.label().contains("4 x"));
        // Display mirrors the label.
        assert_eq!(format!("{}", Backend::cpu_specialized()), "cpu-specialized");
    }

    #[test]
    fn cpu_labels_do_not_allocate() {
        for backend in [
            Backend::cpu_reference(),
            Backend::cpu_specialized(),
            Backend::cpu_parallel(),
        ] {
            assert!(matches!(backend.label(), Cow::Borrowed(_)));
        }
    }

    #[test]
    fn every_registry_name_resolves_and_round_trips() {
        for name in Backend::registry_names() {
            let backend = Backend::from_name(&name)
                .unwrap_or_else(|| panic!("registry name `{name}` must resolve"));
            assert_eq!(backend.precond, PrecondSpec::Jacobi, "{name}");
            let canonical = backend
                .name()
                .unwrap_or_else(|| panic!("resolved backend for `{name}` must have a name"));
            assert_eq!(canonical, name, "canonical name must round-trip");
            assert_eq!(
                Backend::from_name(&canonical),
                Some(backend),
                "name `{name}` must round-trip to the same configuration"
            );
        }
    }

    #[test]
    fn the_extended_registry_round_trips_through_parse_and_name() {
        // The satellite fix: config strings must survive
        // parse → instantiate-config → name *including* the preconditioner
        // suffix, for every (backend, precond) pair.
        let names = Backend::extended_registry_names();
        assert_eq!(names.len(), 3 * Backend::registry_names().len());
        for name in names {
            let backend = Backend::from_name(&name)
                .unwrap_or_else(|| panic!("extended name `{name}` must resolve"));
            let canonical = backend
                .name()
                .unwrap_or_else(|| panic!("`{name}` must have a canonical name"));
            assert_eq!(
                canonical, name,
                "precond suffix must survive the round trip"
            );
            assert_eq!(Backend::from_name(&canonical), Some(backend));
        }
    }

    #[test]
    fn precond_suffixes_parse_and_print() {
        let fdm = Backend::from_name("cpu:specialized+fdm").unwrap();
        assert_eq!(fdm.precond, PrecondSpec::Fdm);
        assert_eq!(fdm.exec, Backend::cpu_specialized().exec);
        assert_eq!(fdm.name().as_deref(), Some("cpu:specialized+fdm"));

        let none = Backend::from_name("fpga:stratix10-gx2800+none").unwrap();
        assert_eq!(none.precond, PrecondSpec::Identity);
        assert_eq!(none.name().as_deref(), Some("fpga:stratix10-gx2800+none"));

        // An explicit +jacobi parses but canonicalises to the bare name.
        let jacobi = Backend::from_name("multi:4x520n+jacobi").unwrap();
        assert_eq!(jacobi.precond, PrecondSpec::Jacobi);
        assert_eq!(jacobi.name().as_deref(), Some("multi:4x520n"));
    }

    #[test]
    fn cpu_optimized_is_a_parse_only_alias_of_cpu_specialized() {
        for suffix in ["", "+fdm", "+none", "+jacobi"] {
            let alias = Backend::from_name(&format!("cpu:optimized{suffix}"));
            assert_eq!(
                alias,
                Backend::from_name(&format!("cpu:specialized{suffix}")),
                "{suffix}"
            );
        }
        let fdm = Backend::from_name("cpu:optimized+fdm").unwrap();
        assert_eq!(
            fdm,
            Backend::cpu_specialized().with_precond(PrecondSpec::Fdm)
        );
        // The alias canonicalises to the kernel it names and is not a
        // registry entry of its own.
        assert_eq!(fdm.name().as_deref(), Some("cpu:specialized+fdm"));
        assert!(!Backend::registry_names().contains(&"cpu:optimized".to_string()));
        let cpu = Backend::registry_names()
            .into_iter()
            .filter(|name| name.starts_with("cpu:"))
            .count();
        assert_eq!(cpu, 3, "one registry entry per CPU kernel selector");
    }

    #[test]
    fn unnameable_configurations_return_none_instead_of_a_lossy_name() {
        // A custom interconnect cannot be carried by the name syntax; a lossy
        // name would silently reconstruct a different configuration.
        let custom = Backend::multi_fpga_on(FpgaDevice::stratix10_gx2800(), 4, 25.0);
        assert_eq!(custom.name(), None);
        // ...even with a non-default preconditioner attached.
        assert_eq!(custom.with_precond(PrecondSpec::Fdm).name(), None);
        // The default interconnect round-trips.
        let named = Backend::multi_fpga(4);
        assert_eq!(
            Backend::from_name(&named.name().unwrap()),
            Some(named),
            "default-interconnect multi config must survive name round-trip"
        );
        // Off-catalogue devices have no name either.
        let mut bespoke = FpgaDevice::stratix10_gx2800();
        bespoke.name = "bespoke prototype".to_string();
        assert_eq!(Backend::fpga_on(bespoke).name(), None);
    }

    #[test]
    fn projected_devices_are_one_registry_name_away() {
        // The ROADMAP's "what would an A100-class FPGA do to this solve":
        // resolve, instantiate, and beat the real board, all by name.
        let mesh = BoxMesh::unit_cube(7, 2);
        let backend = Backend::from_name("fpga:projected:a100-class").unwrap();
        assert!(backend.is_simulated());
        assert_eq!(
            backend.name().as_deref(),
            Some("fpga:projected:a100-class"),
            "projected entries round-trip through the reverse lookup"
        );
        let engine = backend.instantiate(&mesh, &geometry(&mesh));
        assert!(engine.label().contains("A100-class"), "{}", engine.label());
        let projected = engine.simulated_seconds_per_application().unwrap();
        let real = Backend::from_name("fpga:stratix10-gx2800")
            .unwrap()
            .instantiate(&mesh, &geometry(&mesh))
            .simulated_seconds_per_application()
            .unwrap();
        assert!(
            projected < real,
            "model-designed A100-class device must outrun the 520N: {projected} vs {real}"
        );
        // Both projected entries are registered...
        let names = Backend::registry_names();
        let deployable = Backend::deployable_registry_names();
        for slug in arch_db::projected_fpga_slugs() {
            let name = format!("fpga:{slug}");
            assert!(names.contains(&name), "{slug}");
            // ...but stay out of the deployable set autotune ranks.
            assert!(!deployable.contains(&name), "{slug}");
        }
        assert_eq!(
            names.len(),
            deployable.len() + arch_db::projected_fpga_slugs().len()
        );
    }

    #[test]
    fn config_labels_match_instantiated_engine_labels() {
        let mesh = BoxMesh::unit_cube(3, 2);
        let names = Backend::registry_names()
            .into_iter()
            .chain(["multi:1x520n".to_string()]);
        for name in names {
            let config = Backend::from_name(&name).unwrap();
            assert_eq!(
                config.label(),
                config.instantiate(&mesh, &geometry(&mesh)).label(),
                "{name}"
            );
        }
        // One board through the multi syntax keeps its multi label.
        let one = Backend::from_name("multi:1x520n").unwrap();
        assert!(
            one.label().starts_with("multi-fpga (1 x"),
            "{}",
            one.label()
        );
    }

    #[test]
    fn malformed_names_are_rejected() {
        for name in [
            "cpu",
            "cpu:avx512",
            "fpga:unknown-device",
            "multi:4",
            "multi:0x520n",
            "multi:twox520n",
            "gpu:a100",
            "",
            "cpu:optimized+ilu",
            "cpu:optimized+",
            "+fdm",
            "cpu:optimized+fdm+fdm",
        ] {
            assert!(
                Backend::from_name(name).is_none(),
                "`{name}` must not resolve"
            );
        }
    }

    #[test]
    fn serde_round_trip_preserves_every_variant() {
        let backends = [
            Backend::cpu_reference(),
            Backend::cpu_parallel().with_precond(PrecondSpec::Fdm),
            Backend::fpga_simulated(),
            Backend::fpga_on(FpgaDevice::agilex_027()).with_precond(PrecondSpec::Identity),
            Backend::multi_fpga(4).with_precond(PrecondSpec::Fdm),
            Backend::multi_fpga_on(FpgaDevice::stratix10m(), 8, 25.0),
        ];
        for backend in backends {
            let json = serde::json::to_string(&backend);
            let back: Backend =
                serde::json::from_str(&json).unwrap_or_else(|e| panic!("{json} must parse: {e}"));
            assert_eq!(back, backend, "serde round trip must be lossless");
        }
    }

    #[test]
    fn serde_round_trips_the_whole_extended_registry() {
        for name in Backend::extended_registry_names() {
            let backend = Backend::from_name(&name).unwrap();
            let json = serde::json::to_string(&backend);
            let back: Backend =
                serde::json::from_str(&json).unwrap_or_else(|e| panic!("{json} must parse: {e}"));
            assert_eq!(back, backend, "{name}");
            assert_eq!(back.name().as_deref(), Some(name.as_str()), "{name}");
        }
    }

    #[test]
    fn json_config_text_resolves_to_the_same_backend() {
        // JSON in → same backend out, including through instantiate().
        let json = serde::json::to_string(&Backend::multi_fpga(2));
        let config: Backend = serde::json::from_str(&json).unwrap();
        let mesh = BoxMesh::unit_cube(3, 2);
        let engine = config.instantiate(&mesh, &geometry(&mesh));
        assert_eq!(engine.num_elements(), 8);
        assert!(engine.label().contains("2 x"));
    }
}
