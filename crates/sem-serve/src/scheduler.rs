//! The device pool: one [`DeviceSlot`] per device a server places jobs on.
//!
//! Placement itself lives in the serving host ([`crate::stream`]): each job
//! goes to the device with the earliest corrected predicted completion,
//! priced by the offload-pipeline model — simulated kernel seconds where a
//! simulator exists, the slot's `perf-model` roofline estimate for measured
//! hosts.  Every figure is modelled, never a wall clock, so placement is
//! deterministic under any CI load.

use perf_model::HostCostModel;
use sem_accel::Backend;
use serde::{Deserialize, Serialize};

/// One device of the serving pool: a backend configuration plus the host
/// cost model used to price it when it has no simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSlot {
    /// Display label (the registry name, for registry-built slots).
    pub label: String,
    /// The backend this slot instantiates per problem shape.
    pub config: Backend,
    /// Roofline cost model for measured (host) execution, used to price
    /// the slot when the backend reports no simulated seconds.
    pub host_model: HostCostModel,
}

impl DeviceSlot {
    /// A slot from a backend registry name (`cpu:parallel`,
    /// `fpga:stratix10-gx2800`, `fpga:projected:a100-class`, ...).
    #[must_use]
    pub fn from_registry_name(name: &str) -> Option<Self> {
        let config = Backend::from_name(name)?;
        Some(Self {
            label: name.to_string(),
            config,
            host_model: HostCostModel::generic_server(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn registry_slots_resolve() {
        let slot = DeviceSlot::from_registry_name("fpga:stratix10-gx2800").unwrap();
        assert!(slot.config.is_simulated());
        assert!(DeviceSlot::from_registry_name("tpu:v4").is_none());
    }
}
