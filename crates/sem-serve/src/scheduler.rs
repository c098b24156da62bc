//! The device pool: one [`DeviceSlot`] per device a server places jobs on.
//!
//! Placement itself lives in the serving host ([`crate::stream`]): each job
//! goes to the device with the earliest corrected predicted completion,
//! priced by the offload-pipeline model — simulated kernel seconds where a
//! simulator exists, the generic-server `perf-model` roofline estimate
//! (`HostCostModel::generic_server`) for measured hosts.  Every figure is modelled, never a wall clock, so placement is
//! deterministic under any CI load.

use sem_accel::Backend;
use serde::{Deserialize, Serialize};

/// One device of the serving pool: a labelled backend configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSlot {
    /// Display label (the registry name, for registry-built slots).
    pub label: String,
    /// The backend this slot instantiates per problem shape.
    pub config: Backend,
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
