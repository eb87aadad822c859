//! The four workloads. Each stresses different layers, so that for any
//! optimisation one workload exercises its mechanism and another bypasses
//! it (README, "Interaction").

pub mod fleet_roundtrip;
pub mod packet_conform;
pub mod reverify_warm;
pub mod verify_cold;
