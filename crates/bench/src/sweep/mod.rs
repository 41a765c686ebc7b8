//! The gated sweeps: the serving-side properties the repo claims, each
//! a registry entry that prints its rows, writes `<name>.json` and
//! holds its properties as gates. A sweep reports every failure through
//! [`crate::Artefact::check`], never by exiting or panicking, so its
//! file and its verdict always come out. No knob: every run size is a
//! named constant of its sweep, the size its committed file records.

pub mod chaos;
pub mod graph;
pub mod profile;
pub mod ring;
pub mod runtime_scaling;
pub mod sentinel;
pub mod tenant;
