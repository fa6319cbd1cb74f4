//! # Shared DSP kernels
//!
//! The complex FFT (radix-2 plus Bluestein for arbitrary lengths) behind
//! the transform baselines' DCT and DFT, kept in a leaf crate of its own.
//! `sbr-baselines` re-exports [`fft`] under its old path, so
//! `sbr_baselines::fft::...` callers are unaffected.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod fft;

pub use fft::Complex;
