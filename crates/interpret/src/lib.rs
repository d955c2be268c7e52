//! # dl-interpret
//!
//! Interpretable deep learning (tutorial §4.2), across the tutorial's three
//! directions plus the systems it highlights:
//!
//! * [`reduce`] — **dimensionality reduction**: PCA and an exact t-SNE with
//!   a neighborhood-preservation score to quantify how much local structure
//!   survives the projection.
//! * [`explain`] — **visualization of relationships & model surrogacy**:
//!   LIME (local linear surrogates), input-gradient saliency maps,
//!   activation maximization (synthesizing the input a neuron loves), and
//!   global decision-tree surrogates.
//! * [`inversion`] — **network inversion** (DeconvNet's direction):
//!   reconstruct the input from a layer's activation alone, showing what
//!   each layer preserves.
//! * [`evolution`] — **DeepVis-lite**: per-unit selectivity trajectories
//!   and dead-unit censuses across training snapshots held in the store.
//! * [`store`] — **Mistique-lite**: a store for model intermediates
//!   (activations across training) with quantization and content
//!   deduplication, plus footprint/query accounting.
//! * [`query`] — **DeepBase-lite**: a small declarative interface for
//!   hypothesis queries over stored activations ("which units correlate
//!   with class k?").

#![warn(missing_docs)]

pub mod evolution;
pub mod explain;
pub mod inversion;
pub mod query;
pub mod reduce;
pub mod store;

pub use evolution::{class_correlation_evolution, dead_unit_census, UnitTrajectory};
pub use explain::{
    activation_maximization, lime_explain, saliency, LimeExplanation, SurrogateTree,
};
pub use inversion::{invert_input, truncate, Inversion, InversionConfig};
pub use query::{ActivationQuery, QueryResult};
pub use reduce::{neighborhood_preservation, pca, tsne, TsneConfig};
pub use store::{IntermediateStore, StoreStats};
