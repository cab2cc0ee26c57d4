// Package privacy implements the differential-privacy machinery of Section
// II-C that the training and split-inference paths use: Gaussian noise, L2
// clipping, input nullification, the moments accountant of Abadi et al.
// [20], and the user-level DP-FedAvg of McMahan et al. [22].
//
// # DP-FedAvg
//
// RunDPFedAvg is the private counterpart of federated.RunFedAvg and rides
// the same Trainer/FanOut seam: clients are selected independently with
// probability P, the cohort trains in parallel across a GOMAXPROCS-bounded
// worker pool (identical results for any worker count — randomness derives
// from pre-drawn per-client seeds), and the server step differs from plain
// FedAvg in exactly the four ways McMahan et al. list — Poisson sampling, a
// per-client joint-L2 clip, a fixed-denominator (q·W) average, and Gaussian
// noise calibrated by Sigma. The last three are DPFedAvgStep, the one
// implementation of the server step. The bundled MomentsAccountant converts
// the per-round noise into a cumulative (epsilon, delta) spend.
//
// internal/fedserve calls the same DPFedAvgStep for its continuous
// train-to-serve rounds when a DP config is set, so a served model chain
// can carry a user-level privacy guarantee end to end. See
// ARCHITECTURE.md at the repository root.
package privacy
