// Package privacy implements the differential-privacy machinery of Section
// II-C that the training and split-inference paths use: Gaussian noise, L2
// clipping, input nullification, the moments accountant of Abadi et al.
// [20], and the user-level DP-FedAvg of McMahan et al. [22].
//
// # DP-FedAvg
//
// RunDPFedAvg is the private counterpart of federated.RunFedAvg, and its
// rounds are federated.Round rounds (the package federated documentation
// describes the round once). The server step differs from plain FedAvg in
// exactly the four ways McMahan et al. list — Poisson sampling, a
// per-client joint-L2 clip, a fixed-denominator (q·W) average, and Gaussian
// noise calibrated by Sigma. The last three are DPFedAvgStep, the one
// implementation of the step, which the fedserve coordinator uses too. The
// MomentsAccountant converts the per-round noise into a cumulative
// (epsilon, delta) spend.
package privacy
