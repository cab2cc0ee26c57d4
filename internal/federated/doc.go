// Package federated implements the two distributed-training schemes of
// Section II: the distributed selective SGD of Shokri & Shmatikov [16]
// (Fig. 1) with a global parameter server and top-|g| selective gradient
// exchange, and Google's federated averaging [17, 18] with client sampling,
// multiple local epochs, and n_k/n-weighted aggregation. Both account for
// communicated bytes so the paper's 10-100x communication-saving claim
// (Section II-B) can be reproduced, and a device-eligibility scheduler
// models the "idle, plugged in, on WiFi" participation constraint.
//
// # The Trainer seam
//
// Client-side local training is driven by the Trainer interface: given the
// current global parameter values and a deterministic seed, produce one
// client's round contribution (ClientResult). SGDTrainer is the reference
// implementation — fresh factory-built model, E local epochs of minibatch
// SGD — and FanOut, the only fan-out in the tree, runs one round's selected
// cohort concurrently across a GOMAXPROCS-bounded worker pool and waits for
// all of it. Each client comes back as an Update: its result or its error,
// its index, and the time window a worker spent on it. Because every
// client's randomness derives from a pre-drawn seed and results merge in
// selection order, a parallel round reproduces the sequential one
// bit-for-bit (see TestFedAvgParallelMatchesSequential and
// BenchmarkFedRound).
//
// The entry points are thin wrappers over that machinery:
//
//   - RunFedAvg: per round, SelectRound draws the eligible cohort and seeds,
//     FanOut trains it in parallel, and MergeWeighted — the only FedAvg
//     server step — folds the n_k/n weighted average into the global model
//     at the barrier.
//   - RunSelectiveSGD: stays sequential by design — each participant must
//     see the freshest global parameters, including uploads from earlier in
//     the same round.
//
// Package privacy reuses the same seam for DP-FedAvg (clipped, noised
// deltas), and internal/fedserve builds the continuous train-to-serve
// coordinator on FanOut and MergeWeighted: rounds run forever, accepted
// global models are hot-published into a serve.Registry. See ARCHITECTURE.md at the repository
// root for the full train → publish → serve loop.
package federated
