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
// # One round: select → Round → step
//
// Every synchronous federated round in the tree has the same three parts,
// and only the first and last differ between callers:
//
//  1. Select: the caller draws the cohort and one training seed per client
//     before any concurrency.
//  2. Round.Run: FanOut trains the cohort; failed clients are split from
//     the merged ones; the caller's Step is applied to the merged updates;
//     the broadcast to every selected client and the upload of every merged
//     update are added to the cumulative traffic; the round's RoundStats
//     come back with the updates.
//  3. Step: the server step folds the merged updates into the global.
//
// The three callers:
//
//   - RunFedAvg: SelectRound (scheduler gate, ClientFraction sample in
//     shuffle order), MergeWeighted, eval on the EvalEvery cadence, and an
//     early stop at TargetAccuracy. A client error aborts the run.
//   - privacy.RunDPFedAvg: independent Bernoulli(P) selection,
//     privacy.DPFedAvgStep with its fixed denominator (an empty cohort still
//     takes the noise-only step), and the moments accountant.
//   - The fedserve coordinator: scheduler, eligibility, cohort size and a
//     ClientSelector pick a sorted cohort; its step feeds the selector and
//     then runs MergeWeighted or DPFedAvgStep; failed clients are counted
//     and skipped; it evaluates, publishes and checkpoints around the round.
//
// RunSelectiveSGD is not a Round: each participant must see the freshest
// global parameters, including uploads from earlier in the same round, so
// its participants run sequentially by design.
package federated
