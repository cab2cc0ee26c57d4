// Package fedserve closes the paper's train-to-serve loop: a federated-
// training coordinator that runs synchronous rounds continuously and
// hot-publishes every accepted global model into a serve.Registry, so
// /v1/predict traffic migrates to better models mid-flight with no restart.
//
// One Coordinator owns the loop. Each round it
//
//  1. gates device eligibility through federated.Scheduler (the paper's
//     "idle, plugged in, on WiFi" constraint) and samples a cohort,
//  2. trains the cohort on federated.FanOut — a GOMAXPROCS-bounded worker
//     pool behind the federated.Trainer seam — and waits for all of it, so
//     a fixed seed gives the same round at any worker count; a client that
//     fails is counted and skipped,
//  3. applies one server step: federated.MergeWeighted, the n_k-weighted
//     average (times a ClientSelector's reputation when one is configured),
//     or, with a DPConfig, privacy.DPFedAvgStep — per-client joint-L2 clip,
//     fixed-denominator average, Gaussian noise — with a moments accountant
//     reporting the cumulative epsilon in Status; these are the functions
//     RunFedAvg and RunDPFedAvg call, and
//  4. on the EvalEvery cadence, evaluates the global model on the held-out
//     set and publishes it — weights copied into a fresh factory model,
//     installed via Registry.InstallWithMeta with round/accuracy
//     provenance — unless it regresses past AccuracyDrop below the best
//     published accuracy (eval-gated acceptance).
//
// Construction publishes the initial model as version 1, so a serve.Runtime
// can attach before any training happens and the version chain on
// /v1/models shows accuracy climbing from the untrained baseline.
//
// Control exposes the coordinator over HTTP (POST /v1/train/start, POST
// /v1/train/pause, GET /v1/train/status), mounted next to the serving API
// by cmd/mobiledlserve's -train flag. examples/trainserve is the end-to-end
// demo: training on non-IID shards while a concurrent client watches served
// accuracy improve across hot-swapped versions. See ARCHITECTURE.md at the
// repository root for the full data-flow diagram.
package fedserve
