package data

import (
	"fmt"
	"math/rand"
	"sort"

	"mobiledl/internal/tensor"
)

// FedBench is a synthetic multi-class classification benchmark used by the
// federated-training and compression experiments. It plays the role of the
// MNIST-style workloads in [16, 18, 22]: Gaussian class clusters in feature
// space with optional within-class structure so the task is learnable but
// not trivial.
type FedBench struct {
	X       *tensor.Matrix
	Labels  []int
	Classes int
	Dim     int
}

// FedBenchConfig configures the synthetic benchmark.
type FedBenchConfig struct {
	Samples int
	Classes int
	Dim     int
	// Spread is the within-class noise std relative to unit class separation
	// (larger = harder task). Defaults to 0.35 when unset.
	Spread float64
	Seed   int64
}

// GenerateFedBench builds a deterministic synthetic classification dataset.
func GenerateFedBench(cfg FedBenchConfig) (*FedBench, error) {
	if cfg.Samples <= 0 || cfg.Classes <= 1 || cfg.Dim <= 0 {
		return nil, fmt.Errorf("%w: FedBench samples=%d classes=%d dim=%d",
			ErrConfig, cfg.Samples, cfg.Classes, cfg.Dim)
	}
	spread := cfg.Spread
	if spread == 0 {
		spread = 0.35
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := make([]*tensor.Matrix, cfg.Classes)
	for c := range centers {
		centers[c] = tensor.RandNormal(rng, 1, cfg.Dim, 0, 1)
	}
	x := tensor.New(cfg.Samples, cfg.Dim)
	labels := make([]int, cfg.Samples)
	for i := 0; i < cfg.Samples; i++ {
		c := i % cfg.Classes
		labels[i] = c
		row := x.Row(i)
		center := centers[c].Row(0)
		for j := range row {
			row[j] = center[j] + spread*rng.NormFloat64()
		}
	}
	// Shuffle so class labels are not ordered.
	perm := rng.Perm(cfg.Samples)
	xs := tensor.New(cfg.Samples, cfg.Dim)
	ls := make([]int, cfg.Samples)
	for i, p := range perm {
		copy(xs.Row(i), x.Row(p))
		ls[i] = labels[p]
	}
	return &FedBench{X: xs, Labels: ls, Classes: cfg.Classes, Dim: cfg.Dim}, nil
}

// Split partitions the benchmark into train/test at the given fraction.
func (f *FedBench) Split(trainFrac float64) (trainX *tensor.Matrix, trainY []int, testX *tensor.Matrix, testY []int, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, nil, nil, fmt.Errorf("%w: trainFrac=%v", ErrConfig, trainFrac)
	}
	cut := int(float64(f.X.Rows()) * trainFrac)
	trainX, err = f.X.SliceRows(0, cut)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	testX, err = f.X.SliceRows(cut, f.X.Rows())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	trainY = append([]int(nil), f.Labels[:cut]...)
	testY = append([]int(nil), f.Labels[cut:]...)
	return trainX, trainY, testX, testY, nil
}

// ClientShard is the local dataset of one federated participant.
type ClientShard struct {
	X      *tensor.Matrix
	Labels []int
}

// Size returns the number of local samples (n_k in the paper's notation).
func (c *ClientShard) Size() int { return len(c.Labels) }

// ShardIID partitions samples uniformly at random across n clients,
// the IID setting of McMahan et al. [18].
func ShardIID(rng *rand.Rand, x *tensor.Matrix, labels []int, n int) ([]*ClientShard, error) {
	if n <= 0 || n > x.Rows() {
		return nil, fmt.Errorf("%w: %d clients for %d samples", ErrConfig, n, x.Rows())
	}
	perm := rng.Perm(x.Rows())
	shards := make([]*ClientShard, n)
	per := x.Rows() / n
	for c := 0; c < n; c++ {
		lo := c * per
		hi := lo + per
		if c == n-1 {
			hi = x.Rows()
		}
		idx := perm[lo:hi]
		xc, err := x.SelectRows(idx)
		if err != nil {
			return nil, err
		}
		lc := make([]int, len(idx))
		for i, p := range idx {
			lc[i] = labels[p]
		}
		shards[c] = &ClientShard{X: xc, Labels: lc}
	}
	return shards, nil
}

// ShardNonIID partitions samples in the pathological non-IID fashion of
// McMahan et al. [18]: sort by label, slice into 2n contiguous shards, and
// deal each client two shards, so most clients see only 1-2 classes.
func ShardNonIID(rng *rand.Rand, x *tensor.Matrix, labels []int, n int) ([]*ClientShard, error) {
	if n <= 0 || 2*n > x.Rows() {
		return nil, fmt.Errorf("%w: %d clients for %d samples", ErrConfig, n, x.Rows())
	}
	order := make([]int, x.Rows())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return labels[order[a]] < labels[order[b]] })

	numShards := 2 * n
	per := x.Rows() / numShards
	shardIdx := rng.Perm(numShards)
	shards := make([]*ClientShard, n)
	for c := 0; c < n; c++ {
		var idx []int
		for _, s := range shardIdx[2*c : 2*c+2] {
			lo := s * per
			hi := lo + per
			if s == numShards-1 {
				hi = x.Rows()
			}
			idx = append(idx, order[lo:hi]...)
		}
		xc, err := x.SelectRows(idx)
		if err != nil {
			return nil, err
		}
		lc := make([]int, len(idx))
		for i, p := range idx {
			lc[i] = labels[p]
		}
		shards[c] = &ClientShard{X: xc, Labels: lc}
	}
	return shards, nil
}
