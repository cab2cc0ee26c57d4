package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"mobiledl/internal/data"
	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

// modelName is the one served model; every workload uses the same name so
// predict_forwarded's request bytes equal predict_single's.
const modelName = "bench"

// Seed salts keep the generated streams independent of one another while
// all of them still derive from the one -seed.
const (
	saltWeights  = 0x6d6f64656c // model initialisation
	saltRows     = 0x726f7773   // feature rows
	saltSchedule = 0x7363686564 // open-loop arrival schedule
	saltShards   = 0x736861726473
)

// tieGap is the smallest top-2 logit gap a generated row may have: below it
// the argmax could legitimately differ between the batched and the single-row
// kernel, so the row is redrawn rather than used as a reference.
const tieGap = 1e-9

// buildNet builds the workload's MLP (Dense+ReLU per hidden layer, linear
// logits) with weights drawn from the seed.
func buildNet(layers []int, seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed ^ saltWeights))
	net := nn.NewSequential()
	for i := 0; i+1 < len(layers); i++ {
		net.Append(nn.NewDense(rng, layers[i], layers[i+1]))
		if i+2 < len(layers) {
			net.Append(nn.NewReLU())
		}
	}
	return net
}

// inputs is everything a serving workload sends to the program: feature rows,
// the request bodies encoded from them, and the classes a correct program
// must answer (nil where the served model changes during the run).
type inputs struct {
	rows   *tensor.Matrix // len(bodies)*rowsPerReq x dim
	bodies [][]byte       // one pre-encoded /v1/predict body per request
	want   [][]int        // want[i][r]: reference class of request i, row r
}

// genInputs draws nReq requests of rowsPerReq rows each and labels them with
// a direct forward pass through net, redrawing any row whose top-2 logits tie.
func genInputs(seed int64, net *nn.Sequential, dim, nReq, rowsPerReq int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed ^ saltRows))
	n := nReq * rowsPerReq
	x := tensor.New(n, dim)
	classes := make([]int, n)
	pending := make([]int, n) // rows still to draw
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		batch := tensor.New(len(pending), dim)
		d := batch.Data()
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		logits, err := net.Forward(batch, false)
		if err != nil {
			return nil, fmt.Errorf("reference forward: %w", err)
		}
		var redo []int
		for bi, ri := range pending {
			best, gap := top2(logits.Row(bi))
			if gap < tieGap {
				redo = append(redo, ri)
				continue
			}
			copy(x.Row(ri), batch.Row(bi))
			classes[ri] = best
		}
		pending = redo
	}
	in := &inputs{rows: x, bodies: make([][]byte, nReq), want: make([][]int, nReq)}
	for i := 0; i < nReq; i++ {
		in.bodies[i] = encodeBody(x, i*rowsPerReq, rowsPerReq)
		in.want[i] = classes[i*rowsPerReq : (i+1)*rowsPerReq]
	}
	return in, nil
}

// top2 returns the argmax of a logit row and its gap to the runner-up.
func top2(row []float64) (best int, gap float64) {
	runner := math.Inf(-1)
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			runner, best = row[best], j
		} else if row[j] > runner {
			runner = row[j]
		}
	}
	return best, row[best] - runner
}

// encodeBody renders rows [first, first+n) of x as a /v1/predict body. It is
// written by hand so the bytes are a pure function of the floats.
func encodeBody(x *tensor.Matrix, first, n int) []byte {
	b := []byte(`{"model":"` + modelName + `","features":[`)
	for r := 0; r < n; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range x.Row(first + r) {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// genSchedule returns the open-loop due times (offsets from the phase start)
// for rate requests/s over d: evenly spaced slots, each request placed
// uniformly inside its own slot. The mean rate is exact and no two seeds
// share a schedule, without the long idle gaps and bursts of a Poisson draw
// that would make a ten-second p99 a property of the seed.
func genSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ saltSchedule))
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	slot := float64(d) / float64(n)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return due
}

// Federated task of train_publish: 64 clients holding 100 non-IID samples
// each, and a held-out set that gates every publish.
const (
	fedClients      = 64
	fedPerClient    = 100
	fedEval         = 640
	fedDim          = 64
	fedClasses      = 10
	fedSpread       = 1.1
	fedReaderBodies = 256
)

// fedTask is the generated federated dataset plus the reader's requests.
type fedTask struct {
	shards       []*data.ClientShard
	evalX        *tensor.Matrix
	evalY        []int
	readerBodies [][]byte
}

func genFedTask(seed int64) (*fedTask, error) {
	train := fedClients * fedPerClient
	fb, err := data.GenerateFedBench(data.FedBenchConfig{
		Samples: train + fedEval, Classes: fedClasses, Dim: fedDim, Spread: fedSpread, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	trX, trY, teX, teY, err := fb.Split((float64(train) + 0.5) / float64(train+fedEval)) // +0.5: Split truncates
	if err != nil {
		return nil, err
	}
	shards, err := data.ShardNonIID(rand.New(rand.NewSource(seed^saltShards)), trX, trY, fedClients)
	if err != nil {
		return nil, err
	}
	t := &fedTask{shards: shards, evalX: teX, evalY: teY, readerBodies: make([][]byte, fedReaderBodies)}
	for i := range t.readerBodies {
		t.readerBodies[i] = encodeBody(teX, i, 1)
	}
	return t, nil
}
