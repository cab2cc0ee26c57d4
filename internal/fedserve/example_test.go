package fedserve_test

import (
	"fmt"
	"math/rand"

	"mobiledl/internal/data"
	"mobiledl/internal/fedserve"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
)

// ExampleCoordinator runs the full train-to-serve loop in-process: ten
// synchronous federated rounds over six non-IID clients, each accepted
// global model hot-published into a serving registry. With a fixed seed the
// run is deterministic.
func ExampleCoordinator() {
	fb, err := data.GenerateFedBench(data.FedBenchConfig{
		Samples: 600, Classes: 4, Dim: 8, Seed: 5,
	})
	if err != nil {
		panic(err)
	}
	trX, trY, teX, teY, err := fb.Split(0.8)
	if err != nil {
		panic(err)
	}
	shards, err := data.ShardNonIID(rand.New(rand.NewSource(9)), trX, trY, 6)
	if err != nil {
		panic(err)
	}
	factory := func() (*nn.Sequential, error) {
		r := rand.New(rand.NewSource(42))
		return nn.NewSequential(
			nn.NewDense(r, 8, 16), nn.NewReLU(), nn.NewDense(r, 16, 4),
		), nil
	}

	reg := serve.NewRegistry()
	coord, err := fedserve.NewCoordinator(fedserve.Config{
		Factory: factory, Shards: shards, Classes: 4,
		EvalX: teX, EvalY: teY,
		Rounds: 10, LocalEpochs: 2, LocalBatch: 16, LocalLR: 0.1,
		Seed: 1, Workers: 4,
		Registry: reg, Model: "fedmlp",
	})
	if err != nil {
		panic(err)
	}
	// The untrained model is already serving as version 1; a serve.Runtime
	// could attach here, before any training happens.
	if err := coord.Start(); err != nil {
		panic(err)
	}
	coord.Wait()

	st := coord.Status()
	first, last := st.Published[0], st.Published[len(st.Published)-1]
	fmt.Println("state:", st.State)
	fmt.Println("published at least 3 versions:", len(st.Published) >= 3)
	fmt.Println("served accuracy improved:", last.Accuracy > first.Accuracy)
	// Output:
	// state: stopped
	// published at least 3 versions: true
	// served accuracy improved: true
}
