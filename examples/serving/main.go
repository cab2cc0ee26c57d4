// Serving quickstart: wrap three model families — a trained MLP, a
// split/early-exit cascade, and a random-forest baseline — as serving
// backends in one registry, stand up the concurrent runtime (adaptive
// batcher + versioned backends), fire concurrent requests at the HTTP API,
// hot-swap the MLP mid-flight, pin a request to the old version, and read
// the stats endpoint — the registry -> batcher -> Backend flow end to end.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"mobiledl/internal/baselines"
	"mobiledl/internal/core"
	"mobiledl/internal/data"
	"mobiledl/internal/nn"
	"mobiledl/internal/opt"
	"mobiledl/internal/serve"
	"mobiledl/internal/split"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Train one model per backend family on a shared synthetic task.
	fb, err := data.GenerateFedBench(data.FedBenchConfig{
		Samples: 600, Classes: 4, Dim: 12, Seed: 42,
	})
	if err != nil {
		return err
	}
	model, _, err := core.NewMLP(core.MLPSpec{In: 12, Hidden: []int{32, 16}, Classes: 4, Seed: 42})
	if err != nil {
		return err
	}
	if err := core.TrainCentralized(model, fb.X, fb.Labels, 4, 10, 42); err != nil {
		return err
	}
	cascade, err := trainCascade(fb)
	if err != nil {
		return err
	}
	forest := baselines.NewRandomForest()
	forest.NumTrees = 15
	if err := forest.Fit(fb.X, fb.Labels, 4); err != nil {
		return err
	}

	// 2. Wrap each as a Backend and install all three in one registry: the
	// same seam serves a dense network, a split cascade, and a tree
	// ensemble. Requests coalesce into tensor batches (here up to 16 rows
	// or 1ms, whichever comes first) executed by a worker pool.
	reg := serve.NewRegistry()
	demo, err := serve.NewDenseBackend(model)
	if err != nil {
		return err
	}
	cb, err := serve.NewCascadeBackend(cascade)
	if err != nil {
		return err
	}
	bb, err := serve.NewBaselineBackend(forest, 12)
	if err != nil {
		return err
	}
	srv := serve.NewServer(reg)
	defer srv.Close()
	var demoRT *serve.Runtime
	for name, b := range map[string]serve.Backend{"demo": demo, "cascade": cb, "forest": bb} {
		if _, err := reg.Install(name, b); err != nil {
			return err
		}
		rt, err := serve.NewRuntime(serve.RuntimeConfig{
			Registry: reg, Model: name,
			Batch: serve.BatcherConfig{MaxBatch: 16, MaxDelay: time.Millisecond},
		})
		if err != nil {
			return err
		}
		srv.Add(rt)
		if name == "demo" {
			demoRT = rt
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 3. Fire concurrent clients at POST /v1/predict, spread across models,
	// asking for the top-2 class probabilities.
	var wg sync.WaitGroup
	models := []string{"demo", "cascade", "forest"}
	for c := 0; c < 9; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				row := fb.X.Row((c*25 + k) % fb.X.Rows())
				body, _ := json.Marshal(serve.PredictRequest{
					Model:    models[c%len(models)],
					Features: [][]float64{row},
					Options:  serve.RequestOptions{TopK: 2},
				})
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					log.Println(err)
					return
				}
				resp.Body.Close()
			}
		}(c)
	}

	// 4. Hot-swap the MLP mid-flight (in-flight batches finish on the old
	// version, the next batch sees the new one). Models trained out of
	// process arrive as nn.EncodeWeights blobs via Register+Load instead.
	retrained, _, err := core.NewMLP(core.MLPSpec{In: 12, Hidden: []int{32, 16}, Classes: 4, Seed: 7})
	if err != nil {
		return err
	}
	nb, err := serve.NewDenseBackend(retrained)
	if err != nil {
		return err
	}
	v, err := reg.Install("demo", nb)
	if err != nil {
		return err
	}
	wg.Wait()
	fmt.Printf("hot-swapped demo to version %d while serving\n", v)

	// 5. The registry retains recent versions, so a pinned request still
	// reaches the pre-swap model.
	res, err := demoRT.PredictWith(context.Background(), fb.X.Row(0),
		serve.RequestOptions{Version: 1, TopK: 2})
	if err != nil {
		return err
	}
	fmt.Printf("pinned row 0 -> class %d on model v%d (top-2: %v)\n",
		res.Class, res.ModelVersion, res.Probs)

	st := demoRT.Stats()
	fmt.Printf("demo served %d requests  p50 %.3fms  p99 %.3fms  mean batch occupancy %.1f\n",
		st.Requests, st.LatencyMs.P50, st.LatencyMs.P99, st.BatchOccupancy)

	// 6. The same counters export as Prometheus text on /metrics — the
	// scrape surface for dashboards and alerting (shed/expired counts,
	// latency histograms, queue depth).
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return err
	}
	defer mresp.Body.Close()
	sc := bufio.NewScanner(mresp.Body)
	printed := 0
	for sc.Scan() && printed < 4 {
		line := sc.Text()
		if strings.HasPrefix(line, "mobiledl_requests_total") ||
			strings.HasPrefix(line, "mobiledl_requests_shed_total") {
			fmt.Println("metrics:", line)
			printed++
		}
	}
	return sc.Err()
}

// trainCascade builds and trains a small split/early-exit cascade on the
// shared task.
func trainCascade(fb *data.FedBench) (*split.EarlyExit, error) {
	rng := rand.New(rand.NewSource(42))
	local := nn.NewSequential(nn.NewDense(rng, 12, 8), nn.NewTanh())
	cloud := nn.NewSequential(nn.NewDense(rng, 8, 16), nn.NewReLU(), nn.NewDense(rng, 16, 4))
	exit := nn.NewSequential(nn.NewDense(rng, 8, 4))
	pipe, err := split.New(split.Config{Local: local, Cloud: cloud, NullRate: 0.1, NoiseSigma: 0.3, Bound: 3})
	if err != nil {
		return nil, err
	}
	tc := split.TrainConfig{
		Epochs: 4, BatchSize: 32, Optimizer: opt.NewAdam(0.01),
		Rng: rng, NoisyFraction: 1,
	}
	if _, err := pipe.TrainCloud(fb.X, fb.Labels, 4, tc); err != nil {
		return nil, err
	}
	cascade, err := split.NewEarlyExit(pipe, exit, 0.8)
	if err != nil {
		return nil, err
	}
	exitCfg := tc
	exitCfg.NoisyFraction = 0
	if err := cascade.TrainExit(fb.X, fb.Labels, 4, exitCfg); err != nil {
		return nil, err
	}
	return cascade, nil
}
