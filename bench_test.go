package mobiledl_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mobiledl/internal/compress"
	"mobiledl/internal/experiments"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
	"mobiledl/internal/tensor"
)

// benchExperiment runs a full table/figure regeneration per iteration at
// Quick scale. One bench per paper artifact (DESIGN.md E1-E13); run
// cmd/paperbench -scale full for the EXPERIMENTS.md numbers.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(io.Discard, name, experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (E1): DEEPSERVICE vs five baselines.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig5 regenerates Fig. 5 (E2): per-participant accuracy vs sessions.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Fig. 6 (E3): multi-view user pattern analysis.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkSelectiveSGD regenerates E4: accuracy vs upload fraction theta.
func BenchmarkSelectiveSGD(b *testing.B) { benchExperiment(b, "selsgd") }

// BenchmarkFedAvg regenerates E5: FedAvg vs FedSGD rounds/bytes to target.
func BenchmarkFedAvg(b *testing.B) { benchExperiment(b, "fedavg") }

// BenchmarkDPFedAvg regenerates E6: DP-FedAvg accuracy/epsilon vs noise.
func BenchmarkDPFedAvg(b *testing.B) { benchExperiment(b, "dpfed") }

// BenchmarkPlacement regenerates E7 (Figs. 2-3): inference placement costs.
func BenchmarkPlacement(b *testing.B) { benchExperiment(b, "placement") }

// BenchmarkArden regenerates E8: noisy training under private split inference.
func BenchmarkArden(b *testing.B) { benchExperiment(b, "arden") }

// BenchmarkCompression regenerates E9: Deep Compression ratio vs accuracy.
func BenchmarkCompression(b *testing.B) { benchExperiment(b, "compress") }

// BenchmarkLowRank regenerates E10: SVD factorization params vs accuracy.
func BenchmarkLowRank(b *testing.B) { benchExperiment(b, "lowrank") }

// BenchmarkDistillation regenerates E11: distilled vs plain students.
func BenchmarkDistillation(b *testing.B) { benchExperiment(b, "distill") }

// BenchmarkDeepMood regenerates E12: fusion variants vs shallow baselines.
func BenchmarkDeepMood(b *testing.B) { benchExperiment(b, "deepmood") }

// BenchmarkPairID regenerates E13: mean pairwise identification metrics.
func BenchmarkPairID(b *testing.B) { benchExperiment(b, "pairid") }

// BenchmarkServeThroughput measures requests/sec through the serving
// runtime (registry -> adaptive batcher -> backend) at max batch sizes
// 1/8/32 with 64 concurrent clients: the adaptive-batching win is batched
// throughput (batch32) beating unbatched (batch1) on the same model.
func BenchmarkServeThroughput(b *testing.B) {
	// A mobile-scale MLP (the paper serves compressed models, so per-row
	// compute is small and per-request dispatch overhead matters).
	rng := rand.New(rand.NewSource(1))
	model := nn.NewSequential(
		nn.NewDense(rng, 64, 64), nn.NewReLU(),
		nn.NewDense(rng, 64, 64), nn.NewReLU(),
		nn.NewDense(rng, 64, 10),
	)
	backend, err := serve.NewDenseBackend(model)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			reg := serve.NewRegistry()
			if _, err := reg.Install("bench", backend); err != nil {
				b.Fatal(err)
			}
			rt, err := serve.NewRuntime(serve.RuntimeConfig{
				Registry: reg, Model: "bench",
				Batch: serve.BatcherConfig{MaxBatch: size, MaxDelay: 500 * time.Microsecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			// Keep >= 64 submitters in flight so full batches can form.
			procs := runtime.GOMAXPROCS(0)
			b.SetParallelism((64 + procs - 1) / procs)
			feats := make([]float64, 64)
			for i := range feats {
				feats[i] = rng.NormFloat64()
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := rt.Predict(context.Background(), feats); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			b.ReportMetric(rt.Stats().BatchOccupancy, "rows/batch")
		})
	}
}

// --- Micro-benchmarks of the hot substrate paths ---

// BenchmarkMatMul measures the dense kernel every model rides on.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandNormal(rng, 64, 128, 0, 1)
	w := tensor.RandNormal(rng, 128, 64, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.MatMul(x, w); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMatMulInto times tensor.MatMulInto at one shape and reports the cost
// of one multiply-accumulate, the figure that compares kernels across shapes.
func benchMatMulInto(b *testing.B, rows, inner, cols int) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandNormal(rng, rows, inner, 0, 1)
	w := tensor.RandNormal(rng, inner, cols, 0, 1)
	dst := tensor.New(rows, cols)
	b.Run(fmt.Sprintf("%dx%dx%d", rows, inner, cols), func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tensor.MatMulInto(dst, x, w); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(rows*inner*cols)), "ns/MAC")
	})
}

// BenchmarkMatMulInto measures the destination-passing kernel under the work
// threshold (2^20 MACs), where the portable kernel runs on the calling
// goroutine: BenchmarkMatMul's mobile-scale shape (the delta between the two
// is pure allocation/GC overhead) and predict_single's one-row layer.
// allocs/op here must stay 0.
func BenchmarkMatMulInto(b *testing.B) {
	benchMatMulInto(b, 64, 128, 64)
	benchMatMulInto(b, 1, 64, 64)
}

// BenchmarkMatMulParallel measures the kernel at shapes at or above the
// threshold, where the row blocks fan out across GOMAXPROCS and, on amd64
// with AVX2, the vector kernel runs: three squares and predict_rows' hidden
// layer. ns/MAC here against BenchmarkMatMulInto's is the vector kernel's
// gain (about 0.33 against 0.09 on the 2-vCPU box that recorded CHANGES.md).
func BenchmarkMatMulParallel(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		benchMatMulInto(b, n, n, n)
	}
	benchMatMulInto(b, 32, 1024, 1024)
}

// BenchmarkSparseMatMul measures the pruned-model inference kernel (90%
// sparsity) against the dense baseline above.
func BenchmarkSparseMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := tensor.RandNormal(rng, 128, 64, 0, 1)
	if _, err := compress.PruneMatrix(w, 0.9); err != nil {
		b.Fatal(err)
	}
	csr := compress.ToCSR(w)
	x := tensor.RandNormal(rng, 64, 128, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csr.MatMul(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGRUForward measures one sequence pass of the recurrent encoder.
func BenchmarkGRUForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gru := nn.NewGRU(rng, 8, 32)
	seq := tensor.RandNormal(rng, 50, 8, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gru.ForwardSeq(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGRUForwardPooled measures the steady-state (warm step cache)
// sequence pass: after the first call the GRU rewrites its cached per-step
// matrices through the Into kernels, so allocs/op collapses to the returned
// hidden state — the serving-loop profile, where one recurrent encoder
// instance runs sequence after sequence.
func BenchmarkGRUForwardPooled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gru := nn.NewGRU(rng, 8, 32)
	seq := tensor.RandNormal(rng, 50, 8, 0, 1)
	if _, err := gru.ForwardSeq(seq); err != nil { // warm the step cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gru.ForwardSeq(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGRUBackward measures full backpropagation through time.
func BenchmarkGRUBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gru := nn.NewGRU(rng, 8, 32)
	seq := tensor.RandNormal(rng, 50, 8, 0, 1)
	dLast := tensor.New(1, 32)
	dLast.Fill(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gru.ForwardSeq(seq); err != nil {
			b.Fatal(err)
		}
		if _, err := gru.BackwardLast(dLast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHuffmanEncode measures the Deep Compression entropy-coding stage.
func BenchmarkHuffmanEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	symbols := make([]uint16, 4096)
	freqs := map[uint16]int{}
	for i := range symbols {
		s := uint16(rng.Intn(16))
		if rng.Float64() < 0.6 {
			s = 0
		}
		symbols[i] = s
		freqs[s]++
	}
	hc, err := compress.NewHuffmanCode(freqs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hc.Encode(symbols); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCirculantForward measures the FFT-based block-circulant layer
// (structural-matrix compression, CirCNN [14]) against the dense layer of
// the same shape in BenchmarkDenseForward — the ablation for the DESIGN.md
// "structural matrix" design choice.
func BenchmarkCirculantForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := nn.NewDense(rng, 128, 128)
	bc, err := compress.NewBlockCirculantFromDense(d, 64)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.RandNormal(rng, 16, 128, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDenseForward is the dense counterpart to BenchmarkCirculantForward.
func BenchmarkDenseForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := nn.NewDense(rng, 128, 128)
	x := tensor.RandNormal(rng, 16, 128, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVD measures the one-sided Jacobi decomposition used by the
// low-rank factorization experiments.
func BenchmarkSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.RandNormal(rng, 48, 24, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.SVD(m); err != nil {
			b.Fatal(err)
		}
	}
}
