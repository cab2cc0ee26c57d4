package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"mobiledl/internal/compress"
	"mobiledl/internal/data"
	"mobiledl/internal/nn"
	"mobiledl/internal/opt"
)

func init() {
	register("compress", "III-B ([28]): Deep Compression prune->quantize->Huffman ratio vs accuracy", runCompress)
	register("lowrank", "III-B ([36]): low-rank SVD factorization — params saved vs accuracy", runLowRank)
	register("distill", "III-B ([37]): knowledge distillation — student size vs accuracy", runDistill)
}

// compressionTask trains the reference classifier every compression
// experiment starts from.
func compressionTask(scale Scale) (*nn.Sequential, func() *nn.Sequential, *data.FedBench, error) {
	samples := 500
	epochs := 20
	hidden := 48
	if scale == Full {
		samples = 1500
		epochs = 40
		hidden = 96
	}
	fb, err := data.GenerateFedBench(data.FedBenchConfig{Samples: samples, Classes: 5, Dim: 16, Seed: 1200})
	if err != nil {
		return nil, nil, nil, err
	}
	build := func() *nn.Sequential {
		r := rand.New(rand.NewSource(61))
		return nn.NewSequential(
			nn.NewDense(r, 16, hidden),
			nn.NewReLU(),
			nn.NewDense(r, hidden, hidden/2),
			nn.NewReLU(),
			nn.NewDense(r, hidden/2, 5),
		)
	}
	model := build()
	y, err := nn.OneHot(fb.Labels, 5)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := nn.Train(model, fb.X, y, nn.TrainConfig{
		Epochs: epochs, BatchSize: 32, Optimizer: opt.NewAdam(0.01),
		Loss: nn.NewSoftmaxCrossEntropy(), Rng: rand.New(rand.NewSource(62)),
	}); err != nil {
		return nil, nil, nil, err
	}
	return model, build, fb, nil
}

// CompressRow is one Deep Compression setting (E9).
type CompressRow struct {
	Sparsity float64
	Bits     int
	Ratio    float64
	BaseAcc  float64
	CompAcc  float64
}

// Compression sweeps pruning sparsity and quantization bit width.
func Compression(scale Scale) ([]CompressRow, error) {
	model, _, fb, err := compressionTask(scale)
	if err != nil {
		return nil, err
	}
	baseAcc, err := compress.EvalAccuracy(model, fb.X, fb.Labels)
	if err != nil {
		return nil, err
	}
	settings := []struct {
		sparsity float64
		bits     int
	}{
		{0.5, 8}, {0.7, 5}, {0.9, 4}, {0.95, 3},
	}
	var rows []CompressRow
	for _, s := range settings {
		work, err := compress.CopyModel(model)
		if err != nil {
			return nil, err
		}
		res, err := compress.RunPipeline(work, compress.PipelineConfig{Sparsity: s.sparsity, Bits: s.bits})
		if err != nil {
			return nil, err
		}
		acc, err := compress.EvalAccuracy(res.Model, fb.X, fb.Labels)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CompressRow{
			Sparsity: s.sparsity, Bits: s.bits,
			Ratio: res.Sizes.Ratio(), BaseAcc: baseAcc, CompAcc: acc,
		})
	}
	return rows, nil
}

func runCompress(w io.Writer, scale Scale) error {
	rows, err := Compression(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %6s %12s %12s %14s\n", "sparsity", "bits", "ratio", "base acc", "compressed acc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10.2f %6d %11.1fx %12s %14s\n",
			r.Sparsity, r.Bits, r.Ratio, pct(r.BaseAcc), pct(r.CompAcc))
	}
	fmt.Fprintln(w, "\nPaper (III-B, [28]): pruning + weight-sharing quantization + Huffman coding")
	fmt.Fprintln(w, "compress networks 35-49x with negligible accuracy loss; aggressive settings")
	fmt.Fprintln(w, "trade further size for accuracy.")
	return nil
}

// LowRankRow is one rank-fraction setting (E10).
type LowRankRow struct {
	RankFraction float64
	ParamsBefore int
	ParamsAfter  int
	BaseAcc      float64
	FactoredAcc  float64
}

// LowRank sweeps the SVD rank fraction.
func LowRank(scale Scale) ([]LowRankRow, error) {
	model, _, fb, err := compressionTask(scale)
	if err != nil {
		return nil, err
	}
	baseAcc, err := compress.EvalAccuracy(model, fb.X, fb.Labels)
	if err != nil {
		return nil, err
	}
	var rows []LowRankRow
	for _, frac := range []float64{0.75, 0.5, 0.25, 0.1} {
		work, err := compress.CopyModel(model)
		if err != nil {
			return nil, err
		}
		fm, before, after, err := compress.FactorizeModel(work, frac)
		if err != nil {
			return nil, err
		}
		acc, err := compress.EvalAccuracy(fm, fb.X, fb.Labels)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LowRankRow{
			RankFraction: frac, ParamsBefore: before, ParamsAfter: after,
			BaseAcc: baseAcc, FactoredAcc: acc,
		})
	}
	return rows, nil
}

func runLowRank(w io.Writer, scale Scale) error {
	rows, err := LowRank(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %14s %14s %12s %14s\n", "rank fraction", "params before", "params after", "base acc", "factored acc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14.2f %14d %14d %12s %14s\n",
			r.RankFraction, r.ParamsBefore, r.ParamsAfter, pct(r.BaseAcc), pct(r.FactoredAcc))
	}
	fmt.Fprintln(w, "\nPaper (III-B, [36]): dense/conv layers carry heavy redundancy; moderate rank")
	fmt.Fprintln(w, "truncation saves parameters with little accuracy loss, aggressive ranks degrade.")
	return nil
}

// DistillRow is one student configuration (E11).
type DistillRow struct {
	StudentHidden int
	StudentParams int
	PlainAcc      float64 // trained on hard labels only
	DistilledAcc  float64 // trained with the teacher
	TeacherAcc    float64
	TeacherParams int
}

// Distillation compares plain vs distilled students of shrinking capacity.
func Distillation(scale Scale) ([]DistillRow, error) {
	teacher, _, fb, err := compressionTask(scale)
	if err != nil {
		return nil, err
	}
	teacherAcc, err := compress.EvalAccuracy(teacher, fb.X, fb.Labels)
	if err != nil {
		return nil, err
	}
	teacherParams := nn.NumParams(teacher.Params())
	epochs := 15
	if scale == Full {
		epochs = 30
	}
	var rows []DistillRow
	for _, hidden := range []int{12, 6, 3} {
		newStudent := func(seed int64) *nn.Sequential {
			r := rand.New(rand.NewSource(seed))
			return nn.NewSequential(nn.NewDense(r, 16, hidden), nn.NewReLU(), nn.NewDense(r, hidden, 5))
		}
		// Plain student: hard labels only.
		plain := newStudent(71)
		y, err := nn.OneHot(fb.Labels, 5)
		if err != nil {
			return nil, err
		}
		if _, err := nn.Train(plain, fb.X, y, nn.TrainConfig{
			Epochs: epochs, BatchSize: 32, Optimizer: opt.NewAdam(0.01),
			Loss: nn.NewSoftmaxCrossEntropy(), Rng: rand.New(rand.NewSource(72)),
		}); err != nil {
			return nil, err
		}
		plainAcc, err := compress.EvalAccuracy(plain, fb.X, fb.Labels)
		if err != nil {
			return nil, err
		}
		// Distilled student.
		distilled := newStudent(71)
		if _, err := compress.Distill(teacher, distilled, fb.X, fb.Labels, 5, compress.DistillConfig{
			Epochs: epochs, BatchSize: 32, Temperature: 3, Alpha: 0.7,
			Optimizer: opt.NewAdam(0.01), Seed: 73,
		}); err != nil {
			return nil, err
		}
		distAcc, err := compress.EvalAccuracy(distilled, fb.X, fb.Labels)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DistillRow{
			StudentHidden: hidden,
			StudentParams: nn.NumParams(distilled.Params()),
			PlainAcc:      plainAcc,
			DistilledAcc:  distAcc,
			TeacherAcc:    teacherAcc,
			TeacherParams: teacherParams,
		})
	}
	return rows, nil
}

func runDistill(w io.Writer, scale Scale) error {
	rows, err := Distillation(scale)
	if err != nil {
		return err
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "teacher: %d params, accuracy %s\n\n", rows[0].TeacherParams, pct(rows[0].TeacherAcc))
	}
	fmt.Fprintf(w, "%-16s %10s %12s %14s\n", "student hidden", "params", "plain acc", "distilled acc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16d %10d %12s %14s\n",
			r.StudentHidden, r.StudentParams, pct(r.PlainAcc), pct(r.DistilledAcc))
	}
	fmt.Fprintln(w, "\nPaper (III-B, [37]): a small student mimicking a teacher's softened outputs")
	fmt.Fprintln(w, "retains more accuracy than the same student trained on hard labels alone.")
	return nil
}
