package baselines

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mobiledl/internal/metrics"
	"mobiledl/internal/tensor"
)

// blobs builds a linearly separable-ish multi-class dataset.
func blobs(seed int64, n, classes, dim int, spread float64) (*tensor.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 3
		}
	}
	x := tensor.New(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		row := x.Row(i)
		for j := range row {
			row[j] = centers[c][j] + spread*rng.NormFloat64()
		}
	}
	return x, labels
}

// xorData builds the classic non-linearly-separable XOR pattern.
func xorData(seed int64, n int) (*tensor.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		labels[i] = a ^ b
		x.Set(i, 0, float64(a)+0.2*rng.NormFloat64())
		x.Set(i, 1, float64(b)+0.2*rng.NormFloat64())
	}
	return x, labels
}

func fitAndScore(t *testing.T, m Classifier, x *tensor.Matrix, labels []int, classes int) float64 {
	t.Helper()
	if err := m.Fit(x, labels, classes); err != nil {
		t.Fatalf("%s fit: %v", m.Name(), err)
	}
	preds, err := m.Predict(x)
	if err != nil {
		t.Fatalf("%s predict: %v", m.Name(), err)
	}
	acc, err := metrics.Accuracy(preds, labels)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestAllClassifiersOnBlobs(t *testing.T) {
	x, labels := blobs(1, 300, 4, 6, 0.5)
	for _, m := range []Classifier{
		NewLogisticRegression(),
		NewLinearSVM(),
		NewDecisionTree(),
		NewRandomForest(),
		NewGradientBoosting(),
	} {
		t.Run(m.Name(), func(t *testing.T) {
			if acc := fitAndScore(t, m, x, labels, 4); acc < 0.9 {
				t.Fatalf("%s accuracy %v on separable blobs", m.Name(), acc)
			}
		})
	}
}

func TestTreesBeatLinearOnXOR(t *testing.T) {
	// XOR is the canonical case where linear models fail and trees succeed;
	// this mirrors the paper's observation that LR/SVM underperform on
	// structured tasks while tree ensembles do well.
	x, labels := xorData(2, 400)
	lrAcc := fitAndScore(t, NewLogisticRegression(), x, labels, 2)
	treeAcc := fitAndScore(t, NewDecisionTree(), x, labels, 2)
	boostAcc := fitAndScore(t, NewGradientBoosting(), x, labels, 2)
	if treeAcc < 0.9 || boostAcc < 0.9 {
		t.Fatalf("tree=%v boost=%v on XOR, want >= 0.9", treeAcc, boostAcc)
	}
	if lrAcc > 0.75 {
		t.Fatalf("LR accuracy %v on XOR; should be near chance", lrAcc)
	}
	if treeAcc <= lrAcc || boostAcc <= lrAcc {
		t.Fatal("trees should beat linear models on XOR")
	}
}

func TestPredictBeforeFit(t *testing.T) {
	x := tensor.New(2, 2)
	for _, m := range []Classifier{
		NewLogisticRegression(),
		NewLinearSVM(),
		NewDecisionTree(),
		NewRandomForest(),
		NewGradientBoosting(),
	} {
		if _, err := m.Predict(x); !errors.Is(err, ErrNotFitted) {
			t.Fatalf("%s: want ErrNotFitted, got %v", m.Name(), err)
		}
	}
}

func TestFitValidation(t *testing.T) {
	x, labels := blobs(3, 20, 2, 3, 0.3)
	m := NewDecisionTree()
	if err := m.Fit(x, labels[:10], 2); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput for label length mismatch, got %v", err)
	}
	if err := m.Fit(x, labels, 1); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput for 1 class, got %v", err)
	}
	bad := append([]int(nil), labels...)
	bad[0] = 9
	if err := m.Fit(x, bad, 2); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput for out-of-range label, got %v", err)
	}
}

func TestForestDeterminism(t *testing.T) {
	x, labels := blobs(4, 150, 3, 5, 0.6)
	a := NewRandomForest()
	b := NewRandomForest()
	if err := a.Fit(x, labels, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, labels, 3); err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Predict(x)
	pb, _ := b.Predict(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed gave different forest predictions")
		}
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	// With high spread and held-out data, bagging should not lose to a
	// single deep tree (variance reduction).
	xTrain, yTrain := blobs(5, 300, 3, 8, 2.2)
	xTest, yTest := blobs(6, 300, 3, 8, 2.2)
	_ = xTest
	_ = yTest
	// Use same centers: regenerate test from same seed's centers by reusing
	// seed 5 with different noise is not possible here, so evaluate on train
	// fit quality instead via a fresh split of one dataset.
	half := 150
	xTr, _ := xTrain.SliceRows(0, half)
	xTe, _ := xTrain.SliceRows(half, 300)
	yTr, yTe := yTrain[:half], yTrain[half:]

	tree := NewDecisionTree()
	if err := tree.Fit(xTr, yTr, 3); err != nil {
		t.Fatal(err)
	}
	forest := NewRandomForest()
	if err := forest.Fit(xTr, yTr, 3); err != nil {
		t.Fatal(err)
	}
	tp, _ := tree.Predict(xTe)
	fp, _ := forest.Predict(xTe)
	ta, _ := metrics.Accuracy(tp, yTe)
	fa, _ := metrics.Accuracy(fp, yTe)
	if fa+0.02 < ta {
		t.Fatalf("forest (%v) materially worse than single tree (%v)", fa, ta)
	}
}

func TestTreeDepthRespected(t *testing.T) {
	x, labels := blobs(7, 200, 4, 5, 1.0)
	tree := &DecisionTree{MaxDepth: 3, MinSamplesLeaf: 1, Seed: 1}
	if err := tree.Fit(x, labels, 4); err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 3 {
		t.Fatalf("tree depth %d exceeds MaxDepth 3", d)
	}
}

func TestBoostingImprovesWithRounds(t *testing.T) {
	x, labels := xorData(8, 300)
	weak := &GradientBoosting{Rounds: 1, MaxDepth: 2, Eta: 0.3, Lambda: 1, MinChildWeight: 1}
	strong := &GradientBoosting{Rounds: 30, MaxDepth: 2, Eta: 0.3, Lambda: 1, MinChildWeight: 1}
	weakAcc := fitAndScore(t, weak, x, labels, 2)
	strongAcc := fitAndScore(t, strong, x, labels, 2)
	if strongAcc <= weakAcc {
		t.Fatalf("boosting did not improve with rounds: %v -> %v", weakAcc, strongAcc)
	}
}

// Depth returns the depth of the fitted tree (0 for a stump/leaf).
func (m *DecisionTree) Depth() int { return nodeDepth(m.root) }

func nodeDepth(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	return 1 + int(math.Max(float64(nodeDepth(n.left)), float64(nodeDepth(n.right))))
}
