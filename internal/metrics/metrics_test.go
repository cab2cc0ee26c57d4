package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Fatalf("accuracy %v, want 0.75", acc)
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput, got %v", err)
	}
	if _, err := Accuracy(nil, nil); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput for empty, got %v", err)
	}
}

func TestConfusionMatrixPerfect(t *testing.T) {
	pred := []int{0, 1, 2, 0, 1, 2}
	cm, err := NewConfusionMatrix(pred, pred, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cm.MacroF1() != 1 || cm.MicroF1() != 1 || cm.WeightedF1() != 1 {
		t.Fatalf("perfect predictions should give F1=1: macro=%v micro=%v weighted=%v",
			cm.MacroF1(), cm.MicroF1(), cm.WeightedF1())
	}
}

func TestConfusionMatrixKnown(t *testing.T) {
	// truth:  0 0 0 1 1
	// pred:   0 0 1 1 0
	truth := []int{0, 0, 0, 1, 1}
	pred := []int{0, 0, 1, 1, 0}
	cm, err := NewConfusionMatrix(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, r := cm.PrecisionRecall()
	// class 0: tp=2, predicted=3, actual=3 -> p=2/3, r=2/3
	if math.Abs(p[0]-2.0/3) > 1e-12 || math.Abs(r[0]-2.0/3) > 1e-12 {
		t.Fatalf("class 0 p=%v r=%v, want 2/3", p[0], r[0])
	}
	// class 1: tp=1, predicted=2, actual=2 -> p=1/2, r=1/2
	if math.Abs(p[1]-0.5) > 1e-12 || math.Abs(r[1]-0.5) > 1e-12 {
		t.Fatalf("class 1 p=%v r=%v, want 1/2", p[1], r[1])
	}
	// micro F1 == accuracy == 3/5
	if math.Abs(cm.MicroF1()-0.6) > 1e-12 {
		t.Fatalf("micro F1 %v, want 0.6", cm.MicroF1())
	}
	wantMacro := (2.0/3 + 0.5) / 2
	if math.Abs(cm.MacroF1()-wantMacro) > 1e-12 {
		t.Fatalf("macro F1 %v, want %v", cm.MacroF1(), wantMacro)
	}
}

func TestConfusionMatrixValidation(t *testing.T) {
	if _, err := NewConfusionMatrix([]int{0}, []int{5}, 2); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput for out-of-range label, got %v", err)
	}
	if _, err := NewConfusionMatrix([]int{0}, []int{0}, 0); !errors.Is(err, ErrInput) {
		t.Fatalf("want ErrInput for zero classes, got %v", err)
	}
}

func TestMicroF1EqualsAccuracyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		classes := 2 + rng.Intn(5)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = rng.Intn(classes)
			truth[i] = rng.Intn(classes)
		}
		acc, err := Accuracy(pred, truth)
		if err != nil {
			return false
		}
		cm, err := NewConfusionMatrix(pred, truth, classes)
		if err != nil {
			return false
		}
		return math.Abs(cm.MicroF1()-acc) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateReport(t *testing.T) {
	rep, err := Evaluate([]int{0, 1, 1, 0}, []int{0, 1, 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy != 0.75 || rep.MicroF1 != 0.75 {
		t.Fatalf("report %+v", rep)
	}
	if rep.F1 <= 0 || rep.F1 > 1 || rep.MacroF1 <= 0 || rep.MacroF1 > 1 {
		t.Fatalf("F1 out of range: %+v", rep)
	}
}
